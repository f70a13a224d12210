/**
 * @file
 * SIMD (struct-of-arrays) forms of the kernel-family cell updates, used
 * by the lane engine's vectorized inner loop.
 *
 * These mirror the scalar helpers in `detail.hh` operation for
 * operation — same candidate order, same strictly-greater selects, same
 * after-the-fact traceback-source decode — so every lane of a vector
 * cell is bit-identical to the scalar recurrence (enforced by
 * tests/test_lane_batching.cc, which diffs the lane engine against
 * scalar engine runs for every hooked kernel).
 *
 * Implementation uses the GNU vector extension (`vector_size`), which
 * GCC and Clang lower to SSE/AVX/NEON as available and split for
 * narrower ISAs; comparisons yield all-ones/zero lane masks, selects
 * are element-wise `?:` and max/min lower to the native vector max/min
 * where the ISA has one, so the code is branch-free by construction. On
 * compilers without the extension, DPHLS_VEC stays undefined and the
 * lane engine falls back to its scalar per-lane loop.
 */

#ifndef DPHLS_KERNELS_DETAIL_SIMD_HH
#define DPHLS_KERNELS_DETAIL_SIMD_HH

#include <cstddef>
#include <cstdint>

#include "kernels/detail.hh"

#if defined(__GNUC__) || defined(__clang__)
#define DPHLS_VEC 1
#endif

#ifdef DPHLS_VEC

/**
 * Force-inline marker for the lane-cell helpers. The sweep bodies are
 * compiled once per ISA tier into separate translation units with
 * different -m flags (systolic/lane_sweep_*.cc); if any of these
 * helpers were emitted out of line they would be weak COMDAT symbols
 * with one definition per tier, and the linker could legally resolve a
 * baseline TU's call to an AVX-512 copy. Forcing inlining keeps every
 * tier's instructions inside that tier's own sweep function.
 */
#define DPHLS_SIMD_INLINE inline __attribute__((always_inline))

namespace dphls::kernels::detail::simd {

/**
 * Pack of W 32-bit score lanes at the vector's natural alignment: the
 * engine allocates its SoA rows on 64-byte boundaries (the AVX-512
 * vector) and lays lanes out at stride W, so every (layer, column)
 * slot is naturally aligned and plain dereferences lower to aligned
 * vector loads. W must be a power of two (4, 8 or 16).
 */
template <int W>
struct VecPack;

template <>
struct VecPack<4>
{
    typedef int32_t I32 __attribute__((vector_size(16)));
    typedef uint8_t U8 __attribute__((vector_size(4), aligned(1)));
};
template <>
struct VecPack<8>
{
    typedef int32_t I32 __attribute__((vector_size(32)));
    typedef uint8_t U8 __attribute__((vector_size(8), aligned(1)));
};
template <>
struct VecPack<16>
{
    typedef int32_t I32 __attribute__((vector_size(64)));
    typedef uint8_t U8 __attribute__((vector_size(16), aligned(1)));
};

/**
 * The AVX-512 vector bounds the alignment any tier needs; the engine's
 * SoA allocations use this so one buffer serves every tier.
 */
inline constexpr size_t kLaneRowAlign = 64;

// What makes direct (aligned) slot dereferences legal on the SoA rows:
// bases are kLaneRowAlign-aligned and slots sit at multiples of the
// pack size, so every slot is aligned as long as kLaneRowAlign is a
// multiple of each pack's size (a pack's alignment never exceeds its
// size; GCC caps alignof at the TU's largest native vector). If a
// wider pack or an aligned(n) attribute ever sneaks in, these trip
// instead of faulting at runtime on the widest tier.
static_assert(kLaneRowAlign % sizeof(VecPack<4>::I32) == 0);
static_assert(kLaneRowAlign % sizeof(VecPack<8>::I32) == 0);
static_assert(kLaneRowAlign % sizeof(VecPack<16>::I32) == 0);
static_assert(alignof(VecPack<16>::I32) <= kLaneRowAlign);

/** Broadcast a scalar into every lane. */
template <typename V>
DPHLS_SIMD_INLINE V
splat(int32_t v)
{
    return V{} + v;
}

/**
 * Lane-mask select: an element select, so it lowers to a blend (or a
 * k-mask move) instead of and/andnot/or. Every caller passes a
 * comparison result or a bitwise combination of them, whose lanes are
 * all-ones (take a) or zero (take b).
 */
template <typename V>
DPHLS_SIMD_INLINE V
sel(V mask, V a, V b)
{
    return mask ? a : b;
}

/**
 * Lane-wise max, lowered to the native vector max. On int32 lanes the
 * tie winner cannot change the value, so this equals detail::maxOf;
 * traceback pointers come from their own ==/> compares, never from
 * which operand won.
 */
template <typename V>
DPHLS_SIMD_INLINE V
maxV(V a, V b)
{
    return b > a ? b : a;
}

/** Lane-wise min, lowered to the native vector min. */
template <typename V>
DPHLS_SIMD_INLINE V
minV(V a, V b)
{
    return b < a ? b : a;
}

/** Linear-gap family (mirrors detail::linearCell). */
template <typename V>
DPHLS_SIMD_INLINE void
linearCellV(const V *up, const V *left, const V *diag, V subst, V gap,
            bool clamp_zero, V *score, V &ptr)
{
    const V mat = diag[0] + subst;
    const V ins = up[0] + gap;
    const V del = left[0] + gap;
    V best = maxV(maxV(mat, ins), del);
    const V clamp = clamp_zero ? (best < V{}) : V{};
    best = clamp_zero ? maxV(best, V{}) : best;

    V p = splat<V>(core::tb::Left);
    p = sel(best == ins, splat<V>(core::tb::Up), p);
    p = sel(best == mat, splat<V>(core::tb::Diag), p);
    p = sel(clamp, splat<V>(core::tb::End), p);
    score[0] = best;
    ptr = p;
}

/** Affine-gap family (mirrors detail::affineCell). */
template <typename V>
DPHLS_SIMD_INLINE void
affineCellV(const V *up, const V *left, const V *diag, V subst, V open,
            V extend, bool clamp_zero, V *score, V &ptr)
{
    using namespace affine_ptr;
    V p = V{};
    const V ixo = up[0] - open;
    const V ixe = up[1] - extend;
    const V mx = ixe > ixo;
    const V ix = sel(mx, ixe, ixo);
    p |= mx & splat<V>(IxExtBit);

    const V iyo = left[0] - open;
    const V iye = left[2] - extend;
    const V my = iye > iyo;
    const V iy = sel(my, iye, iyo);
    p |= my & splat<V>(IyExtBit);

    const V mat = diag[0] + subst;
    V h = maxV(maxV(mat, ix), iy);
    const V clamp = clamp_zero ? (h < V{}) : V{};
    h = clamp_zero ? maxV(h, V{}) : h;

    V src = splat<V>(HIy);
    src = sel(h == ix, splat<V>(HIx), src);
    src = sel(h == mat, splat<V>(HDiag), src);
    src = sel(clamp, splat<V>(HEnd), src);
    score[0] = h;
    score[1] = ix;
    score[2] = iy;
    ptr = p | src;
}

/** Two-piece affine family (mirrors detail::twoPieceCell). */
template <typename V>
DPHLS_SIMD_INLINE void
twoPieceCellV(const V *up, const V *left, const V *diag, V subst, V open1,
              V extend1, V open2, V extend2, bool clamp_zero, V *score,
              V &ptr)
{
    using namespace two_piece_ptr;
    V p = V{};
    const V ixo = up[0] - open1, ixe = up[1] - extend1;
    const V mx = ixe > ixo;
    const V ix = sel(mx, ixe, ixo);
    p |= mx & splat<V>(IxExtBit);

    const V iyo = left[0] - open1, iye = left[2] - extend1;
    const V my = iye > iyo;
    const V iy = sel(my, iye, iyo);
    p |= my & splat<V>(IyExtBit);

    const V ix2o = up[0] - open2, ix2e = up[3] - extend2;
    const V mx2 = ix2e > ix2o;
    const V ix2 = sel(mx2, ix2e, ix2o);
    p |= mx2 & splat<V>(Ix2ExtBit);

    const V iy2o = left[0] - open2, iy2e = left[4] - extend2;
    const V my2 = iy2e > iy2o;
    const V iy2 = sel(my2, iy2e, iy2o);
    p |= my2 & splat<V>(Iy2ExtBit);

    const V mat = diag[0] + subst;
    V h = maxV(maxV(maxV(mat, ix), maxV(iy, ix2)), iy2);
    const V clamp = clamp_zero ? (h < V{}) : V{};
    h = clamp_zero ? maxV(h, V{}) : h;

    V src = splat<V>(HIy2);
    src = sel(h == ix2, splat<V>(HIx2), src);
    src = sel(h == iy, splat<V>(HIy), src);
    src = sel(h == ix, splat<V>(HIx), src);
    src = sel(h == mat, splat<V>(HDiag), src);
    src = sel(clamp, splat<V>(HEnd), src);
    score[0] = h;
    score[1] = ix;
    score[2] = iy;
    score[3] = ix2;
    score[4] = iy2;
    ptr = p | src;
}

/**
 * Family-level lane cells for the DNA kernels: substitution score from a
 * lane-wise match/mismatch select, then the family recurrence. Kernel
 * headers forward their `laneCell` here.
 */
template <typename V, typename Params>
DPHLS_SIMD_INLINE void
dnaLinearLaneCell(const V *up, const V *left, const V *diag, V qry, V ref,
                  const Params &p, bool clamp_zero, V *score, V &ptr)
{
    const V subst =
        sel(qry == ref, splat<V>(p.match), splat<V>(p.mismatch));
    linearCellV(up, left, diag, subst, splat<V>(p.linearGap), clamp_zero,
                score, ptr);
}

template <typename V, typename Params>
DPHLS_SIMD_INLINE void
dnaAffineLaneCell(const V *up, const V *left, const V *diag, V qry, V ref,
                  const Params &p, bool clamp_zero, V *score, V &ptr)
{
    const V subst =
        sel(qry == ref, splat<V>(p.match), splat<V>(p.mismatch));
    affineCellV(up, left, diag, subst, splat<V>(p.gapOpen),
                splat<V>(p.gapExtend), clamp_zero, score, ptr);
}

template <typename V, typename Params>
DPHLS_SIMD_INLINE void
dnaTwoPieceLaneCell(const V *up, const V *left, const V *diag, V qry,
                    V ref, const Params &p, bool clamp_zero, V *score,
                    V &ptr)
{
    const V subst =
        sel(qry == ref, splat<V>(p.match), splat<V>(p.mismatch));
    twoPieceCellV(up, left, diag, subst, splat<V>(p.gapOpen1),
                  splat<V>(p.gapExtend1), splat<V>(p.gapOpen2),
                  splat<V>(p.gapExtend2), clamp_zero, score, ptr);
}

/**
 * Protein local-linear lane cell: the substitution score is a per-lane
 * gather from the dense 20x20 matrix (ISAs without a real gather lower
 * to exactly this scalar loop; the DP recurrence itself — the adds,
 * maxes, clamp and traceback decode — stays fully vectorized), then the
 * shared linear-gap recurrence. Lane character codes beyond a pair's
 * own length are default-encoded (0), a valid matrix row/column, so the
 * gather never reads out of bounds.
 */
template <typename V, typename Params>
DPHLS_SIMD_INLINE void
proteinLocalLaneCell(const V *up, const V *left, const V *diag, V qry,
                     V ref, const Params &p, V *score, V &ptr)
{
    constexpr int W = static_cast<int>(sizeof(V) / sizeof(int32_t));
    V subst{};
    for (int lane = 0; lane < W; lane++)
        subst[lane] = p.subst(qry[lane], ref[lane]);
    linearCellV(up, left, diag, subst, splat<V>(p.linearGap), true, score,
                ptr);
}

/** sDTW distance cell (mirrors kernels::Sdtw::peFunc). */
template <typename V>
DPHLS_SIMD_INLINE void
sdtwCellV(const V *up, const V *left, const V *diag, V qry, V ref,
          V *score, V &ptr)
{
    const V d = sel(qry > ref, qry - ref, ref - qry);
    V best = diag[0];
    V p = splat<V>(core::tb::Diag);
    const V mu = up[0] < best;
    best = sel(mu, up[0], best);
    p = sel(mu, splat<V>(core::tb::Up), p);
    const V ml = left[0] < best;
    best = sel(ml, left[0], best);
    p = sel(ml, splat<V>(core::tb::Left), p);
    score[0] = best + d;
    ptr = p;
}

/**
 * Viterbi (pair-HMM) lane cell over raw ApFixed<32,14> lane values.
 *
 * ApFixed<32,.> add/subtract/compare are exactly int32 wrap-around
 * add/subtract/compare on the normalized raw value (the fixed-point
 * scale only matters for multiplication, which this recurrence never
 * does), so the three-layer log-space recurrence runs directly on int32
 * lanes. The emission/Q terms are per-lane gathers from the 5x5 and
 * 5-entry tables (character codes, including the padding lanes'
 * default 0, always index in bounds); the adds and strictly-greater
 * maxima stay fully vectorized and take the same values as
 * Viterbi::peFunc's candidate chain (a max has one value whichever
 * operand wins a tie).
 */
template <typename V, typename Params>
DPHLS_SIMD_INLINE void
viterbiLaneCell(const V *up, const V *left, const V *diag, V qry, V ref,
                const Params &p, V *score, V &ptr)
{
    constexpr int W = static_cast<int>(sizeof(V) / sizeof(int32_t));
    V em{}, gq{}, gr{};
    for (int lane = 0; lane < W; lane++) {
        const int x = qry[lane];
        const int y = ref[lane];
        em[lane] = static_cast<int32_t>(p.logEmission[x][y].raw());
        gq[lane] = static_cast<int32_t>(p.logQ[x].raw());
        gr[lane] = static_cast<int32_t>(p.logQ[y].raw());
    }

    const V trans1me =
        splat<V>(static_cast<int32_t>(p.log1MEpsilon.raw()));
    V vm = splat<V>(static_cast<int32_t>(p.log1M2Delta.raw())) + diag[0];
    vm = maxV(vm, trans1me + diag[1]);
    vm = maxV(vm, trans1me + diag[2]);
    vm += em;

    const V delta = splat<V>(static_cast<int32_t>(p.logDelta.raw()));
    const V eps = splat<V>(static_cast<int32_t>(p.logEpsilon.raw()));
    const V vi = maxV(delta + up[0], eps + up[1]) + gq;
    const V vj = maxV(delta + left[0], eps + left[2]) + gr;

    score[0] = vm;
    score[1] = vi;
    score[2] = vj;
    ptr = V{}; // no traceback (tbPtrBits == 0)
}

/**
 * DTW lane cell over raw ApFixed<32,26> lane values. The character
 * planes carry the raw real/imag parts of each complex sample. The
 * squared-distance products need the 64-bit intermediate of
 * ApFixed::operator* and run as a per-lane scalar loop mirroring
 * Dtw::distance term for term (wrap-around subtract, (a*b)>>fracBits
 * with fracBits = 6, wrap-around adds); the min chain and accumulate
 * stay vectorized with sdtwCellV's strictly-less Diag>Up>Left order.
 */
template <typename V>
DPHLS_SIMD_INLINE void
dtwLaneCell(const V *up, const V *left, const V *diag, const V *qry,
            const V *ref, V *score, V &ptr)
{
    constexpr int W = static_cast<int>(sizeof(V) / sizeof(int32_t));
    V d{};
    for (int lane = 0; lane < W; lane++) {
        const int32_t dr = static_cast<int32_t>(
            static_cast<uint32_t>(qry[0][lane]) -
            static_cast<uint32_t>(ref[0][lane]));
        const int32_t di = static_cast<int32_t>(
            static_cast<uint32_t>(qry[1][lane]) -
            static_cast<uint32_t>(ref[1][lane]));
        const int32_t dr2 = static_cast<int32_t>(
            (static_cast<int64_t>(dr) * dr) >> 6);
        const int32_t di2 = static_cast<int32_t>(
            (static_cast<int64_t>(di) * di) >> 6);
        d[lane] = static_cast<int32_t>(static_cast<uint32_t>(dr2) +
                                       static_cast<uint32_t>(di2));
    }

    V best = diag[0];
    V p = splat<V>(core::tb::Diag);
    const V mu = up[0] < best;
    best = sel(mu, up[0], best);
    p = sel(mu, splat<V>(core::tb::Up), p);
    const V ml = left[0] < best;
    best = sel(ml, left[0], best);
    p = sel(ml, splat<V>(core::tb::Left), p);
    score[0] = best + d;
    ptr = p;
}

/**
 * Profile-alignment lane cell. The five character planes carry each
 * profile column's frequency tuple, so the sum-of-pairs double
 * matrix-vector product becomes 30 fully vectorized multiply-adds
 * (no gathers at all: the pair-score matrix entries are splat
 * constants). Arithmetic is int32 exactly like the scalar
 * sumOfPairs/gapColumnScore, and the Diag>Up>Left strictly-greater
 * decode mirrors ProfileAlignment::peFunc.
 */
template <typename V, typename Params>
DPHLS_SIMD_INLINE void
profileLaneCell(const V *up, const V *left, const V *diag, const V *qry,
                const V *ref, const Params &p, V *score, V &ptr)
{
    V subst = V{}, gq = V{}, gr = V{};
    for (int a = 0; a < 5; a++) {
        V row = V{};
        for (int b = 0; b < 5; b++)
            row += splat<V>(p.pairScore[a][b]) * ref[b];
        subst += row * qry[a];
        gq += splat<V>(p.pairScore[a][4]) * qry[a];
        gr += splat<V>(p.pairScore[a][4]) * ref[a];
    }
    const V scale = splat<V>(p.gapScale);
    gq *= scale;
    gr *= scale;

    const V mat = diag[0] + subst;
    const V ins = up[0] + gq;
    const V del = left[0] + gr;
    V best = mat;
    V pp = splat<V>(core::tb::Diag);
    const V mi = ins > best;
    best = sel(mi, ins, best);
    pp = sel(mi, splat<V>(core::tb::Up), pp);
    const V md = del > best;
    best = sel(md, del, best);
    pp = sel(md, splat<V>(core::tb::Left), pp);
    score[0] = best;
    ptr = pp;
}

} // namespace dphls::kernels::detail::simd

#endif // DPHLS_VEC

#endif // DPHLS_KERNELS_DETAIL_SIMD_HH
