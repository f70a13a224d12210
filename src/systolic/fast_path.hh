/**
 * @file
 * The row-major fast functional path of the systolic engine.
 *
 * The wavefront schedule in `wavefront_path.hh` is what the hardware
 * executes, but its cycle statistics are *analytic* (trip-count formulas
 * over the chunk bounds) — nothing about the cycle numbers requires the
 * host simulator to actually visit cells in wavefront order. This path
 * exploits that: it computes the same recurrence cache-blocked and
 * row-major over two flattened per-layer row buffers, handles the fixed
 * band with loop bounds instead of per-cell validity branches, writes
 * traceback pointers into one pre-reserved band-compressed bank, and
 * reproduces the PE reduction exactly (first optimum in (row, col)
 * scan order, which is what the per-PE tracking plus the reduction
 * tree's tie-break produce).
 *
 * Equivalence argument (enforced by tests/test_fastpath_equivalence.cc):
 *
 *  - kernel PE functions depend only on the three neighbor scores and
 *    the two characters, never on the schedule;
 *  - the wavefront path feeds `worst` for every neighbor outside the
 *    band (invalid cells write `worst`, stale preserved-row entries
 *    fetch `worst`), which is exactly the boundary value this path
 *    maintains at the band edges;
 *  - cycle statistics are recomputed from the same trip-count formulas
 *    (`accountFill`), so they are bit-identical by construction.
 */

#ifndef DPHLS_SYSTOLIC_FAST_PATH_HH
#define DPHLS_SYSTOLIC_FAST_PATH_HH

#include <array>
#include <vector>

#include "systolic/engine_common.hh"

namespace dphls::sim {

/**
 * Reusable buffers of the fast path. Owning them in the aligner object
 * lets batch hosts amortize the row buffers and the traceback bank
 * across alignments instead of reallocating per pair.
 */
template <core::KernelSpec K>
struct FastWorkspace
{
    std::array<std::vector<typename K::ScoreT>, K::nLayers> rowPrev;
    std::array<std::vector<typename K::ScoreT>, K::nLayers> rowCur;
    /** Band-compressed traceback bank, rows concatenated. */
    std::vector<core::TbPtr> tb;
    /** Offset of row i's first in-band cell inside `tb`. */
    std::vector<int64_t> rowBase;
};

/**
 * Everything the traceback stage needs after the DP fill of one pair.
 *
 * The state borrows the workspace's traceback bank; `fastAlign` moves
 * the buffers back afterwards to keep the allocation amortization.
 * `stats` holds the load/init + fill components on return from
 * `fastFill`; the traceback stage adds its reduction/traceback/writeback
 * components in place.
 */
template <core::KernelSpec K>
struct FastFillState
{
    int qlen = 0;
    int rlen = 0;
    int band = 0;
    bool keepTb = false;
    bool found = false;
    typename K::ScoreT bestScore{};
    core::Coord bestCell{};
    CycleStats stats;
    std::vector<core::TbPtr> tb;
    std::vector<int64_t> rowBase;
};

/** Fill stage of the fast path: DP fill + optimum tracking, no traceback. */
template <core::KernelSpec K>
void
fastFill(const EngineConfig &cfg, const typename K::Params &params,
         const seq::Sequence<typename K::CharT> &query,
         const seq::Sequence<typename K::CharT> &reference,
         FastWorkspace<K> &ws, FastFillState<K> &st)
{
    CycleStats &stats = st.stats;
    using ScoreT = typename K::ScoreT;
    constexpr int nLayers = K::nLayers;

    const int qlen = query.length();
    const int rlen = reference.length();
    const int band = cfg.bandWidth;
    const auto worst = core::scoreSentinelWorst<ScoreT>(K::objective);
    const bool keep_tb = K::hasTraceback && !cfg.skipTraceback;

    stats = CycleStats{};
    accountLoadInit<K>(cfg, qlen, rlen, stats);
    accountFill<K>(cfg, qlen, rlen, stats);

    const auto j_lo = [&](int i) { return bandJLo<K>(i, band); };
    const auto j_hi = [&](int i) { return bandJHi<K>(i, rlen, band); };

    // Pre-reserve the whole traceback bank once: row offsets are the
    // running sum of in-band row widths (the address-coalescing analog).
    if (keep_tb) {
        const int64_t cells =
            buildTbRowBase<K>(qlen, rlen, band, ws.rowBase);
        ws.tb.resize(static_cast<size_t>(cells));
    }

    // Row score buffers: previous and current row, per layer. Row 0 is
    // the init row; column 0 carries the init column value of the row.
    for (int l = 0; l < nLayers; l++) {
        auto &prev = ws.rowPrev[static_cast<size_t>(l)];
        auto &cur = ws.rowCur[static_cast<size_t>(l)];
        prev.assign(static_cast<size_t>(rlen + 1), worst);
        cur.assign(static_cast<size_t>(rlen + 1), worst);
        prev[0] = K::originScore(l, params);
        for (int j = 1; j <= rlen; j++)
            prev[static_cast<size_t>(j)] = K::initRowScore(j, l, params);
    }

    bool found = false;
    ScoreT best_score{};
    int best_i = 0, best_j = 0;
    const auto consider = [&](ScoreT v, int i, int j) {
        if (!found || core::isBetter(K::objective, v, best_score)) {
            found = true;
            best_score = v;
            best_i = i;
            best_j = j;
        }
    };

    core::PeIn<ScoreT, typename K::CharT, nLayers> in;
    const typename K::CharT *qdata = query.chars.data();
    const typename K::CharT *rdata = reference.chars.data();
    int i = 1;

    // Two-row cache blocking for unbanded kernels: rows (a, b) advance
    // together through one column sweep. Row b's up/diag/left all come
    // from registers (row a's outputs and its own carries), so the
    // block does ONE score load per layer per two cells. Row b writes
    // in place over the previous row's buffer — always after row a has
    // consumed that column — so no swap is needed and ws.rowPrev ends
    // every block holding the newest row.
    if constexpr (!K::banded) {
        core::PeIn<ScoreT, typename K::CharT, nLayers> ina, inb;
        for (; rlen > 0 && i + 1 <= qlen; i += 2) {
            const int a = i;
            const int b = i + 1;
            // Row a is never stored: row b consumes it entirely from
            // registers, and nothing after the block reads it (the next
            // block's input is row b, scores after the DP are only read
            // at the tracked optimum).
            ScoreT *pb[nLayers]; //!< row a-1 input / row b output
            for (int l = 0; l < nLayers; l++)
                pb[l] = ws.rowPrev[static_cast<size_t>(l)].data();
            for (int l = 0; l < nLayers; l++) {
                const size_t ls = static_cast<size_t>(l);
                const ScoreT ea = K::initColScore(a, l, params);
                const ScoreT eb = K::initColScore(b, l, params);
                ina.left[ls] = ea;
                ina.diag[ls] = pb[l][0]; // read before the overwrite
                inb.left[ls] = eb;
                inb.diag[ls] = ea;
                pb[l][0] = eb;
            }
            ina.qryVal = qdata[a - 1];
            inb.qryVal = qdata[b - 1];
            ina.row = a;
            inb.row = b;
            core::TbPtr *tb_data = keep_tb ? ws.tb.data() : nullptr;
            const int64_t tba =
                keep_tb ? ws.rowBase[static_cast<size_t>(a)] - 1 : 0;
            const int64_t tbb =
                keep_tb ? ws.rowBase[static_cast<size_t>(b)] - 1 : 0;

            // In-row optimum tracking: first candidate unconditionally
            // (j == 1), then strictly-better only — the per-row merge
            // below preserves the (row, col)-order reduction exactly.
            constexpr bool track_all =
                K::alignKind == core::AlignmentKind::Local;
            const bool track_a = track_all;
            const bool track_b = track_all ||
                ((K::alignKind == core::AlignmentKind::SemiGlobal ||
                  K::alignKind == core::AlignmentKind::Overlap) &&
                 b == qlen);
            ScoreT rsa = worst, rsb = worst;
            int rja = 1, rjb = 1;
            ScoreT last_a{}; // row a's final-column score (Overlap merge)

            for (int j = 1; j <= rlen; j++) {
                for (int l = 0; l < nLayers; l++)
                    ina.up[static_cast<size_t>(l)] = pb[l][j];
                ina.refVal = rdata[j - 1];
                ina.col = j;
                const auto outa = K::peFunc(ina, params);
                inb.refVal = ina.refVal;
                inb.col = j;
                for (int l = 0; l < nLayers; l++)
                    inb.up[static_cast<size_t>(l)] =
                        outa.score[static_cast<size_t>(l)];
                const auto outb = K::peFunc(inb, params);
                for (int l = 0; l < nLayers; l++) {
                    const size_t ls = static_cast<size_t>(l);
                    pb[l][j] = outb.score[ls];
                    ina.diag[ls] = ina.up[ls];
                    ina.left[ls] = outa.score[ls];
                    inb.diag[ls] = outa.score[ls];
                    inb.left[ls] = outb.score[ls];
                }
                if constexpr (K::alignKind == core::AlignmentKind::Overlap)
                    last_a = j == rlen ? outa.score[0] : last_a;
                if (keep_tb) {
                    tb_data[tba + j] = outa.tbPtr;
                    tb_data[tbb + j] = outb.tbPtr;
                }
                if (track_a) {
                    const ScoreT v = outa.score[0];
                    const bool w = (j == 1) |
                        core::isBetter(K::objective, v, rsa);
                    rsa = w ? v : rsa;
                    rja = w ? j : rja;
                }
                if (track_b) {
                    const ScoreT v = outb.score[0];
                    const bool w = (j == 1) |
                        core::isBetter(K::objective, v, rsb);
                    rsb = w ? v : rsb;
                    rjb = w ? j : rjb;
                }
            }

            // Merge the rows' candidates in (row, col) order.
            if constexpr (K::alignKind == core::AlignmentKind::Local) {
                consider(rsa, a, rja);
                consider(rsb, b, rjb);
            } else if constexpr (K::alignKind ==
                                 core::AlignmentKind::SemiGlobal) {
                if (b == qlen)
                    consider(rsb, b, rjb);
            } else if constexpr (K::alignKind ==
                                 core::AlignmentKind::Overlap) {
                consider(last_a, a, rlen);
                if (b == qlen)
                    consider(rsb, b, rjb);
                else
                    consider(pb[0][rlen], b, rlen);
            } else { // Global
                if (b == qlen)
                    consider(pb[0][rlen], b, rlen);
            }
        }
    }

    for (; i <= qlen; i++) {
        const int jlo = j_lo(i);
        const int jhi = j_hi(i);
        if (jlo > jhi)
            continue; // band fully outside this row

        // Raw row pointers hoisted out of the hot loop (the two rows
        // never alias each other).
        const ScoreT *prev[nLayers];
        ScoreT *cur[nLayers];
        for (int l = 0; l < nLayers; l++) {
            prev[l] = ws.rowPrev[static_cast<size_t>(l)].data();
            cur[l] = ws.rowCur[static_cast<size_t>(l)].data();
        }

        // Band-edge boundary values: the left edge is the init column
        // (j == 1) or the out-of-band sentinel; they feed this row's
        // first `left` and the next row's first `diag`. `left`/`diag`
        // then stay in registers across the row: left(j) is the cell
        // just computed, diag(j+1) is up(j).
        for (int l = 0; l < nLayers; l++) {
            const ScoreT edge =
                jlo == 1 ? K::initColScore(i, l, params) : worst;
            cur[l][jlo - 1] = edge;
            in.left[static_cast<size_t>(l)] = edge;
            in.diag[static_cast<size_t>(l)] = prev[l][jlo - 1];
        }
        in.qryVal = qdata[i - 1];
        in.row = i;
        core::TbPtr *tb_data = keep_tb ? ws.tb.data() : nullptr;
        const int64_t tb_base =
            keep_tb ? ws.rowBase[static_cast<size_t>(i)] - jlo : 0;

        for (int j = jlo; j <= jhi; j++) {
            for (int l = 0; l < nLayers; l++)
                in.up[static_cast<size_t>(l)] = prev[l][j];
            in.refVal = rdata[j - 1];
            in.col = j;
            const auto out = K::peFunc(in, params);
            for (int l = 0; l < nLayers; l++) {
                const size_t ls = static_cast<size_t>(l);
                cur[l][j] = out.score[ls];
                in.diag[ls] = in.up[ls];
                in.left[ls] = out.score[ls];
            }
            if (keep_tb)
                tb_data[tb_base + j] = out.tbPtr;

            // Optimum tracking in scan order == first optimum in
            // (row, col) order, matching the PE reduction tree.
            if constexpr (K::alignKind == core::AlignmentKind::Local) {
                consider(out.score[0], i, j);
            } else if constexpr (K::alignKind ==
                                 core::AlignmentKind::SemiGlobal) {
                if (i == qlen)
                    consider(out.score[0], i, j);
            } else if constexpr (K::alignKind ==
                                 core::AlignmentKind::Overlap) {
                if (i == qlen || j == rlen)
                    consider(out.score[0], i, j);
            }
        }
        if constexpr (K::alignKind == core::AlignmentKind::Global) {
            if (i == qlen && rlen >= jlo && rlen <= jhi)
                consider(cur[0][rlen], qlen, rlen);
        }
        // Out-of-band sentinel past the right band edge: the next row
        // reads it as `up` at its last cell (the band moves right by at
        // most one column per row).
        if (jhi < rlen) {
            for (int l = 0; l < nLayers; l++)
                cur[l][jhi + 1] = worst;
        }
        for (int l = 0; l < nLayers; l++) {
            std::swap(ws.rowPrev[static_cast<size_t>(l)],
                      ws.rowCur[static_cast<size_t>(l)]);
        }
    }

    st.qlen = qlen;
    st.rlen = rlen;
    st.band = band;
    st.keepTb = keep_tb;
    st.found = found;
    st.bestScore = best_score;
    st.bestCell = core::Coord{best_i, best_j};
    st.tb = std::move(ws.tb);
    st.rowBase = std::move(ws.rowBase);
}

/** Traceback stage over a fill state; adds its cycles into `st.stats`. */
template <core::KernelSpec K>
core::AlignResult<typename K::ScoreT>
fastTraceback(const EngineConfig &cfg, const typename K::Params &params,
              FastFillState<K> &st)
{
    const int band = st.band;
    const int rlen = st.rlen;
    const auto fetch = [&](int i, int j) {
        const int jlo = bandJLo<K>(i, band);
        if (j < jlo || j > bandJHi<K>(i, rlen, band))
            return core::TbPtr{};
        return st.tb[static_cast<size_t>(
            st.rowBase[static_cast<size_t>(i)] + (j - jlo))];
    };
    return finishResult<K>(cfg, params, st.qlen, st.rlen, st.found,
                           st.bestScore, st.bestCell, st.keepTb, fetch,
                           st.stats);
}

/** Align one pair on the row-major fast path. */
template <core::KernelSpec K>
core::AlignResult<typename K::ScoreT>
fastAlign(const EngineConfig &cfg, const typename K::Params &params,
          const seq::Sequence<typename K::CharT> &query,
          const seq::Sequence<typename K::CharT> &reference,
          CycleStats &stats, FastWorkspace<K> &ws)
{
    FastFillState<K> st;
    fastFill<K>(cfg, params, query, reference, ws, st);
    auto res = fastTraceback<K>(cfg, params, st);
    stats = st.stats;
    // Hand the bank back so batch hosts keep amortizing allocations.
    ws.tb = std::move(st.tb);
    ws.rowBase = std::move(st.rowBase);
    return res;
}

} // namespace dphls::sim

#endif // DPHLS_SYSTOLIC_FAST_PATH_HH
