/**
 * @file
 * ISA-tier differential suite: every registry kernel, run through the
 * lane engine at every tier this host supports (plus the forced-scalar
 * fallback), must be bit-identical — scores, traceback endpoints,
 * CIGARs and cycle statistics — to the scalar wavefront engine. The
 * intra-pair anti-diagonal path (EnginePath::DiagSimd) gets the same
 * treatment on long banded pairs, band-edge shapes and empty inputs,
 * and the ChannelBackend's intra-pair routing is diffed end to end
 * through a StreamPipeline.
 */

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "helpers.hh"
#include "host/stream_pipeline.hh"
#include "host/tiling.hh"
#include "kernels/all.hh"
#include "kernels/registry.hh"
#include "systolic/engine.hh"
#include "systolic/isa_tier.hh"
#include "systolic/lane_engine.hh"

using namespace dphls;

namespace {

/**
 * Mixed-shape workload for kernel @p K: lengths around the lane widths,
 * degenerate lanes (empty query/reference/both, single character) and —
 * for banded kernels — equal lengths so the band reaches the corner.
 */
template <typename K>
std::vector<test::Pair<typename K::CharT>>
tierPairs(seq::Rng &rng, int count, int max_len)
{
    std::vector<test::Pair<typename K::CharT>> pairs;
    for (int i = 0; i < count; i++) {
        const int qlen = 1 + static_cast<int>(rng.below(
                                 static_cast<uint64_t>(max_len)));
        const int rlen =
            K::banded ? qlen
                      : 1 + static_cast<int>(rng.below(
                                static_cast<uint64_t>(max_len)));
        pairs.push_back(test::shapedPair<K>(rng, qlen, rlen));
    }
    pairs.push_back(test::shapedPair<K>(rng, 0, K::banded ? 0 : 24));
    pairs.push_back(test::shapedPair<K>(rng, K::banded ? 0 : 24, 0));
    pairs.push_back(test::shapedPair<K>(rng, 1, 1));
    return pairs;
}

/**
 * Run @p pairs through a LaneAligner pinned to each tier in turn and
 * require results and cycle accounting identical to the wavefront
 * engine's, lane by lane.
 */
template <typename K>
void
expectTiersMatchScalar(
    const std::vector<test::Pair<typename K::CharT>> &pairs, int npe,
    int band)
{
    sim::EngineConfig cfg;
    cfg.numPe = npe;
    cfg.bandWidth = band;
    cfg.maxQueryLength = 1024;
    cfg.maxReferenceLength = 1024;
    sim::EngineConfig gcfg = cfg;
    gcfg.path = sim::EnginePath::Wavefront;
    sim::SystolicAligner<K> engine(gcfg);
    using Tr = core::ScoreTraits<typename K::ScoreT>;

    for (const sim::IsaTier tier : test::hostTiers()) {
        sim::EngineConfig tcfg = cfg;
        tcfg.isaTier = tier;
        sim::LaneAligner<K> lanes(tcfg);
        ASSERT_EQ(lanes.activeTier(), tier);

        std::vector<typename sim::LaneAligner<K>::LanePair> group;
        group.reserve(pairs.size());
        for (const auto &p : pairs)
            group.push_back({&p.query, &p.reference});
        const auto got = lanes.alignLanes(group);
        ASSERT_EQ(got.size(), pairs.size());

        for (size_t i = 0; i < pairs.size(); i++) {
            const auto gold =
                engine.align(pairs[i].query, pairs[i].reference);
            const std::string ctx = std::string(K::name) + " tier " +
                sim::isaTierName(tier) + " lane " + std::to_string(i) +
                " qlen=" + std::to_string(pairs[i].query.length()) +
                " rlen=" + std::to_string(pairs[i].reference.length());
            ASSERT_EQ(Tr::toDouble(gold.score),
                      Tr::toDouble(got[i].score)) << ctx;
            ASSERT_EQ(gold.end, got[i].end) << ctx;
            ASSERT_EQ(gold.start, got[i].start) << ctx;
            ASSERT_EQ(gold.ops, got[i].ops) << ctx;
            EXPECT_TRUE(engine.lastStats() == lanes.laneStats()[i])
                << ctx;
            EXPECT_EQ(engine.lastTotalCycles(),
                      lanes.laneTotalCycles(static_cast<int>(i)))
                << ctx;
        }
    }
}

template <typename K>
void
tierSweepKernel(uint64_t seed, int count, int max_len, int npe, int band)
{
    seq::Rng rng(seed);
    expectTiersMatchScalar<K>(tierPairs<K>(rng, count, max_len), npe,
                              band);
}

/**
 * Diff the intra-pair anti-diagonal path against the wavefront engine
 * on one pair, at every tier.
 */
template <typename K>
void
expectDiagPairMatchesWavefront(const test::Pair<typename K::CharT> &pair,
                               int band)
{
    const int qlen = pair.query.length();
    const int rlen = pair.reference.length();
    sim::EngineConfig cfg;
    cfg.numPe = 32;
    cfg.bandWidth = band;
    cfg.maxQueryLength = std::max(1024, qlen + 1);
    cfg.maxReferenceLength = std::max(1024, rlen + 1);
    sim::SystolicAligner<K> gold(cfg);
    const auto want = gold.align(pair.query, pair.reference);
    using Tr = core::ScoreTraits<typename K::ScoreT>;

    for (const sim::IsaTier tier : test::hostTiers()) {
        sim::EngineConfig dcfg = cfg;
        dcfg.path = sim::EnginePath::DiagSimd;
        dcfg.isaTier = tier;
        sim::SystolicAligner<K> diag(dcfg);
        const auto got = diag.align(pair.query, pair.reference);
        const std::string ctx = std::string(K::name) + " tier " +
            sim::isaTierName(tier) + " qlen=" + std::to_string(qlen) +
            " rlen=" + std::to_string(rlen) +
            " band=" + std::to_string(band);
        ASSERT_EQ(Tr::toDouble(want.score), Tr::toDouble(got.score))
            << ctx;
        ASSERT_EQ(want.end, got.end) << ctx;
        ASSERT_EQ(want.start, got.start) << ctx;
        ASSERT_EQ(want.ops, got.ops) << ctx;
        EXPECT_TRUE(gold.lastStats() == diag.lastStats()) << ctx;
        EXPECT_EQ(gold.lastTotalCycles(), diag.lastTotalCycles()) << ctx;
    }
}

/** Same, on a seeded pair of exact (qlen, rlen) shape. */
template <typename K>
void
expectDiagMatchesWavefront(int qlen, int rlen, int band, uint64_t seed)
{
    seq::Rng rng(seed);
    expectDiagPairMatchesWavefront<K>(test::shapedPair<K>(rng, qlen, rlen),
                                      band);
}

std::string
repeatUnit(const std::string &unit, int times)
{
    std::string out;
    for (int i = 0; i < times; i++)
        out += unit;
    return out;
}

/**
 * Kernel-alphabet sequence from a DNA pattern. DNA kernels take the
 * bases as they are; the signal kernels map each base to a fixed
 * sample, so a homopolymer becomes a constant signal and a tandem
 * repeat a periodic one.
 */
template <typename K>
seq::Sequence<typename K::CharT>
patternSeq(const std::string &pattern)
{
    using CharT = typename K::CharT;
    const seq::DnaSequence dna = seq::dnaFromString(pattern);
    if constexpr (std::is_same_v<CharT, seq::DnaChar>) {
        return dna;
    } else {
        seq::Sequence<CharT> out;
        for (int i = 0; i < dna.length(); i++) {
            const int c = dna[i].code;
            CharT ch;
            if constexpr (std::is_same_v<CharT, seq::SignalSample>) {
                ch.value = static_cast<int16_t>(40 * c - 60);
            } else {
                ch.real = hls::ApFixed<32, 26>(c);
                ch.imag = hls::ApFixed<32, 26>(1 - c);
            }
            out.chars.push_back(ch);
        }
        return out;
    }
}

/**
 * Inputs where many DP candidates tie: homopolymers against
 * homopolymers, identical pairs, pairs that mismatch at every position
 * and short tandem repeats. Every cell then has equal-scoring
 * predecessors, so the traceback pointer tie-breaks decide the path.
 */
template <typename K>
std::vector<test::Pair<typename K::CharT>>
tiePairs(seq::Rng &rng)
{
    std::string random_dna;
    for (int i = 0; i < 48; i++)
        random_dna += "ACGT"[rng.below(4)];
    const std::vector<std::pair<std::string, std::string>> patterns = {
        // Homopolymer vs homopolymer.
        {repeatUnit("A", 40), repeatUnit("A", 40)},
        {repeatUnit("A", 37), repeatUnit("A", 45)},
        {repeatUnit("G", 1), repeatUnit("G", 20)},
        // Identical pairs.
        {random_dna, random_dna},
        {repeatUnit("ACGT", 12), repeatUnit("ACGT", 12)},
        // Every position mismatches.
        {repeatUnit("A", 30), repeatUnit("C", 34)},
        {repeatUnit("AC", 20), repeatUnit("GT", 18)},
        // Short tandem repeats.
        {repeatUnit("CAG", 14), repeatUnit("CAG", 17)},
        {repeatUnit("AT", 25), repeatUnit("TA", 22)},
        {repeatUnit("CAG", 6) + "CTG" + repeatUnit("CAG", 8),
         repeatUnit("CAG", 15)},
    };
    std::vector<test::Pair<typename K::CharT>> pairs;
    for (const auto &[q, r] : patterns)
        pairs.push_back({patternSeq<K>(q), patternSeq<K>(r)});
    return pairs;
}

/**
 * Tie-heavy inputs through the lane engine and the anti-diagonal path
 * at every tier, both diffed against the wavefront engine.
 */
template <typename K>
void
tieSweepKernel(uint64_t seed, int band)
{
    seq::Rng rng(seed);
    const auto pairs = tiePairs<K>(rng);
    expectTiersMatchScalar<K>(pairs, 16, band);
    for (const auto &p : pairs)
        expectDiagPairMatchesWavefront<K>(p, band);
}

} // namespace

// --- Tier sweep: all 15 registry kernels x all available tiers -------

TEST(IsaTiers, RegistryHasFifteenKernels)
{
    // The per-kernel sweeps below cover exactly the registry: a 16th
    // kernel must show up here and get a sweep of its own.
    EXPECT_EQ(kernels::registry().size(), 15u);
}

TEST(IsaTiers, DnaLinearFamily)
{
    tierSweepKernel<kernels::GlobalLinear>(11, 9, 100, 16, 8);
    tierSweepKernel<kernels::LocalLinear>(12, 9, 100, 16, 8);
    tierSweepKernel<kernels::SemiGlobal>(13, 9, 100, 16, 8);
    tierSweepKernel<kernels::Overlap>(14, 9, 100, 16, 8);
}

TEST(IsaTiers, DnaAffineFamily)
{
    tierSweepKernel<kernels::GlobalAffine>(21, 9, 100, 16, 8);
    tierSweepKernel<kernels::LocalAffine>(22, 13, 90, 32, 16);
    tierSweepKernel<kernels::GlobalTwoPiece>(23, 7, 80, 16, 8);
}

TEST(IsaTiers, BandedFamily)
{
    tierSweepKernel<kernels::BandedGlobalLinear>(31, 9, 90, 32, 12);
    tierSweepKernel<kernels::BandedLocalAffine>(32, 9, 90, 32, 12);
    tierSweepKernel<kernels::BandedGlobalTwoPiece>(33, 9, 90, 32, 12);
}

TEST(IsaTiers, ProteinAndProfile)
{
    tierSweepKernel<kernels::ProteinLocal>(41, 9, 110, 32, 16);
    tierSweepKernel<kernels::ProfileAlignment>(42, 6, 60, 16, 8);
}

TEST(IsaTiers, FixedPointFamily)
{
    tierSweepKernel<kernels::Viterbi>(51, 6, 60, 16, 8);
    tierSweepKernel<kernels::Dtw>(52, 6, 60, 16, 8);
    tierSweepKernel<kernels::Sdtw>(53, 6, 70, 32, 16);
}

/**
 * Native vector max/min and element selects must keep every pointer
 * tie-break of the scalar recurrence: linear, affine, two-piece, DTW
 * and sDTW families on inputs where candidates tie in most cells.
 */
TEST(IsaTiers, TieHeavyInputs)
{
    tieSweepKernel<kernels::GlobalLinear>(101, 16);
    tieSweepKernel<kernels::LocalLinear>(102, 16);
    tieSweepKernel<kernels::SemiGlobal>(103, 16);
    tieSweepKernel<kernels::Overlap>(104, 16);
    tieSweepKernel<kernels::BandedGlobalLinear>(105, 16);
    tieSweepKernel<kernels::GlobalAffine>(111, 16);
    tieSweepKernel<kernels::LocalAffine>(112, 16);
    tieSweepKernel<kernels::BandedLocalAffine>(113, 16);
    tieSweepKernel<kernels::GlobalTwoPiece>(121, 16);
    tieSweepKernel<kernels::BandedGlobalTwoPiece>(122, 16);
    tieSweepKernel<kernels::Dtw>(131, 16);
    tieSweepKernel<kernels::Sdtw>(132, 16);
}

// --- Intra-pair anti-diagonal path ----------------------------------

TEST(DiagPath, LongBandedPairsAllTiers)
{
    expectDiagMatchesWavefront<kernels::BandedGlobalLinear>(700, 700, 32,
                                                            61);
    expectDiagMatchesWavefront<kernels::BandedLocalAffine>(500, 500, 24,
                                                           62);
    expectDiagMatchesWavefront<kernels::BandedGlobalTwoPiece>(400, 400,
                                                              16, 63);
}

TEST(DiagPath, BandEdgeShapes)
{
    // Length skew right at, inside and beyond the band: the last one
    // has no in-band corner, so both paths must report the same
    // no-eligible-cell outcome.
    expectDiagMatchesWavefront<kernels::BandedGlobalLinear>(200, 184, 16,
                                                            71);
    expectDiagMatchesWavefront<kernels::BandedGlobalLinear>(200, 185, 16,
                                                            72);
    expectDiagMatchesWavefront<kernels::BandedGlobalLinear>(200, 150, 16,
                                                            73);
    // Band of 1: the narrowest wavefront the geometry allows.
    expectDiagMatchesWavefront<kernels::BandedGlobalLinear>(60, 60, 1,
                                                            74);
}

TEST(DiagPath, UnbandedAndDegenerateShapes)
{
    expectDiagMatchesWavefront<kernels::GlobalAffine>(160, 120, 8, 81);
    expectDiagMatchesWavefront<kernels::LocalLinear>(150, 90, 8, 82);
    expectDiagMatchesWavefront<kernels::ProteinLocal>(120, 100, 8, 83);
    // Empty and single-character inputs.
    expectDiagMatchesWavefront<kernels::GlobalAffine>(0, 50, 8, 84);
    expectDiagMatchesWavefront<kernels::GlobalAffine>(50, 0, 8, 85);
    expectDiagMatchesWavefront<kernels::GlobalAffine>(0, 0, 8, 86);
    expectDiagMatchesWavefront<kernels::GlobalAffine>(1, 1, 8, 87);
    expectDiagMatchesWavefront<kernels::BandedGlobalLinear>(0, 0, 8, 88);
    expectDiagMatchesWavefront<kernels::BandedGlobalLinear>(1, 60, 8,
                                                            89);
}

TEST(DiagPath, FixedPointKernels)
{
    expectDiagMatchesWavefront<kernels::Viterbi>(90, 80, 8, 91);
    expectDiagMatchesWavefront<kernels::Dtw>(70, 85, 8, 92);
    expectDiagMatchesWavefront<kernels::Sdtw>(100, 140, 8, 93);
}

// --- Config surface --------------------------------------------------

TEST(IsaTiers, ParseAndNames)
{
    sim::IsaTier t = sim::IsaTier::Auto;
    EXPECT_TRUE(sim::parseIsaTier("sse2", t));
    EXPECT_EQ(t, sim::IsaTier::Sse2);
    EXPECT_TRUE(sim::parseIsaTier("avx512", t));
    EXPECT_EQ(t, sim::IsaTier::Avx512);
    EXPECT_TRUE(sim::parseIsaTier("auto", t));
    EXPECT_EQ(t, sim::IsaTier::Auto);
    EXPECT_TRUE(sim::parseIsaTier("scalar", t));
    EXPECT_EQ(t, sim::IsaTier::Scalar);
    EXPECT_FALSE(sim::parseIsaTier("avx1024", t));
    EXPECT_FALSE(sim::parseIsaTier("", t));
    for (const auto tier : test::hostTiers()) {
        sim::IsaTier back = sim::IsaTier::Auto;
        ASSERT_TRUE(sim::parseIsaTier(sim::isaTierName(tier), back));
        EXPECT_EQ(back, tier);
    }
}

TEST(IsaTiers, ResolveAndUnsupportedThrow)
{
    // Auto resolves to a concrete, supported tier.
    const sim::IsaTier active = sim::resolveIsaTier(sim::IsaTier::Auto);
    EXPECT_NE(active, sim::IsaTier::Auto);
    EXPECT_TRUE(sim::isaTierSupported(active));

    // An explicitly requested tier the host cannot execute must throw
    // at construction, not silently fall back (only testable on hosts
    // that actually lack a tier).
    for (const auto t : {sim::IsaTier::Avx2, sim::IsaTier::Avx512}) {
        if (!sim::isaTierSupported(t)) {
            EXPECT_THROW(sim::resolveIsaTier(t), std::invalid_argument);
            sim::EngineConfig cfg;
            cfg.isaTier = t;
            EXPECT_THROW(sim::LaneAligner<kernels::GlobalLinear>{cfg},
                         std::invalid_argument);
        }
    }
}

// --- Host plumbing ---------------------------------------------------

TEST(IsaTiers, PipelineStampsActiveTier)
{
    using K = kernels::LocalAffine;
    using Pipeline = host::StreamPipeline<K>;
    host::BatchConfig cfg;
    cfg.nk = 1;
    cfg.threads = 1;
    cfg.cacheEntries = 0;
    Pipeline pipeline(cfg);

    const sim::IsaTier active = pipeline.activeIsaTier();
    EXPECT_NE(active, sim::IsaTier::Auto);
    EXPECT_TRUE(sim::isaTierSupported(active));

    seq::Rng rng(606);
    std::vector<typename Pipeline::Job> jobs;
    for (int i = 0; i < 4; i++) {
        auto p = test::randomDnaPair(rng, 60);
        jobs.push_back({std::move(p.query), std::move(p.reference)});
    }
    auto ticket = pipeline.submit(std::move(jobs));
    ticket->wait();
    const auto stats = pipeline.collect(ticket);
    EXPECT_STREQ(stats.isaTier, sim::isaTierName(active));
}

TEST(IsaTiers, IntraPairRoutingIsResultTransparent)
{
    using K = kernels::BandedGlobalLinear;
    using Pipeline = host::StreamPipeline<K>;

    seq::Rng rng(909);
    // One long pair per ticket (the intra-pair trigger: single job,
    // shorter end over the floor) plus short pairs that must keep
    // taking the lane engine.
    std::vector<test::Pair<seq::DnaChar>> pairs;
    pairs.push_back(test::shapedPair<K>(rng, 900, 900));
    pairs.push_back(test::shapedPair<K>(rng, 40, 40));
    pairs.push_back(test::shapedPair<K>(rng, 1200, 1200));

    host::BatchConfig base;
    base.nk = 1;
    base.threads = 1;
    base.bandWidth = 32;
    base.maxQueryLength = 2048;
    base.maxReferenceLength = 2048;
    base.cacheEntries = 0;
    host::BatchConfig intra = base;
    intra.intraPairSimd = true;
    intra.intraPairSimdMinLen = 512;

    Pipeline plain(base), routed(intra);
    for (const auto &p : pairs) {
        std::vector<typename Pipeline::Job> j1{{p.query, p.reference}};
        std::vector<typename Pipeline::Job> j2{{p.query, p.reference}};
        auto t1 = plain.submit(std::move(j1));
        auto t2 = routed.submit(std::move(j2));
        t1->wait();
        t2->wait();
        ASSERT_EQ(t1->results().size(), t2->results().size());
        for (size_t i = 0; i < t1->results().size(); i++) {
            EXPECT_EQ(t1->results()[i].score, t2->results()[i].score);
            EXPECT_EQ(t1->results()[i].end, t2->results()[i].end);
            EXPECT_EQ(t1->results()[i].ops, t2->results()[i].ops);
        }
        EXPECT_EQ(t1->cycles(), t2->cycles());
    }
}

TEST(IsaTiers, TilingIntraPairIsResultTransparent)
{
    using K = kernels::GlobalAffine;
    seq::Rng rng(1010);
    const auto pair = test::shapedPair<K>(rng, 1800, 1750);

    sim::EngineConfig ecfg;
    ecfg.numPe = 32;
    ecfg.maxQueryLength = 1024;
    ecfg.maxReferenceLength = 1024;
    sim::SystolicAligner<K> engine(ecfg);

    host::TilingConfig plain;
    host::TilingConfig diag;
    diag.intraPairSimd = true;
    const auto a = host::tiledAlign(engine, pair.query, pair.reference,
                                    plain);
    const auto b = host::tiledAlign(engine, pair.query, pair.reference,
                                    diag);
    EXPECT_EQ(a.ops, b.ops);
    EXPECT_EQ(a.tiles, b.tiles);
    EXPECT_EQ(a.totalCycles, b.totalCycles);
}
