/**
 * @file
 * Batch-level SIMD lane tests: the lockstep LaneAligner and the
 * StreamPipeline's lane grouping must be bit-identical — results and cycle
 * accounting — to scalar engine runs, at group sizes around the lane
 * width (1, lane-1, lane, lane+1) and with mixed/degenerate lengths.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "helpers.hh"
#include "host/stream_pipeline.hh"
#include "kernels/all.hh"
#include "systolic/engine.hh"
#include "systolic/isa_tier.hh"
#include "systolic/lane_engine.hh"

using namespace dphls;

namespace {

template <typename K>
void
expectLanesMatchScalar(
    const std::vector<test::Pair<typename K::CharT>> &pairs, int npe,
    int band)
{
    sim::EngineConfig cfg;
    cfg.numPe = npe;
    cfg.bandWidth = band;
    cfg.maxQueryLength = 4096;
    cfg.maxReferenceLength = 4096;

    sim::LaneAligner<K> lanes(cfg);
    std::vector<typename sim::LaneAligner<K>::LanePair> group;
    group.reserve(pairs.size());
    for (const auto &p : pairs)
        group.push_back({&p.query, &p.reference});
    const auto got = lanes.alignLanes(group);
    ASSERT_EQ(got.size(), pairs.size());

    sim::SystolicAligner<K> engine(cfg);
    using Tr = core::ScoreTraits<typename K::ScoreT>;
    for (size_t i = 0; i < pairs.size(); i++) {
        const auto gold =
            engine.align(pairs[i].query, pairs[i].reference);
        const std::string ctx = std::string(K::name) + " lane " +
            std::to_string(i) + "/" + std::to_string(pairs.size()) +
            " qlen=" + std::to_string(pairs[i].query.length()) +
            " rlen=" + std::to_string(pairs[i].reference.length());
        ASSERT_EQ(Tr::toDouble(gold.score), Tr::toDouble(got[i].score))
            << ctx;
        ASSERT_EQ(gold.end, got[i].end) << ctx;
        ASSERT_EQ(gold.start, got[i].start) << ctx;
        ASSERT_EQ(gold.ops, got[i].ops) << ctx;
        EXPECT_TRUE(engine.lastStats() ==
                    lanes.laneStats()[i]) << ctx;
        EXPECT_EQ(engine.lastTotalCycles(),
                  lanes.laneTotalCycles(static_cast<int>(i))) << ctx;
    }
}

template <typename K>
std::vector<test::Pair<typename K::CharT>>
dnaPairs(seq::Rng &rng, int count, int max_len)
{
    std::vector<test::Pair<typename K::CharT>> pairs;
    for (int i = 0; i < count; i++)
        pairs.push_back(test::randomDnaPair(rng, max_len, i % 3 != 0));
    return pairs;
}

} // namespace

TEST(LaneAligner, GroupSizesAroundLaneWidth)
{
    seq::Rng rng(101);
    for (const int count : {1, 7, 8, 9, 15, 16}) {
        auto pairs = dnaPairs<kernels::LocalAffine>(rng, count, 120);
        expectLanesMatchScalar<kernels::LocalAffine>(pairs, 32, 16);
    }
}

TEST(LaneAligner, MixedLengthsAndEmptyLanes)
{
    seq::Rng rng(202);
    auto pairs = dnaPairs<kernels::GlobalAffine>(rng, 6, 90);
    // Degenerate lanes mixed into one group: empty query, empty
    // reference, both empty, single character.
    pairs.push_back({seq::DnaSequence{}, seq::randomDna(40, rng)});
    pairs.push_back({seq::randomDna(40, rng), seq::DnaSequence{}});
    pairs.push_back({seq::DnaSequence{}, seq::DnaSequence{}});
    pairs.push_back({seq::randomDna(1, rng), seq::randomDna(77, rng)});
    expectLanesMatchScalar<kernels::GlobalAffine>(pairs, 8, 16);
}

TEST(LaneAligner, AllKindsAndAlphabets)
{
    seq::Rng rng(303);
    expectLanesMatchScalar<kernels::GlobalLinear>(
        dnaPairs<kernels::GlobalLinear>(rng, 9, 100), 16, 8);
    expectLanesMatchScalar<kernels::LocalLinear>(
        dnaPairs<kernels::LocalLinear>(rng, 9, 100), 16, 8);
    expectLanesMatchScalar<kernels::SemiGlobal>(
        dnaPairs<kernels::SemiGlobal>(rng, 9, 100), 16, 8);
    expectLanesMatchScalar<kernels::Overlap>(
        dnaPairs<kernels::Overlap>(rng, 9, 100), 16, 8);
    expectLanesMatchScalar<kernels::GlobalTwoPiece>(
        dnaPairs<kernels::GlobalTwoPiece>(rng, 5, 80), 16, 8);

    // Banded kernels share the band across lanes of different lengths.
    {
        std::vector<test::Pair<seq::DnaChar>> pairs;
        for (const int len : {30, 64, 5, 90, 64, 1, 33}) {
            auto p = test::randomDnaPair(rng, len, true, true);
            pairs.push_back(std::move(p));
        }
        expectLanesMatchScalar<kernels::BandedGlobalLinear>(pairs, 32, 12);
        expectLanesMatchScalar<kernels::BandedLocalAffine>(pairs, 32, 12);
        expectLanesMatchScalar<kernels::BandedGlobalTwoPiece>(pairs, 32,
                                                              12);
    }

    // Fixed-point scores (ApFixed) run their raw-int32 vector lane
    // cells; the scalar per-lane fallback only remains for forced
    // IsaTier::Scalar runs (covered in test_isa_tiers.cc).
    expectLanesMatchScalar<kernels::Viterbi>(
        [&] {
            std::vector<test::Pair<seq::DnaChar>> pairs;
            for (const int len : {20, 45, 31})
                pairs.push_back(test::randomDnaPair(rng, len, true, true));
            return pairs;
        }(),
        16, 8);

    // Protein and signal alphabets (both vectorized lane cells).
    {
        std::vector<test::Pair<seq::AminoChar>> pairs;
        for (const int len : {40, 80, 17, 120, 61}) {
            test::Pair<seq::AminoChar> p;
            p.query = seq::sampleProtein(len, rng);
            p.reference = seq::mutateProtein(p.query, 0.2, 0.05, rng);
            pairs.push_back(std::move(p));
        }
        expectLanesMatchScalar<kernels::ProteinLocal>(pairs, 32, 16);
    }
    {
        std::vector<test::Pair<seq::SignalSample>> pairs;
        auto sq = seq::sampleSquigglePairs(5, 100, 40, 404);
        for (auto &p : sq)
            pairs.push_back({std::move(p.query), std::move(p.reference)});
        expectLanesMatchScalar<kernels::Sdtw>(pairs, 32, 16);
    }
}

#ifdef DPHLS_VEC
// The protein family must run the gathered-substitution vector path,
// not the scalar per-lane fallback: the laneCell hook has to be visible
// to the lane engine's dispatch concept. (The vector type is only
// probed, never stored, so the dropped alignment attribute is noise.)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wignored-attributes"
static_assert(
    sim::KernelHasLaneCell<
        kernels::ProteinLocal,
        kernels::detail::simd::VecPack<4>::I32>,
    "ProteinLocal must expose a vectorized laneCell");
#pragma GCC diagnostic pop
#endif

/**
 * Gathered-substitution protein lane cells: sweep group sizes around
 * the lane width with log-normal-ish mixed lengths plus degenerate
 * lanes, so every sub-group shape of the vector path is diffed against
 * scalar BLOSUM62 Smith-Waterman runs.
 */
TEST(LaneAligner, ProteinGatheredSubstitutionGroupSweep)
{
    seq::Rng rng(707);
    for (const int count : {1, 4, 7, 8, 9, 16}) {
        std::vector<test::Pair<seq::AminoChar>> pairs;
        for (int i = 0; i < count; i++) {
            const int len = seq::sampleProteinLength(rng, 10, 200);
            test::Pair<seq::AminoChar> p;
            p.query = seq::sampleProtein(len, rng);
            p.reference = seq::mutateProtein(p.query, 0.25, 0.08, rng);
            pairs.push_back(std::move(p));
        }
        expectLanesMatchScalar<kernels::ProteinLocal>(pairs, 16, 8);
    }

    // Degenerate lanes inside a full-width protein group.
    std::vector<test::Pair<seq::AminoChar>> pairs;
    for (const int len : {55, 1, 90, 33})
        pairs.push_back({seq::sampleProtein(len, rng),
                         seq::sampleProtein(std::max(1, len / 2), rng)});
    pairs.push_back({seq::ProteinSequence{}, seq::sampleProtein(25, rng)});
    pairs.push_back({seq::sampleProtein(25, rng), seq::ProteinSequence{}});
    pairs.push_back({seq::ProteinSequence{}, seq::ProteinSequence{}});
    pairs.push_back({seq::sampleProtein(140, rng),
                     seq::sampleProtein(140, rng)});
    expectLanesMatchScalar<kernels::ProteinLocal>(pairs, 32, 8);
}

namespace {

/** A group of @p count pairs with lengths drawn from [lo, hi]. */
template <typename K>
std::vector<test::Pair<typename K::CharT>>
sizedGroup(seq::Rng &rng, int count, int lo, int hi)
{
    const auto len = [&] {
        return lo +
               static_cast<int>(rng.below(static_cast<uint64_t>(hi - lo + 1)));
    };
    std::vector<test::Pair<typename K::CharT>> pairs;
    for (int i = 0; i < count; i++) {
        const int qlen = len();
        pairs.push_back(
            test::shapedPair<K>(rng, qlen, K::banded ? qlen : len()));
    }
    return pairs;
}

/**
 * One LaneAligner per tier runs groups that shrink and then grow back.
 * Its traceback bank only grows and keeps the earlier groups' pointers,
 * so any in-band cell a sweep failed to write would hand the traceback
 * a stale pointer; every lane is diffed against the wavefront engine.
 */
template <typename K>
void
expectReusedBankMatchesWavefront(uint64_t seed, int band)
{
    using Pairs = std::vector<test::Pair<typename K::CharT>>;
    seq::Rng rng(seed);
    std::vector<Pairs> groups;
    groups.push_back(sizedGroup<K>(rng, 8, 1000, 1100));
    groups.push_back(sizedGroup<K>(rng, 8, 250, 330));
    groups.push_back(Pairs{
        test::shapedPair<K>(rng, 700, K::banded ? 700 : 40),
        test::shapedPair<K>(rng, 5, K::banded ? 5 : 300),
        test::shapedPair<K>(rng, 260, 260)});
    groups.push_back(sizedGroup<K>(rng, 8, 1000, 1100));

    sim::EngineConfig cfg;
    cfg.numPe = 32;
    cfg.bandWidth = band;
    cfg.maxQueryLength = 2048;
    cfg.maxReferenceLength = 2048;
    sim::EngineConfig gcfg = cfg;
    gcfg.path = sim::EnginePath::Wavefront;
    sim::SystolicAligner<K> engine(gcfg);
    using Result = typename sim::SystolicAligner<K>::Result;
    std::vector<std::vector<Result>> gold(groups.size());
    std::vector<std::vector<sim::CycleStats>> gold_stats(groups.size());
    std::vector<std::vector<uint64_t>> gold_cycles(groups.size());
    for (size_t g = 0; g < groups.size(); g++) {
        for (const auto &p : groups[g]) {
            gold[g].push_back(engine.align(p.query, p.reference));
            gold_stats[g].push_back(engine.lastStats());
            gold_cycles[g].push_back(engine.lastTotalCycles());
        }
    }

    using Tr = core::ScoreTraits<typename K::ScoreT>;
    for (const sim::IsaTier tier : test::hostTiers()) {
        sim::EngineConfig tcfg = cfg;
        tcfg.isaTier = tier;
        sim::LaneAligner<K> lanes(tcfg);
        for (size_t g = 0; g < groups.size(); g++) {
            std::vector<typename sim::LaneAligner<K>::LanePair> group;
            for (const auto &p : groups[g])
                group.push_back({&p.query, &p.reference});
            const auto got = lanes.alignLanes(group);
            ASSERT_EQ(got.size(), group.size());
            for (size_t i = 0; i < got.size(); i++) {
                const std::string ctx = std::string(K::name) + " tier " +
                    sim::isaTierName(tier) + " group " +
                    std::to_string(g) + " lane " + std::to_string(i);
                const auto &want = gold[g][i];
                ASSERT_EQ(Tr::toDouble(want.score),
                          Tr::toDouble(got[i].score)) << ctx;
                ASSERT_EQ(want.start, got[i].start) << ctx;
                ASSERT_EQ(want.end, got[i].end) << ctx;
                ASSERT_EQ(want.ops, got[i].ops) << ctx;
                EXPECT_TRUE(gold_stats[g][i] == lanes.laneStats()[i])
                    << ctx;
                EXPECT_EQ(gold_cycles[g][i],
                          lanes.laneTotalCycles(static_cast<int>(i)))
                    << ctx;
            }
        }
    }
}

} // namespace

TEST(LaneAligner, ReusedTracebackBankAcrossShrinkingAndGrowingGroups)
{
    expectReusedBankMatchesWavefront<kernels::LocalAffine>(808, 16);
    expectReusedBankMatchesWavefront<kernels::BandedGlobalTwoPiece>(809,
                                                                    24);
}

TEST(LaneAligner, RejectsOversizedGroup)
{
    seq::Rng rng(505);
    auto pairs = dnaPairs<kernels::GlobalLinear>(
        rng, sim::LaneAligner<kernels::GlobalLinear>::maxLanes + 1, 30);
    sim::LaneAligner<kernels::GlobalLinear> lanes;
    std::vector<sim::LaneAligner<kernels::GlobalLinear>::LanePair> group;
    for (const auto &p : pairs)
        group.push_back({&p.query, &p.reference});
    EXPECT_THROW(lanes.alignLanes(group), std::invalid_argument);
}

TEST(StreamPipeline, LaneWidthIsResultAndAccountingTransparent)
{
    seq::Rng rng(606);
    using K = kernels::LocalAffine;
    using Pipeline = host::StreamPipeline<K>;

    for (const int batch_size : {1, 7, 8, 9, 31}) {
        std::vector<typename Pipeline::Job> jobs;
        for (int i = 0; i < batch_size; i++) {
            auto p = test::randomDnaPair(rng, 100, i % 2 == 0);
            jobs.push_back({std::move(p.query), std::move(p.reference)});
        }

        host::BatchConfig scfg;
        scfg.nk = 2;
        scfg.nb = 4;
        scfg.cacheEntries = 0; // isolate the lane path
        scfg.laneWidth = 1;
        host::BatchConfig lcfg = scfg;
        lcfg.laneWidth = 8;

        Pipeline scalar(scfg), laned(lcfg);
        std::vector<typename Pipeline::Result> sres, lres;
        std::vector<uint64_t> scyc, lcyc;
        const auto sstats = scalar.runAll(jobs, &sres, &scyc);
        const auto lstats = laned.runAll(jobs, &lres, &lcyc);

        ASSERT_EQ(sres.size(), lres.size());
        for (size_t i = 0; i < sres.size(); i++) {
            ASSERT_EQ(sres[i].score, lres[i].score) << i;
            ASSERT_EQ(sres[i].end, lres[i].end) << i;
            ASSERT_EQ(sres[i].ops, lres[i].ops) << i;
        }
        ASSERT_EQ(scyc, lcyc);
        EXPECT_EQ(sstats.makespanCycles, lstats.makespanCycles);
        EXPECT_EQ(sstats.totalCycles, lstats.totalCycles);
        EXPECT_EQ(sstats.alignments, lstats.alignments);
        EXPECT_EQ(sstats.paths.matches, lstats.paths.matches);
        EXPECT_EQ(sstats.paths.columns, lstats.paths.columns);
        ASSERT_EQ(sstats.slots.size(), lstats.slots.size());
        for (size_t c = 0; c < sstats.slots.size(); c++) {
            EXPECT_EQ(sstats.slots[c].busyCycles,
                      lstats.slots[c].busyCycles) << c;
            EXPECT_EQ(sstats.slots[c].totalCycles,
                      lstats.slots[c].totalCycles) << c;
        }
    }
}
