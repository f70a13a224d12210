/**
 * @file
 * Device-model tests on StreamPipeline (paper front-end step 5: NK
 * channels x NB blocks): NB/NK scaling, arbiter behavior, result
 * consistency with the bare engine, and host-overhead and frequency
 * accounting.
 */

#include <gtest/gtest.h>

#include "host/stream_pipeline.hh"
#include "kernels/all.hh"
#include "seq/read_simulator.hh"

using namespace dphls;

namespace {

/** Mutated random DNA pairs truncated to @p len, for the device tests. */
std::vector<host::AlignmentJob<seq::DnaChar>>
deviceJobs(int n, uint64_t seed, int len = 96)
{
    std::vector<host::AlignmentJob<seq::DnaChar>> jobs;
    seq::Rng rng(seed);
    for (int i = 0; i < n; i++) {
        host::AlignmentJob<seq::DnaChar> j;
        j.query = seq::randomDna(len, rng);
        j.reference = seq::mutateDna(j.query, 0.1, 0.05, rng);
        if (j.reference.length() > len)
            j.reference.chars.resize(static_cast<size_t>(len));
        jobs.push_back(std::move(j));
    }
    return jobs;
}

/** A throughput-only device configuration (no path statistics). */
host::BatchConfig
deviceConfig(int npe, int nb, int nk)
{
    host::BatchConfig cfg;
    cfg.npe = npe;
    cfg.nb = nb;
    cfg.nk = nk;
    cfg.collectPathStats = false;
    return cfg;
}

/** One ticket through a fresh pipeline, submitted and collected. */
template <typename K>
host::BatchStats
runDevice(const host::BatchConfig &cfg,
          const std::vector<host::AlignmentJob<seq::DnaChar>> &jobs,
          std::vector<typename host::StreamPipeline<K>::Result> *results =
              nullptr)
{
    host::StreamPipeline<K> pipeline(cfg);
    return pipeline.collect(pipeline.submitBorrowed(jobs), results);
}

} // namespace

TEST(StreamPipeline, DeviceResultsMatchBareEngine)
{
    const auto jobs = deviceJobs(24, 31);
    std::vector<host::StreamPipeline<kernels::GlobalAffine>::Result> results;
    runDevice<kernels::GlobalAffine>(deviceConfig(16, 4, 2), jobs,
                                     &results);
    ASSERT_EQ(results.size(), jobs.size());

    sim::EngineConfig ecfg;
    ecfg.numPe = 16;
    sim::SystolicAligner<kernels::GlobalAffine> engine(ecfg);
    for (size_t i = 0; i < jobs.size(); i++) {
        const auto want = engine.align(jobs[i].query, jobs[i].reference);
        EXPECT_EQ(results[i].score, want.score) << i;
        EXPECT_EQ(results[i].ops, want.ops) << i;
    }
}

TEST(StreamPipeline, DeviceThroughputScalesWithBlocks)
{
    const auto jobs = deviceJobs(128, 32);
    auto run = [&](int nb, int nk) {
        return runDevice<kernels::GlobalLinear>(deviceConfig(8, nb, nk),
                                                jobs)
            .alignsPerSec;
    };
    const double t1 = run(1, 1);
    const double t4 = run(4, 1);
    const double t16 = run(8, 2);
    // Near-perfect inter-alignment parallelism (Fig. 3A/D, NB scaling).
    EXPECT_NEAR(t4 / t1, 4.0, 0.5);
    EXPECT_NEAR(t16 / t1, 16.0, 2.0);
}

TEST(StreamPipeline, DeviceChannelsSplitWorkEvenly)
{
    const auto jobs = deviceJobs(64, 33);
    // Same total blocks => nearly the same makespan.
    const auto sa =
        runDevice<kernels::GlobalLinear>(deviceConfig(8, 4, 1), jobs);
    const auto sb =
        runDevice<kernels::GlobalLinear>(deviceConfig(8, 2, 2), jobs);
    EXPECT_NEAR(static_cast<double>(sa.makespanCycles),
                static_cast<double>(sb.makespanCycles),
                0.15 * static_cast<double>(sa.makespanCycles));
}

TEST(StreamPipeline, DeviceCyclesPerAlignIndependentOfParallelism)
{
    const auto jobs = deviceJobs(64, 34);
    auto cycles = [&](int nb, int nk) {
        return runDevice<kernels::GlobalLinear>(deviceConfig(8, nb, nk),
                                                jobs)
            .cyclesPerAlign;
    };
    EXPECT_DOUBLE_EQ(cycles(1, 1), cycles(8, 4));
}

TEST(StreamPipeline, DeviceHostOverheadLowersThroughput)
{
    const auto jobs = deviceJobs(32, 35);
    auto run = [&](uint64_t overhead) {
        host::BatchConfig cfg = deviceConfig(8, 16, 4);
        cfg.hostOverheadCycles = overhead;
        return runDevice<kernels::GlobalLinear>(cfg, jobs).alignsPerSec;
    };
    EXPECT_GT(run(0), run(4000));
}

TEST(StreamPipeline, DeviceFrequencyScalesThroughput)
{
    const auto jobs = deviceJobs(32, 36);
    auto run = [&](double mhz) {
        host::BatchConfig cfg = deviceConfig(8, 16, 4);
        cfg.fmaxMhz = mhz;
        return runDevice<kernels::GlobalLinear>(cfg, jobs).alignsPerSec;
    };
    EXPECT_NEAR(run(250.0) / run(125.0), 2.0, 1e-6);
}

TEST(StreamPipeline, DeviceEmptyBatch)
{
    const auto stats = runDevice<kernels::GlobalLinear>(
        deviceConfig(32, 16, 4), {});
    EXPECT_EQ(stats.alignments, 0);
    EXPECT_EQ(stats.makespanCycles, 0u);
}

TEST(StreamPipeline, DeviceStatsAccounting)
{
    const auto jobs = deviceJobs(16, 37);
    const auto stats =
        runDevice<kernels::GlobalLinear>(deviceConfig(8, 2, 2), jobs);
    EXPECT_EQ(stats.alignments, 16);
    EXPECT_GT(stats.totalCycles, 0u);
    EXPECT_GE(stats.totalCycles,
              stats.makespanCycles); // work spread over 4 blocks
    EXPECT_GT(stats.alignsPerSec, 0.0);
    EXPECT_GT(stats.cyclesPerAlign, 0.0);
}
