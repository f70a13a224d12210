/**
 * @file
 * Batch tests: StreamPipeline's batched results must be bit-identical to
 * sequential single-job engine runs across channel counts and odd batch
 * sizes, the async submit()/drain() path must preserve submission order,
 * and the cycle/path accounting must be consistent.
 */

#include <gtest/gtest.h>

#include <thread>

#include "helpers.hh"
#include "host/stream_pipeline.hh"
#include "kernels/all.hh"

using namespace dphls;

namespace {

template <typename K>
using Jobs = std::vector<typename host::StreamPipeline<K>::Job>;

Jobs<kernels::LocalAffine>
dnaJobs(int n, uint64_t seed)
{
    Jobs<kernels::LocalAffine> jobs;
    seq::Rng rng(seed);
    for (int i = 0; i < n; i++) {
        auto p = test::randomDnaPair(rng, 96);
        jobs.push_back({std::move(p.query), std::move(p.reference)});
    }
    return jobs;
}

Jobs<kernels::ProteinLocal>
proteinJobs(int n, uint64_t seed)
{
    Jobs<kernels::ProteinLocal> jobs;
    seq::Rng rng(seed);
    for (int i = 0; i < n; i++) {
        const int len = seq::sampleProteinLength(rng, 30, 120);
        auto ref = seq::sampleProtein(len, rng);
        auto qry = seq::mutateProtein(ref, 0.15, 0.05, rng);
        jobs.push_back({std::move(qry), std::move(ref)});
    }
    return jobs;
}

/** Sequential single-job engine runs with the same engine options. */
template <typename K>
std::vector<typename host::StreamPipeline<K>::Result>
sequentialRuns(const Jobs<K> &jobs, const host::BatchConfig &cfg)
{
    sim::EngineConfig ecfg;
    ecfg.numPe = cfg.npe;
    ecfg.bandWidth = cfg.bandWidth;
    ecfg.maxQueryLength = cfg.maxQueryLength;
    ecfg.maxReferenceLength = cfg.maxReferenceLength;
    ecfg.skipTraceback = cfg.skipTraceback;
    sim::SystolicAligner<K> engine(ecfg);
    std::vector<typename host::StreamPipeline<K>::Result> out;
    out.reserve(jobs.size());
    for (const auto &j : jobs)
        out.push_back(engine.align(j.query, j.reference));
    return out;
}

template <typename K>
void
expectBitIdentical(const Jobs<K> &jobs, int nk)
{
    host::BatchConfig cfg;
    cfg.npe = 16;
    cfg.nb = 2;
    cfg.nk = nk;
    cfg.maxQueryLength = 512;
    cfg.maxReferenceLength = 512;
    host::StreamPipeline<K> pipeline(cfg);
    std::vector<typename host::StreamPipeline<K>::Result> got;
    const auto stats = pipeline.runAll(jobs, &got);

    const auto want = sequentialRuns<K>(jobs, cfg);
    ASSERT_EQ(got.size(), jobs.size()) << "nk=" << nk;
    EXPECT_EQ(stats.alignments, static_cast<int>(jobs.size()));
    for (size_t i = 0; i < jobs.size(); i++) {
        EXPECT_EQ(got[i].score, want[i].score) << "job " << i;
        EXPECT_EQ(got[i].end, want[i].end) << "job " << i;
        EXPECT_EQ(got[i].start, want[i].start) << "job " << i;
        EXPECT_EQ(got[i].ops, want[i].ops) << "job " << i;
    }
}

} // namespace

TEST(StreamPipeline, DnaBitIdenticalAcrossChannelCounts)
{
    const auto jobs = dnaJobs(24, 101);
    for (int nk : {1, 2, 8})
        expectBitIdentical<kernels::LocalAffine>(jobs, nk);
}

TEST(StreamPipeline, ProteinBitIdenticalAcrossChannelCounts)
{
    const auto jobs = proteinJobs(24, 102);
    for (int nk : {1, 2, 8})
        expectBitIdentical<kernels::ProteinLocal>(jobs, nk);
}

TEST(StreamPipeline, OddBatchSizes)
{
    const int nk = 4;
    // 0, 1, NK-1, NK+1 jobs against NK channels.
    for (int n : {0, 1, nk - 1, nk + 1}) {
        const auto jobs = dnaJobs(n, 200 + static_cast<uint64_t>(n));
        expectBitIdentical<kernels::LocalAffine>(jobs, nk);
        const auto pjobs = proteinJobs(n, 300 + static_cast<uint64_t>(n));
        expectBitIdentical<kernels::ProteinLocal>(pjobs, nk);
    }
}

TEST(StreamPipeline, EmptyBatch)
{
    host::StreamPipeline<kernels::LocalAffine> pipeline;
    std::vector<host::StreamPipeline<kernels::LocalAffine>::Result> results;
    const auto stats = pipeline.runAll({}, &results);
    EXPECT_EQ(stats.alignments, 0);
    EXPECT_EQ(stats.makespanCycles, 0u);
    EXPECT_TRUE(results.empty());
}

TEST(StreamPipeline, AsyncSubmitDrainPreservesOrder)
{
    const auto jobs = dnaJobs(20, 400);
    host::BatchConfig cfg;
    cfg.npe = 16;
    cfg.nk = 3;
    host::StreamPipeline<kernels::LocalAffine> pipeline(cfg);

    // Two batches submitted back-to-back; drained results must follow
    // submission order: jobs[0..11], then jobs[12..19].
    std::vector<host::StreamPipeline<kernels::LocalAffine>::Job> first(
        jobs.begin(), jobs.begin() + 12);
    std::vector<host::StreamPipeline<kernels::LocalAffine>::Job> second(
        jobs.begin() + 12, jobs.end());
    pipeline.submit(std::move(first));
    pipeline.submit(std::move(second));

    std::vector<host::StreamPipeline<kernels::LocalAffine>::Result> got;
    std::vector<uint64_t> cycles;
    const auto stats = pipeline.drain(&got, &cycles);

    const auto want = sequentialRuns<kernels::LocalAffine>(jobs, cfg);
    ASSERT_EQ(got.size(), jobs.size());
    ASSERT_EQ(cycles.size(), jobs.size());
    EXPECT_EQ(stats.alignments, static_cast<int>(jobs.size()));
    for (size_t i = 0; i < jobs.size(); i++) {
        EXPECT_EQ(got[i].score, want[i].score) << "job " << i;
        EXPECT_EQ(got[i].ops, want[i].ops) << "job " << i;
        EXPECT_GT(cycles[i], 0u) << "job " << i;
    }
}

TEST(StreamPipeline, ConcurrentProducersAllJobsExecute)
{
    host::BatchConfig cfg;
    cfg.npe = 8;
    cfg.nk = 4;
    host::StreamPipeline<kernels::LocalAffine> pipeline(cfg);

    const int producers = 4;
    const int per_producer = 5;
    std::vector<std::thread> threads;
    for (int p = 0; p < producers; p++) {
        threads.emplace_back([&pipeline, p] {
            pipeline.submit(
                dnaJobs(per_producer, 500 + static_cast<uint64_t>(p)));
        });
    }
    for (auto &t : threads)
        t.join();

    std::vector<host::StreamPipeline<kernels::LocalAffine>::Result> got;
    const auto stats = pipeline.drain(&got);
    EXPECT_EQ(stats.alignments, producers * per_producer);
    EXPECT_EQ(got.size(),
              static_cast<size_t>(producers * per_producer));
}

TEST(StreamPipeline, DestructionWithUndrainedWorkIsSafe)
{
    std::vector<host::StreamPipeline<kernels::LocalAffine>::Job> jobs =
        dnaJobs(16, 450);
    {
        host::BatchConfig cfg;
        cfg.npe = 8;
        cfg.nk = 2;
        host::StreamPipeline<kernels::LocalAffine> pipeline(cfg);
        pipeline.submit(std::move(jobs));
        // Destroyed with submitted-but-undrained work: the pool drains
        // its queue first, so shard tasks must not touch freed channels.
    }
    SUCCEED();
}

TEST(StreamPipeline, DrainResetsAccounting)
{
    host::StreamPipeline<kernels::LocalAffine> pipeline;
    pipeline.submit(dnaJobs(8, 600));
    const auto first = pipeline.drain();
    EXPECT_EQ(first.alignments, 8);
    const auto second = pipeline.drain();
    EXPECT_EQ(second.alignments, 0);
    EXPECT_EQ(second.makespanCycles, 0u);
    EXPECT_EQ(second.totalCycles, 0u);
}

TEST(StreamPipeline, StatsAccountingConsistent)
{
    const auto jobs = dnaJobs(16, 700);
    host::BatchConfig cfg;
    cfg.npe = 8;
    cfg.nb = 2;
    cfg.nk = 2;
    host::StreamPipeline<kernels::LocalAffine> pipeline(cfg);
    std::vector<uint64_t> cycles;
    const auto stats = pipeline.runAll(jobs, nullptr, &cycles);

    ASSERT_EQ(stats.deviceSlots(), 2u);
    uint64_t total = 0;
    int count = 0;
    for (const auto &ch : stats.slots) {
        EXPECT_LE(ch.busyCycles, ch.totalCycles);
        total += ch.totalCycles;
        count += ch.alignments;
    }
    EXPECT_EQ(total, stats.totalCycles);
    EXPECT_EQ(count, stats.alignments);
    uint64_t per_job_sum = 0;
    for (auto c : cycles)
        per_job_sum += c;
    EXPECT_EQ(per_job_sum, stats.totalCycles);
    EXPECT_GE(stats.totalCycles, stats.makespanCycles);
    EXPECT_GT(stats.alignsPerSec, 0.0);
    // Path stats cover every traceback column of every job.
    EXPECT_GT(stats.paths.columns, 0);
    EXPECT_GT(stats.paths.matches, 0);
}

TEST(StreamPipeline, ThroughputScalesWithChannels)
{
    const auto jobs = dnaJobs(64, 800);
    auto run = [&](int nk) {
        host::BatchConfig cfg;
        cfg.npe = 8;
        cfg.nb = 1;
        cfg.nk = nk;
        host::StreamPipeline<kernels::LocalAffine> pipeline(cfg);
        return pipeline.runAll(jobs).alignsPerSec;
    };
    const double t1 = run(1);
    const double t4 = run(4);
    EXPECT_NEAR(t4 / t1, 4.0, 0.6);
}
