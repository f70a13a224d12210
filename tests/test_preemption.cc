/**
 * @file
 * Preemption and mid-shard cancel tests.
 *
 * A device channel's shard loop polls its preemption token and the
 * ticket's cancellation flag before each job. Armed preemption that
 * never fires must be invisible — results, per-job cycles, and channel
 * accounting bit-identical to preemption off — for every registered
 * kernel at lane widths 1 and 4. Preemption that actually fires may
 * split a shard's arbiter accounting across resumptions (busy cycles
 * are then a sum of per-resumption makespans), but per-job results and
 * cycles must still match the never-preempted run exactly, with no lost
 * or duplicated writebacks. A cancel() landing mid-shard must drop only
 * not-yet-started jobs and still close the epoch: alignments +
 * cancelled == jobs, and the completion mask's population count ==
 * alignments.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "core/cigar.hh"
#include "helpers.hh"
#include "host/stream_pipeline.hh"
#include "kernels/all.hh"

using namespace dphls;

namespace {

using test::shapedPair;

template <typename K>
std::vector<typename host::StreamPipeline<K>::Job>
shapedJobs(uint64_t seed)
{
    seq::Rng rng(seed);
    const std::pair<int, int> shapes[] = {
        {0, 0},   {1, 40},  {40, 1},   {3, 37},  {31, 33},
        {33, 31}, {64, 64}, {97, 113}, {17, 90}, {120, 45},
        {80, 80}, {5, 5},   {113, 97}, {48, 96}, {96, 48},
    };
    std::vector<typename host::StreamPipeline<K>::Job> jobs;
    for (const auto &[qlen, rlen] : shapes) {
        auto p = shapedPair<K>(rng, qlen, rlen);
        jobs.push_back({std::move(p.query), std::move(p.reference)});
    }
    return jobs;
}

/** A uniform batch of @p n pairs, all @p len x @p len. */
template <typename K>
std::vector<typename host::StreamPipeline<K>::Job>
uniformJobs(uint64_t seed, int n, int len)
{
    seq::Rng rng(seed);
    std::vector<typename host::StreamPipeline<K>::Job> jobs;
    jobs.reserve(static_cast<size_t>(n));
    for (int i = 0; i < n; i++) {
        auto p = shapedPair<K>(rng, len, len);
        jobs.push_back({std::move(p.query), std::move(p.reference)});
    }
    return jobs;
}

template <typename K>
void
expectSameOutputs(
    const std::vector<typename host::StreamPipeline<K>::Result> &want,
    const std::vector<uint64_t> &want_cycles,
    const std::vector<typename host::StreamPipeline<K>::Result> &got,
    const std::vector<uint64_t> &got_cycles, const char *what)
{
    using Tr = core::ScoreTraits<typename K::ScoreT>;
    ASSERT_EQ(want.size(), got.size()) << K::name << " " << what;
    ASSERT_EQ(want_cycles, got_cycles) << K::name << " " << what;
    for (size_t i = 0; i < want.size(); i++) {
        const std::string ctx = std::string(K::name) + " " + what +
            " job " + std::to_string(i);
        ASSERT_EQ(Tr::toDouble(want[i].score), Tr::toDouble(got[i].score))
            << ctx;
        ASSERT_EQ(want[i].end, got[i].end) << ctx;
        ASSERT_EQ(want[i].start, got[i].start) << ctx;
        ASSERT_EQ(core::toCigar(want[i].ops), core::toCigar(got[i].ops))
            << ctx;
    }
}

host::BatchConfig
baseConfig(int lane_width)
{
    host::BatchConfig cfg;
    cfg.npe = 16;
    cfg.nb = 2;
    cfg.nk = 3;
    cfg.threads = 2;
    cfg.laneWidth = lane_width;
    cfg.bandWidth = 16;
    cfg.maxQueryLength = 512;
    cfg.maxReferenceLength = 512;
    cfg.cacheEntries = 0; // keep hit/miss effects out of the diff
    return cfg;
}

/**
 * The transparency differential: preemption armed (a token registered
 * on every device shard) but never requested must be bit-identical to
 * preemption off — results, per-job cycles, totals, makespan, and
 * per-channel busy cycles.
 */
template <typename K>
void
armedMatchesOff(int lane_width)
{
    using Pipeline = host::StreamPipeline<K>;
    auto jobs = shapedJobs<K>(static_cast<uint64_t>(K::kernelId) * 193 +
                              static_cast<uint64_t>(lane_width));

    host::BatchConfig cfg = baseConfig(lane_width);
    Pipeline off(cfg);
    std::vector<typename Pipeline::Result> want;
    std::vector<uint64_t> want_cycles;
    const auto want_stats = off.runAll(jobs, &want, &want_cycles);

    host::BatchConfig armed_cfg = cfg;
    armed_cfg.preemption = true;
    Pipeline armed(armed_cfg);
    std::vector<typename Pipeline::Result> got;
    std::vector<uint64_t> got_cycles;
    const auto got_stats = armed.runAll(jobs, &got, &got_cycles);

    const std::string what =
        "armed lanes=" + std::to_string(lane_width);
    expectSameOutputs<K>(want, want_cycles, got, got_cycles,
                         what.c_str());
    EXPECT_EQ(want_stats.alignments, got_stats.alignments) << K::name;
    EXPECT_EQ(want_stats.totalCycles, got_stats.totalCycles) << K::name;
    EXPECT_EQ(want_stats.makespanCycles, got_stats.makespanCycles)
        << K::name;
    ASSERT_EQ(want_stats.slots.size(), got_stats.slots.size());
    for (size_t c = 0; c < want_stats.slots.size(); c++) {
        EXPECT_EQ(want_stats.slots[c].busyCycles,
                  got_stats.slots[c].busyCycles)
            << K::name << " channel " << c;
        EXPECT_EQ(want_stats.slots[c].alignments,
                  got_stats.slots[c].alignments)
            << K::name << " channel " << c;
    }
    EXPECT_EQ(got_stats.preemptions, 0) << K::name;
}

template <typename K>
void
armedDifferential()
{
    armedMatchesOff<K>(4); // lane groups
    armedMatchesOff<K>(1); // one job at a time
}

/** The contended-slot configuration: one channel, one worker. */
host::BatchConfig
contendedConfig(int lane_width)
{
    host::BatchConfig cfg;
    cfg.npe = 16;
    cfg.nb = 2;
    cfg.nk = 1;
    cfg.threads = 1;
    cfg.laneWidth = lane_width;
    cfg.bandWidth = 16;
    cfg.maxQueryLength = 256;
    cfg.maxReferenceLength = 256;
    cfg.cacheEntries = 0;
    return cfg;
}

} // namespace

TEST(Preemption, ArmedNeverFiredMatchesOffAllKernels)
{
    armedDifferential<kernels::GlobalLinear>();
    armedDifferential<kernels::GlobalAffine>();
    armedDifferential<kernels::LocalLinear>();
    armedDifferential<kernels::LocalAffine>();
    armedDifferential<kernels::GlobalTwoPiece>();
    armedDifferential<kernels::Overlap>();
    armedDifferential<kernels::SemiGlobal>();
    armedDifferential<kernels::ProfileAlignment>();
    armedDifferential<kernels::Dtw>();
    armedDifferential<kernels::Viterbi>();
    armedDifferential<kernels::BandedGlobalLinear>();
    armedDifferential<kernels::BandedLocalAffine>();
    armedDifferential<kernels::BandedGlobalTwoPiece>();
    armedDifferential<kernels::Sdtw>();
    armedDifferential<kernels::ProteinLocal>();
}

namespace {

/**
 * A bulk shard occupies the only channel when a higher-priority ticket
 * arrives and requests its token; the shard yields at a lane-group
 * boundary and the remainder resumes after the urgent ticket drains.
 */
void
preemptedMatchesUnpreempted(int lane_width)
{
    using K = kernels::GlobalLinear;
    using Pipeline = host::StreamPipeline<K>;

    const int n_bulk = 600;
    auto bulk = uniformJobs<K>(2026, n_bulk, 96);
    auto urgent = uniformJobs<K>(7, 4, 64);

    host::BatchConfig cfg = contendedConfig(lane_width);
    cfg.preemption = true;

    // Golden leg: same config, each batch alone (nothing to preempt).
    std::vector<Pipeline::Result> want_bulk, want_urgent;
    std::vector<uint64_t> want_bulk_cycles, want_urgent_cycles;
    {
        Pipeline golden(cfg);
        golden.runAll(bulk, &want_bulk, &want_bulk_cycles);
        golden.runAll(urgent, &want_urgent, &want_urgent_cycles);
    }

    Pipeline pipeline(cfg);
    auto t_bulk = pipeline.submit(bulk);
    host::TicketOptions hi;
    hi.priority = 10;
    auto t_urgent = pipeline.submit(urgent, hi);

    std::vector<Pipeline::Result> got_bulk, got_urgent;
    std::vector<uint64_t> got_bulk_cycles, got_urgent_cycles;
    const auto bulk_stats =
        pipeline.collect(t_bulk, &got_bulk, &got_bulk_cycles);
    pipeline.collect(t_urgent, &got_urgent, &got_urgent_cycles);

    // No lost or duplicated writebacks, and bit-identical outputs in
    // spite of any number of preempt/resume rounds (zero is legal:
    // the bulk shard may win the race and finish first).
    expectSameOutputs<K>(want_bulk, want_bulk_cycles, got_bulk,
                         got_bulk_cycles, "preempted bulk");
    expectSameOutputs<K>(want_urgent, want_urgent_cycles, got_urgent,
                         got_urgent_cycles, "preempting urgent");
    EXPECT_EQ(bulk_stats.alignments, n_bulk);
    int completed = 0;
    for (const uint8_t c : t_bulk->completed())
        completed += c;
    EXPECT_EQ(completed, n_bulk);
    EXPECT_GE(bulk_stats.preemptions, 0);
    // Sections close: preemptions ride along per backend without
    // entering the jobs closure.
    int sec_preempts = 0;
    for (const auto &b :
         host::backendSections(bulk_stats, host::BatchConfig{}.fmaxMhz))
        sec_preempts += b.preemptions;
    EXPECT_EQ(sec_preempts, bulk_stats.preemptions);
}

void
forcedPreemptionFires(int lane_width)
{
    using K = kernels::GlobalAffine;
    using Pipeline = host::StreamPipeline<K>;

    const int n_bulk = 800;
    auto bulk = uniformJobs<K>(11, n_bulk, 96);
    auto urgent = uniformJobs<K>(13, 2, 64);

    host::BatchConfig cfg = contendedConfig(lane_width);
    cfg.preemption = true;

    std::vector<Pipeline::Result> want_bulk;
    std::vector<uint64_t> want_bulk_cycles;
    {
        Pipeline golden(cfg);
        golden.runAll(bulk, &want_bulk, &want_bulk_cycles);
    }

    // Retry until a preemption actually lands: the request is
    // asynchronous, so a single attempt can lose the race when the
    // bulk shard drains before the urgent submit reaches the token —
    // or, on a single-CPU host, when the urgent submit lands before
    // the worker thread ever starts the bulk shard (so the urgent
    // ticket is simply dispatched first and nothing is running to
    // preempt). The sleep yields the CPU so the shard gets going; the
    // sleep grows with the attempt to cover slow/loaded machines.
    bool fired = false;
    for (int attempt = 0; attempt < 10 && !fired; attempt++) {
        Pipeline pipeline(cfg);
        auto t_bulk = pipeline.submit(bulk);
        std::this_thread::sleep_for(
            std::chrono::milliseconds(1 + attempt));
        host::TicketOptions hi;
        hi.priority = 10;
        auto t_urgent = pipeline.submit(urgent, hi);
        std::vector<Pipeline::Result> got_bulk;
        std::vector<uint64_t> got_bulk_cycles;
        const auto stats =
            pipeline.collect(t_bulk, &got_bulk, &got_bulk_cycles);
        pipeline.collect(t_urgent);
        expectSameOutputs<K>(want_bulk, want_bulk_cycles, got_bulk,
                             got_bulk_cycles, "forced preempt");
        EXPECT_EQ(stats.alignments, n_bulk);
        fired = stats.preemptions > 0;
    }
    EXPECT_TRUE(fired)
        << "no preemption fired in 10 attempts of an 800-job bulk "
           "shard contended by a priority-10 ticket, lanes="
        << lane_width;
}

void
cancelMidShardClosesEpoch(int lane_width)
{
    using K = kernels::GlobalLinear;
    using Pipeline = host::StreamPipeline<K>;

    const int n = 500;
    auto jobs = uniformJobs<K>(31, n, 96);
    const host::BatchConfig cfg = contendedConfig(lane_width);

    // Every interleaving must close the epoch: cancel before the shard
    // starts (all jobs cancelled), mid-shard (a partial split), or
    // after completion (nothing cancelled).
    for (const int spin : {0, 1000, 200000}) {
        Pipeline pipeline(cfg);
        std::atomic<int> callbacks{0};
        auto ticket = pipeline.submit(
            jobs, [&](host::BatchTicket<K> &) { callbacks++; });
        for (int i = 0; i < spin; i++) {
            asm volatile("" ::: "memory"); // spin the optimizer can't fold
        }
        ticket->cancel();
        ticket->wait();
        const auto &stats = ticket->stats();
        EXPECT_EQ(stats.alignments + stats.cancelled, n)
            << "spin " << spin;
        int completed = 0;
        for (const uint8_t c : ticket->completed())
            completed += c;
        EXPECT_EQ(completed, stats.alignments) << "spin " << spin;
        // Completed jobs hold live outputs; dropped ones defaults.
        const auto &results = ticket->results();
        const auto &cycles = ticket->cycles();
        for (size_t i = 0; i < results.size(); i++) {
            if (ticket->completed()[i]) {
                EXPECT_GT(cycles[i], 0u) << "job " << i;
            } else {
                EXPECT_EQ(cycles[i], 0u) << "job " << i;
                EXPECT_TRUE(results[i].ops.empty()) << "job " << i;
            }
        }
        // Per-backend sections close over the partial epoch.
        int sec_aligns = 0, sec_cancelled = 0;
        for (const auto &b :
             host::backendSections(stats, host::BatchConfig{}.fmaxMhz)) {
            sec_aligns += b.alignments;
            sec_cancelled += b.cancelled;
        }
        EXPECT_EQ(sec_aligns, stats.alignments) << "spin " << spin;
        EXPECT_EQ(sec_cancelled, stats.cancelled) << "spin " << spin;
        EXPECT_EQ(callbacks.load(), 1) << "spin " << spin;
    }
}

} // namespace

TEST(Preemption, PreemptedRunIsBitIdenticalToUnpreempted)
{
    preemptedMatchesUnpreempted(4);
    preemptedMatchesUnpreempted(1);
}

TEST(Preemption, ForcedPreemptionFiresAndStaysIdentical)
{
    forcedPreemptionFires(4);
    forcedPreemptionFires(1);
}

TEST(Preemption, CancelMidShardDropsUnstartedJobsAndClosesEpoch)
{
    cancelMidShardClosesEpoch(4);
    cancelMidShardClosesEpoch(1);
}

TEST(Preemption, PreemptibleTicketsCoexistWithCpuFallback)
{
    // Mixed routing: the CPU backend never yields mid-shard and its
    // slot is never preemptible, so a hetero batch exercises both the
    // preemptible device channels and the run-to-completion fallback in
    // one ticket. Outputs must match the same pipeline without
    // preemption.
    using K = kernels::LocalAffine;
    using Pipeline = host::StreamPipeline<K>;
    auto jobs = shapedJobs<K>(401);

    host::BatchConfig cfg = baseConfig(4);
    cfg.cpuFallback = true;
    cfg.cpuFloorLen = 8;
    cfg.cpuModeledCellsPerSec = 4e8;

    Pipeline off(cfg);
    std::vector<Pipeline::Result> want;
    std::vector<uint64_t> want_cycles;
    const auto want_stats = off.runAll(jobs, &want, &want_cycles);

    host::BatchConfig armed_cfg = cfg;
    armed_cfg.preemption = true;
    Pipeline armed(armed_cfg);
    std::vector<Pipeline::Result> got;
    std::vector<uint64_t> got_cycles;
    const auto got_stats = armed.runAll(jobs, &got, &got_cycles);

    expectSameOutputs<K>(want, want_cycles, got, got_cycles,
                         "hetero armed");
    EXPECT_EQ(want_stats.alignments, got_stats.alignments);
    EXPECT_EQ(want_stats.totalCycles, got_stats.totalCycles);
    const size_t cpu = got_stats.deviceSlots(); // the CPU slot
    EXPECT_EQ(want_stats.slots[cpu].alignments,
              got_stats.slots[cpu].alignments);
    EXPECT_GT(got_stats.slots[cpu].alignments, 0);
}
