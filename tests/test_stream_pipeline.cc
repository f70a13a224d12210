/**
 * @file
 * Streaming executor tests: the ticket path must be bit-identical —
 * results, CIGARs and per-job device cycles — to blocking runAll() for
 * every registered kernel; overlapped submission and completion
 * callbacks must behave; heterogeneous device/CPU dispatch accounting
 * must stay consistent (per-backend sections summing to epoch totals);
 * length-sorted lane grouping must be observation-transparent; a
 * thread waiting in collect()/drain() must run queued shards without
 * changing any output; and a pipeline destroyed with in-flight tickets
 * must still complete them.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <future>
#include <mutex>
#include <thread>

#include "core/cigar.hh"
#include "helpers.hh"
#include "host/stream_pipeline.hh"
#include "kernels/all.hh"
#include "reference/matrix_aligner.hh"

using namespace dphls;

namespace {

using test::shapedPair;

template <typename K>
std::vector<typename host::StreamPipeline<K>::Job>
shapedJobs(uint64_t seed)
{
    seq::Rng rng(seed);
    const std::pair<int, int> shapes[] = {
        {0, 0},  {1, 40},  {40, 1},  {3, 37},   {31, 33},
        {33, 31}, {64, 64}, {97, 113}, {17, 90}, {120, 45},
    };
    std::vector<typename host::StreamPipeline<K>::Job> jobs;
    for (const auto &[qlen, rlen] : shapes) {
        auto p = shapedPair<K>(rng, qlen, rlen);
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

/**
 * The acceptance differential: ticket-path streaming execution (two
 * overlapping submissions) vs blocking runAll(), per kernel, with SIMD
 * lanes, length sorting and a decoupled thread count in play.
 */
template <typename K>
void
streamingMatchesRunAll()
{
    using Pipeline = host::StreamPipeline<K>;
    auto jobs = shapedJobs<K>(static_cast<uint64_t>(K::kernelId) * 77 + 5);

    host::BatchConfig cfg;
    cfg.npe = 16;
    cfg.nb = 2;
    cfg.nk = 3;
    cfg.threads = 2; // decoupled from nk
    cfg.laneWidth = 4;
    cfg.bandWidth = 16;
    cfg.maxQueryLength = 512;
    cfg.maxReferenceLength = 512;

    Pipeline blocking(cfg);
    std::vector<typename Pipeline::Result> want;
    std::vector<uint64_t> want_cycles;
    const auto want_stats = blocking.runAll(jobs, &want, &want_cycles);

    // Same jobs split across two tickets submitted before either is
    // collected; outputs concatenate in submission order.
    Pipeline streaming(cfg);
    const size_t split = jobs.size() / 2;
    std::vector<typename Pipeline::Job> first(jobs.begin(),
                                              jobs.begin() + split);
    std::vector<typename Pipeline::Job> second(jobs.begin() + split,
                                               jobs.end());
    auto t1 = streaming.submit(std::move(first));
    auto t2 = streaming.submit(std::move(second));
    std::vector<typename Pipeline::Result> got, got2;
    std::vector<uint64_t> got_cycles, got_cycles2;
    const auto s1 = streaming.collect(t1, &got, &got_cycles);
    const auto s2 = streaming.collect(t2, &got2, &got_cycles2);
    got.insert(got.end(), std::make_move_iterator(got2.begin()),
               std::make_move_iterator(got2.end()));
    got_cycles.insert(got_cycles.end(), got_cycles2.begin(),
                      got_cycles2.end());

    expectSameOutputs<K>(want, want_cycles, got, got_cycles, "stream");
    EXPECT_EQ(s1.alignments + s2.alignments, want_stats.alignments)
        << K::name;
    EXPECT_EQ(s1.totalCycles + s2.totalCycles, want_stats.totalCycles)
        << K::name;
}

/**
 * The cost-model router differential: CostModel and Threshold dispatch
 * must produce identical result sets for the same batch — whichever
 * backend serves a job, functional outputs are pinned to the same
 * golden semantics (cycles legitimately differ: the backends have
 * different cost models). Per-backend sections must sum to the epoch
 * totals under both policies.
 */
template <typename K>
void
costModelMatchesThreshold()
{
    using Pipeline = host::StreamPipeline<K>;
    using Tr = core::ScoreTraits<typename K::ScoreT>;
    auto jobs = shapedJobs<K>(static_cast<uint64_t>(K::kernelId) * 131 + 9);

    host::BatchConfig cfg;
    cfg.npe = 16;
    cfg.nb = 2;
    cfg.nk = 3;
    cfg.laneWidth = 4;
    cfg.bandWidth = 16;
    cfg.maxQueryLength = 512;
    cfg.maxReferenceLength = 512;
    cfg.cpuFallback = true;
    cfg.cpuFloorLen = 8;
    cfg.cpuModeledCellsPerSec = 4e8; // deterministic CPU accounting
    host::BatchConfig cost_cfg = cfg;
    cost_cfg.dispatch = host::DispatchPolicy::CostModel;
    cost_cfg.gpuModel = true; // three-way for the kernels Fig. 6B covers

    Pipeline threshold(cfg), cost(cost_cfg);
    std::vector<typename Pipeline::Result> want, got;
    const auto tstats = threshold.runAll(jobs, &want);
    const auto cstats = cost.runAll(jobs, &got);

    ASSERT_EQ(want.size(), got.size()) << K::name;
    for (size_t i = 0; i < want.size(); i++) {
        const std::string ctx =
            std::string(K::name) + " policy-diff job " + std::to_string(i);
        ASSERT_EQ(Tr::toDouble(want[i].score), Tr::toDouble(got[i].score))
            << ctx;
        ASSERT_EQ(want[i].end, got[i].end) << ctx;
        ASSERT_EQ(want[i].start, got[i].start) << ctx;
        ASSERT_EQ(core::toCigar(want[i].ops), core::toCigar(got[i].ops))
            << ctx;
    }
    EXPECT_EQ(tstats.alignments, cstats.alignments) << K::name;
    for (const auto *stats : {&tstats, &cstats}) {
        int aligns = 0;
        uint64_t total = 0;
        for (const auto &b : host::backendSections(
                 *stats, cfg.fmaxMhz, cfg.cpuEquivalentMhz)) {
            aligns += b.alignments;
            total += b.totalCycles;
        }
        EXPECT_EQ(aligns, stats->alignments) << K::name;
        EXPECT_EQ(total, stats->totalCycles) << K::name;
    }
}

} // namespace

TEST(StreamPipeline, CostModelMatchesThresholdAllKernels)
{
    costModelMatchesThreshold<kernels::GlobalLinear>();
    costModelMatchesThreshold<kernels::GlobalAffine>();
    costModelMatchesThreshold<kernels::LocalLinear>();
    costModelMatchesThreshold<kernels::LocalAffine>();
    costModelMatchesThreshold<kernels::GlobalTwoPiece>();
    costModelMatchesThreshold<kernels::Overlap>();
    costModelMatchesThreshold<kernels::SemiGlobal>();
    costModelMatchesThreshold<kernels::ProfileAlignment>();
    costModelMatchesThreshold<kernels::Dtw>();
    costModelMatchesThreshold<kernels::Viterbi>();
    costModelMatchesThreshold<kernels::BandedGlobalLinear>();
    costModelMatchesThreshold<kernels::BandedLocalAffine>();
    costModelMatchesThreshold<kernels::BandedGlobalTwoPiece>();
    costModelMatchesThreshold<kernels::Sdtw>();
    costModelMatchesThreshold<kernels::ProteinLocal>();
}

TEST(StreamPipeline, GlobalLinearMatchesRunAll)
{
    streamingMatchesRunAll<kernels::GlobalLinear>();
}
TEST(StreamPipeline, GlobalAffineMatchesRunAll)
{
    streamingMatchesRunAll<kernels::GlobalAffine>();
}
TEST(StreamPipeline, LocalLinearMatchesRunAll)
{
    streamingMatchesRunAll<kernels::LocalLinear>();
}
TEST(StreamPipeline, LocalAffineMatchesRunAll)
{
    streamingMatchesRunAll<kernels::LocalAffine>();
}
TEST(StreamPipeline, GlobalTwoPieceMatchesRunAll)
{
    streamingMatchesRunAll<kernels::GlobalTwoPiece>();
}
TEST(StreamPipeline, OverlapMatchesRunAll)
{
    streamingMatchesRunAll<kernels::Overlap>();
}
TEST(StreamPipeline, SemiGlobalMatchesRunAll)
{
    streamingMatchesRunAll<kernels::SemiGlobal>();
}
TEST(StreamPipeline, ProfileAlignmentMatchesRunAll)
{
    streamingMatchesRunAll<kernels::ProfileAlignment>();
}
TEST(StreamPipeline, DtwMatchesRunAll)
{
    streamingMatchesRunAll<kernels::Dtw>();
}
TEST(StreamPipeline, ViterbiMatchesRunAll)
{
    streamingMatchesRunAll<kernels::Viterbi>();
}
TEST(StreamPipeline, BandedGlobalLinearMatchesRunAll)
{
    streamingMatchesRunAll<kernels::BandedGlobalLinear>();
}
TEST(StreamPipeline, BandedLocalAffineMatchesRunAll)
{
    streamingMatchesRunAll<kernels::BandedLocalAffine>();
}
TEST(StreamPipeline, BandedGlobalTwoPieceMatchesRunAll)
{
    streamingMatchesRunAll<kernels::BandedGlobalTwoPiece>();
}
TEST(StreamPipeline, SdtwMatchesRunAll)
{
    streamingMatchesRunAll<kernels::Sdtw>();
}
TEST(StreamPipeline, ProteinLocalMatchesRunAll)
{
    streamingMatchesRunAll<kernels::ProteinLocal>();
}

namespace {

using K = kernels::LocalAffine;
using Pipeline = host::StreamPipeline<K>;

std::vector<Pipeline::Job>
dnaJobs(int n, uint64_t seed, int max_len = 96)
{
    std::vector<Pipeline::Job> jobs;
    seq::Rng rng(seed);
    for (int i = 0; i < n; i++) {
        auto p = test::randomDnaPair(rng, max_len);
        jobs.push_back({std::move(p.query), std::move(p.reference)});
    }
    return jobs;
}

} // namespace

TEST(StreamPipeline, SecondBatchCompletesBeforeFirstIsCollected)
{
    host::BatchConfig cfg;
    cfg.npe = 8;
    cfg.nk = 1;
    cfg.threads = 1; // FIFO worker: deterministic completion order
    Pipeline pipeline(cfg);

    const auto all = dnaJobs(24, 900);
    std::vector<Pipeline::Job> first(all.begin(), all.begin() + 16);
    std::vector<Pipeline::Job> second(all.begin() + 16, all.end());

    auto t1 = pipeline.submit(std::move(first));
    auto t2 = pipeline.submit(std::move(second));

    // No global barrier: the second ticket completes on its own while
    // the first is still un-collected.
    t2->wait();
    EXPECT_TRUE(t2->done());
    EXPECT_EQ(t2->results().size(), 8u);

    std::vector<Pipeline::Result> res1;
    const auto s1 = pipeline.collect(t1, &res1);
    EXPECT_EQ(s1.alignments, 16);
    ASSERT_EQ(res1.size(), 16u);

    // Both tickets' outputs match fresh blocking runs of the same jobs.
    Pipeline gold(cfg);
    std::vector<Pipeline::Result> want;
    gold.runAll(all, &want);
    for (size_t i = 0; i < 16; i++)
        EXPECT_EQ(want[i].score, res1[i].score) << i;
    for (size_t i = 16; i < all.size(); i++)
        EXPECT_EQ(want[i].score, t2->results()[i - 16].score) << i;
}

TEST(StreamPipeline, CompletionCallbacksFireOnceInOrder)
{
    host::BatchConfig cfg;
    cfg.npe = 8;
    cfg.nk = 1;
    cfg.threads = 1; // FIFO worker: callbacks fire in submission order
    Pipeline pipeline(cfg);

    std::mutex mutex;
    std::vector<int> completed;
    std::vector<Pipeline::Ticket> tickets;
    for (int b = 0; b < 5; b++) {
        tickets.push_back(pipeline.submit(
            dnaJobs(3, 1000 + static_cast<uint64_t>(b)),
            [&mutex, &completed, b](host::BatchTicket<K> &t) {
                std::lock_guard lock(mutex);
                completed.push_back(b);
                EXPECT_EQ(t.results().size(), 3u);
                EXPECT_EQ(t.stats().alignments, 3);
            }));
    }
    for (const auto &t : tickets)
        t->wait();
    ASSERT_EQ(completed.size(), 5u);
    for (int b = 0; b < 5; b++)
        EXPECT_EQ(completed[static_cast<size_t>(b)], b);
}

TEST(StreamPipeline, MixedDeviceCpuDispatchAccounting)
{
    host::BatchConfig cfg;
    cfg.npe = 8;
    cfg.nb = 2;
    cfg.nk = 2;
    cfg.maxQueryLength = 128;
    cfg.maxReferenceLength = 128;
    cfg.cpuFallback = true;
    cfg.cpuFloorLen = 24;
    Pipeline pipeline(cfg);

    // 4 oversized jobs (device cannot take them), 3 tiny jobs (below
    // the floor), 9 regular device jobs.
    std::vector<Pipeline::Job> jobs;
    seq::Rng rng(77);
    auto mk = [&](int qlen, int rlen) {
        Pipeline::Job j;
        j.query = seq::randomDna(qlen, rng);
        j.reference = seq::mutateDna(j.query, 0.1, 0.05, rng);
        j.reference.chars.resize(static_cast<size_t>(rlen));
        jobs.push_back(std::move(j));
    };
    mk(300, 120);
    mk(120, 300);
    mk(200, 200);
    mk(129, 64);
    for (int i = 0; i < 3; i++)
        mk(10 + i, 12 + i);
    for (int i = 0; i < 9; i++)
        mk(60 + i, 80 + i);

    std::vector<Pipeline::Result> got;
    std::vector<uint64_t> cycles;
    const auto stats = pipeline.runAll(jobs, &got, &cycles);

    // Functional results match the full-matrix golden model for every
    // job, device- or CPU-routed alike.
    ref::MatrixAligner<K> gold(K::defaultParams(), cfg.bandWidth);
    for (size_t i = 0; i < jobs.size(); i++) {
        const auto want = gold.align(jobs[i].query, jobs[i].reference);
        EXPECT_EQ(want.score, got[i].score) << i;
        EXPECT_EQ(want.end, got[i].end) << i;
        EXPECT_EQ(want.ops, got[i].ops) << i;
        EXPECT_GT(cycles[i], 0u) << i;
    }

    // The hetero split is visible and per-backend sections sum to the
    // epoch totals.
    const auto sections = host::backendSections(stats, cfg.fmaxMhz,
                                                cfg.cpuEquivalentMhz);
    ASSERT_EQ(sections.size(), 2u);
    EXPECT_STREQ(sections[0].name, "device");
    EXPECT_STREQ(sections[1].name, "cpu");
    EXPECT_EQ(sections[1].alignments, 7);
    EXPECT_EQ(sections[0].alignments, 9);
    int aligns = 0;
    uint64_t total = 0;
    for (const auto &b : sections) {
        aligns += b.alignments;
        total += b.totalCycles;
    }
    EXPECT_EQ(aligns, stats.alignments);
    EXPECT_EQ(total, stats.totalCycles);
    EXPECT_EQ(stats.alignments, static_cast<int>(jobs.size()));
    uint64_t per_job = 0;
    for (const auto c : cycles)
        per_job += c;
    EXPECT_EQ(per_job, stats.totalCycles);
    const host::ChannelStats &cpu = stats.slots[2]; // after nk = 2
    EXPECT_GT(cpu.busyCycles, 0u);
    EXPECT_LE(cpu.busyCycles, cpu.totalCycles);
    EXPECT_GT(stats.seconds, 0.0);
    // Path stats cover CPU-routed tracebacks too.
    EXPECT_GT(stats.paths.columns, 0);
}

TEST(StreamPipeline, LengthSortedLaneGroupingIsObservationTransparent)
{
    seq::Rng rng(1234);
    std::vector<Pipeline::Job> jobs;
    // Deliberately adversarial mixed lengths in interleaved order.
    for (int i = 0; i < 33; i++) {
        const int len = (i % 2 == 0) ? 16 + i : 200 + 5 * i;
        auto p = test::randomDnaPair(rng, len);
        jobs.push_back({std::move(p.query), std::move(p.reference)});
    }

    // Lane groups wider than one are always length-sorted; the scalar
    // width runs every job alone, in shard order.
    host::BatchConfig sorted_cfg;
    sorted_cfg.npe = 16;
    sorted_cfg.nb = 4;
    sorted_cfg.nk = 2;
    sorted_cfg.laneWidth = 8;
    host::BatchConfig unsorted_cfg = sorted_cfg;
    unsorted_cfg.laneWidth = 1;

    Pipeline sorted_pipe(sorted_cfg), unsorted_pipe(unsorted_cfg);
    std::vector<Pipeline::Result> sres, ures;
    std::vector<uint64_t> scyc, ucyc;
    const auto sstats = sorted_pipe.runAll(jobs, &sres, &scyc);
    const auto ustats = unsorted_pipe.runAll(jobs, &ures, &ucyc);

    expectSameOutputs<K>(ures, ucyc, sres, scyc, "sorted-lanes");
    EXPECT_EQ(ustats.makespanCycles, sstats.makespanCycles);
    EXPECT_EQ(ustats.totalCycles, sstats.totalCycles);
    ASSERT_EQ(ustats.slots.size(), sstats.slots.size());
    for (size_t c = 0; c < ustats.slots.size(); c++) {
        EXPECT_EQ(ustats.slots[c].busyCycles,
                  sstats.slots[c].busyCycles) << c;
    }
    EXPECT_EQ(ustats.paths.matches, sstats.paths.matches);
}

TEST(StreamPipeline, ThreadCountIsDecoupledFromChannels)
{
    const auto jobs = dnaJobs(25, 4321);
    auto run = [&](int threads, std::vector<Pipeline::Result> *res,
                   std::vector<uint64_t> *cyc) {
        host::BatchConfig cfg;
        cfg.npe = 8;
        cfg.nb = 2;
        cfg.nk = 4;
        cfg.threads = threads;
        Pipeline pipeline(cfg);
        EXPECT_EQ(pipeline.channelCount(), 4);
        EXPECT_EQ(pipeline.threadCount(), threads);
        return pipeline.runAll(jobs, res, cyc);
    };
    std::vector<Pipeline::Result> r1, r8;
    std::vector<uint64_t> c1, c8;
    const auto s1 = run(1, &r1, &c1);
    const auto s8 = run(8, &r8, &c8);

    // Modeled accounting is thread-count independent.
    expectSameOutputs<K>(r1, c1, r8, c8, "threads");
    EXPECT_EQ(s1.makespanCycles, s8.makespanCycles);
    EXPECT_EQ(s1.totalCycles, s8.totalCycles);
    ASSERT_EQ(s1.slots.size(), s8.slots.size());
    for (size_t c = 0; c < s1.slots.size(); c++) {
        EXPECT_EQ(s1.slots[c].busyCycles, s8.slots[c].busyCycles) << c;
    }
}

namespace {

/**
 * Occupies the only worker of a threads = 1 pipeline inside a completion
 * callback until open(), so shards submitted meanwhile can run only on
 * a thread helping in collect()/drain(). The wait is bounded: a wait
 * that never helps fails the test instead of hanging it.
 */
class BlockedWorker
{
  public:
    explicit BlockedWorker(Pipeline &pipeline)
    {
        ticket = pipeline.submit(
            dnaJobs(1, 8000), [this](host::BatchTicket<K> &) {
                std::unique_lock lock(_mutex);
                _entered = true;
                _cv.notify_all();
                _cv.wait_for(lock, std::chrono::seconds(30),
                             [this] { return _open; });
            });
        std::unique_lock lock(_mutex);
        _cv.wait(lock, [this] { return _entered; });
    }

    void
    open()
    {
        std::lock_guard lock(_mutex);
        _open = true;
        _cv.notify_all();
    }

    Pipeline::Ticket ticket;

  private:
    std::mutex _mutex;
    std::condition_variable _cv;
    bool _entered = false;
    bool _open = false;
};

constexpr int kHelpTickets = 4;

std::vector<Pipeline::Job>
helpBatch(int b)
{
    return dnaJobs(13, 8100 + static_cast<uint64_t>(b));
}

host::BatchConfig
helpConfig(int threads)
{
    host::BatchConfig cfg;
    cfg.npe = 8;
    cfg.nb = 2;
    cfg.nk = 4;
    cfg.threads = threads;
    return cfg;
}

void
expectSameAccounting(const host::BatchStats &want,
                     const host::BatchStats &got, const std::string &ctx)
{
    EXPECT_EQ(want.makespanCycles, got.makespanCycles) << ctx;
    EXPECT_EQ(want.totalCycles, got.totalCycles) << ctx;
    EXPECT_EQ(want.alignments, got.alignments) << ctx;
    ASSERT_EQ(want.slots.size(), got.slots.size()) << ctx;
    for (size_t c = 0; c < want.slots.size(); c++) {
        EXPECT_EQ(want.slots[c].busyCycles, got.slots[c].busyCycles)
            << ctx << " slot " << c;
        EXPECT_EQ(want.slots[c].alignments, got.slots[c].alignments)
            << ctx << " slot " << c;
    }
}

} // namespace

TEST(StreamPipeline, CollectingThreadRunsQueuedShards)
{
    // Reference: a pool as wide as the channels.
    std::vector<std::vector<Pipeline::Result>> want_res(kHelpTickets);
    std::vector<std::vector<uint64_t>> want_cyc(kHelpTickets);
    std::vector<host::BatchStats> want_stats;
    {
        Pipeline pipeline(helpConfig(4));
        std::vector<Pipeline::Ticket> tickets;
        for (int b = 0; b < kHelpTickets; b++)
            tickets.push_back(pipeline.submit(helpBatch(b)));
        for (int b = 0; b < kHelpTickets; b++) {
            const size_t i = static_cast<size_t>(b);
            want_stats.push_back(
                pipeline.collect(tickets[i], &want_res[i], &want_cyc[i]));
        }
    }

    // One worker for four channels, and that worker held in a
    // callback: every shard below runs on the collecting thread.
    Pipeline pipeline(helpConfig(1));
    BlockedWorker blocked(pipeline);
    const auto self = std::this_thread::get_id();
    std::atomic<int> fires{0};
    std::atomic<int> on_collector{0};
    std::vector<Pipeline::Ticket> tickets;
    for (int b = 0; b < kHelpTickets; b++) {
        tickets.push_back(pipeline.submit(
            helpBatch(b), [&](host::BatchTicket<K> &) {
                if (std::this_thread::get_id() == self)
                    on_collector++;
                fires++;
            }));
    }
    for (int b = 0; b < kHelpTickets; b++) {
        const size_t i = static_cast<size_t>(b);
        std::vector<Pipeline::Result> res;
        std::vector<uint64_t> cyc;
        const auto stats = pipeline.collect(tickets[i], &res, &cyc);
        const std::string ctx = "ticket " + std::to_string(b);
        expectSameOutputs<K>(want_res[i], want_cyc[i], res, cyc,
                             ctx.c_str());
        expectSameAccounting(want_stats[i], stats, ctx);
    }
    EXPECT_EQ(fires.load(), kHelpTickets);
    EXPECT_EQ(on_collector.load(), kHelpTickets);
    blocked.open();
    EXPECT_EQ(pipeline.collect(blocked.ticket).alignments, 1);
}

TEST(StreamPipeline, DrainingThreadRunsQueuedShards)
{
    // drain() retires the blocking ticket first, so the last helped
    // callback opens it; the reference drains the same tickets.
    std::vector<Pipeline::Result> want_res;
    std::vector<uint64_t> want_cyc;
    host::BatchStats want_stats;
    {
        Pipeline pipeline(helpConfig(4));
        pipeline.submit(dnaJobs(1, 8000));
        for (int b = 0; b < kHelpTickets; b++)
            pipeline.submit(helpBatch(b));
        want_stats = pipeline.drain(&want_res, &want_cyc);
    }

    Pipeline pipeline(helpConfig(1));
    BlockedWorker blocked(pipeline);
    const auto self = std::this_thread::get_id();
    std::atomic<int> fires{0};
    std::atomic<int> on_collector{0};
    for (int b = 0; b < kHelpTickets; b++) {
        pipeline.submit(helpBatch(b), [&](host::BatchTicket<K> &) {
            if (std::this_thread::get_id() == self)
                on_collector++;
            if (++fires == kHelpTickets)
                blocked.open();
        });
    }
    std::vector<Pipeline::Result> res;
    std::vector<uint64_t> cyc;
    const auto stats = pipeline.drain(&res, &cyc);
    expectSameOutputs<K>(want_res, want_cyc, res, cyc, "drain");
    expectSameAccounting(want_stats, stats, "drain");
    EXPECT_EQ(on_collector.load(), kHelpTickets);
}

TEST(StreamPipeline, PausedCollectRunsNothingUntilResume)
{
    host::BatchConfig cfg = helpConfig(1);
    Pipeline pipeline(cfg);
    pipeline.pause();
    std::atomic<int> fires{0};
    auto ticket = pipeline.submit(
        dnaJobs(10, 8200), host::TicketOptions{},
        [&fires](host::BatchTicket<K> &) { fires++; });

    std::atomic<bool> returned{false};
    host::BatchStats stats;
    std::thread collector([&] {
        stats = pipeline.collect(ticket);
        returned = true;
    });
    // Paused shards never reach the pool, so the collecting thread has
    // nothing to help with: it must sleep, not run the ticket.
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    EXPECT_FALSE(returned.load());
    EXPECT_FALSE(ticket->done());
    EXPECT_EQ(fires.load(), 0);

    pipeline.resume();
    collector.join();
    EXPECT_TRUE(returned.load());
    EXPECT_EQ(fires.load(), 1);
    EXPECT_EQ(stats.alignments, 10);
}

TEST(StreamPipeline, DestructionWithInFlightTicketsCompletesThem)
{
    std::vector<Pipeline::Ticket> tickets;
    {
        host::BatchConfig cfg;
        cfg.npe = 8;
        cfg.nk = 2;
        cfg.threads = 2;
        Pipeline pipeline(cfg);
        for (int b = 0; b < 6; b++) {
            tickets.push_back(pipeline.submit(
                dnaJobs(5, 5000 + static_cast<uint64_t>(b))));
        }
        // Pipeline destroyed with tickets in flight: its pool drains
        // every shard first, so held tickets finish rather than hang.
    }
    for (const auto &t : tickets) {
        EXPECT_TRUE(t->done());
        EXPECT_EQ(t->results().size(), 5u);
        EXPECT_EQ(t->stats().alignments, 5);
        for (const auto c : t->cycles())
            EXPECT_GT(c, 0u);
    }
}

TEST(StreamPipeline, DrainAggregatesAcrossTicketsInSubmissionOrder)
{
    host::BatchConfig cfg;
    cfg.npe = 8;
    cfg.nk = 2;
    Pipeline pipeline(cfg);
    const auto all = dnaJobs(18, 6000);
    std::vector<Pipeline::Job> a(all.begin(), all.begin() + 7);
    std::vector<Pipeline::Job> b(all.begin() + 7, all.end());
    pipeline.submit(std::move(a));
    pipeline.submit(std::move(b));

    std::vector<Pipeline::Result> got;
    std::vector<uint64_t> cycles;
    const auto stats = pipeline.drain(&got, &cycles);
    EXPECT_EQ(stats.alignments, 18);
    ASSERT_EQ(got.size(), all.size());
    ASSERT_EQ(cycles.size(), all.size());

    Pipeline gold(cfg);
    std::vector<Pipeline::Result> want;
    std::vector<uint64_t> want_cycles;
    gold.runAll(all, &want, &want_cycles);
    ASSERT_EQ(cycles, want_cycles);
    for (size_t i = 0; i < all.size(); i++)
        EXPECT_EQ(want[i].score, got[i].score) << i;

    // Nothing outstanding afterwards.
    const auto empty = pipeline.drain();
    EXPECT_EQ(empty.alignments, 0);
    EXPECT_EQ(empty.makespanCycles, 0u);
}

TEST(StreamPipeline, OversizedJobWithoutFallbackFailsLoudlyAtSubmit)
{
    host::BatchConfig cfg;
    cfg.npe = 8;
    cfg.nk = 2;
    cfg.maxQueryLength = 128;
    cfg.maxReferenceLength = 128;
    // No cpuFallback: an oversized job has nowhere to go and must be
    // rejected at submission with its index and shape, not by whatever
    // the engine does on a worker thread.
    Pipeline pipeline(cfg);

    auto jobs = dnaJobs(3, 4242, 96);
    seq::Rng rng(9);
    Pipeline::Job big;
    big.query = seq::randomDna(200, rng);
    big.reference = seq::randomDna(50, rng);
    jobs.push_back(std::move(big));

    try {
        pipeline.runAll(jobs);
        FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument &e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("job 3"), std::string::npos) << msg;
        EXPECT_NE(msg.find("200 x 50"), std::string::npos) << msg;
        EXPECT_NE(msg.find("128 x 128"), std::string::npos) << msg;
    }

    // Same loud failure under the cost-model policy with no feasible
    // backend.
    host::BatchConfig cost_cfg = cfg;
    cost_cfg.dispatch = host::DispatchPolicy::CostModel;
    Pipeline cost_pipeline(cost_cfg);
    EXPECT_THROW(cost_pipeline.runAll(jobs), std::invalid_argument);

    // A failed submit leaves nothing outstanding; the pipeline stays
    // usable.
    const auto stats = pipeline.runAll(dnaJobs(5, 4243, 96));
    EXPECT_EQ(stats.alignments, 5);
    EXPECT_EQ(pipeline.drain().alignments, 0);
}

TEST(StreamPipeline, ThresholdRoutesOversizedToGpuModelWhenOnlyGpuEnabled)
{
    // --gpu-model without --cpu-fallback under the threshold policy:
    // an oversized job must be served by the GPU model (its
    // full-matrix implementation has no length limit), not rejected
    // with a message claiming no fallback backend is enabled.
    host::BatchConfig cfg;
    cfg.npe = 8;
    cfg.nk = 2;
    cfg.maxQueryLength = 128;
    cfg.maxReferenceLength = 128;
    cfg.gpuModel = true; // LocalAffine is GASAL2-covered
    Pipeline pipeline(cfg);

    auto jobs = dnaJobs(4, 777, 96);
    seq::Rng rng(11);
    Pipeline::Job big;
    big.query = seq::randomDna(300, rng);
    big.reference = seq::randomDna(150, rng);
    jobs.push_back(std::move(big));

    std::vector<Pipeline::Result> got;
    const auto stats = pipeline.runAll(jobs, &got);
    EXPECT_EQ(stats.alignments, 5);
    EXPECT_EQ(stats.slots[3].alignments, 1); // the GPU slot, after nk = 2
    ref::MatrixAligner<K> gold(K::defaultParams(), cfg.bandWidth);
    const auto want = gold.align(jobs.back().query, jobs.back().reference);
    EXPECT_EQ(want.score, got.back().score);
    EXPECT_EQ(want.ops, got.back().ops);
    int aligns = 0;
    for (const auto &b : host::backendSections(stats, cfg.fmaxMhz))
        aligns += b.alignments;
    EXPECT_EQ(aligns, stats.alignments);
}

TEST(StreamPipeline, BackendEstimates)
{
    sim::EngineConfig ecfg;
    ecfg.numPe = 8;
    ecfg.maxQueryLength = 64;
    ecfg.maxReferenceLength = 64;
    host::ChannelBackend<K> dev(ecfg, K::defaultParams(), 2, 1000, 250.0,
                                nullptr);

    seq::Rng rng(5);
    Pipeline::Job small{seq::randomDna(32, rng), seq::randomDna(32, rng)};
    Pipeline::Job big{seq::randomDna(100, rng), seq::randomDna(20, rng)};

    const auto small_est = dev.estimate(small);
    EXPECT_TRUE(small_est.feasible);
    EXPECT_GT(small_est.seconds, 0.0);
    EXPECT_FALSE(dev.estimate(big).feasible); // over the device maxima
    // Longer jobs cost more.
    Pipeline::Job mid{seq::randomDna(64, rng), seq::randomDna(64, rng)};
    EXPECT_GT(dev.estimate(mid).seconds, small_est.seconds);

    // CPU backend: pinned rate gives an exact deterministic estimate.
    host::CpuBaselineBackend<K> cpu(K::defaultParams(), 64, 1500.0, 2,
                                    false, 1e8);
    EXPECT_NEAR(cpu.estimate(small).seconds,
                32.0 * 32.0 / (1e8 * 2), 1e-12);

    // Unpinned rate: the per-shape-bucket EWMA learns from measured
    // completions of jobs in that bucket only.
    host::CpuBaselineBackend<K> learning(K::defaultParams(), 64, 1500.0,
                                         1, false);
    const double short_cells = 48.0 * 48.0;
    const double long_cells = 2048.0 * 2048.0;
    const double before = learning.cellsPerSecEstimate(short_cells);
    const double long_before = learning.cellsPerSecEstimate(long_cells);
    std::vector<Pipeline::Job> jobs;
    for (int i = 0; i < 8; i++)
        jobs.push_back({seq::randomDna(48, rng), seq::randomDna(48, rng)});
    std::vector<Pipeline::Result> results(jobs.size());
    std::vector<uint64_t> cycles(jobs.size(), 0);
    std::vector<int> indices;
    for (int i = 0; i < 8; i++)
        indices.push_back(i);
    host::ChannelStats acct;
    host::StageRunControl ctl;
    learning.run(jobs, indices, results.data(), cycles.data(), acct, ctl);
    EXPECT_GT(learning.cellsPerSecEstimate(short_cells), 0.0);
    EXPECT_NE(learning.cellsPerSecEstimate(short_cells), before);
    // A different shape bucket keeps its seed: the short jobs' samples
    // must not skew (or touch) the long-job estimate.
    EXPECT_EQ(learning.cellsPerSecEstimate(long_cells), long_before);

    // GPU-model coverage follows the paper's Fig. 6B kernel set.
    EXPECT_TRUE(host::GpuModelBackend<kernels::LocalAffine>::covered());
    EXPECT_TRUE(host::GpuModelBackend<kernels::ProteinLocal>::covered());
    EXPECT_FALSE(host::GpuModelBackend<kernels::LocalLinear>::covered());
    host::GpuModelBackend<K> gpu(K::defaultParams(), 64, 2, false);
    const auto gpu_est = gpu.estimate(small);
    EXPECT_TRUE(gpu_est.feasible);
    EXPECT_GT(gpu_est.seconds, 0.0);
}

TEST(StreamPipeline, CancelWhilePausedDropsAllShardsAndCompletes)
{
    host::BatchConfig cfg;
    cfg.npe = 8;
    cfg.nk = 2;
    cfg.threads = 1;
    Pipeline pipeline(cfg);

    pipeline.pause(); // nothing dispatches: every shard stays queued
    std::atomic<int> fires{0};
    auto keep = pipeline.submit(dnaJobs(6, 7100));
    auto victim = pipeline.submit(
        dnaJobs(8, 7200), host::TicketOptions{},
        [&fires](host::BatchTicket<K> &t) {
            fires++;
            EXPECT_EQ(t.stats().cancelled, 8);
        });

    EXPECT_TRUE(victim->cancel());
    // Queued-only cancellation completes the ticket immediately — no
    // wait()-blocking-forever, and the callback has already fired.
    EXPECT_TRUE(victim->done());
    EXPECT_TRUE(victim->cancelled());
    EXPECT_EQ(fires.load(), 1);
    EXPECT_FALSE(victim->cancel()); // already terminal

    const auto &stats = victim->stats();
    EXPECT_EQ(stats.alignments, 0);
    EXPECT_EQ(stats.cancelled, 8);
    EXPECT_EQ(stats.totalCycles, 0u);
    for (size_t i = 0; i < victim->jobs().size(); i++) {
        EXPECT_EQ(victim->completed()[i], 0u) << i;
        EXPECT_EQ(victim->cycles()[i], 0u) << i;
        EXPECT_TRUE(victim->results()[i].ops.empty()) << i;
    }
    int section_cancelled = 0;
    for (const auto &b : host::backendSections(stats, cfg.fmaxMhz))
        section_cancelled += b.cancelled;
    EXPECT_EQ(section_cancelled, 8);

    // The untouched ticket still runs to full completion on resume.
    pipeline.resume();
    const auto keep_stats = pipeline.collect(keep);
    EXPECT_EQ(keep_stats.alignments, 6);
    EXPECT_EQ(keep_stats.cancelled, 0);
}

TEST(StreamPipeline, CancelLeavesInFlightShardsRunningToCompletion)
{
    // Deterministic mixed cancel, one channel + one worker: resume()
    // pops the victim's CPU shard synchronously (the CPU slot is
    // free), so once the cancelling callback — gated on resume()
    // having returned — fires, that shard is in flight and must run to
    // completion. The victim's device shard, by contrast, is still
    // queued behind blocker2 at that moment, so the cancel drops it —
    // leaving a genuinely partial result set: CPU job computed, device
    // jobs cancelled.
    host::BatchConfig cfg;
    cfg.npe = 8;
    cfg.nk = 1;
    cfg.threads = 1;
    cfg.maxQueryLength = 128;
    cfg.maxReferenceLength = 128;
    cfg.cpuFallback = true;
    cfg.cpuModeledCellsPerSec = 1e9;
    Pipeline pipeline(cfg);

    pipeline.pause();
    Pipeline::Ticket victim;
    std::promise<void> resumed;
    std::shared_future<void> resumed_future = resumed.get_future().share();
    auto blocker1 = pipeline.submit(
        dnaJobs(3, 7300), host::TicketOptions{},
        [&victim, resumed_future](host::BatchTicket<K> &) {
            resumed_future.wait();
            victim->cancel();
        });
    auto blocker2 = pipeline.submit(dnaJobs(3, 7400));

    // Victim: 4 device jobs + 1 oversized job that routes to the CPU.
    auto jobs = dnaJobs(4, 7500);
    seq::Rng rng(75);
    Pipeline::Job big;
    big.query = seq::randomDna(200, rng);
    big.reference = seq::mutateDna(big.query, 0.1, 0.05, rng);
    jobs.push_back(std::move(big));
    const Pipeline::Job cpu_job = jobs.back(); // copy for the gold run
    victim = pipeline.submit(std::move(jobs));

    pipeline.resume();
    resumed.set_value(); // release the cancelling callback
    victim->wait();
    blocker2->wait();

    EXPECT_TRUE(victim->cancelled());
    const auto &stats = victim->stats();
    // The CPU shard was in flight when the cancel hit: it completed.
    // The device shard was still queued behind blocker2: dropped.
    EXPECT_EQ(stats.alignments, 1);
    EXPECT_EQ(stats.cancelled, 4);
    for (size_t i = 0; i < 4; i++) {
        EXPECT_EQ(victim->completed()[i], 0u) << i;
        EXPECT_EQ(victim->cycles()[i], 0u) << i;
    }
    EXPECT_EQ(victim->completed()[4], 1u);
    EXPECT_GT(victim->cycles()[4], 0u);
    ref::MatrixAligner<K> gold(K::defaultParams(), cfg.bandWidth);
    const auto want = gold.align(cpu_job.query, cpu_job.reference);
    EXPECT_EQ(want.score, victim->results()[4].score);
    EXPECT_EQ(want.ops, victim->results()[4].ops);

    // Blockers are untouched by the neighbor's cancellation.
    EXPECT_EQ(blocker1->stats().alignments, 3);
    EXPECT_EQ(blocker2->stats().alignments, 3);
}

TEST(StreamPipeline, DestructorWithCancelledUnwaitedTicketNoLeakNoDeadlock)
{
    // Regression companion to DestructionWithInFlightTicketsCompletesThem:
    // a ticket cancelled but never waited on must not leak its callback
    // (tracked via the captured shared_ptr) and must not deadlock the
    // pipeline destructor, even when the pipeline dies paused with
    // other work still queued.
    auto guard = std::make_shared<int>(42);
    std::weak_ptr<int> weak = guard;
    Pipeline::Ticket cancelled, queued;
    {
        host::BatchConfig cfg;
        cfg.npe = 8;
        cfg.nk = 1;
        cfg.threads = 1;
        Pipeline pipeline(cfg);
        pipeline.pause();
        queued = pipeline.submit(dnaJobs(5, 7600));
        cancelled = pipeline.submit(
            dnaJobs(4, 7700), host::TicketOptions{},
            [guard](host::BatchTicket<K> &) { (void)guard; });
        guard.reset(); // the callback now holds the only reference
        EXPECT_FALSE(weak.expired());
        EXPECT_TRUE(cancelled->cancel());
        EXPECT_TRUE(cancelled->done());
        // The callback ran (once) during cancellation and its capture
        // was released — nothing is left to leak.
        EXPECT_TRUE(weak.expired());
        // Pipeline destroyed here: still paused, with `queued` pending
        // and `cancelled` never waited on or collected.
    }
    EXPECT_TRUE(queued->done()); // destructor resumed and drained
    EXPECT_EQ(queued->stats().alignments, 5);
    EXPECT_EQ(cancelled->stats().cancelled, 4);
}

TEST(StreamPipeline, PausedBacklogReleasesInPriorityThenDeadlineOrder)
{
    host::BatchConfig cfg;
    cfg.npe = 8;
    cfg.nk = 1;
    cfg.threads = 1; // one slot, one worker: pure scheduler order
    Pipeline pipeline(cfg);

    std::mutex mutex;
    std::vector<char> order;
    const auto tag = [&](char c) {
        return [&mutex, &order, c](host::BatchTicket<K> &) {
            std::lock_guard lock(mutex);
            order.push_back(c);
        };
    };

    pipeline.pause();
    host::TicketOptions prio5_late = host::TicketOptions::afterMs(5, 500);
    host::TicketOptions prio5_soon = host::TicketOptions::afterMs(5, 250);
    host::TicketOptions prio1;
    prio1.priority = 1;
    host::TicketOptions prio3;
    prio3.priority = 3;
    auto a = pipeline.submit(dnaJobs(2, 8000), tag('a')); // class 0
    auto b = pipeline.submit(dnaJobs(2, 8001), prio5_late, tag('b'));
    auto c = pipeline.submit(dnaJobs(2, 8002), prio1, tag('c'));
    auto d = pipeline.submit(dnaJobs(2, 8003), prio5_soon, tag('d'));
    auto e = pipeline.submit(dnaJobs(2, 8004), prio3, tag('e'));
    auto f = pipeline.submit(dnaJobs(2, 8005), tag('f')); // class 0, FIFO
    pipeline.resume();
    pipeline.drain();

    // Highest priority first; equal priorities by earliest deadline;
    // no-deadline class-0 tickets in submission order.
    ASSERT_EQ(order.size(), 6u);
    EXPECT_EQ(std::string(order.begin(), order.end()), "dbecaf");
}

TEST(StreamPipeline, DeadlineMissesAreCountedPerBackend)
{
    host::BatchConfig cfg;
    cfg.npe = 8;
    cfg.nk = 2;
    cfg.maxQueryLength = 128;
    cfg.maxReferenceLength = 128;
    cfg.cpuFallback = true;
    cfg.cpuFloorLen = 24;
    cfg.cpuModeledCellsPerSec = 1e9;
    Pipeline pipeline(cfg);

    // 3 tiny CPU-routed jobs + 6 device jobs, with a deadline that has
    // already expired at submission: every completion is a miss.
    std::vector<Pipeline::Job> jobs;
    seq::Rng rng(91);
    for (int i = 0; i < 3; i++) {
        Pipeline::Job j;
        j.query = seq::randomDna(10 + i, rng);
        j.reference = seq::mutateDna(j.query, 0.1, 0.05, rng);
        j.reference.chars.resize(static_cast<size_t>(12 + i));
        jobs.push_back(std::move(j));
    }
    auto device_jobs = dnaJobs(6, 9100);
    for (auto &j : device_jobs)
        jobs.push_back(std::move(j));

    const auto missed = pipeline.runAll(
        jobs, nullptr, nullptr, host::TicketOptions::afterMs(0, 0.0));
    EXPECT_EQ(missed.alignments, 9);
    EXPECT_EQ(missed.deadlineMisses, 9);
    const size_t nk = missed.deviceSlots();
    EXPECT_EQ(missed.slots[nk].deadlineMisses, 3); // the CPU slot
    int device_misses = 0;
    for (size_t c = 0; c < nk; c++)
        device_misses += missed.slots[c].deadlineMisses;
    EXPECT_EQ(device_misses, 6);
    int section_misses = 0;
    for (const auto &b : host::backendSections(missed, cfg.fmaxMhz,
                                               cfg.cpuEquivalentMhz))
        section_misses += b.deadlineMisses;
    EXPECT_EQ(section_misses, 9);

    // A comfortable deadline produces no misses.
    const auto met = pipeline.runAll(
        jobs, nullptr, nullptr, host::TicketOptions::afterMs(0, 60000.0));
    EXPECT_EQ(met.alignments, 9);
    EXPECT_EQ(met.deadlineMisses, 0);

    // No deadline at all: nothing to miss.
    const auto none = pipeline.runAll(jobs);
    EXPECT_EQ(none.deadlineMisses, 0);
}

TEST(StreamPipeline, CostModelPrefersCheapestBackendMeetingDeadline)
{
    // 256x256 local-affine: the GPU model's marginal service time
    // (65536 cells at 23 GCUPS ~ 2.9 us) is far below the device
    // channel's (~20 us of modeled cycles), but its 50 us launch
    // overhead makes its completion later — so the plain cost-model
    // argmin routes to the device. With a roomy deadline both backends
    // meet it and the router must flip to the cheaper GPU, keeping the
    // device free for traffic that needs its latency.
    host::BatchConfig cfg;
    cfg.npe = 32;
    cfg.nb = 1;
    cfg.nk = 1;
    cfg.maxQueryLength = 512;
    cfg.maxReferenceLength = 512;
    cfg.dispatch = host::DispatchPolicy::CostModel;
    cfg.gpuModel = true;
    Pipeline pipeline(cfg);

    std::vector<Pipeline::Job> jobs;
    seq::Rng rng(321);
    Pipeline::Job j;
    j.query = seq::randomDna(256, rng);
    j.reference = seq::mutateDna(j.query, 0.1, 0.05, rng);
    j.reference.chars.resize(256);
    jobs.push_back(std::move(j));

    const auto no_deadline = pipeline.runAll(jobs);
    // nk = 1: slot 2 is the GPU model.
    EXPECT_EQ(no_deadline.slots[2].alignments, 0);
    EXPECT_EQ(no_deadline.alignments, 1);

    const auto roomy = pipeline.runAll(
        jobs, nullptr, nullptr, host::TicketOptions::afterMs(0, 10000.0));
    EXPECT_EQ(roomy.slots[2].alignments, 1);
    EXPECT_EQ(roomy.alignments, 1);

    // An unmeetable deadline falls back to earliest completion — the
    // device — rather than refusing to route.
    const auto hopeless = pipeline.runAll(
        jobs, nullptr, nullptr, host::TicketOptions::afterMs(0, 1e-6));
    EXPECT_EQ(hopeless.slots[2].alignments, 0);
    EXPECT_EQ(hopeless.alignments, 1);
}

TEST(StreamPipeline, ThreeWayCostModelDispatchSumsToEpochTotals)
{
    host::BatchConfig cfg;
    cfg.npe = 8;
    cfg.nb = 1;
    cfg.nk = 2;
    cfg.threads = 2;
    cfg.maxQueryLength = 256;
    cfg.maxReferenceLength = 256;
    cfg.dispatch = host::DispatchPolicy::CostModel;
    cfg.cpuFallback = true;
    cfg.cpuModeledCellsPerSec = 2e8; // deterministic routing + accounting
    cfg.gpuModel = true;             // LocalAffine is GASAL2-covered
    Pipeline pipeline(cfg);

    // Enough medium jobs that the GPU's and then the device channels'
    // backlogs grow past the CPU's estimate, plus oversized jobs the
    // device cannot take: all three backends end up serving jobs.
    std::vector<Pipeline::Job> jobs;
    seq::Rng rng(321);
    for (int i = 0; i < 180; i++) {
        const int len = 180 + (i % 5);
        Pipeline::Job j;
        j.query = seq::randomDna(len, rng);
        j.reference = seq::mutateDna(j.query, 0.1, 0.05, rng);
        j.reference.chars.resize(static_cast<size_t>(len));
        jobs.push_back(std::move(j));
    }
    for (int i = 0; i < 6; i++) {
        Pipeline::Job j;
        j.query = seq::randomDna(400, rng);
        j.reference = seq::randomDna(200, rng);
        jobs.push_back(std::move(j));
    }

    std::vector<Pipeline::Result> got;
    std::vector<uint64_t> cycles;
    const auto stats = pipeline.runAll(jobs, &got, &cycles);

    // Functional results match the golden model no matter which
    // backend served the job.
    ref::MatrixAligner<K> gold(K::defaultParams(), cfg.bandWidth);
    for (size_t i = 0; i < jobs.size(); i += 13) {
        const auto want = gold.align(jobs[i].query, jobs[i].reference);
        EXPECT_EQ(want.score, got[i].score) << i;
        EXPECT_EQ(want.ops, got[i].ops) << i;
    }
    for (const auto c : cycles)
        EXPECT_GT(c, 0u);

    // All three backends participated, and their sections sum to the
    // epoch totals exactly.
    EXPECT_EQ(stats.alignments, static_cast<int>(jobs.size()));
    const size_t nk = stats.deviceSlots();
    int device_aligns = 0;
    for (size_t c = 0; c < nk; c++)
        device_aligns += stats.slots[c].alignments;
    EXPECT_GT(device_aligns, 0);
    EXPECT_GT(stats.slots[nk].alignments, 0);     // CPU
    EXPECT_GT(stats.slots[nk + 1].alignments, 0); // GPU
    const auto sections = host::backendSections(stats, cfg.fmaxMhz,
                                                cfg.cpuEquivalentMhz);
    ASSERT_EQ(sections.size(), 3u);
    int aligns = 0;
    uint64_t total = 0;
    for (const auto &b : sections) {
        aligns += b.alignments;
        total += b.totalCycles;
    }
    EXPECT_EQ(aligns, stats.alignments);
    EXPECT_EQ(total, stats.totalCycles);
    uint64_t per_job = 0;
    for (const auto c : cycles)
        per_job += c;
    EXPECT_EQ(per_job, stats.totalCycles);
    EXPECT_GT(stats.seconds, 0.0);
}

TEST(StreamPipeline, AccumulatedTicketsFromEmptyEqualDrain)
{
    // The epoch path of perfbench, dphls_align and the serve daemon:
    // fold each collected ticket into a default-constructed BatchStats,
    // then finalize once. It must equal drain()'s aggregate slot by
    // slot, with device, CPU and GPU slots, a cancelled ticket and a
    // missed deadline in the epoch.
    host::BatchConfig cfg;
    cfg.npe = 8;
    cfg.nb = 1;
    cfg.nk = 4;
    cfg.threads = 2;
    cfg.maxQueryLength = 256;
    cfg.maxReferenceLength = 256;
    cfg.dispatch = host::DispatchPolicy::CostModel;
    cfg.cpuFallback = true;
    cfg.cpuModeledCellsPerSec = 2e8;
    cfg.gpuModel = true;
    Pipeline pipeline(cfg);

    pipeline.pause(); // the backlog builds up, so routing spills over
    seq::Rng rng(9300);
    std::vector<Pipeline::Ticket> tickets;
    for (int t = 0; t < 6; t++) {
        auto jobs = dnaJobs(40, 9300 + static_cast<uint64_t>(t), 200);
        Pipeline::Job big; // device-infeasible: CPU or GPU only
        big.query = seq::randomDna(400, rng);
        big.reference = seq::randomDna(200, rng);
        jobs.push_back(std::move(big));
        tickets.push_back(pipeline.submit(
            std::move(jobs), t == 2 ? host::TicketOptions::afterMs(0, 0.0)
                                    : host::TicketOptions{}));
    }
    EXPECT_TRUE(tickets[4]->cancel());
    pipeline.resume();
    const host::BatchStats drained = pipeline.drain();

    host::BatchStats epoch;
    for (const auto &t : tickets)
        host::accumulateBatchStats(epoch, pipeline.collect(t));
    host::finalizeBatchStats(epoch, cfg.fmaxMhz, cfg.cpuEquivalentMhz);

    ASSERT_EQ(drained.slots.size(), 6u);
    ASSERT_EQ(epoch.slots.size(), drained.slots.size());
    for (size_t s = 0; s < epoch.slots.size(); s++) {
        const auto &want = drained.slots[s];
        const auto &got = epoch.slots[s];
        EXPECT_EQ(want.busyCycles, got.busyCycles) << "slot " << s;
        EXPECT_EQ(want.totalCycles, got.totalCycles) << "slot " << s;
        EXPECT_EQ(want.alignments, got.alignments) << "slot " << s;
        EXPECT_EQ(want.cancelled, got.cancelled) << "slot " << s;
        EXPECT_EQ(want.deadlineMisses, got.deadlineMisses) << "slot " << s;
        EXPECT_EQ(want.preemptions, got.preemptions) << "slot " << s;
    }
    int device_aligns = 0;
    for (size_t c = 0; c < 4; c++)
        device_aligns += epoch.slots[c].alignments;
    EXPECT_GT(device_aligns, 0);
    EXPECT_GT(epoch.slots[4].alignments, 0); // CPU
    EXPECT_GT(epoch.slots[5].alignments, 0); // GPU
    EXPECT_EQ(epoch.cancelled, 41);
    EXPECT_EQ(epoch.deadlineMisses, 41);

    EXPECT_EQ(drained.makespanCycles, epoch.makespanCycles);
    EXPECT_EQ(drained.totalCycles, epoch.totalCycles);
    EXPECT_EQ(drained.alignments, epoch.alignments);
    EXPECT_EQ(drained.cancelled, epoch.cancelled);
    EXPECT_EQ(drained.deadlineMisses, epoch.deadlineMisses);
    EXPECT_EQ(drained.preemptions, epoch.preemptions);
    EXPECT_EQ(drained.seconds, epoch.seconds);
    EXPECT_EQ(drained.alignsPerSec, epoch.alignsPerSec);
    EXPECT_EQ(drained.cyclesPerAlign, epoch.cyclesPerAlign);
    EXPECT_EQ(drained.paths.matches, epoch.paths.matches);
    EXPECT_EQ(drained.paths.mismatches, epoch.paths.mismatches);
    EXPECT_EQ(drained.paths.insertions, epoch.paths.insertions);
    EXPECT_EQ(drained.paths.deletions, epoch.paths.deletions);
    EXPECT_EQ(drained.paths.gapOpens, epoch.paths.gapOpens);
    EXPECT_EQ(drained.paths.columns, epoch.paths.columns);
    EXPECT_GT(epoch.paths.columns, 0);
}

TEST(StreamPipeline, EmptyEpochFinalizesToZerosWithDeviceSlots)
{
    host::BatchConfig cfg;
    cfg.npe = 8;
    cfg.nk = 4;
    cfg.cpuFallback = true;
    cfg.gpuModel = true;
    Pipeline pipeline(cfg);

    const host::BatchStats drained = pipeline.drain(); // nothing submitted
    host::BatchStats epoch;
    host::accumulateBatchStats(epoch,
                               pipeline.collect(pipeline.submit({})));
    host::finalizeBatchStats(epoch, cfg.fmaxMhz, cfg.cpuEquivalentMhz);

    for (const host::BatchStats *stats :
         std::initializer_list<const host::BatchStats *>{&drained, &epoch}) {
        ASSERT_EQ(stats->slots.size(), 6u);
        EXPECT_EQ(stats->deviceSlots(), 4u);
        for (const auto &slot : stats->slots) {
            EXPECT_EQ(slot.busyCycles, 0u);
            EXPECT_EQ(slot.totalCycles, 0u);
            EXPECT_EQ(slot.alignments, 0);
            EXPECT_EQ(slot.cancelled, 0);
        }
        EXPECT_EQ(stats->makespanCycles, 0u);
        EXPECT_EQ(stats->totalCycles, 0u);
        EXPECT_EQ(stats->alignments, 0);
        EXPECT_EQ(stats->cancelled, 0);
        EXPECT_EQ(stats->seconds, 0.0);
        EXPECT_EQ(stats->alignsPerSec, 0.0);
        EXPECT_EQ(stats->cyclesPerAlign, 0.0);
        const auto sections = host::backendSections(*stats, cfg.fmaxMhz,
                                                    cfg.cpuEquivalentMhz);
        ASSERT_EQ(sections.size(), 1u);
        EXPECT_STREQ(sections[0].name, "device");
        EXPECT_EQ(sections[0].alignments, 0);
        EXPECT_EQ(sections[0].busyCycles, 0u);
    }

    // An epoch nothing was ever accumulated into (an idle daemon's
    // Stats frame) still reports the zero device section.
    host::BatchStats idle;
    host::finalizeBatchStats(idle, cfg.fmaxMhz, cfg.cpuEquivalentMhz);
    EXPECT_EQ(idle.deviceSlots(), 0u);
    EXPECT_EQ(idle.alignments, 0);
    const auto sections =
        host::backendSections(idle, cfg.fmaxMhz, cfg.cpuEquivalentMhz);
    ASSERT_EQ(sections.size(), 1u);
    EXPECT_STREQ(sections[0].name, "device");
    EXPECT_DOUBLE_EQ(sections[0].clockMhz, cfg.fmaxMhz);
}
