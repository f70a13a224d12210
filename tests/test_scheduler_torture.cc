/**
 * @file
 * Scheduler torture suite for the priority/deadline dispatch queues.
 *
 * Randomized interleavings of submit / cancel / wait across priorities,
 * deadlines and producer threads — with shapes drawn from every
 * registered kernel's alphabet — asserting the invariants the
 * StreamPipeline's dispatch layer must never lose:
 *
 *  - no lost results: a ticket that was not cancelled completes with
 *    every job computed (completed mask all ones), and its outputs are
 *    bit-identical to a blocking golden run of the same jobs;
 *  - no duplicated or post-cancel results: per ticket,
 *    alignments + cancelled == jobs, the completed mask has exactly
 *    `alignments` ones, and dropped jobs hold default results with
 *    zero cycles;
 *  - accounting closure: per-backend stats sections sum to each
 *    ticket's totals, and ticket totals sum to the epoch totals across
 *    every submission.
 *
 * Plus the transparency differential: with priorities assigned but a
 * single worker and equal priorities, result sets, CIGARs and per-job
 * cycles are bit-identical to the default FIFO path for all 15 kernels
 * — the priority machinery must be invisible when it has nothing to
 * reorder.
 *
 * The preemption round re-runs the randomized interleavings with
 * preemption enabled and a chaos preemptor thread submitting
 * top-priority tickets that interrupt in-flight shards at lane-group
 * boundaries — every invariant above must survive arbitrary
 * preempt/resume/cancel interleavings (a preempted shard's remainder
 * re-queues within the same ticket, so ticket- and epoch-level closure
 * are unchanged).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <mutex>
#include <thread>
#include <vector>

#include "core/cigar.hh"
#include "helpers.hh"
#include "host/stream_pipeline.hh"
#include "kernels/all.hh"

using namespace dphls;

namespace {

/** Small random jobs over kernel @p K's alphabet (shapes 0..max_len). */
template <typename K>
std::vector<typename host::StreamPipeline<K>::Job>
tortureJobs(seq::Rng &rng, int count, int max_len)
{
    std::vector<typename host::StreamPipeline<K>::Job> jobs;
    for (int i = 0; i < count; i++) {
        const int qlen = static_cast<int>(
            rng.below(static_cast<uint64_t>(max_len + 1)));
        const int rlen = static_cast<int>(
            rng.below(static_cast<uint64_t>(max_len + 1)));
        auto p = test::shapedPair<K>(rng, qlen, rlen);
        jobs.push_back({std::move(p.query), std::move(p.reference)});
    }
    return jobs;
}

/** Sum of a stats' per-backend section fields, for closure checks. */
struct SectionSums
{
    int alignments = 0;
    int cancelled = 0;
    uint64_t totalCycles = 0;
};

SectionSums
sumSections(const host::BatchStats &stats)
{
    SectionSums s;
    for (const auto &b :
         host::backendSections(stats, host::BatchConfig{}.fmaxMhz)) {
        s.alignments += b.alignments;
        s.cancelled += b.cancelled;
        s.totalCycles += b.totalCycles;
    }
    return s;
}

/**
 * One torture round for kernel @p K: several producer threads submit
 * small batches with random priorities and deadlines, randomly wait on
 * or cancel their tickets, while a chaos thread cancels random tickets
 * from the side. Afterwards every invariant above is checked against a
 * blocking golden pipeline with the same configuration.
 */
template <typename K>
void
tortureKernel(uint64_t seed, bool preempt = false)
{
    using Pipeline = host::StreamPipeline<K>;
    using Ticket = typename Pipeline::Ticket;

    host::BatchConfig cfg;
    cfg.npe = 4;
    cfg.nb = 2;
    cfg.nk = 2;
    cfg.threads = 3;
    cfg.laneWidth = 2;
    cfg.bandWidth = 8;
    cfg.maxQueryLength = 64;
    cfg.maxReferenceLength = 64;
    cfg.cpuFallback = true;
    cfg.cpuFloorLen = 6; // some tiny jobs route to the CPU backend
    cfg.cpuModeledCellsPerSec = 1e9;
    cfg.collectPathStats = false;
    cfg.preemption = preempt;
    Pipeline pipeline(cfg);
    Pipeline golden(cfg); // blocking reference runs, same config

    constexpr int producers = 3;
    constexpr int batches_per_producer = 8;

    std::mutex ticketsMutex;
    std::vector<Ticket> tickets;
    std::atomic<int> submitted_jobs{0};
    std::atomic<int> callback_fires{0};

    std::vector<std::thread> threads;
    for (int p = 0; p < producers; p++) {
        threads.emplace_back([&, p] {
            seq::Rng rng(seed + static_cast<uint64_t>(p) * 7919);
            for (int b = 0; b < batches_per_producer; b++) {
                // Preemption rounds submit bigger shards so the chaos
                // preemptor has something in flight to interrupt.
                const int count = preempt
                    ? 4 + static_cast<int>(rng.below(12))
                    : 1 + static_cast<int>(rng.below(4));
                auto jobs = tortureJobs<K>(rng, count, 40);
                submitted_jobs += count;

                host::TicketOptions opt;
                opt.priority = static_cast<int>(rng.below(4));
                switch (rng.below(3)) {
                  case 0:
                    break; // no deadline
                  case 1:   // already (or almost) expired
                    opt = host::TicketOptions::afterMs(opt.priority,
                                                       0.01);
                    break;
                  default: // comfortably in the future
                    opt = host::TicketOptions::afterMs(opt.priority,
                                                       60000.0);
                    break;
                }

                auto ticket = pipeline.submit(
                    std::move(jobs), std::move(opt),
                    [&callback_fires](host::BatchTicket<K> &) {
                        callback_fires++;
                    });
                {
                    std::lock_guard lock(ticketsMutex);
                    tickets.push_back(ticket);
                }
                switch (rng.below(4)) {
                  case 0:
                    ticket->cancel(); // cancel immediately
                    break;
                  case 1:
                    std::this_thread::yield(); // cancel mid-flight
                    ticket->cancel();
                    break;
                  case 2:
                    ticket->wait(); // wait inline, racing the others
                    break;
                  default:
                    break; // fire and forget
                }
            }
        });
    }
    // Chaos canceller: cancels random tickets (its own double-cancels
    // included) while producers are mid-submission.
    std::atomic<bool> stop{false};
    std::thread chaos([&] {
        seq::Rng rng(seed ^ 0xc4a5u);
        while (!stop.load()) {
            Ticket victim;
            {
                std::lock_guard lock(ticketsMutex);
                if (!tickets.empty()) {
                    victim = tickets[static_cast<size_t>(rng.below(
                        static_cast<uint64_t>(tickets.size())))];
                }
            }
            if (victim && rng.below(2) == 0)
                victim->cancel();
            std::this_thread::yield();
        }
    });
    // Chaos preemptor (preemption rounds): top-priority one-job tickets
    // that land above every producer class, requesting the token of
    // whatever shard holds the slot; waiting each one out keeps
    // the stream paced to the pipeline instead of flooding the queue.
    std::thread preemptor;
    if (preempt) {
        preemptor = std::thread([&] {
            seq::Rng rng(seed ^ 0x9e37u);
            while (!stop.load()) {
                auto jobs = tortureJobs<K>(rng, 1, 24);
                submitted_jobs += 1;
                host::TicketOptions opt;
                opt.priority = 100;
                auto t = pipeline.submit(
                    std::move(jobs), std::move(opt),
                    [&callback_fires](host::BatchTicket<K> &) {
                        callback_fires++;
                    });
                {
                    std::lock_guard lock(ticketsMutex);
                    tickets.push_back(t);
                }
                t->wait();
            }
        });
    }
    for (auto &t : threads)
        t.join();
    stop = true;
    chaos.join();
    if (preemptor.joinable())
        preemptor.join();

    // Every ticket reaches a terminal state — cancel() never strands a
    // waiter.
    int total_alignments = 0;
    int total_cancelled = 0;
    for (const auto &t : tickets) {
        t->wait();
        ASSERT_TRUE(t->done());
        const auto &stats = t->stats();
        const int n = static_cast<int>(t->jobs().size());
        const std::string ctx =
            std::string(K::name) + " ticket prio " +
            std::to_string(t->options().priority);

        // Exactly one accounting bucket per job: computed or cancelled.
        EXPECT_EQ(stats.alignments + stats.cancelled, n) << ctx;
        int completed_count = 0;
        for (int i = 0; i < n; i++) {
            if (t->completed()[static_cast<size_t>(i)]) {
                completed_count++;
                EXPECT_GT(t->cycles()[static_cast<size_t>(i)], 0u)
                    << ctx << " job " << i;
            } else {
                // No post-cancel results: dropped slots stay default.
                EXPECT_EQ(t->cycles()[static_cast<size_t>(i)], 0u)
                    << ctx << " job " << i;
                EXPECT_TRUE(
                    t->results()[static_cast<size_t>(i)].ops.empty())
                    << ctx << " job " << i;
            }
        }
        EXPECT_EQ(completed_count, stats.alignments) << ctx;
        if (!t->cancelled()) {
            EXPECT_EQ(completed_count, n) << ctx << " lost results";
        }

        // Per-backend sections close over the ticket totals.
        const SectionSums sums = sumSections(stats);
        EXPECT_EQ(sums.alignments, stats.alignments) << ctx;
        EXPECT_EQ(sums.cancelled, stats.cancelled) << ctx;
        EXPECT_EQ(sums.totalCycles, stats.totalCycles) << ctx;
        uint64_t per_job = 0;
        for (const auto c : t->cycles())
            per_job += c;
        EXPECT_EQ(per_job, stats.totalCycles) << ctx;

        // Fully-completed tickets are bit-identical to a blocking
        // golden run of the same jobs (no duplicated, reordered or
        // corrupted outputs).
        if (!t->cancelled()) {
            std::vector<typename Pipeline::Result> want;
            std::vector<uint64_t> want_cycles;
            golden.runAll(t->jobs(), &want, &want_cycles);
            ASSERT_EQ(want.size(), t->results().size()) << ctx;
            EXPECT_EQ(want_cycles, t->cycles()) << ctx;
            for (size_t i = 0; i < want.size(); i++) {
                EXPECT_EQ(want[i].score, t->results()[i].score)
                    << ctx << " job " << i;
                EXPECT_EQ(core::toCigar(want[i].ops),
                          core::toCigar(t->results()[i].ops))
                    << ctx << " job " << i;
            }
        }
        total_alignments += stats.alignments;
        total_cancelled += stats.cancelled;
    }

    // Epoch closure: every submitted job landed in exactly one bucket,
    // and every ticket fired its callback exactly once.
    EXPECT_EQ(total_alignments + total_cancelled, submitted_jobs.load());
    EXPECT_EQ(callback_fires.load(),
              static_cast<int>(tickets.size()));
    EXPECT_EQ(pipeline.drain().alignments, total_alignments);
}

/**
 * The transparency differential: priorities assigned (one equal class)
 * with a single worker must leave results, CIGARs, per-job cycles and
 * channel accounting bit-identical to the default FIFO path.
 */
template <typename K>
void
priorityTransparentWhenUnused()
{
    using Pipeline = host::StreamPipeline<K>;
    seq::Rng rng(static_cast<uint64_t>(K::kernelId) * 271 + 17);
    const std::pair<int, int> shapes[] = {
        {0, 0},  {1, 33},  {33, 1},  {17, 29}, {31, 32},
        {32, 31}, {48, 48}, {57, 63}, {9, 60},  {62, 21},
    };
    std::vector<typename Pipeline::Job> jobs;
    for (const auto &[qlen, rlen] : shapes) {
        auto p = test::shapedPair<K>(rng, qlen, rlen);
        jobs.push_back({std::move(p.query), std::move(p.reference)});
    }

    host::BatchConfig cfg;
    cfg.npe = 8;
    cfg.nb = 2;
    cfg.nk = 2;
    cfg.threads = 1; // single worker: dispatch order fully determined
    cfg.laneWidth = 4;
    cfg.bandWidth = 16;
    cfg.maxQueryLength = 64;
    cfg.maxReferenceLength = 64;

    Pipeline fifo(cfg);
    std::vector<typename Pipeline::Result> want, got, got2;
    std::vector<uint64_t> want_cycles, got_cycles, got_cycles2;
    const auto want_stats = fifo.runAll(jobs, &want, &want_cycles);

    // Same jobs as two equal-priority tickets through the priority
    // machinery.
    Pipeline prio(cfg);
    host::TicketOptions opt;
    opt.priority = 2;
    opt.tag = "transparent";
    const size_t split = jobs.size() / 2;
    std::vector<typename Pipeline::Job> first(jobs.begin(),
                                              jobs.begin() + split);
    std::vector<typename Pipeline::Job> second(jobs.begin() + split,
                                               jobs.end());
    auto t1 = prio.submit(std::move(first), opt);
    auto t2 = prio.submit(std::move(second), opt);
    const auto s1 = prio.collect(t1, &got, &got_cycles);
    const auto s2 = prio.collect(t2, &got2, &got_cycles2);
    got.insert(got.end(), std::make_move_iterator(got2.begin()),
               std::make_move_iterator(got2.end()));
    got_cycles.insert(got_cycles.end(), got_cycles2.begin(),
                      got_cycles2.end());

    ASSERT_EQ(want.size(), got.size()) << K::name;
    ASSERT_EQ(want_cycles, got_cycles) << K::name;
    for (size_t i = 0; i < want.size(); i++) {
        EXPECT_EQ(want[i].score, got[i].score) << K::name << " " << i;
        EXPECT_EQ(want[i].start, got[i].start) << K::name << " " << i;
        EXPECT_EQ(want[i].end, got[i].end) << K::name << " " << i;
        EXPECT_EQ(core::toCigar(want[i].ops), core::toCigar(got[i].ops))
            << K::name << " " << i;
    }
    EXPECT_EQ(s1.alignments + s2.alignments, want_stats.alignments)
        << K::name;
    EXPECT_EQ(s1.totalCycles + s2.totalCycles, want_stats.totalCycles)
        << K::name;
    EXPECT_EQ(s1.cancelled + s2.cancelled, 0) << K::name;
}

} // namespace

TEST(SchedulerTorture, RandomizedSubmitCancelWaitAllKernels)
{
    tortureKernel<kernels::GlobalLinear>(11);
    tortureKernel<kernels::GlobalAffine>(12);
    tortureKernel<kernels::LocalLinear>(13);
    tortureKernel<kernels::LocalAffine>(14);
    tortureKernel<kernels::GlobalTwoPiece>(15);
    tortureKernel<kernels::Overlap>(16);
    tortureKernel<kernels::SemiGlobal>(17);
    tortureKernel<kernels::ProfileAlignment>(18);
    tortureKernel<kernels::Dtw>(19);
    tortureKernel<kernels::Viterbi>(20);
    tortureKernel<kernels::BandedGlobalLinear>(21);
    tortureKernel<kernels::BandedLocalAffine>(22);
    tortureKernel<kernels::BandedGlobalTwoPiece>(23);
    tortureKernel<kernels::Sdtw>(24);
    tortureKernel<kernels::ProteinLocal>(25);
}

TEST(SchedulerTorture, PreemptInterleavingsAllKernels)
{
    tortureKernel<kernels::GlobalLinear>(111, true);
    tortureKernel<kernels::GlobalAffine>(112, true);
    tortureKernel<kernels::LocalLinear>(113, true);
    tortureKernel<kernels::LocalAffine>(114, true);
    tortureKernel<kernels::GlobalTwoPiece>(115, true);
    tortureKernel<kernels::Overlap>(116, true);
    tortureKernel<kernels::SemiGlobal>(117, true);
    tortureKernel<kernels::ProfileAlignment>(118, true);
    tortureKernel<kernels::Dtw>(119, true);
    tortureKernel<kernels::Viterbi>(120, true);
    tortureKernel<kernels::BandedGlobalLinear>(121, true);
    tortureKernel<kernels::BandedLocalAffine>(122, true);
    tortureKernel<kernels::BandedGlobalTwoPiece>(123, true);
    tortureKernel<kernels::Sdtw>(124, true);
    tortureKernel<kernels::ProteinLocal>(125, true);
}

/**
 * Anti-starvation aging: on a single worker with a saturating queue of
 * high-priority interactive tickets, a bulk (priority 0) ticket queued
 * *first* must complete within the first agingEvery pops — and with
 * aging off, the same workload serves it dead last.
 */
TEST(SchedulerTorture, AgingBoundsBulkStarvation)
{
    using K = kernels::GlobalLinear;
    using Pipeline = host::StreamPipeline<K>;
    constexpr int interactive_count = 8;
    constexpr int aging_every = 3;

    for (const int aging : {aging_every, 0}) {
        host::BatchConfig cfg;
        cfg.npe = 4;
        cfg.nb = 1;
        cfg.nk = 1;
        cfg.threads = 1; // serial pops: completion order == pop order
        cfg.bandWidth = 8;
        cfg.maxQueryLength = 64;
        cfg.maxReferenceLength = 64;
        cfg.agingEvery = aging;
        Pipeline pipeline(cfg);
        pipeline.pause(); // queue everything before the first pop

        std::mutex orderMutex;
        std::vector<int> completionOrder; // ticket ids, completion order
        auto recorder = [&](int id) {
            return [&, id](host::BatchTicket<K> &) {
                std::lock_guard lock(orderMutex);
                completionOrder.push_back(id);
            };
        };

        seq::Rng rng(4242);
        std::vector<typename Pipeline::Ticket> tickets;
        auto oneJob = [&] {
            auto p = test::shapedPair<K>(rng, 24, 24);
            std::vector<typename Pipeline::Job> jobs;
            jobs.push_back({std::move(p.query), std::move(p.reference)});
            return jobs;
        };

        host::TicketOptions bulk;
        bulk.priority = 0;
        tickets.push_back(pipeline.submit(oneJob(), bulk, recorder(0)));
        for (int i = 1; i <= interactive_count; i++) {
            host::TicketOptions interactive;
            interactive.priority = 10;
            tickets.push_back(
                pipeline.submit(oneJob(), interactive, recorder(i)));
        }

        pipeline.resume();
        for (const auto &t : tickets)
            t->wait();
        ASSERT_EQ(completionOrder.size(), tickets.size());

        size_t bulkPos = completionOrder.size();
        for (size_t i = 0; i < completionOrder.size(); i++) {
            if (completionOrder[i] == 0)
                bulkPos = i;
        }
        ASSERT_LT(bulkPos, completionOrder.size());
        if (aging > 0) {
            // The aging pop (every aging_every-th) must have served the
            // oldest queued shard ahead of the interactive backlog.
            EXPECT_LT(bulkPos, static_cast<size_t>(aging))
                << "bulk ticket starved past the aging bound";
        } else {
            EXPECT_EQ(bulkPos, completionOrder.size() - 1)
                << "strict priority order should serve bulk last";
        }
        EXPECT_EQ(pipeline.drain().alignments, interactive_count + 1);
    }
}

/**
 * Submit-time rejection accounting: jobs refused by
 * estimateCompletionSeconds/submit (undispatchable shape) must appear
 * in *no* accounting bucket, while accepted work — including a
 * cancelled ticket — still closes the epoch as alignments + cancelled.
 */
TEST(SchedulerTorture, SubmitRejectsStayOutsideEpochAccounting)
{
    using K = kernels::GlobalLinear;
    using Pipeline = host::StreamPipeline<K>;

    host::BatchConfig cfg;
    cfg.npe = 4;
    cfg.nb = 1;
    cfg.nk = 1;
    cfg.threads = 1;
    cfg.bandWidth = 8;
    cfg.maxQueryLength = 32; // undispatchable above this, no fallback
    cfg.maxReferenceLength = 32;
    cfg.cpuFallback = false;
    Pipeline pipeline(cfg);

    seq::Rng rng(977);
    auto jobsOf = [&](int count, int len) {
        std::vector<typename Pipeline::Job> jobs;
        for (int i = 0; i < count; i++) {
            auto p = test::shapedPair<K>(rng, len, len);
            jobs.push_back({std::move(p.query), std::move(p.reference)});
        }
        return jobs;
    };

    // The admission probe and submit must agree on the reject, and a
    // rejected batch must not touch the backlog counters.
    const auto oversized = jobsOf(2, 48);
    EXPECT_THROW((void)pipeline.estimateCompletionSeconds(oversized),
                 std::invalid_argument);
    auto copy = oversized;
    EXPECT_THROW((void)pipeline.submit(std::move(copy)),
                 std::invalid_argument);

    // A dispatchable batch still has a positive modeled estimate.
    const auto accepted_jobs = jobsOf(6, 24);
    EXPECT_GT(pipeline.estimateCompletionSeconds(accepted_jobs), 0.0);

    pipeline.pause(); // so the cancel below lands before execution
    auto t1 = pipeline.submit(jobsOf(6, 24));
    auto t2 = pipeline.submit(jobsOf(4, 20));
    t2->cancel();
    pipeline.resume();
    t1->wait();
    t2->wait();

    // Epoch closure: 6 completed + 4 cancelled-or-completed, and the 2
    // rejected jobs in neither bucket.
    const auto epoch = pipeline.drain();
    EXPECT_EQ(epoch.alignments, t1->stats().alignments +
                                    t2->stats().alignments);
    EXPECT_EQ(epoch.cancelled, t2->stats().cancelled);
    EXPECT_EQ(t1->stats().alignments, 6);
    EXPECT_EQ(t2->stats().alignments + t2->stats().cancelled, 4);
    EXPECT_EQ(epoch.alignments + epoch.cancelled, 10);
    const SectionSums sums = sumSections(epoch);
    EXPECT_EQ(sums.alignments, epoch.alignments);
    EXPECT_EQ(sums.cancelled, epoch.cancelled);
    EXPECT_EQ(sums.totalCycles, epoch.totalCycles);
}

TEST(SchedulerTorture, PriorityMachineryTransparentWhenUnusedAllKernels)
{
    priorityTransparentWhenUnused<kernels::GlobalLinear>();
    priorityTransparentWhenUnused<kernels::GlobalAffine>();
    priorityTransparentWhenUnused<kernels::LocalLinear>();
    priorityTransparentWhenUnused<kernels::LocalAffine>();
    priorityTransparentWhenUnused<kernels::GlobalTwoPiece>();
    priorityTransparentWhenUnused<kernels::Overlap>();
    priorityTransparentWhenUnused<kernels::SemiGlobal>();
    priorityTransparentWhenUnused<kernels::ProfileAlignment>();
    priorityTransparentWhenUnused<kernels::Dtw>();
    priorityTransparentWhenUnused<kernels::Viterbi>();
    priorityTransparentWhenUnused<kernels::BandedGlobalLinear>();
    priorityTransparentWhenUnused<kernels::BandedLocalAffine>();
    priorityTransparentWhenUnused<kernels::BandedGlobalTwoPiece>();
    priorityTransparentWhenUnused<kernels::Sdtw>();
    priorityTransparentWhenUnused<kernels::ProteinLocal>();
}
