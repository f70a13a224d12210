/**
 * @file
 * Admission-reservation torture test: the estimate/submit race that
 * let concurrent submitters over-admit against a deadline budget is
 * closed by reserve-on-estimate / commit-on-submit / release-on-reject
 * (host::AdmissionReservation). With the pipeline paused so nothing
 * drains, T threads hammering reserve→admit-or-release against a
 * budget of B seconds must never admit more than floor(B / E) batches
 * of per-batch work E: the k-th admitted reserver's estimate already
 * includes the k-1 earlier bookings, so it reads at least k·E.
 *
 * Also locked here: release() restores the backlog counters exactly
 * (a fresh reservation on the drained pipeline sees the same estimate
 * as the very first one), committing via submit() never
 * double-counts once the ticket completes, and a reservation routes
 * with the ticket's own options, so it books the slot the ticket runs
 * on.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "host/stream_pipeline.hh"
#include "kernels/local_affine.hh"
#include "kernels/semi_global.hh"
#include "seq/read_simulator.hh"

using namespace dphls;
using Pipeline = host::StreamPipeline<kernels::SemiGlobal>;

namespace {

host::BatchConfig
oneChannelConfig()
{
    host::BatchConfig cfg;
    cfg.npe = 16;
    cfg.nb = 1;
    cfg.nk = 1; // a single device channel: all work lands on one slot
    cfg.threads = 1;
    cfg.maxQueryLength = 512;
    cfg.maxReferenceLength = 512;
    cfg.cpuFallback = false; // no second slot to leak admissions onto
    cfg.gpuModel = false;
    cfg.cacheEntries = 0;
    cfg.collectPathStats = false;
    return cfg;
}

std::vector<Pipeline::Job>
someJobs(int count, seq::Rng &rng)
{
    std::vector<Pipeline::Job> jobs;
    for (int i = 0; i < count; i++) {
        Pipeline::Job job;
        job.query = seq::randomDna(256, rng);
        job.reference = seq::randomDna(320, rng);
        jobs.push_back(std::move(job));
    }
    return jobs;
}

} // namespace

TEST(AdmissionReserve, ReleaseRestoresTheBacklogExactly)
{
    Pipeline pipeline(oneChannelConfig());
    pipeline.pause();
    seq::Rng rng(41);
    const auto jobs = someJobs(6, rng);

    auto first = pipeline.reserveCompletion(jobs);
    const double e = first.estimateSeconds();
    ASSERT_GT(e, 0.0);
    ASSERT_TRUE(first.active());

    // A second reservation stacked on the first sees both bookings.
    auto second = pipeline.reserveCompletion(jobs);
    EXPECT_GE(second.estimateSeconds(), 2 * e * 0.999);

    // Releasing both (out of order) restores the empty backlog: a
    // fresh reservation reads the original estimate again.
    first.release();
    EXPECT_FALSE(first.active());
    first.release(); // idempotent
    second.release();
    auto fresh = pipeline.reserveCompletion(jobs);
    EXPECT_NEAR(fresh.estimateSeconds(), e, e * 1e-6 + 1e-9);
    fresh.release();
    pipeline.resume();
}

TEST(AdmissionReserve, DroppedReservationReleasesInItsDestructor)
{
    Pipeline pipeline(oneChannelConfig());
    pipeline.pause();
    seq::Rng rng(42);
    const auto jobs = someJobs(4, rng);
    const double e = pipeline.reserveCompletion(jobs).estimateSeconds();
    {
        auto scoped = pipeline.reserveCompletion(jobs);
        ASSERT_TRUE(scoped.active());
    } // exception-path semantics: scope exit alone must unbook
    EXPECT_NEAR(pipeline.reserveCompletion(jobs).estimateSeconds(), e,
                e * 1e-6 + 1e-9);
    pipeline.resume();
}

TEST(AdmissionReserve, ConcurrentReserversNeverOverAdmit)
{
    Pipeline pipeline(oneChannelConfig());
    pipeline.pause(); // nothing drains: admissions accumulate
    seq::Rng rng(43);
    const auto jobs = someJobs(6, rng);

    // Per-batch work E on the empty, paused pipeline.
    const double e = [&] {
        auto probe = pipeline.reserveCompletion(jobs);
        return probe.estimateSeconds();
    }();
    ASSERT_GT(e, 0.0);

    // Budget admits at most 5 batches; make it land strictly between
    // multiples of E so float jitter cannot flip the floor.
    const int max_admit = 5;
    const double budget = e * (max_admit + 0.5);

    constexpr int kThreads = 16;
    constexpr int kAttemptsPerThread = 6;
    std::atomic<int> admitted{0};
    std::atomic<int> rejected{0};
    std::vector<Pipeline::Ticket> tickets[kThreads];
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; t++) {
        threads.emplace_back([&, t] {
            for (int a = 0; a < kAttemptsPerThread; a++) {
                auto res = pipeline.reserveCompletion(jobs);
                if (res.estimateSeconds() <= budget) {
                    tickets[t].push_back(pipeline.submit(
                        jobs, host::TicketOptions{}, nullptr,
                        std::move(res)));
                    admitted.fetch_add(1, std::memory_order_relaxed);
                } else {
                    res.release();
                    rejected.fetch_add(1, std::memory_order_relaxed);
                }
            }
        });
    }
    for (auto &th : threads)
        th.join();

    // The bound the reservation protocol guarantees: the k-th admitted
    // reserver read at least k·E, so nobody past floor(budget/E) got
    // in — under ANY interleaving of the 96 attempts.
    EXPECT_LE(admitted.load(), max_admit);
    EXPECT_GE(admitted.load(), 1); // the budget wasn't vacuously tight
    EXPECT_EQ(admitted.load() + rejected.load(),
              kThreads * kAttemptsPerThread);

    // Every reject released its booking; every admit committed into
    // live ticket entries: the backlog now carries exactly the
    // admitted batches.
    auto settled = pipeline.reserveCompletion(jobs);
    EXPECT_NEAR(settled.estimateSeconds(), (admitted.load() + 1) * e,
                e * 1e-3);
    settled.release();

    // Drain everything; completion must return the backlog to empty —
    // committed reservations are not double-counted.
    pipeline.resume();
    for (auto &per_thread : tickets)
        for (auto &ticket : per_thread)
            ticket->wait();
    pipeline.drain();
    auto after = pipeline.reserveCompletion(jobs);
    EXPECT_NEAR(after.estimateSeconds(), e, e * 1e-6 + 1e-9);
    after.release();
}

TEST(AdmissionReserve, ThresholdEstimateSeesTheSlotTheTicketLandsOn)
{
    // Threshold dispatch round-robins each ticket from channel 0, so a
    // paused backlog of single-pair tickets piles up on channel 0 while
    // channels 1..3 stay idle. Admission must estimate with the router
    // the submission actually uses: a 17th pair lands behind the 16.
    host::BatchConfig cfg = oneChannelConfig();
    cfg.nk = 4;
    cfg.dispatch = host::DispatchPolicy::Threshold;
    Pipeline pipeline(cfg);
    pipeline.pause();
    seq::Rng rng(44);
    const auto pair = someJobs(1, rng);
    const double e = pipeline.estimateCompletionSeconds(pair);
    ASSERT_GT(e, 0.0);

    constexpr int kBacklog = 16;
    std::vector<Pipeline::Ticket> backlog;
    for (int i = 0; i < kBacklog; i++)
        backlog.push_back(pipeline.submit(pair));

    // The backlog counters hold whole microseconds per booking.
    const double want = (kBacklog + 1) * e - (kBacklog + 1) * 0.5e-6;
    EXPECT_GE(pipeline.estimateCompletionSeconds(pair), want);
    auto res = pipeline.reserveCompletion(pair);
    EXPECT_GE(res.estimateSeconds(), want);
    auto probe = pipeline.submit(pair, host::TicketOptions{}, nullptr,
                                 std::move(res));

    pipeline.resume();
    const auto stats = pipeline.collect(probe);
    EXPECT_EQ(stats.slots[0].alignments, 1); // it really landed there
    for (auto &t : backlog)
        EXPECT_EQ(pipeline.collect(t).slots[0].alignments, 1);
}

TEST(AdmissionReserve, CostModelReservationBooksTheSlotTheDeadlineTicketRunsOn)
{
    // Under CostModel the ticket's deadline steers routing: a roomy
    // deadline sends this 256x256 pair to the GPU model (cheaper
    // service, later completion), while the no-deadline argmin picks
    // the device channel. A reservation must route with the ticket's
    // own options, or it books one slot while the ticket runs on
    // another.
    using LaPipeline = host::StreamPipeline<kernels::LocalAffine>;
    host::BatchConfig cfg;
    cfg.npe = 32;
    cfg.nb = 1;
    cfg.nk = 1;
    cfg.threads = 1;
    cfg.maxQueryLength = 512;
    cfg.maxReferenceLength = 512;
    cfg.dispatch = host::DispatchPolicy::CostModel;
    cfg.gpuModel = true; // LocalAffine is GASAL2-covered: slot 2
    LaPipeline pipeline(cfg);
    pipeline.pause();

    seq::Rng rng(321);
    LaPipeline::Job job;
    job.query = seq::randomDna(256, rng);
    job.reference = seq::mutateDna(job.query, 0.1, 0.05, rng);
    job.reference.chars.resize(256);
    const std::vector<LaPipeline::Job> jobs{job};
    const auto roomy = host::TicketOptions::afterMs(0, 10000.0);

    const double idle_device = pipeline.estimateCompletionSeconds(jobs);
    const double idle_gpu = pipeline.estimateCompletionSeconds(jobs, roomy);
    ASSERT_GT(idle_gpu, idle_device); // the GPU pays its launch overhead

    auto res = pipeline.reserveCompletion(jobs, roomy);
    EXPECT_NEAR(res.estimateSeconds(), idle_gpu, 1e-6);
    // The booking sits on the GPU slot: the device channel is idle.
    EXPECT_NEAR(pipeline.estimateCompletionSeconds(jobs), idle_device,
                1e-9);

    auto ticket = pipeline.submit(jobs, roomy, nullptr, std::move(res));
    EXPECT_NEAR(pipeline.estimateCompletionSeconds(jobs), idle_device,
                1e-9);
    pipeline.resume();
    const auto stats = pipeline.collect(ticket);
    EXPECT_EQ(stats.slots[2].alignments, 1); // it ran on the GPU model
    EXPECT_EQ(stats.slots[0].alignments, 0);
    // Completion unbooks exactly what the commit booked.
    EXPECT_NEAR(pipeline.estimateCompletionSeconds(jobs, roomy), idle_gpu,
                1e-9);
}
