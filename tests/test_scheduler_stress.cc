/**
 * @file
 * ThreadPool stress tests guarding the StreamPipeline's async paths:
 * concurrent submit() from multiple producers, wait() reentrancy
 * (including wait() racing wait()), tasks that submit follow-up tasks,
 * destruction with work still queued, runOne() (a waiting thread
 * running queued tasks inline), and — at the pipeline level —
 * submissions racing completion waits and drains (per-ticket accounting
 * keeps a submit() overlapping a drain() out of the epoch race).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <thread>
#include <vector>

#include "host/scheduler.hh"
#include "host/stream_pipeline.hh"
#include "kernels/local_affine.hh"
#include "seq/read_simulator.hh"

using namespace dphls::host;

TEST(ThreadPoolStress, ManyProducersManyTasks)
{
    for (int round = 0; round < 5; round++) {
        ThreadPool pool(4);
        std::atomic<int> count{0};
        const int producers = 8;
        const int per_producer = 200;
        std::vector<std::thread> threads;
        for (int p = 0; p < producers; p++) {
            threads.emplace_back([&] {
                for (int i = 0; i < per_producer; i++)
                    pool.submit([&count] { count++; });
            });
        }
        for (auto &t : threads)
            t.join();
        pool.wait();
        EXPECT_EQ(count.load(), producers * per_producer) << round;
    }
}

TEST(ThreadPoolStress, WaitFromMultipleThreads)
{
    ThreadPool pool(4);
    std::atomic<int> count{0};
    for (int i = 0; i < 500; i++) {
        pool.submit([&count] {
            std::this_thread::sleep_for(std::chrono::microseconds(10));
            count++;
        });
    }
    // Several threads wait() on the same pool concurrently; each must
    // observe all 500 tasks complete.
    std::vector<std::thread> waiters;
    for (int w = 0; w < 4; w++) {
        waiters.emplace_back([&] {
            pool.wait();
            EXPECT_EQ(count.load(), 500);
        });
    }
    for (auto &t : waiters)
        t.join();
}

TEST(ThreadPoolStress, WaitIsReentrantAfterIdle)
{
    ThreadPool pool(2);
    std::atomic<int> count{0};
    for (int round = 0; round < 50; round++) {
        pool.submit([&count] { count++; });
        pool.wait();
        EXPECT_EQ(count.load(), round + 1);
        pool.wait(); // idle wait() must return immediately
    }
}

TEST(ThreadPoolStress, TasksSubmittingTasks)
{
    ThreadPool pool(4);
    std::atomic<int> count{0};
    // Each parent enqueues its child before finishing, so wait() cannot
    // observe an empty queue with pending work.
    for (int i = 0; i < 100; i++) {
        pool.submit([&pool, &count] {
            pool.submit([&count] { count++; });
            count++;
        });
    }
    pool.wait();
    EXPECT_EQ(count.load(), 200);
}

TEST(ThreadPoolStress, DestructionDrainsQueuedWork)
{
    std::atomic<int> count{0};
    {
        ThreadPool pool(2);
        for (int i = 0; i < 300; i++) {
            pool.submit([&count] {
                std::this_thread::sleep_for(std::chrono::microseconds(5));
                count++;
            });
        }
        // Destructor runs with most of the queue still pending; queued
        // work must complete, not be dropped.
    }
    EXPECT_EQ(count.load(), 300);
}

TEST(ThreadPoolStress, PopOrderIsPriorityThenDeadlineThenFifo)
{
    ThreadPool pool(1);
    // Gate the single worker so every task below is queued before any
    // of them can run; the drain order is then pure pop order. The
    // submissions must wait until the worker has actually entered the
    // gate task — otherwise a high-priority task submitted early could
    // be popped ahead of the gate itself.
    std::mutex mutex;
    std::condition_variable cv;
    bool go = false;
    std::atomic<bool> gate_entered{false};
    pool.submit([&] {
        gate_entered = true;
        std::unique_lock lock(mutex);
        cv.wait(lock, [&] { return go; });
    });
    while (!gate_entered.load())
        std::this_thread::yield();

    std::vector<int> order;
    std::mutex order_mutex;
    const auto record = [&](int id) {
        return [&order, &order_mutex, id] {
            std::lock_guard lock(order_mutex);
            order.push_back(id);
        };
    };
    pool.submit(record(0));                        // class 0, FIFO first
    pool.submit(record(1), {.priority = 5});       // highest class
    pool.submit(record(2), {.priority = 5, .deadlineSeconds = 10.0});
    pool.submit(record(3), {.priority = 5, .deadlineSeconds = 2.0});
    pool.submit(record(4), {.priority = 1});
    pool.submit(record(5));                        // class 0, FIFO second

    {
        std::lock_guard lock(mutex);
        go = true;
        cv.notify_all();
    }
    pool.wait();

    // Priority desc, then deadline asc (finite before infinite), then
    // submission order.
    EXPECT_EQ(order, (std::vector<int>{3, 2, 1, 4, 0, 5}));
}

namespace {

/**
 * A gate task that holds one pool thread until open(): the constructor
 * returns only once the thread has entered it, so everything submitted
 * afterwards is queued behind it.
 */
class Gate
{
  public:
    explicit Gate(ThreadPool &pool)
    {
        pool.submit([this] {
            std::unique_lock lock(_mutex);
            _entered = true;
            _cv.notify_all();
            _cv.wait(lock, [this] { return _open; });
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

  private:
    std::mutex _mutex;
    std::condition_variable _cv;
    bool _entered = false;
    bool _open = false;
};

} // namespace

TEST(ThreadPoolStress, RunOnePopsInWorkerOrder)
{
    ThreadPool pool(1);
    Gate gate(pool); // the only worker is busy: runOne() pops everything
    std::vector<int> order;
    const auto record = [&order](int id) {
        return [&order, id] { order.push_back(id); };
    };
    pool.submit(record(0));
    pool.submit(record(1), {.priority = 5});
    pool.submit(record(2), {.priority = 5, .deadlineSeconds = 10.0});
    pool.submit(record(3), {.priority = 5, .deadlineSeconds = 2.0});
    pool.submit(record(4), {.priority = 1});
    pool.submit(record(5));

    int ran = 0;
    while (pool.runOne())
        ran++;
    EXPECT_EQ(ran, 6);
    // Same (priority, deadline, FIFO) order as a worker drains.
    EXPECT_EQ(order, (std::vector<int>{3, 2, 1, 4, 0, 5}));
    EXPECT_FALSE(pool.runOne()); // empty queue: nothing to run
    gate.open();
    pool.wait();
}

TEST(ThreadPoolStress, RunOneAdvancesTheAgingPhaseLikeAWorkerPop)
{
    // Aging every 3rd pop. The worker's pop of the gate is pop 1, so
    // runOne()'s pops are 2, 3 (aging: oldest), 4 and 5 — only a
    // shared pop counter puts the class-0 task second.
    ThreadPool pool(1, 3);
    Gate gate(pool);
    std::vector<int> order;
    const auto record = [&order](int id) {
        return [&order, id] { order.push_back(id); };
    };
    pool.submit(record(0));                  // oldest, lowest class
    pool.submit(record(1), {.priority = 5});
    pool.submit(record(2), {.priority = 5});
    pool.submit(record(3), {.priority = 5});
    while (pool.runOne()) {
    }
    EXPECT_EQ(order, (std::vector<int>{1, 0, 2, 3}));
    gate.open();
    pool.wait();
}

TEST(ThreadPoolStress, WaitSeesTaskRunningInline)
{
    ThreadPool pool(1);
    Gate gate(pool);
    std::mutex mutex;
    std::condition_variable cv;
    bool inline_started = false;
    bool inline_release = false;
    std::atomic<bool> inline_done{false};
    pool.submit([&] {
        {
            std::unique_lock lock(mutex);
            inline_started = true;
            cv.notify_all();
            cv.wait(lock, [&] { return inline_release; });
        }
        inline_done = true;
    });
    std::thread helper([&] { EXPECT_TRUE(pool.runOne()); });
    {
        std::unique_lock lock(mutex);
        cv.wait(lock, [&] { return inline_started; });
    }
    gate.open(); // the worker idles; only the inline task is running

    std::atomic<bool> waited{false};
    std::thread waiter([&] {
        pool.wait();
        EXPECT_TRUE(inline_done.load());
        waited = true;
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    EXPECT_FALSE(waited.load());
    {
        std::lock_guard lock(mutex);
        inline_release = true;
        cv.notify_all();
    }
    helper.join();
    waiter.join();
    EXPECT_TRUE(waited.load());
}

TEST(ThreadPoolStress, RunOneRefusesInsideAPoolTask)
{
    ThreadPool pool(1);
    ThreadPool other(1);
    Gate other_gate(other);
    std::atomic<bool> follow_up_ran{false};
    other.submit([] {}); // queued: other's only worker is gated
    std::atomic<int> checks{0};
    pool.submit([&] {
        // Queued behind this task on the only worker: runOne() would
        // run it here if it did not refuse.
        pool.submit([&] { follow_up_ran = true; });
        EXPECT_FALSE(pool.runOne());
        EXPECT_FALSE(other.runOne()); // no nesting across pools either
        EXPECT_FALSE(follow_up_ran.load());
        checks++;
    });
    pool.wait();
    EXPECT_EQ(checks.load(), 1);
    EXPECT_TRUE(follow_up_ran.load());
    EXPECT_TRUE(other.runOne()); // outside a task the same call helps
    other_gate.open();
    other.wait();
}

TEST(ThreadPoolStress, SubmitRacingWait)
{
    for (int round = 0; round < 10; round++) {
        ThreadPool pool(3);
        std::atomic<int> count{0};
        std::thread producer([&] {
            for (int i = 0; i < 100; i++)
                pool.submit([&count] { count++; });
        });
        // wait() may legitimately return while the producer is still
        // submitting; it must never deadlock or crash.
        pool.wait();
        producer.join();
        pool.wait();
        EXPECT_EQ(count.load(), 100) << round;
    }
}

namespace {

using StressKernel = dphls::kernels::LocalAffine;
using StressPipeline = StreamPipeline<StressKernel>;

std::vector<StressPipeline::Job>
stressJobs(int n, uint64_t seed)
{
    std::vector<StressPipeline::Job> jobs;
    dphls::seq::Rng rng(seed);
    for (int i = 0; i < n; i++) {
        StressPipeline::Job j;
        j.query = dphls::seq::randomDna(
            12 + static_cast<int>(rng.below(40)), rng);
        j.reference = dphls::seq::mutateDna(j.query, 0.1, 0.05, rng);
        jobs.push_back(std::move(j));
    }
    return jobs;
}

} // namespace

/**
 * A submit() overlapping a drain() must not race the epoch accounting,
 * which is per-ticket: producers submit and wait on their own tickets while a consumer
 * thread drains concurrently, and every job must land in exactly one
 * accounting bucket (per-ticket stats observed by producers always
 * cover their whole batch; drained epochs plus the final drain cover
 * every submission exactly once).
 */
TEST(StreamPipelineStress, SubmitConcurrentWithCompletionWaitsAndDrain)
{
    BatchConfig cfg;
    cfg.npe = 4;
    cfg.nk = 3;
    cfg.threads = 2;
    StressPipeline pipeline(cfg);

    const int producers = 4;
    const int batches_per_producer = 12;
    const int jobs_per_batch = 3;

    std::atomic<int> ticket_alignments{0};
    std::atomic<int> callback_fires{0};
    std::vector<std::thread> threads;
    for (int p = 0; p < producers; p++) {
        threads.emplace_back([&, p] {
            for (int b = 0; b < batches_per_producer; b++) {
                auto ticket = pipeline.submit(
                    stressJobs(jobs_per_batch,
                               static_cast<uint64_t>(p * 1000 + b)),
                    [&callback_fires](BatchTicket<StressKernel> &) {
                        callback_fires++;
                    });
                // Completion wait racing other producers' submissions
                // and the consumer's drains.
                ticket->wait();
                EXPECT_EQ(ticket->stats().alignments, jobs_per_batch);
                EXPECT_EQ(ticket->results().size(),
                          static_cast<size_t>(jobs_per_batch));
                ticket_alignments += ticket->stats().alignments;
            }
        });
    }

    // Consumer drains while producers are mid-submission; each drain
    // must observe whole batches only.
    std::atomic<bool> stop{false};
    int drained_alignments = 0;
    std::thread consumer([&] {
        while (!stop.load()) {
            const auto stats = pipeline.drain();
            EXPECT_EQ(stats.alignments % jobs_per_batch, 0);
            drained_alignments += stats.alignments;
            std::this_thread::sleep_for(std::chrono::microseconds(200));
        }
    });

    for (auto &t : threads)
        t.join();
    stop = true;
    consumer.join();
    drained_alignments += pipeline.drain().alignments;

    const int total = producers * batches_per_producer * jobs_per_batch;
    EXPECT_EQ(ticket_alignments.load(), total);
    EXPECT_EQ(drained_alignments, total);
    EXPECT_EQ(callback_fires.load(), producers * batches_per_producer);
}
