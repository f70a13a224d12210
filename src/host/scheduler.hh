/**
 * @file
 * Host-side thread pool with priority/deadline-aware task ordering.
 *
 * The paper's host programs use multi-threading to keep the device's NK
 * independent channels busy (front-end step 6). The device model and the
 * CPU baseline runner both use this pool to parallelize work across host
 * threads.
 *
 * Tasks are popped highest-priority first, then earliest-deadline, then
 * in submission order, so when worker threads are scarcer than runnable
 * shards the pool itself honors the StreamPipeline's latency classes.
 * The plain submit() overload enqueues at the default priority with no
 * deadline, which degrades to exact FIFO order — existing callers see
 * the historical behavior unchanged.
 *
 * A thread waiting on the pool's work may also run it: runOne() pops the
 * best queued task, in the same order and aging phase as a worker pop,
 * and runs it on the calling thread (the StreamPipeline's collect() and
 * drain() help this way instead of sleeping on an unfinished ticket).
 *
 * Starvation control: a pool constructed with aging_every = N > 0
 * serves the *oldest* queued task (lowest submission sequence) on every
 * N-th pop instead of the best-priority one, so a saturating
 * high-priority stream cannot hold a lower class off the workers for
 * more than N-1 consecutive pops. 0 (the default) disables aging and
 * preserves strict (priority, deadline, FIFO) order.
 */

#ifndef DPHLS_HOST_SCHEDULER_HH
#define DPHLS_HOST_SCHEDULER_HH

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

namespace dphls::host {

/**
 * Cooperative preemption flag for an in-flight shard.
 *
 * The dispatcher registers one token per shard running on a device
 * channel; a higher-priority enqueue request()s it, and the channel's
 * shard loop polls requested() between jobs, yielding the slot with the
 * remainder re-queued. Purely advisory: a backend that never polls
 * simply runs to completion.
 */
class PreemptToken
{
  public:
    void request() { _requested.store(true, std::memory_order_release); }

    bool
    requested() const
    {
        return _requested.load(std::memory_order_acquire);
    }

  private:
    std::atomic<bool> _requested{false};
};

/** Scheduling attributes of one pool task. */
struct TaskOptions
{
    /** Higher runs first. The default class is 0. */
    int priority = 0;
    /**
     * Absolute deadline in seconds on the steady clock's epoch;
     * infinity (the default) means no deadline. Among equal-priority
     * tasks the earliest deadline runs first.
     */
    double deadlineSeconds = std::numeric_limits<double>::infinity();
};

/**
 * A fixed-size thread pool executing enqueued tasks in (priority,
 * deadline, FIFO) order.
 */
class ThreadPool
{
  public:
    /**
     * @param threads worker count (clamped to >= 1).
     * @param aging_every anti-starvation period: every N-th pop takes
     *        the oldest queued task instead of the highest-priority
     *        one; 0 disables aging (strict priority order).
     */
    explicit ThreadPool(int threads, int aging_every = 0);
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Enqueue a task at the default priority (FIFO among its peers). */
    void submit(std::function<void()> task);

    /** Enqueue a task with explicit scheduling attributes. */
    void submit(std::function<void()> task, const TaskOptions &options);

    /**
     * Block until all submitted tasks have completed, including tasks
     * running inline on a thread inside runOne().
     */
    void wait();

    /**
     * Pop the best queued task, exactly as a worker pop would (order
     * and aging phase), and run it on the calling thread. Returns false
     * without running anything when the queue is empty or when the
     * caller is itself inside a pool task — of any pool — so helping
     * never nests. The task is unguarded, as on a worker: an exception
     * escaping it terminates the process.
     */
    bool runOne() noexcept;

    int threadCount() const { return static_cast<int>(_workers.size()); }

  private:
    /** One queued task plus its pop-ordering key. */
    struct Entry
    {
        int priority = 0;
        double deadline = std::numeric_limits<double>::infinity();
        uint64_t seq = 0;
        std::function<void()> fn;
    };

    /** True when @p a should run before @p b. */
    static bool runsBefore(const Entry &a, const Entry &b);

    /**
     * Pop the next task under _mutex (the heap's best, or the oldest on
     * an aging pop) and count it in _active. The queue must be
     * non-empty.
     */
    std::function<void()> popLocked();

    /** Run a popped task flagged as a pool task, then retire it. */
    void runTask(std::function<void()> &task);

    void workerLoop();

    std::vector<std::thread> _workers;
    std::vector<Entry> _tasks; //!< max-heap ordered by runsBefore
    int _agingEvery = 0;       //!< 0 = no aging
    uint64_t _pops = 0;        //!< pops so far (aging phase, under _mutex)
    uint64_t _nextSeq = 0;
    std::mutex _mutex;
    std::condition_variable _cv;
    std::condition_variable _idleCv;
    size_t _active = 0; //!< popped tasks still running (workers or inline)
    bool _stop = false;
};

/**
 * Run fn(i) for i in [0, n) across the given number of threads; blocks
 * until all iterations complete.
 */
void parallelFor(int n, int threads, const std::function<void(int)> &fn);

} // namespace dphls::host

#endif // DPHLS_HOST_SCHEDULER_HH
