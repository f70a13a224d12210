#include "host/scheduler.hh"

#include <algorithm>
#include <atomic>
#include <utility>

namespace dphls::host {

namespace {

/** Set while this thread runs a pool task (worker or inline). */
thread_local bool t_insideTask = false;

} // namespace

ThreadPool::ThreadPool(int threads, int aging_every)
    : _agingEvery(std::max(0, aging_every))
{
    const int n = std::max(1, threads);
    _workers.reserve(static_cast<size_t>(n));
    for (int i = 0; i < n; i++)
        _workers.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool()
{
    {
        std::unique_lock lock(_mutex);
        _stop = true;
        // Notify while holding the lock: a waiter woken between unlock
        // and notify could otherwise finish and destroy the CV (the
        // notify-after-unlock race class).
        _cv.notify_all();
    }
    for (auto &w : _workers)
        w.join();
}

bool
ThreadPool::runsBefore(const Entry &a, const Entry &b)
{
    if (a.priority != b.priority)
        return a.priority > b.priority;
    if (a.deadline != b.deadline)
        return a.deadline < b.deadline;
    return a.seq < b.seq;
}

void
ThreadPool::submit(std::function<void()> task)
{
    submit(std::move(task), TaskOptions{});
}

void
ThreadPool::submit(std::function<void()> task, const TaskOptions &options)
{
    {
        std::unique_lock lock(_mutex);
        _tasks.push_back(Entry{options.priority, options.deadlineSeconds,
                               _nextSeq++, std::move(task)});
        std::push_heap(_tasks.begin(), _tasks.end(),
                       [](const Entry &a, const Entry &b) {
                           return runsBefore(b, a);
                       });
        _cv.notify_one();
    }
}

void
ThreadPool::wait()
{
    std::unique_lock lock(_mutex);
    _idleCv.wait(lock, [this] { return _tasks.empty() && _active == 0; });
}

std::function<void()>
ThreadPool::popLocked()
{
    const auto heapOrder = [](const Entry &a, const Entry &b) {
        return runsBefore(b, a);
    };
    std::function<void()> task;
    _pops++;
    if (_agingEvery > 0 && _tasks.size() > 1 &&
        _pops % static_cast<uint64_t>(_agingEvery) == 0) {
        // Aging pop: serve the oldest submission so bulk tasks keep a
        // latency bound under saturating high-priority traffic. The
        // heap order is restored afterwards.
        auto oldest = std::min_element(
            _tasks.begin(), _tasks.end(),
            [](const Entry &a, const Entry &b) { return a.seq < b.seq; });
        task = std::move(oldest->fn);
        *oldest = std::move(_tasks.back());
        _tasks.pop_back();
        std::make_heap(_tasks.begin(), _tasks.end(), heapOrder);
    } else {
        std::pop_heap(_tasks.begin(), _tasks.end(), heapOrder);
        task = std::move(_tasks.back().fn);
        _tasks.pop_back();
    }
    _active++;
    return task;
}

void
ThreadPool::runTask(std::function<void()> &task)
{
    t_insideTask = true;
    task();
    t_insideTask = false;
    std::unique_lock lock(_mutex);
    _active--;
    if (_tasks.empty() && _active == 0)
        _idleCv.notify_all();
}

bool
ThreadPool::runOne() noexcept
{
    if (t_insideTask)
        return false;
    std::function<void()> task;
    {
        std::unique_lock lock(_mutex);
        if (_tasks.empty())
            return false;
        task = popLocked();
    }
    runTask(task);
    return true;
}

void
ThreadPool::workerLoop()
{
    for (;;) {
        std::function<void()> task;
        {
            std::unique_lock lock(_mutex);
            _cv.wait(lock, [this] { return _stop || !_tasks.empty(); });
            if (_stop && _tasks.empty())
                return;
            task = popLocked();
        }
        runTask(task);
    }
}

void
parallelFor(int n, int threads, const std::function<void(int)> &fn)
{
    if (n <= 0)
        return;
    const int t = std::max(1, std::min(threads, n));
    if (t == 1) {
        for (int i = 0; i < n; i++)
            fn(i);
        return;
    }
    std::atomic<int> next{0};
    std::vector<std::thread> pool;
    pool.reserve(static_cast<size_t>(t));
    for (int w = 0; w < t; w++) {
        pool.emplace_back([&] {
            for (;;) {
                const int i = next.fetch_add(1);
                if (i >= n)
                    return;
                fn(i);
            }
        });
    }
    for (auto &th : pool)
        th.join();
}

} // namespace dphls::host
