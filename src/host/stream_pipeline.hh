/**
 * @file
 * Streaming multi-backend host executor with priority scheduling.
 *
 * The paper's host programs (front-end step 6) keep the device's NK
 * independent channels saturated. StreamPipeline is a streaming
 * executor over pluggable AlignBackends (host/backend.hh):
 *
 *  - submit() returns a per-batch **ticket**; batches complete
 *    independently (no global barrier), completion callbacks fire as
 *    each batch's last shard finishes, and collect()/wait() retire one
 *    ticket at a time so hosts can pipeline parse -> align -> writeback.
 *  - Accounting is **per ticket** and **per dispatch slot**: every
 *    ticket carries one ChannelStats per slot (the NK device channels,
 *    then the CPU baseline, then the GPU model), finalized at
 *    completion, so a submit() overlapping a drain() cannot race the
 *    epoch accounting. Device/CPU/GPU sections are derived from the
 *    slots (backendSections()) only where they are printed or sent.
 *  - A **dispatch policy** routes each job to a backend. The Threshold
 *    policy is the shape rule: jobs the device cannot take (sequences
 *    over MAX_*_LENGTH) or should not take (pairs below a configurable
 *    floor) go to the CPU baseline backend, everything else round-robins
 *    over the device channels. The CostModel policy instead asks every
 *    enabled backend for a service-time estimate (device channels:
 *    analytic cycle formulas; CPU: EWMA of measured cells/sec; GPU
 *    model: published GCUPS) and routes each job to the backend — and
 *    channel — with the lowest estimated completion time given its
 *    current queued work. When the ticket carries a deadline the router
 *    folds it into the argmin: among backends whose estimated completion
 *    beats the deadline it picks the one with the lowest marginal
 *    service cost, even if another backend would complete sooner — fast
 *    capacity stays free for traffic that actually needs it. Either
 *    way, the per-slot stats make the heterogeneous split visible,
 *    and they sum to the epoch totals. A job no enabled
 *    backend can take fails loudly at submission with its index and
 *    shape.
 *  - Shards wait in **per-backend dispatch queues**, not FIFO: each
 *    device channel (and the CPU/GPU backend) pulls its
 *    highest-priority queued shard next, ties broken by earliest
 *    deadline, then submission order. TicketOptions carries the
 *    priority, deadline and tag; with no options every ticket is class
 *    0 with no deadline and dispatch degrades to exact FIFO. Deadline
 *    misses are counted per slot (ChannelStats::deadlineMisses) and
 *    summed into BatchStats::deadlineMisses.
 *  - Tickets can be **cancelled**: queued shards are dropped (and
 *    accounted per slot as ChannelStats::cancelled), in-flight
 *    device-channel shards stop starting jobs at their next lane-group
 *    boundary, and the ticket still completes — wait() returns, the
 *    completion callback fires once, and results() holds a partial
 *    result set (BatchTicket::completed() says which jobs ran; the rest
 *    hold default-constructed results and zero cycles).
 *  - With BatchConfig::preemption, a strictly-higher-priority arrival
 *    asks the shard running on its device channel to yield at the next
 *    lane-group boundary; the unstarted jobs re-queue in place.
 *  - Host worker **threads are decoupled from NK**: with the lane
 *    engine one thread can saturate several modeled channels, so
 *    BatchConfig::threads sizes the pool independently (0 = one thread
 *    per channel, the old arrangement). When threads are scarcer than
 *    runnable shards the pool pops tasks in the same (priority,
 *    deadline, FIFO) order as the dispatch queues.
 *  - Waits are **work-assisting**: a thread blocked in collect() or
 *    drain() on an unfinished ticket first runs shards already queued
 *    in this pipeline's pool, and sleeps only once that queue is empty,
 *    so the host thread that submits and collects adds a core to the
 *    pool instead of idling. It takes only shards the dispatcher has
 *    already released, so pause, channel capacity, scheduling order,
 *    preemption and cancel decide what runs exactly as for a worker.
 *
 * pause()/resume() gate dispatch without blocking submission: while
 * paused, submitted shards accumulate in the dispatch queues and
 * resume() releases them in scheduling order — letting hosts (and the
 * benches) batch a backlog and observe a deterministic dispatch order.
 *
 * drain() waits for every outstanding ticket and aggregates in
 * submission order. The ticket path is bit-identical — results, CIGARs
 * and per-job device cycles — to blocking runAll() (enforced by
 * tests/test_stream_pipeline.cc), and the priority machinery is
 * transparent when unused (enforced by tests/test_scheduler_torture.cc).
 *
 * Multi-batch epoch accounting sums each channel's per-ticket arbiter
 * makespans (batches synchronize at batch boundaries); for one batch
 * this equals the old epoch-wide greedy packing exactly.
 */

#ifndef DPHLS_HOST_STREAM_PIPELINE_HH
#define DPHLS_HOST_STREAM_PIPELINE_HH

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <limits>
#include <memory>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/alignment_stats.hh"
#include "host/backend.hh"
#include "host/check.hh"
#include "host/result_cache.hh"
#include "host/scheduler.hh"

namespace dphls::host {

/** How the pipeline routes jobs across its backends. */
enum class DispatchPolicy : uint8_t
{
    /**
     * Shape thresholds (the original rule): oversized/tiny jobs to the
     * CPU backend, everything else round-robin over device channels.
     * Bit-identical to the pre-cost-model pipeline.
     */
    Threshold,
    /**
     * Pick the backend (and channel) with the lowest estimated
     * completion time: per-job service estimate plus the backend's
     * live queued-work signal. Balances load across heterogeneous
     * executors instead of cutting on shape alone. Tickets with a
     * deadline instead prefer the cheapest backend that still meets
     * it (see the file comment).
     */
    CostModel,
};

/** Scheduling class of one submitted ticket. */
struct TicketOptions
{
    /** Higher is dispatched first; the default class is 0. */
    int priority = 0;
    /**
     * Completion deadline; time_point::max() (the default) means none.
     * Queued shards of an earlier-deadline ticket run first within a
     * priority class, completions after the deadline are counted as
     * deadline misses, and the cost-model router prefers backends whose
     * estimated completion beats the deadline.
     */
    std::chrono::steady_clock::time_point deadline =
        std::chrono::steady_clock::time_point::max();
    /** Free-form label for logs and host-side bookkeeping. */
    std::string tag;

    bool
    hasDeadline() const
    {
        return deadline != std::chrono::steady_clock::time_point::max();
    }

    /** Options with a deadline @p deadline_ms from now. */
    static TicketOptions
    afterMs(int priority, double deadline_ms, std::string tag = {})
    {
        TicketOptions opt;
        opt.priority = priority;
        opt.deadline = std::chrono::steady_clock::now() +
                       std::chrono::duration_cast<
                           std::chrono::steady_clock::duration>(
                           std::chrono::duration<double, std::milli>(
                               deadline_ms));
        opt.tag = std::move(tag);
        return opt;
    }
};

/** Pipeline configuration: parallelism, frequency and engine options. */
struct BatchConfig
{
    int npe = 32;                  //!< PEs per systolic block
    int nb = 16;                   //!< blocks per channel (arbiter width)
    int nk = 4;                    //!< independent device channels
    /**
     * Host worker threads, decoupled from NK: 0 (the default) sizes
     * the pool at one thread per channel; with SIMD lanes a single
     * thread can saturate several modeled channels, so fewer threads
     * than channels is a legitimate configuration. A thread blocked in
     * collect()/drain() also runs queued shards (and their completion
     * callbacks) while it waits, so the effective parallelism is the
     * pool plus each waiting caller. Accounting is modeled
     * (cycle-domain), so thread count never changes results or
     * statistics — only host wall-clock.
     */
    int threads = 0;
    double fmaxMhz = 250.0;
    int bandWidth = 64;
    int maxQueryLength = 1024;
    int maxReferenceLength = 1024;
    bool skipTraceback = false;
    sim::CycleModelOptions cycles{};
    /** Host/DMA overhead cycles charged per alignment. */
    uint64_t hostOverheadCycles = 2000;
    /** Aggregate path-level AlignmentStats over all tracebacks. */
    bool collectPathStats = true;
    /**
     * Jobs per SIMD lane group (1 = scalar engine per job; 8 or 16 are
     * the intended widths, capped at LaneAligner::maxLanes). Wider
     * groups are formed from each device shard sorted by (qlen, rlen),
     * so lockstep lanes share a similar padded iteration space. Per-job
     * results and accounting are identical either way.
     */
    int laneWidth = 1;
    /**
     * Host SIMD ISA tier of the lane engines (Auto = widest the CPU
     * supports, capped by the DPHLS_ISA_TIER env var). Dispatch-time
     * only: results and accounting are bit-identical across tiers, so
     * the choice never splits the result cache. An explicitly requested
     * tier the host cannot run makes the pipeline constructor throw.
     */
    sim::IsaTier isaTier = sim::IsaTier::Auto;
    /**
     * Vectorize single leftover jobs along their own anti-diagonals
     * (EnginePath::DiagSimd) when a lane group of one has both lengths
     * >= intraPairSimdMinLen: at low batch occupancy there are no
     * sibling pairs to fill the SIMD lanes, so long pairs recover the
     * throughput intra-pair instead (with laneWidth == 1 every job is
     * a group of one). Results and cycle accounting are bit-identical
     * either way.
     */
    bool intraPairSimd = false;
    /** Minimum min(qlen, rlen) for the intra-pair SIMD path. */
    int intraPairSimdMinLen = 1024;
    /**
     * Route jobs the device cannot take (qlen/rlen over the configured
     * maxima) or should not take (both dimensions under cpuFloorLen) to
     * the CPU baseline backend. Off by default: without it, oversized
     * jobs throw exactly as before.
     */
    bool cpuFallback = false;
    /** Jobs with max(qlen, rlen) < floor go to the CPU backend. */
    int cpuFloorLen = 0;
    /** Equivalent clock (MHz) for wall-derived CPU-backend cycles. */
    double cpuEquivalentMhz = 1500.0;
    /** CPU-backend worker threads (0 = same as the pool size). */
    int cpuThreads = 0;
    /**
     * Pin the CPU backend's cells/sec instead of learning it from wall
     * -clock measurements, and derive its cycles from the pinned rate.
     * Makes CPU-backend accounting deterministic — benches and
     * differential tests use it; real hosts leave it 0 (measure).
     */
    double cpuModeledCellsPerSec = 0;
    /** Backend routing rule; Threshold preserves the original path. */
    DispatchPolicy dispatch = DispatchPolicy::Threshold;
    /**
     * Add the modeled GPU backend (GASAL2/CUDASW++ iso-cost GCUPS) for
     * kernels the paper benchmarks on a GPU. It only receives jobs
     * under the CostModel policy.
     */
    bool gpuModel = false;
    /**
     * Result-cache capacity in entries; 0 (the default) disables the
     * cache. Enable it for workloads with repeated pairs (all-vs-all
     * search, mapping seeds) — on all-distinct batches it only costs
     * hashing plus result copies into the LRU.
     */
    size_t cacheEntries = 0;
    /** Result-cache shard count (lock granularity). */
    size_t cacheShards = 8;
    /**
     * Anti-starvation aging for the dispatch queues (and the worker
     * pool): every N-th pop from a queue takes the *oldest* queued
     * shard (lowest submission sequence) instead of the
     * highest-priority one, so a saturating high-priority stream
     * cannot keep bulk-class shards queued for more than N-1
     * consecutive pops. 0 (the default) disables aging and preserves
     * the exact (priority, deadline, FIFO) order — the transparency
     * guarantees of the priority machinery are unchanged.
     */
    int agingEvery = 0;
    /**
     * Let a strictly-higher-priority submission interrupt the shard
     * running on a device channel at its next lane-group boundary: the
     * shard yields its slot, the jobs that had not started re-queue as
     * a same-sequence remainder shard, and the yield is counted in
     * ChannelStats::preemptions. When no preemption fires the output is
     * bit-identical to preemption off.
     */
    bool preemption = false;
};

/**
 * One backend's section of an epoch/ticket accounting: the device
 * channels' slots merged (busy cycles are their makespan), or one
 * baseline slot. Derived by backendSections() for printing and the wire.
 */
struct BackendStats
{
    const char *name = "device";
    double clockMhz = 0;     //!< clock its cycles are counted at
    uint64_t busyCycles = 0; //!< makespan across the backend's blocks
    uint64_t totalCycles = 0;
    int alignments = 0;
    int cancelled = 0;       //!< jobs dropped from this backend's queue
    int deadlineMisses = 0;  //!< jobs completed past their deadline
    int preemptions = 0;     //!< shards that yielded mid-flight
    double seconds = 0;      //!< busyCycles / clockMhz
};

/** Aggregate outcome of one ticket / drained epoch. */
struct BatchStats
{
    /** Trailing non-device slots: the CPU baseline, then the GPU model. */
    static constexpr size_t kBaselineSlots = 2;

    /** Resolved host SIMD tier the device channels dispatched to
     *  (isaTierName: "scalar", "sse2", "avx2", "avx512"). */
    const char *isaTier = "";
    /**
     * Accounting per dispatch slot, in slot order: the NK device
     * channels, then the CPU baseline (index NK), then the GPU model
     * (index NK + 1). Empty until accumulated into; every ticket and
     * drain() reports all NK + 2.
     */
    std::vector<ChannelStats> slots;
    uint64_t makespanCycles = 0; //!< slowest device channel's busy cycles
    uint64_t totalCycles = 0;    //!< sum over all alignments, all slots
    int alignments = 0;          //!< jobs that actually ran
    int cancelled = 0;           //!< jobs dropped by a ticket cancel()
    int deadlineMisses = 0;      //!< jobs completed past their deadline
    int preemptions = 0;         //!< shards that yielded mid-flight
    double seconds = 0;          //!< slowest slot's busy time at its clock
    double alignsPerSec = 0;
    double cyclesPerAlign = 0;
    /** Path-level statistics summed over every traceback in the epoch. */
    core::AlignmentStats paths;

    /** Device channels among the slots (NK; 0 while empty). */
    size_t
    deviceSlots() const
    {
        return slots.size() > kBaselineSlots ? slots.size() - kBaselineSlots
                                             : 0;
    }
};

/** Sum the counting fields of @p add into @p into. */
void mergePathStats(core::AlignmentStats &into,
                    const core::AlignmentStats &add);

/**
 * Fill the derived fields (makespan, totals, seconds, throughput) of
 * @p stats from its slots. Device slots count cycles at @p fmax_mhz,
 * the CPU slot at @p cpu_mhz (0 = no wall time) and the GPU slot at the
 * GPU model's clock.
 */
void finalizeBatchStats(BatchStats &stats, double fmax_mhz,
                        double cpu_mhz = 0);

/**
 * Sum @p add's raw accounting (slots, paths) into @p into, growing a
 * default-constructed @p into to @p add's slots; the caller
 * re-finalizes afterwards. Slot busy cycles add up as sequential
 * per-batch makespans.
 */
void accumulateBatchStats(BatchStats &into, const BatchStats &add);

/**
 * The device/CPU/GPU sections of @p stats, clocked as in
 * finalizeBatchStats(). The device section is always present; a
 * baseline section only once it aligned or cancelled a job. Their
 * alignments, cancelled, deadline misses and totalCycles sum to the
 * epoch totals.
 */
std::vector<BackendStats> backendSections(const BatchStats &stats,
                                          double fmax_mhz,
                                          double cpu_mhz = 0);

template <core::KernelSpec K>
class StreamPipeline;

template <core::KernelSpec K>
class BatchTicket;

/**
 * A booked slice of the dispatch backlog, created by
 * StreamPipeline::reserveCompletion(). The reservation adds the batch's
 * routed per-slot work to the live queued-work signal *atomically with
 * the estimate*, so two concurrent admission checks can no longer both
 * be admitted against the same free capacity: the second reserver's
 * estimate already includes the first one's booking.
 *
 * Lifecycle (admission control):
 *  - reserve-on-estimate: reserveCompletion() books and returns this;
 *  - commit-on-submit: pass it to submit() — the real enqueue replaces
 *    the booking (added before the booking is dropped, so the backlog
 *    transiently double-counts but never under-counts);
 *  - release-on-reject: call release() (or just drop the object — the
 *    destructor releases, so an exception path cannot leak capacity).
 *
 * Move-only; releasing twice is a no-op. A reservation outliving its
 * pipeline releases into nothing (weak reference) rather than touching
 * freed slots.
 */
class AdmissionReservation
{
  public:
    AdmissionReservation() = default;

    AdmissionReservation(AdmissionReservation &&other) noexcept
        : _release(std::move(other._release)), _estimate(other._estimate)
    {
        other._release = nullptr;
    }

    AdmissionReservation &
    operator=(AdmissionReservation &&other) noexcept
    {
        if (this != &other) {
            release();
            _release = std::move(other._release);
            _estimate = other._estimate;
            other._release = nullptr;
        }
        return *this;
    }

    AdmissionReservation(const AdmissionReservation &) = delete;
    AdmissionReservation &operator=(const AdmissionReservation &) = delete;

    ~AdmissionReservation() { release(); }

    /**
     * Modeled completion seconds of the reserved batch: the worst used
     * slot's backlog — including this reservation and any concurrent
     * ones booked first — plus the batch's own routed work.
     */
    double estimateSeconds() const { return _estimate; }

    /** True while this reservation still holds booked capacity. */
    bool active() const { return static_cast<bool>(_release); }

    /** Return the booked capacity (the reject path); idempotent. */
    void
    release()
    {
        if (_release) {
            auto fn = std::move(_release);
            _release = nullptr;
            fn();
        }
    }

  private:
    template <core::KernelSpec K>
    friend class StreamPipeline;

    std::function<void()> _release; //!< unbooks the per-slot amounts
    double _estimate = 0;
};

namespace detail {

/**
 * Shared dispatch state: one queue of pending shards per backend slot
 * (NK device channels, then the CPU backend, then the GPU model),
 * popped in (priority, deadline, FIFO) order up to the slot's
 * concurrency capacity — 1 for the stateful device channels, the pool
 * width for the stateless CPU/GPU backends, which therefore keep
 * serving shards of different tickets concurrently as they did before
 * the dispatch queues existed. The pipeline holds the owning
 * shared_ptr; tickets hold a weak_ptr upgraded on cancel(), so a
 * cancel() races pipeline destruction safely: ~StreamPipeline drains
 * every queue before its backends die, and once the core itself is
 * gone the upgrade simply fails and cancel() only flips the ticket
 * flag (nothing queued can remain by then).
 */
template <core::KernelSpec K>
class DispatchCore
{
  public:
    using Ticket = std::shared_ptr<BatchTicket<K>>;
    using Clock = std::chrono::steady_clock;

    /** One queued shard: its ticket, job indices and scheduling key. */
    struct ShardEntry
    {
        Ticket ticket;
        std::vector<int> indices;
        double estSeconds = 0; //!< routed-work estimate (backlog signal)
        int priority = 0;
        Clock::time_point deadline = Clock::time_point::max();
        uint64_t seq = 0; //!< submission order (FIFO tiebreak)
    };

    /** Dispatch order: entryBefore() as a strict weak ordering (seq is
     *  unique, so it is in fact total — pops are deterministic). */
    struct EntryOrder
    {
        bool
        operator()(const ShardEntry &a, const ShardEntry &b) const
        {
            return entryBefore(a, b);
        }
    };

    /** One backend execution slot and its dispatch queue. */
    struct Slot
    {
        /** Protects queue and busy. Rank-checked: slot locks never
         *  nest (neither with each other nor inside other host locks
         *  of equal-or-higher rank). */
        DebugMutex mutex{lockrank::kDispatchSlot, "dispatch-slot"};
        int busy = 0;     //!< shards currently executing (<= capacity)
        /**
         * Concurrent-shard limit: 1 for stateful device channels (the
         * engine serializes), pool width for the stateless CPU/GPU
         * backends (MatrixAligner::align is const, so shards of
         * different tickets may run concurrently).
         */
        int capacity = 1;
        /**
         * Pending shards, best-first: O(log n) insert and pop keep a
         * large paused backlog's release at O(n log n) overall (a
         * linear scan per pop would make it quadratic). Cancellation
         * still scans — it is the rare path.
         */
        std::multiset<ShardEntry, EntryOrder> queue;
        /** Estimated seconds of routed-but-unfinished work. */
        std::atomic<int64_t> queuedMicros{0};
        /** Pops so far (aging phase); guarded by mutex. */
        uint64_t pops = 0;
        /**
         * Preemption target: token of the shard occupying the device
         * slot (null while idle, or when preemption is disabled);
         * guarded by mutex. The token outlives its registration — it
         * lives on the running worker's stack and is deregistered
         * before the run returns.
         */
        PreemptToken *runningToken = nullptr;
        /** Priority of the running shard (valid with runningToken). */
        int runningPriority = 0;
    };

    DispatchCore(int nk, double fmax_mhz, double cpu_mhz,
                 int aging_every = 0)
        : _nk(nk), _fmaxMhz(fmax_mhz), _cpuMhz(cpu_mhz),
          _agingEvery(std::max(0, aging_every)),
          _slots(static_cast<size_t>(nk) + 2)
    {}

    /** Anti-starvation period (0 = strict priority order). */
    int agingEvery() const { return _agingEvery; }

    int cpuSlot() const { return _nk; }
    int gpuSlot() const { return _nk + 1; }
    int slotCount() const { return _nk + 2; }
    Slot &slot(int s) { return _slots[static_cast<size_t>(s)]; }

    uint64_t nextSeq() { return _seq.fetch_add(1, std::memory_order_relaxed); }

    double
    queuedSeconds(int s)
    {
        return static_cast<double>(slot(s).queuedMicros.load(
                   std::memory_order_relaxed)) *
               1e-6;
    }

    void
    noteEnqueued(int s, double seconds)
    {
        slot(s).queuedMicros.fetch_add(toMicros(seconds),
                                       std::memory_order_relaxed);
    }

    void
    noteCompleted(int s, double seconds)
    {
        slot(s).queuedMicros.fetch_sub(toMicros(seconds),
                                       std::memory_order_relaxed);
    }

    /** True when @p a should be dispatched before @p b. */
    static bool
    entryBefore(const ShardEntry &a, const ShardEntry &b)
    {
        if (a.priority != b.priority)
            return a.priority > b.priority;
        if (a.deadline != b.deadline)
            return a.deadline < b.deadline;
        return a.seq < b.seq;
    }

    /**
     * Drop every queued shard of @p ticket, accounting the dropped jobs
     * as cancelled on the backend they were queued for and retiring
     * their shards (the last retire completes the ticket). In-flight
     * shards see the ticket's flag at their own next boundary.
     */
    void dropTicket(BatchTicket<K> &ticket);

    /**
     * Mark one shard done; the last one finalizes the ticket, runs the
     * completion callback and only then releases waiters — so wait()
     * returning guarantees the callback has finished (a callback must
     * therefore never wait on its own ticket).
     */
    void finishShard(BatchTicket<K> &ticket);

    /** Dispatch gate: while set, pumps leave queued shards in place. */
    std::atomic<bool> paused{false};

  private:
    static int64_t
    toMicros(double seconds)
    {
        return static_cast<int64_t>(std::llround(seconds * 1e6));
    }

    int _nk;
    double _fmaxMhz;
    double _cpuMhz;
    int _agingEvery;
    std::atomic<uint64_t> _seq{0};
    std::deque<Slot> _slots; //!< deque: Slot is neither movable nor copyable
};

} // namespace detail

/**
 * One submitted batch: per-job outputs in submission order, per-ticket
 * accounting, and a completion latch. Tickets are shared between the
 * submitting host and the worker tasks; results()/cycles()/stats() are
 * valid once done() (or after wait()).
 */
template <core::KernelSpec K>
class BatchTicket
{
  public:
    using CharT = typename K::CharT;
    using Result = core::AlignResult<typename K::ScoreT>;
    using Job = AlignmentJob<CharT>;

    bool
    done() const
    {
        std::lock_guard lock(_mutex);
        return _done;
    }

    /**
     * Block until every shard of this batch has completed or been
     * dropped by cancel() — a cancelled ticket still completes (with a
     * partial result set) rather than blocking forever.
     */
    void
    wait() const
    {
        std::unique_lock lock(_mutex);
        _cv.wait(lock, [&] { return _done; });
    }

    /**
     * Request cancellation: shards still queued are dropped immediately
     * and accounted as cancelled on their backend; a device-channel
     * shard already running stops at its next lane-group boundary (its
     * unstarted jobs count as cancelled), and CPU/GPU shards finish
     * normally. When the drop retires the ticket's last
     * outstanding shard, its completion callback runs synchronously on
     * the cancelling thread. Returns false when the ticket had already
     * completed (nothing to cancel), true otherwise — including repeat
     * calls while the cancellation is in flight.
     */
    bool
    cancel()
    {
        {
            std::lock_guard lock(_mutex);
            if (_done)
                return false;
            if (_cancelled.exchange(true, std::memory_order_acq_rel))
                return true; // first cancel() already dropped the queues
        }
        if (auto core = _core.lock())
            core->dropTicket(*this);
        return true;
    }

    /** True once cancel() has been requested. */
    bool
    cancelled() const
    {
        return _cancelled.load(std::memory_order_acquire);
    }

    /** The scheduling class this ticket was submitted with. */
    const TicketOptions &options() const { return _options; }

    /** The batch's jobs (owned or borrowed), in submission order. */
    const std::vector<Job> &jobs() const { return _view ? *_view : _jobs; }

    /** Per-job results, indexed like jobs(). Valid once done(). */
    const std::vector<Result> &results() const { return _results; }

    /** Per-job cycle counts, indexed like jobs(). Valid once done(). */
    const std::vector<uint64_t> &cycles() const { return _cycles; }

    /**
     * Per-job completion mask, indexed like jobs(), valid once done():
     * 1 when the job actually ran (its result/cycles slots are live),
     * 0 when its shard was dropped by cancel() (the slots hold default
     * values). All-ones unless the ticket was cancelled.
     */
    const std::vector<uint8_t> &completed() const { return _completed; }

    /** Per-ticket accounting, finalized at completion. */
    const BatchStats &stats() const { return _stats; }

  private:
    friend class StreamPipeline<K>;
    friend class detail::DispatchCore<K>;

    std::vector<Job> _jobs;                 //!< owned (submit path)
    const std::vector<Job> *_view = nullptr; //!< borrowed (runAll path)
    std::vector<Result> _results;
    std::vector<uint64_t> _cycles;
    std::vector<uint8_t> _completed;
    BatchStats _stats;
    TicketOptions _options;
    std::function<void(BatchTicket &)> _callback;
    std::weak_ptr<detail::DispatchCore<K>> _core;
    std::atomic<bool> _cancelled{false};
    int _pending = 0; //!< shards still running (under _mutex)
    bool _done = false;
    mutable std::mutex _mutex;
    mutable std::condition_variable _cv;
};

namespace detail {

template <core::KernelSpec K>
void
DispatchCore<K>::dropTicket(BatchTicket<K> &ticket)
{
    for (int s = 0; s < slotCount(); s++) {
        ShardEntry dropped;
        bool found = false;
        {
            std::lock_guard lock(slot(s).mutex);
            auto &q = slot(s).queue;
            // At most one entry per (ticket, slot): routing emits one
            // shard per backend slot per batch.
            auto it = std::find_if(q.begin(), q.end(),
                                   [&](const ShardEntry &e) {
                                       return e.ticket.get() == &ticket;
                                   });
            if (it != q.end()) {
                auto node = q.extract(it);
                dropped = std::move(node.value());
                found = true;
            }
        }
        if (!found)
            continue;
        noteCompleted(s, dropped.estSeconds);
        // No writer race: the entry is out of its queue, so no worker
        // will account this (ticket, slot) bucket concurrently.
        ticket._stats.slots[static_cast<size_t>(s)].cancelled +=
            static_cast<int>(dropped.indices.size());
        finishShard(ticket);
    }
}

template <core::KernelSpec K>
void
DispatchCore<K>::finishShard(BatchTicket<K> &ticket)
{
    std::function<void(BatchTicket<K> &)> callback;
    {
        std::lock_guard lock(ticket._mutex);
        if (ticket._pending > 0 && --ticket._pending > 0)
            return;
        finalizeBatchStats(ticket._stats, _fmaxMhz, _cpuMhz);
        DPHLS_DCHECK(ticket._stats.alignments + ticket._stats.cancelled ==
                         static_cast<int>(ticket.jobs().size()),
                     "ticket accounting not closed: ",
                     ticket._stats.alignments, " aligned + ",
                     ticket._stats.cancelled, " cancelled != ",
                     ticket.jobs().size(), " jobs");
        callback = std::move(ticket._callback);
    }
    if (callback)
        callback(ticket);
    {
        std::lock_guard lock(ticket._mutex);
        ticket._done = true;
        // Notify under the lock: a collect()or woken between unlock and
        // notify may destroy the ticket (and its CV) mid-broadcast.
        ticket._cv.notify_all();
    }
}

} // namespace detail

/**
 * Streaming multi-backend pipeline running kernel @p K.
 *
 * Thread-safety: submit()/collect()/drain()/pause()/resume() and ticket
 * cancel() may be called concurrently from any thread. A thread blocked
 * in collect()/drain() (and so runAll()) on an unfinished ticket runs
 * queued shards of this pipeline — any ticket's — until the pool queue
 * is empty, then sleeps; a call made from inside a pool task (e.g. a
 * completion callback) never helps. Completion callbacks usually run
 * on a worker thread or on such a collecting thread, but fire
 * synchronously on the thread that retires the ticket's last shard:
 * submit() of an empty batch, a cancel() that drops the last queued
 * shard, or a resume()/submit() whose pump discards a cancelled entry
 * — callbacks must not throw, must never wait on their own ticket, and
 * must not take locks the cancelling/submitting/collecting thread may
 * already hold. A shard run by a collecting thread is as unguarded as
 * one on a worker. Destroying the
 * pipeline drains every queued and in-flight shard first (releasing a
 * pause if one is active), so held tickets complete (and become
 * collectible) even when the pipeline dies before they are waited on —
 * including cancelled-but-unwaited tickets, whose callbacks have
 * already run or been destroyed with the ticket, never leaked.
 */
template <core::KernelSpec K>
class StreamPipeline
{
  public:
    using CharT = typename K::CharT;
    using ScoreT = typename K::ScoreT;
    using Result = core::AlignResult<ScoreT>;
    using Job = AlignmentJob<CharT>;
    using Params = typename K::Params;
    using Ticket = std::shared_ptr<BatchTicket<K>>;
    using Callback = std::function<void(BatchTicket<K> &)>;

    explicit StreamPipeline(BatchConfig cfg = {},
                            Params params = K::defaultParams())
        : _cfg(cfg), _params(params),
          _cache(cfg.cacheEntries, cfg.cacheShards),
          _pool(poolThreads(cfg), cfg.agingEvery)
    {
        _cfg.nk = std::max(1, _cfg.nk);
        _cfg.nb = std::max(1, _cfg.nb);
        _cfg.threads = poolThreads(cfg);
        _cfg.agingEvery = std::max(0, _cfg.agingEvery);
        _cfg.laneWidth = std::clamp(_cfg.laneWidth, 1,
                                    sim::LaneAligner<K>::maxLanes);
        _core = std::make_shared<detail::DispatchCore<K>>(
            _cfg.nk, _cfg.fmaxMhz, _cfg.cpuEquivalentMhz,
            _cfg.agingEvery);
        const int baseline_width = std::max(
            1, _cfg.cpuThreads > 0 ? _cfg.cpuThreads : _cfg.threads);
        for (int s = _cfg.nk; s < _core->slotCount(); s++)
            _core->slot(s).capacity = baseline_width;
        sim::EngineConfig ecfg;
        ecfg.numPe = _cfg.npe;
        ecfg.bandWidth = _cfg.bandWidth;
        ecfg.maxQueryLength = _cfg.maxQueryLength;
        ecfg.maxReferenceLength = _cfg.maxReferenceLength;
        ecfg.skipTraceback = _cfg.skipTraceback;
        ecfg.cycles = _cfg.cycles;
        ecfg.isaTier = _cfg.isaTier;
        // Resolve now so an unsupported explicit tier fails at
        // construction, not on the first aligned batch.
        _resolvedTier = sim::resolveIsaTier(_cfg.isaTier);
        _backends.resize(static_cast<size_t>(_core->slotCount()));
        for (int c = 0; c < _cfg.nk; c++) {
            _backends[static_cast<size_t>(c)] =
                std::make_unique<ChannelBackend<K>>(
                    ecfg, _params, _cfg.nb, _cfg.hostOverheadCycles,
                    _cfg.fmaxMhz, &_cache, _cfg.laneWidth,
                    _cfg.intraPairSimd, _cfg.intraPairSimdMinLen);
        }
        if (_cfg.cpuFallback) {
            _backends[static_cast<size_t>(_core->cpuSlot())] =
                std::make_unique<CpuBaselineBackend<K>>(
                    _params, _cfg.bandWidth, _cfg.cpuEquivalentMhz,
                    baseline_width, _cfg.skipTraceback,
                    _cfg.cpuModeledCellsPerSec);
        }
        if (_cfg.gpuModel && GpuModelBackend<K>::covered()) {
            _backends[static_cast<size_t>(_core->gpuSlot())] =
                std::make_unique<GpuModelBackend<K>>(
                    _params, _cfg.bandWidth, baseline_width,
                    _cfg.skipTraceback);
        }
    }

    /**
     * Drains every queued and in-flight shard (releasing any pause), so
     * the backends outlive all work that references them and every held
     * ticket reaches its terminal state.
     */
    ~StreamPipeline()
    {
        resume();
        // After the pool idles the dispatch queues are empty (every
        // pop chains the next pump before its task retires), so a
        // concurrent ticket cancel() can no longer reach backend state.
        _pool.wait();
    }

    const BatchConfig &config() const { return _cfg; }
    int channelCount() const { return _cfg.nk; }
    int threadCount() const { return _pool.threadCount(); }

    /** Resolved host SIMD tier the device channels dispatch to. */
    sim::IsaTier activeIsaTier() const { return _resolvedTier; }

    /** Result-cache hit/miss/eviction counters (lifetime totals). */
    CacheCounters cacheCounters() const { return _cache.counters(); }

    /**
     * Stop starting new shards; submissions still queue (in scheduling
     * order) until resume(). Shards already running finish normally.
     */
    void
    pause()
    {
        _core->paused.store(true, std::memory_order_release);
    }

    /** Re-open dispatch and release queued shards in scheduling order. */
    void
    resume()
    {
        _core->paused.store(false, std::memory_order_release);
        for (int s = 0; s < _core->slotCount(); s++)
            pump(s);
    }

    /**
     * Enqueue an owned batch for asynchronous execution; the returned
     * ticket completes when every shard has finished. @p callback (if
     * any) fires once at completion, on the thread that ran the last
     * shard (a worker, or a caller helping in collect()/drain()).
     */
    Ticket
    submit(std::vector<Job> jobs, Callback callback = nullptr)
    {
        return submit(std::move(jobs), TicketOptions{},
                      std::move(callback));
    }

    /** submit() with an explicit scheduling class. */
    Ticket
    submit(std::vector<Job> jobs, TicketOptions options,
           Callback callback = nullptr)
    {
        auto ticket = std::make_shared<BatchTicket<K>>();
        ticket->_jobs = std::move(jobs);
        ticket->_options = std::move(options);
        ticket->_callback = std::move(callback);
        enqueue(ticket);
        return ticket;
    }

    /**
     * Enqueue a borrowed batch: the caller guarantees @p jobs outlives
     * the ticket's completion (runAll() and the hetero device use this
     * to avoid copying).
     */
    Ticket
    submitBorrowed(const std::vector<Job> &jobs, Callback callback = nullptr)
    {
        return submitBorrowed(jobs, TicketOptions{}, std::move(callback));
    }

    /** submitBorrowed() with an explicit scheduling class. */
    Ticket
    submitBorrowed(const std::vector<Job> &jobs, TicketOptions options,
                   Callback callback = nullptr)
    {
        auto ticket = std::make_shared<BatchTicket<K>>();
        ticket->_view = &jobs;
        ticket->_options = std::move(options);
        ticket->_callback = std::move(callback);
        enqueue(ticket);
        return ticket;
    }

    /**
     * Wait for @p ticket (running queued shards meanwhile, see the class
     * comment), retire it from the outstanding set and return its
     * per-ticket statistics. When @p results / @p job_cycles are given,
     * the ticket's outputs are moved into them (collect with outputs at
     * most once per ticket); otherwise they stay readable on the
     * ticket.
     */
    BatchStats
    collect(const Ticket &ticket, std::vector<Result> *results = nullptr,
            std::vector<uint64_t> *job_cycles = nullptr)
    {
        awaitTicket(*ticket);
        {
            std::lock_guard lock(_outstandingMutex);
            auto it = std::find(_outstanding.begin(), _outstanding.end(),
                                ticket);
            if (it != _outstanding.end())
                _outstanding.erase(it);
        }
        if (results)
            *results = std::move(ticket->_results);
        if (job_cycles)
            *job_cycles = std::move(ticket->_cycles);
        return ticket->_stats;
    }

    /**
     * Compatibility wrapper: block until every outstanding ticket has
     * completed and return the aggregate statistics, with optional
     * per-job results and cycles ordered by submission. Safe to overlap
     * with concurrent submit(): accounting is per-ticket, so a racing
     * submission lands either in this epoch or in the next one, never
     * half in each. Cancelled tickets contribute their partial outputs
     * (default results for dropped jobs) and cancelled counts.
     */
    BatchStats
    drain(std::vector<Result> *results = nullptr,
          std::vector<uint64_t> *job_cycles = nullptr)
    {
        std::vector<Ticket> drained;
        {
            std::lock_guard lock(_outstandingMutex);
            drained.swap(_outstanding);
        }
        if (results)
            results->clear();
        if (job_cycles)
            job_cycles->clear();

        BatchStats agg;
        agg.isaTier = sim::isaTierName(_resolvedTier);
        agg.slots.assign(static_cast<size_t>(_core->slotCount()),
                         ChannelStats{});
        for (const auto &t : drained) {
            awaitTicket(*t);
            accumulateBatchStats(agg, t->_stats);
            if (results) {
                results->insert(
                    results->end(),
                    std::make_move_iterator(t->_results.begin()),
                    std::make_move_iterator(t->_results.end()));
            }
            if (job_cycles) {
                job_cycles->insert(job_cycles->end(), t->_cycles.begin(),
                                   t->_cycles.end());
            }
        }
        finalizeBatchStats(agg, _cfg.fmaxMhz, _cfg.cpuEquivalentMhz);
        return agg;
    }

    /**
     * Admission view: modeled completion time (seconds from now) of
     * routing @p jobs onto the current backlog with the configured
     * dispatch policy and @p options (the deadline the ticket will be
     * submitted with steers cost-model routing, so the estimate must
     * see it too) — the routing's worst slot, i.e. each used slot's
     * live queued-seconds signal plus the work this batch would add to
     * it. Deadline-aware admission control (serve/admission.hh) rejects
     * a ticket at submit when this estimate already exceeds its
     * deadline budget, instead of counting a miss after the fact. Throws
     * std::invalid_argument (like submit()) when some job no enabled
     * backend can take. The estimate is advisory: it reads the live
     * backlog counters racily and does not reserve capacity — two
     * concurrent callers can both be told the same slot is free. Use
     * reserveCompletion() when the answer gates admission.
     */
    double
    estimateCompletionSeconds(const std::vector<Job> &jobs,
                              const TicketOptions &options = {}) const
    {
        const Routing r = route(jobs, options);
        double worst = 0;
        for (int s = 0; s < _core->slotCount(); s++) {
            const size_t k = static_cast<size_t>(s);
            if (!r.shards[k].empty())
                worst = std::max(worst, _core->queuedSeconds(s) + r.est[k]);
        }
        return worst;
    }

    /**
     * Reserving admission view: route @p jobs as a ticket with
     * @p options would be routed, book their per-slot
     * estimates into the live backlog signal, and return a reservation
     * whose estimateSeconds() is the modeled completion time *given
     * every earlier booking*. Unlike estimateCompletionSeconds() this
     * closes the estimate/submit race: concurrent reservers serialize
     * through the slots' atomic backlog counters, so the total work
     * admitted against a deadline budget is bounded even under
     * concurrent submitters (tests/test_admission_reserve.cc).
     *
     * On admit, pass the reservation to submit() — the enqueue swaps
     * the booking for the ticket's live entries. On reject, release()
     * it (or let it go out of scope). Throws std::invalid_argument
     * (like submit()) when some job no enabled backend can take,
     * booking nothing.
     */
    AdmissionReservation
    reserveCompletion(const std::vector<Job> &jobs,
                      const TicketOptions &options = {})
    {
        const Routing r = route(jobs, options);
        std::vector<std::pair<int, double>> booked;
        for (int s = 0; s < _core->slotCount(); s++) {
            const size_t k = static_cast<size_t>(s);
            if (r.shards[k].empty())
                continue;
            _core->noteEnqueued(s, r.est[k]);
            booked.emplace_back(s, r.est[k]);
        }

        // Read the backlog *after* booking: the loaded value includes
        // this batch's own work plus every reservation booked before it
        // in the counters' modification order, which is what makes
        // concurrent admission decisions sum correctly (a later value
        // can only be larger — conservative, never optimistic).
        AdmissionReservation res;
        for (const auto &[s, est] : booked) {
            res._estimate =
                std::max(res._estimate, _core->queuedSeconds(s));
        }
        std::weak_ptr<Core> core = _core;
        res._release = [core, entries = std::move(booked)] {
            if (auto c = core.lock()) {
                for (const auto &[s, est] : entries)
                    c->noteCompleted(s, est);
            }
        };
        return res;
    }

    /**
     * submit() committing an admission reservation: the ticket enqueues
     * normally (adding its live routed estimates), then the reservation
     * is released — add-before-release, so the backlog signal never
     * dips below the real queued work. When submission throws, the
     * reservation parameter's destructor still releases the booking.
     */
    Ticket
    submit(std::vector<Job> jobs, TicketOptions options,
           Callback callback, AdmissionReservation reservation)
    {
        Ticket ticket =
            submit(std::move(jobs), std::move(options),
                   std::move(callback));
        reservation.release();
        return ticket;
    }

    /**
     * Blocking convenience: run one batch to completion and return its
     * statistics (other in-flight tickets are untouched).
     */
    BatchStats
    runAll(const std::vector<Job> &jobs,
           std::vector<Result> *results = nullptr,
           std::vector<uint64_t> *job_cycles = nullptr,
           TicketOptions options = {})
    {
        auto ticket = submitBorrowed(jobs, std::move(options));
        return collect(ticket, results, job_cycles);
    }

  private:
    using Core = detail::DispatchCore<K>;
    using ShardEntry = typename Core::ShardEntry;

    /**
     * Work-assisting wait: run shards queued in the pool on this thread
     * until @p ticket is done or the queue is empty (runOne() refuses
     * inside a pool task, so a callback never helps), then sleep on it.
     */
    void
    awaitTicket(const BatchTicket<K> &ticket)
    {
        while (!ticket.done() && _pool.runOne()) {
        }
        ticket.wait();
    }

    static int
    poolThreads(const BatchConfig &cfg)
    {
        return std::max(1, cfg.threads > 0 ? cfg.threads
                                           : std::max(1, cfg.nk));
    }

    /** True when the Threshold policy routes @p job to the CPU backend. */
    bool
    routeToCpu(const Job &job) const
    {
        if (!_backends[static_cast<size_t>(_core->cpuSlot())])
            return false;
        const int qlen = job.query.length();
        const int rlen = job.reference.length();
        if (qlen > _cfg.maxQueryLength || rlen > _cfg.maxReferenceLength)
            return true;
        return _cfg.cpuFloorLen > 0 &&
               std::max(qlen, rlen) < _cfg.cpuFloorLen;
    }

    [[noreturn]] void
    throwUndispatchable(int idx, const Job &job) const
    {
        throw std::invalid_argument(
            "dispatch: job " + std::to_string(idx) + " (" +
            std::to_string(job.query.length()) + " x " +
            std::to_string(job.reference.length()) +
            ") exceeds device maxima (" +
            std::to_string(_cfg.maxQueryLength) + " x " +
            std::to_string(_cfg.maxReferenceLength) +
            ") and no fallback backend is enabled");
    }

    /** Routing outcome of one batch, per dispatch slot. */
    struct Routing
    {
        explicit Routing(int slots)
            : shards(static_cast<size_t>(slots)),
              est(static_cast<size_t>(slots), 0.0)
        {}

        std::vector<std::vector<int>> shards; //!< job indices per slot
        std::vector<double> est; //!< per-slot estimated seconds
    };

    /**
     * Threshold routing: the original shape rule — CPU for oversized/
     * tiny jobs, round-robin device sharding for the rest. Exactly the
     * old sharding when nothing routes to the CPU. An oversized job
     * with no CPU backend falls back to the GPU model when that is
     * enabled (its full-matrix implementation has no length limit)
     * before failing loudly.
     */
    Routing
    routeThreshold(const std::vector<Job> &jobs) const
    {
        Routing r(_core->slotCount());
        const size_t gpu = static_cast<size_t>(_core->gpuSlot());
        int next_channel = 0;
        for (int i = 0; i < static_cast<int>(jobs.size()); i++) {
            const Job &job = jobs[static_cast<size_t>(i)];
            const bool oversized =
                job.query.length() > _cfg.maxQueryLength ||
                job.reference.length() > _cfg.maxReferenceLength;
            if (routeToCpu(job)) {
                r.shards[static_cast<size_t>(_core->cpuSlot())].push_back(i);
            } else if (oversized) {
                if (!_backends[gpu])
                    throwUndispatchable(i, job);
                r.shards[gpu].push_back(i);
            } else {
                r.shards[static_cast<size_t>(next_channel)].push_back(i);
                next_channel = (next_channel + 1) % _cfg.nk;
            }
        }
        // Threshold routing ignores estimates for its *decisions*, but
        // the queued-work signal the estimates feed (noteEnqueued /
        // estimateCompletionSeconds / reserveCompletion) must be real
        // under every dispatch policy — admission control against a
        // permanently-zero backlog admits everything
        // (tests/test_admission_reserve.cc).
        for (size_t s = 0; s < r.shards.size(); s++) {
            if (r.shards[s].empty())
                continue;
            r.est[s] = _backends[s]->batchOverheadSeconds();
            for (int i : r.shards[s])
                r.est[s] +=
                    _backends[s]->estimate(jobs[static_cast<size_t>(i)])
                        .seconds;
        }
        return r;
    }

    /**
     * Cost-model routing: every job goes to the feasible backend slot
     * (each device channel, the CPU backend, the GPU model) with the
     * lowest estimated completion time — the slot's live queued-work
     * signal, plus work routed earlier in this same batch, plus the
     * job's service estimate. Ties prefer the lower slot, so the device
     * (its estimates are exact; the baselines' are learned or modeled).
     *
     * With a ticket deadline the argmin is deadline-aware: among slots
     * whose estimated completion beats the remaining deadline budget,
     * the one with the lowest marginal *service* cost wins even if
     * another slot would complete sooner — meeting the deadline on the
     * cheapest capacity keeps the fast backends free. When no slot can
     * meet the deadline the router falls back to earliest completion
     * (least lateness).
     */
    Routing
    routeCostModel(const std::vector<Job> &jobs,
                   const TicketOptions &options) const
    {
        constexpr double inf = std::numeric_limits<double>::infinity();
        double deadline_budget = inf;
        if (options.hasDeadline()) {
            deadline_budget = std::max(
                0.0, std::chrono::duration<double>(
                         options.deadline -
                         std::chrono::steady_clock::now())
                         .count());
        }

        const int slots = _core->slotCount();
        Routing r(slots);
        // Per slot: the live backlog, and the per-shard fixed cost (the
        // GPU model's kernel launch) paid by the first job routed to the
        // slot in this batch, so small batches see the true marginal
        // cost of waking a backend.
        std::vector<double> queued(static_cast<size_t>(slots), 0.0);
        std::vector<double> overhead(static_cast<size_t>(slots), 0.0);
        for (size_t s = 0; s < queued.size(); s++) {
            if (!_backends[s])
                continue;
            queued[s] = _core->queuedSeconds(static_cast<int>(s));
            overhead[s] = _backends[s]->batchOverheadSeconds();
        }
        std::vector<CostEstimate> est(static_cast<size_t>(slots));
        std::vector<double> total(static_cast<size_t>(slots));

        for (int i = 0; i < static_cast<int>(jobs.size()); i++) {
            const Job &job = jobs[static_cast<size_t>(i)];
            // All device channels share one configuration, so one
            // estimate covers them; the choice between channels is
            // purely their backlog.
            const CostEstimate dev = _backends[0]->estimate(job);
            int target = -1;
            int first_feasible = -1;
            double best = inf;
            for (int s = 0; s < slots; s++) {
                const size_t k = static_cast<size_t>(s);
                est[k] = s < _cfg.nk ? dev
                         : _backends[k] ? _backends[k]->estimate(job)
                                        : CostEstimate{0, false};
                total[k] = inf;
                if (!est[k].feasible)
                    continue;
                if (first_feasible < 0)
                    first_feasible = s;
                total[k] = queued[k] + r.est[k] + est[k].seconds +
                           (r.shards[k].empty() ? overhead[k] : 0);
                if (total[k] < best) {
                    best = total[k];
                    target = s;
                }
            }
            if (target < 0) {
                if (first_feasible < 0)
                    throwUndispatchable(i, job);
                target = first_feasible;
            }
            if (deadline_budget < inf) {
                // Deadline-aware override: cheapest service cost among
                // the slots that still meet the deadline (slot order
                // keeps the device-first tie preference; the channels
                // share one cost, so among them the earliest completion
                // wins).
                double best_cost = inf;
                for (int s = 0; s < slots; s++) {
                    const size_t k = static_cast<size_t>(s);
                    if (!est[k].feasible || total[k] > deadline_budget)
                        continue;
                    const bool sooner_channel =
                        s < _cfg.nk && est[k].seconds == best_cost &&
                        total[k] < total[static_cast<size_t>(target)];
                    if (est[k].seconds < best_cost || sooner_channel) {
                        best_cost = est[k].seconds;
                        target = s;
                    }
                }
            }
            const size_t t = static_cast<size_t>(target);
            if (r.shards[t].empty())
                r.est[t] += overhead[t];
            r.shards[t].push_back(i);
            r.est[t] += est[t].seconds;
        }
        return r;
    }

    /**
     * Route @p jobs with the configured dispatch policy: the one
     * routing that submission and both admission estimators share, so
     * an estimate always describes the slots the ticket lands on.
     */
    Routing
    route(const std::vector<Job> &jobs, const TicketOptions &options) const
    {
        return _cfg.dispatch == DispatchPolicy::CostModel
                   ? routeCostModel(jobs, options)
                   : routeThreshold(jobs);
    }

    void
    enqueue(const Ticket &ticket)
    {
        const auto &jobs = ticket->jobs();
        const int n = static_cast<int>(jobs.size());
        const TicketOptions &opt = ticket->_options;

        // Route first: an undispatchable job throws here, before the
        // ticket is registered, so a failed submit leaves the pipeline
        // with nothing outstanding.
        Routing routing = route(jobs, opt);

        ticket->_core = _core;
        ticket->_results.resize(static_cast<size_t>(n));
        ticket->_cycles.assign(static_cast<size_t>(n), 0);
        ticket->_completed.assign(static_cast<size_t>(n), 0);
        ticket->_stats.isaTier = sim::isaTierName(_resolvedTier);
        ticket->_stats.slots.assign(static_cast<size_t>(_core->slotCount()),
                                    ChannelStats{});

        // Collect (slot, shard, estimate) triples for every non-empty
        // shard the routing produced.
        std::vector<std::pair<int, ShardEntry>> entries;
        const uint64_t seq = _core->nextSeq();
        auto addEntry = [&](int slot, std::vector<int> &&indices,
                            double est) {
            if (indices.empty())
                return;
            ShardEntry e;
            e.ticket = ticket;
            e.indices = std::move(indices);
            e.estSeconds = est;
            e.priority = opt.priority;
            e.deadline = opt.deadline;
            e.seq = seq;
            entries.emplace_back(slot, std::move(e));
        };
        for (int s = 0; s < _core->slotCount(); s++) {
            addEntry(s, std::move(routing.shards[static_cast<size_t>(s)]),
                     routing.est[static_cast<size_t>(s)]);
        }

        ticket->_pending = static_cast<int>(entries.size());
        {
            std::lock_guard lock(_outstandingMutex);
            _outstanding.push_back(ticket);
        }
        if (entries.empty()) {
            _core->finishShard(*ticket); // empty batch completes now
            return;
        }

        for (auto &[slot, entry] : entries) {
            _core->noteEnqueued(slot, entry.estSeconds);
            const int prio = entry.priority;
            {
                std::lock_guard lock(_core->slot(slot).mutex);
                auto &sl = _core->slot(slot);
                sl.queue.insert(std::move(entry));
                // A strictly-higher-priority arrival asks the shard
                // occupying the slot to yield at its next lane-group
                // boundary (pointless while paused: nothing would
                // start in its place).
                if (_cfg.preemption && sl.runningToken != nullptr &&
                    prio > sl.runningPriority &&
                    !_core->paused.load(std::memory_order_acquire)) {
                    sl.runningToken->request();
                }
            }
            pump(slot);
        }
    }

    /**
     * Start queued shards of slot @p s, best first, until its
     * concurrency capacity is full or dispatch is paused. Shards of
     * cancelled tickets are dropped here when the cancel() raced the
     * queue scan.
     */
    void
    pump(int s)
    {
        auto &slot = _core->slot(s);
        for (;;) {
            ShardEntry entry;
            bool start = false;
            {
                std::lock_guard lock(slot.mutex);
                if (slot.busy >= slot.capacity ||
                    _core->paused.load(std::memory_order_acquire) ||
                    slot.queue.empty()) {
                    return;
                }
                auto it = slot.queue.begin();
                slot.pops++;
                if (_core->agingEvery() > 0 && slot.queue.size() > 1 &&
                    slot.pops % static_cast<uint64_t>(
                                    _core->agingEvery()) ==
                        0) {
                    // Aging pop: the oldest submission runs regardless
                    // of priority, bounding bulk-class queueing under a
                    // saturating high-priority stream.
                    it = std::min_element(
                        slot.queue.begin(), slot.queue.end(),
                        [](const ShardEntry &a, const ShardEntry &b) {
                            return a.seq < b.seq;
                        });
                }
                auto node = slot.queue.extract(it);
                entry = std::move(node.value());
                // Decide under the lock: if the shard starts, its
                // capacity unit must be owned by exactly this pop.
                start = !entry.ticket->cancelled();
                if (start)
                    slot.busy++;
            }
            if (!start) {
                _core->noteCompleted(s, entry.estSeconds);
                entry.ticket->_stats.slots[static_cast<size_t>(s)].cancelled +=
                    static_cast<int>(entry.indices.size());
                _core->finishShard(*entry.ticket);
                continue;
            }
            TaskOptions attrs;
            attrs.priority = entry.priority;
            if (entry.deadline !=
                detail::DispatchCore<K>::Clock::time_point::max()) {
                attrs.deadlineSeconds =
                    std::chrono::duration<double>(
                        entry.deadline.time_since_epoch())
                        .count();
            }
            // shared_ptr capture: std::function requires copyability.
            auto shared = std::make_shared<ShardEntry>(std::move(entry));
            _pool.submit([this, s, shared] { runShard(s, *shared); },
                         attrs);
            // Loop on: a slot with spare capacity starts its next-best
            // shard too (only the CPU/GPU slots have capacity > 1).
        }
    }

    /**
     * Execute one popped shard on slot @p s, then chain the pump. A
     * device channel may stop early at a lane-group boundary: on
     * preemption the unstarted jobs re-queue as a remainder shard with
     * the same submission sequence (the ticket stays pending across
     * resumptions); on cancellation they are accounted as cancelled
     * and the shard retires.
     */
    void
    runShard(int s, ShardEntry &entry)
    {
        using Clock = typename Core::Clock;
        BatchTicket<K> &ticket = *entry.ticket;
        AlignBackend<K> *backend = _backends[static_cast<size_t>(s)].get();
        ChannelStats &acct = ticket._stats.slots[static_cast<size_t>(s)];

        // Only device channels are preemptible: a CPU/GPU slot runs
        // several shards at once, so it has no single running shard.
        const bool preemptible = _cfg.preemption && s < _cfg.nk;
        PreemptToken token;
        if (preemptible) {
            std::lock_guard lock(_core->slot(s).mutex);
            _core->slot(s).runningToken = &token;
            _core->slot(s).runningPriority = entry.priority;
        }
        StageRunControl ctl;
        ctl.preempt = preemptible ? &token : nullptr;
        ctl.cancelled = &ticket._cancelled;

        backend->run(ticket.jobs(), entry.indices, ticket._results.data(),
                     ticket._cycles.data(), acct, ctl);

        if (preemptible) {
            std::lock_guard lock(_core->slot(s).mutex);
            _core->slot(s).runningToken = nullptr;
            _core->slot(s).runningPriority = 0;
        }

        std::vector<int> remainder;
        for (size_t k = 0; k < entry.indices.size(); k++) {
            const int idx = entry.indices[k];
            if (ctl.done[k])
                ticket._completed[static_cast<size_t>(idx)] = 1;
            else
                remainder.push_back(idx);
        }
        const size_t n_done = entry.indices.size() - remainder.size();
        if (n_done > 0 && entry.deadline != Clock::time_point::max() &&
            Clock::now() > entry.deadline) {
            acct.deadlineMisses += static_cast<int>(n_done);
        }

        const bool requeue = ctl.preempted && !remainder.empty() &&
                             !ticket.cancelled();
        if (requeue) {
            // Split the backlog estimate across the resumptions in
            // proportion to the work done, so the queued-seconds
            // signal stays truthful while the remainder waits.
            const double est_done =
                entry.estSeconds * static_cast<double>(n_done) /
                static_cast<double>(entry.indices.size());
            _core->noteCompleted(s, est_done);
            acct.preemptions++;
            ShardEntry rest;
            rest.ticket = entry.ticket;
            rest.indices = std::move(remainder);
            rest.estSeconds = entry.estSeconds - est_done;
            rest.priority = entry.priority;
            rest.deadline = entry.deadline;
            rest.seq = entry.seq; // keeps its FIFO-tiebreak position
            {
                std::lock_guard lock(_core->slot(s).mutex);
                _core->slot(s).queue.insert(std::move(rest));
            }
            // A cancel() racing this insert is safe: dropTicket or the
            // pump's cancelled-entry discard retires the shard either
            // way, exactly once.
        } else {
            acct.cancelled += static_cast<int>(remainder.size());
            _core->noteCompleted(s, entry.estSeconds);
        }

        // Free the slot before the (possibly slow) path-stats merge and
        // completion callback, so the next shard overlaps them.
        {
            std::lock_guard lock(_core->slot(s).mutex);
            _core->slot(s).busy--;
        }
        pump(s);

        collectPaths(ticket, entry.indices, ctl.done);
        if (!requeue)
            _core->finishShard(ticket);
    }

    /** Merge the path stats of the jobs of @p indices marked @p done. */
    void
    collectPaths(BatchTicket<K> &ticket, const std::vector<int> &indices,
                 const std::vector<uint8_t> &done)
    {
        if (!_cfg.collectPathStats)
            return;
        core::AlignmentStats local;
        const auto &jobs = ticket.jobs();
        for (size_t k = 0; k < indices.size(); k++) {
            const size_t idx = static_cast<size_t>(indices[k]);
            const auto &res = ticket._results[idx];
            if (!done[k] || res.ops.empty())
                continue;
            const auto &job = jobs[idx];
            mergePathStats(local,
                           core::computeStats(job.query, job.reference,
                                              res.ops, res.start));
        }
        std::lock_guard lock(ticket._mutex);
        mergePathStats(ticket._stats.paths, local);
    }

    BatchConfig _cfg;
    Params _params;
    sim::IsaTier _resolvedTier = sim::IsaTier::Scalar;
    ShardedResultCache<Result> _cache;
    DebugMutex _outstandingMutex{lockrank::kOutstanding, "outstanding"};
    std::vector<Ticket> _outstanding; //!< submitted, not yet retired
    std::shared_ptr<Core> _core;      //!< shared with issued tickets
    /** One backend per dispatch slot; null for a disabled CPU/GPU. */
    std::vector<std::unique_ptr<AlignBackend<K>>> _backends;
    // Declared last: ~ThreadPool drains every queued shard task, so the
    // pool must be destroyed before the backends those tasks reference
    // (pipeline destroyed with in-flight tickets).
    ThreadPool _pool;
};

} // namespace dphls::host

#endif // DPHLS_HOST_STREAM_PIPELINE_HH
