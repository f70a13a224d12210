/**
 * @file
 * Pluggable alignment backends for the streaming host executor.
 *
 * The paper's host front-end (step 6) feeds NK independent device
 * channels; real deployments additionally keep a CPU path for jobs the
 * device cannot take (sequences over the synthesized MAX_*_LENGTH) or
 * should not take (tiny pairs whose DMA/invocation overhead dominates).
 * AlignBackend is the seam between the two: the StreamPipeline routes
 * each job to a backend's dispatch slot and accounts per slot, so the
 * heterogeneous split stays visible in the epoch statistics.
 *
 * Three implementations:
 *
 *  - ChannelBackend: one simulated device channel — the fast-path
 *    systolic engine, the SIMD lane engine for lane groups, and the
 *    greedy NB-block arbiter. Jobs are sorted by (qlen, rlen) and
 *    grouped into lockstep lanes so mixed-length batches share a
 *    smaller padded iteration space; results and per-job cycles are
 *    bit-identical at every lane width (the lane engine's per-lane
 *    guarantees), and the arbiter runs in original shard order so
 *    channel accounting is unchanged too. Per-job device cycles are the
 *    engine's analytic totals plus the configured host overhead;
 *    channel busy cycles are the arbiter makespan.
 *  - CpuBaselineBackend: the classic full-matrix CPU implementation
 *    (the golden model the engine is verified against) executed across
 *    host threads with cpu_runner's wall-clock methodology; cycles are
 *    derived from measured seconds at a configurable equivalent clock,
 *    and its "blocks" are the host threads.
 *  - GpuModelBackend: the iso-cost GPU throughput model
 *    (baselines/gpu_model.hh) promoted onto the backend seam. Results
 *    come from the same full-matrix golden model; cycles and busy time
 *    are modeled from the published GASAL2 / CUDASW++ GCUPS plus a
 *    per-batch launch overhead, for the kernels the paper benchmarks
 *    on a GPU (Fig. 6B).
 *
 * Every backend also answers estimate(job) — a cost-model service-time
 * estimate (device channels from the analytic cycle formulas in
 * engine_common.hh, the CPU backend from an EWMA of measured cells/sec,
 * the GPU model from its GCUPS) — which the StreamPipeline adds to its
 * per-slot queued-work signal to route and to admit tickets.
 */

#ifndef DPHLS_HOST_BACKEND_HH
#define DPHLS_HOST_BACKEND_HH

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <tuple>
#include <vector>

#include "baselines/cpu_runner.hh"
#include "baselines/gpu_model.hh"
#include "host/result_cache.hh"
#include "host/scheduler.hh"
#include "reference/matrix_aligner.hh"
#include "systolic/engine.hh"
#include "systolic/isa_tier.hh"
#include "systolic/lane_engine.hh"

namespace dphls::host {

/**
 * Digest of the result- and cycle-affecting EngineConfig fields, mixed
 * into every cache key so backends with different band widths, PE
 * counts, maxima, traceback or cycle options can share one
 * ShardedResultCache without aliasing each other's entries.
 */
inline uint64_t
engineConfigSalt(const sim::EngineConfig &cfg)
{
    PairHash h{detail::fnvBasis1, detail::fnvBasis2};
    // Field-by-field (never the raw struct bytes: padding after the
    // bools is unspecified and would make logically equal configs hash
    // differently, silently splitting a shared cache).
    const int32_t fields[] = {cfg.numPe,
                              cfg.bandWidth,
                              cfg.maxQueryLength,
                              cfg.maxReferenceLength,
                              cfg.skipTraceback ? 1 : 0,
                              cfg.cycles.overlapLoadInit ? 1 : 0,
                              cfg.cycles.pipelineDepth,
                              cfg.cycles.tracebackCyclesPerStep,
                              cfg.cycles.writebackOpsPerCycle,
                              cfg.cycles.hostStreamCyclesPerChar};
    detail::fnvMix(h, fields, sizeof(fields));
    return h.h1 ^ (h.h2 * detail::fnvPrime);
}

/** One alignment job: a query/reference pair. */
template <typename CharT>
struct AlignmentJob
{
    seq::Sequence<CharT> query;
    seq::Sequence<CharT> reference;
};

/** Accounting of one dispatch slot (a device channel, the CPU baseline
 *  or the GPU model) over one ticket or epoch. */
struct ChannelStats
{
    uint64_t busyCycles = 0;  //!< makespan of the backend's blocks/slots
    uint64_t totalCycles = 0; //!< sum of job cycles on this backend
    int alignments = 0;       //!< jobs this backend processed
    /** Jobs dropped from this backend's queue by a ticket cancel(). */
    int cancelled = 0;
    /** Jobs that completed after their ticket's deadline had passed. */
    int deadlineMisses = 0;
    /** In-flight shards that yielded the slot at a preemption point. */
    int preemptions = 0;
};

/**
 * Cost-model service-time estimate for one job on one backend. The
 * estimate is a routing signal, not an accounting value: it may be
 * approximate (traceback length is unknown before the alignment runs)
 * but must be deterministic for a given backend state so dispatch
 * decisions are reproducible.
 */
struct CostEstimate
{
    double seconds = 0;   //!< estimated marginal service time
    bool feasible = true; //!< false when the backend cannot run the job
};

/**
 * Per-run control block handed from the dispatcher into
 * AlignBackend::run(). Inputs tell the backend when to yield; outputs
 * tell the dispatcher which jobs actually wrote back so it can re-queue
 * or cancel-account the rest.
 */
struct StageRunControl
{
    /** Preemption token of this run; null = preemption disabled. */
    const PreemptToken *preempt = nullptr;
    /** Owning ticket's cancellation flag; null = not cancellable. */
    const std::atomic<bool> *cancelled = nullptr;

    /**
     * Out: done[k] == 1 once jobs[indices[k]]'s writeback completed;
     * sized by the backend. Not an indices prefix: grouping backends
     * finish out of submission order.
     */
    std::vector<uint8_t> done;
    /** Out: the backend stopped at a preemption point. */
    bool preempted = false;

    /** True when the backend must stop starting new jobs. */
    bool
    shouldYield()
    {
        if (cancelled != nullptr &&
            cancelled->load(std::memory_order_acquire))
            return true;
        if (preempt != nullptr && preempt->requested()) {
            preempted = true;
            return true;
        }
        return false;
    }
};

/**
 * A backend that can align a set of jobs. run() fills the per-job
 * output slots (indexed by job index, so submission-order collation is
 * free) and folds its arbiter accounting into @p acct. Implementations
 * are stateful (engines, scratch buffers); the pipeline serializes
 * run() calls per device-channel instance.
 */
template <core::KernelSpec K>
class AlignBackend
{
  public:
    using CharT = typename K::CharT;
    using ScoreT = typename K::ScoreT;
    using Result = core::AlignResult<ScoreT>;
    using Job = AlignmentJob<CharT>;
    using Params = typename K::Params;

    virtual ~AlignBackend() = default;

    /** Estimated marginal service time for @p job on this backend. */
    virtual CostEstimate estimate(const Job &job) const = 0;

    /**
     * Fixed cost the backend pays once per submitted shard regardless
     * of its size (the GPU model's kernel-launch overhead). The router
     * charges it to the first job it routes to this backend within a
     * batch, so small batches see the backend's true marginal cost.
     */
    virtual double batchOverheadSeconds() const { return 0; }

    /**
     * Align jobs[indices[k]] for every k; write each job's result and
     * cycle count into results[idx] / cycles[idx] and set
     * ctl.done[k]; add the run's arbiter accounting (over the completed
     * jobs only) to @p acct. A backend may poll ctl.shouldYield()
     * between jobs and return early, leaving the unstarted jobs
     * not-done for the dispatcher to re-queue or cancel-account.
     */
    virtual void run(const std::vector<Job> &jobs,
                     const std::vector<int> &indices, Result *results,
                     uint64_t *cycles, ChannelStats &acct,
                     StageRunControl &ctl) = 0;
};

/**
 * One simulated device channel: fast-path systolic engine, SIMD lane
 * engine, shared result cache, and the greedy NB-block arbiter. Jobs
 * run in lane groups of up to @p lane_width (1 = one job at a time on
 * the scalar engine), processed in (qlen, rlen) order when groups are
 * wider than one, so each lane group shares a similar padded iteration
 * space. Cache lookups interleave with lane-group flushes, so a pair
 * repeated later in the same shard hits once its first instance's
 * group has been computed and inserted.
 */
template <core::KernelSpec K>
class ChannelBackend : public AlignBackend<K>
{
  public:
    using Base = AlignBackend<K>;
    using typename Base::Job;
    using typename Base::Params;
    using typename Base::Result;

    ChannelBackend(const sim::EngineConfig &ecfg, const Params &params,
                   int nb, uint64_t host_overhead_cycles, double fmax_mhz,
                   ShardedResultCache<Result> *cache, int lane_width = 1,
                   bool intra_pair_simd = false,
                   int intra_pair_min_len = 1024)
        : _engine(ecfg, params), _lanes(ecfg, params),
          _diagEngine(diagConfig(ecfg), params), _params(params),
          _cache(cache), _cfgSalt(engineConfigSalt(ecfg)),
          _hostOverhead(host_overhead_cycles), _fmaxMhz(fmax_mhz),
          _blockFree(static_cast<size_t>(std::max(1, nb)), 0),
          _width(std::clamp(lane_width, 1,
                            sim::LaneAligner<K>::maxLanes)),
          _intraPairSimd(intra_pair_simd),
          _intraPairMinLen(intra_pair_min_len)
    {}

    /**
     * Analytic service-time estimate from the engine_common cycle
     * formulas: load/init/fill are exact (they are the same formulas
     * the engine accounts with); traceback is bounded by the worst-case
     * walk length since the real path is unknown before alignment. The
     * NB blocks serve jobs concurrently, so the marginal completion
     * contribution of one job is its cycles divided by the arbiter
     * width.
     */
    CostEstimate
    estimate(const Job &job) const override
    {
        const sim::EngineConfig &ecfg = _engine.config();
        const int qlen = job.query.length();
        const int rlen = job.reference.length();
        if (qlen > ecfg.maxQueryLength || rlen > ecfg.maxReferenceLength)
            return {0, false};
        sim::CycleStats cs;
        sim::accountLoadInit<K>(ecfg, qlen, rlen, cs);
        sim::accountFill<K>(ecfg, qlen, rlen, cs);
        if (!ecfg.skipTraceback && K::hasTraceback) {
            const uint64_t steps = static_cast<uint64_t>(qlen + rlen);
            cs.traceback = steps *
                static_cast<uint64_t>(ecfg.cycles.tracebackCyclesPerStep);
            // writebackOpsPerCycle is a user-configurable knob; a 0
            // must degrade to the slowest rate, not divide by zero on
            // the routing hot path.
            cs.writeback = steps /
                static_cast<uint64_t>(
                    std::max(1, ecfg.cycles.writebackOpsPerCycle));
        }
        const uint64_t cycles =
            sim::totalCycles(cs, ecfg.cycles) + _hostOverhead;
        const double width =
            static_cast<double>(std::max<size_t>(1, _blockFree.size()));
        return {static_cast<double>(cycles) / (_fmaxMhz * 1e6 * width),
                true};
    }

    /**
     * Run the shard lane group by lane group. Before each job the run
     * polls ctl.shouldYield() — the shard's preemption and mid-shard
     * cancel point — and on a yield the partly formed group, which
     * never started, stays not-done with the rest. Sorting only
     * reorders the compute: per-lane results and analytic cycle stats
     * are grouping-independent, and the arbiter runs over the completed
     * jobs in shard order, so everything observable is bit-identical at
     * every lane width.
     */
    void
    run(const std::vector<Job> &jobs, const std::vector<int> &indices,
        Result *results, uint64_t *cycles, ChannelStats &acct,
        StageRunControl &ctl) override
    {
        const auto jobAt = [&](size_t k) -> const Job & {
            return jobs[static_cast<size_t>(indices[k])];
        };
        ctl.done.assign(indices.size(), 0);
        std::vector<size_t> order(indices.size()); // positions in indices
        std::iota(order.begin(), order.end(), size_t{0});
        if (_width > 1) {
            std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
                return std::make_tuple(jobAt(a).query.length(),
                                       jobAt(a).reference.length(),
                                       indices[a]) <
                       std::make_tuple(jobAt(b).query.length(),
                                       jobAt(b).reference.length(),
                                       indices[b]);
            });
        }

        std::vector<size_t> group; // positions awaiting the engine
        group.reserve(static_cast<size_t>(_width));
        std::vector<PairHash> group_keys;
        group_keys.reserve(static_cast<size_t>(_width));

        const auto flushGroup = [&]() {
            if (group.empty())
                return;
            if (group.size() > 1) {
                using Lane = typename sim::LaneAligner<K>::LanePair;
                std::vector<Lane> lanes(group.size());
                for (size_t m = 0; m < group.size(); m++) {
                    const Job &job = jobAt(group[m]);
                    lanes[m] = Lane{&job.query, &job.reference};
                }
                auto lane_results = _lanes.alignLanes(lanes);
                for (size_t m = 0; m < group.size(); m++) {
                    finishJob(group_keys[m], indices[group[m]],
                              std::move(lane_results[m]),
                              _lanes.laneTotalCycles(static_cast<int>(m)),
                              results, cycles);
                }
            } else {
                const Job &job = jobAt(group[0]);
                // A group of one means no sibling pairs fill the SIMD
                // lanes; a long enough pair instead vectorizes along
                // its own anti-diagonals (results and cycle stats are
                // bit-identical across paths, so routing is free).
                const bool intra = _intraPairSimd &&
                    std::min(job.query.length(),
                             job.reference.length()) >= _intraPairMinLen;
                auto &engine = intra ? _diagEngine : _engine;
                Result res = engine.align(job.query, job.reference);
                finishJob(group_keys[0], indices[group[0]], std::move(res),
                          engine.lastTotalCycles(), results, cycles);
            }
            for (const size_t k : group)
                ctl.done[k] = 1;
            group.clear();
            group_keys.clear();
        };

        bool yielded = false;
        for (const size_t k : order) {
            if (ctl.shouldYield()) {
                yielded = true;
                break;
            }
            const int idx = indices[k];
            PairHash key;
            if (cacheEnabled()) {
                key = pairHash(jobAt(k).query, jobAt(k).reference, _params,
                               _cfgSalt);
                if (lookupCached(key, idx, results, cycles)) {
                    ctl.done[k] = 1;
                    continue;
                }
            }
            group.push_back(k);
            group_keys.push_back(key);
            if (static_cast<int>(group.size()) >= _width)
                flushGroup();
        }
        if (!yielded)
            flushGroup();
        // Arbitrate the jobs that wrote back, in indices order; a
        // partial run's makespan sums with its resumption's.
        std::vector<int> completed;
        completed.reserve(indices.size());
        for (size_t k = 0; k < indices.size(); k++) {
            if (ctl.done[k])
                completed.push_back(indices[k]);
        }
        arbitrate(completed, cycles, acct);
    }

  private:
    static sim::EngineConfig
    diagConfig(sim::EngineConfig ecfg)
    {
        ecfg.path = sim::EnginePath::DiagSimd;
        ecfg.trace = nullptr; // DiagSimd has no schedule observability
        return ecfg;
    }

    /**
     * Greedy NB-block arbiter over the per-job cycles, in @p indices
     * order: each job lands on the earliest-free block; busy cycles are
     * the block makespan. Device cycles are independent of block
     * placement, so this runs as a separate phase after the compute.
     */
    void
    arbitrate(const std::vector<int> &indices, const uint64_t *cycles,
              ChannelStats &acct)
    {
        std::fill(_blockFree.begin(), _blockFree.end(), 0);
        for (const int idx : indices) {
            const uint64_t c = cycles[static_cast<size_t>(idx)];
            auto it =
                std::min_element(_blockFree.begin(), _blockFree.end());
            *it += c;
            acct.totalCycles += c;
            acct.alignments++;
        }
        acct.busyCycles +=
            *std::max_element(_blockFree.begin(), _blockFree.end());
    }

    bool cacheEnabled() const { return _cache && _cache->enabled(); }

    bool
    lookupCached(const PairHash &key, int idx, Result *results,
                 uint64_t *cycles)
    {
        auto hit = _cache->lookup(key);
        if (!hit)
            return false;
        results[static_cast<size_t>(idx)] = std::move(hit->result);
        cycles[static_cast<size_t>(idx)] = hit->cycles + _hostOverhead;
        return true;
    }

    void
    finishJob(const PairHash &key, int idx, Result res,
              uint64_t engine_cycles, Result *results, uint64_t *cycles)
    {
        if (cacheEnabled())
            _cache->insert(key, res, engine_cycles);
        cycles[static_cast<size_t>(idx)] = engine_cycles + _hostOverhead;
        results[static_cast<size_t>(idx)] = std::move(res);
    }

    sim::SystolicAligner<K> _engine;
    sim::LaneAligner<K> _lanes;
    sim::SystolicAligner<K> _diagEngine;
    Params _params;
    ShardedResultCache<Result> *_cache;
    uint64_t _cfgSalt;
    uint64_t _hostOverhead;
    double _fmaxMhz;
    std::vector<uint64_t> _blockFree;
    int _width;
    bool _intraPairSimd;
    int _intraPairMinLen;
};

/**
 * Full-matrix cell count of one job as the CPU/GPU baselines pay it:
 * banded kernels only sweep the band's columns per row.
 */
template <core::KernelSpec K, typename Job>
inline double
baselineCells(const Job &job, int band_width)
{
    const double qlen = static_cast<double>(job.query.length());
    const double rlen = static_cast<double>(job.reference.length());
    if (K::banded) {
        const double band_cols =
            std::min(rlen, 2.0 * std::max(1, band_width) + 1.0);
        return std::max(1.0, qlen * band_cols);
    }
    return std::max(1.0, qlen * rlen);
}

/**
 * CPU fallback backend: the classic full-matrix implementation (the
 * golden model the systolic engine is verified against bit-for-bit, so
 * in-range jobs produce identical results) executed across host
 * threads. There is no analytic cycle model for the host CPU; cycles
 * are derived from per-job wall-clock measurements at an equivalent
 * clock, cpu_runner's baseline methodology. The backend's "blocks" are
 * its host threads: busy cycles are the greedy makespan over them.
 *
 * The cost model's service-time estimate comes from an EWMA of the
 * measured cells/sec, updated after every completed job — the backend
 * learns the host's actual throughput instead of assuming one. Passing
 * modeled_cells_per_sec > 0 pins the rate AND derives cycles from it
 * instead of the wall clock, making accounting deterministic (benches
 * and differential tests use this; real hosts leave it 0).
 */
template <core::KernelSpec K>
class CpuBaselineBackend : public AlignBackend<K>
{
  public:
    using Base = AlignBackend<K>;
    using typename Base::Job;
    using typename Base::Params;
    using typename Base::Result;

    CpuBaselineBackend(const Params &params, int band_width,
                       double cpu_mhz, int threads,
                       bool skip_traceback,
                       double modeled_cells_per_sec = 0)
        : _aligner(params, band_width), _bandWidth(band_width),
          _cpuMhz(cpu_mhz), _threads(std::max(1, threads)),
          _skipTraceback(skip_traceback),
          _modeledCellsPerSec(modeled_cells_per_sec)
    {
        // Seed every bucket's throughput estimate from the host's
        // detected ISA tier (isa_tier.hh) instead of a fixed constant:
        // the first routing decisions on an AVX-512 host shouldn't
        // assume an SSE2-era rate. Measurements take over per bucket
        // after its first job.
        const double seed = modeled_cells_per_sec > 0
            ? modeled_cells_per_sec
            : sim::isaTierSeedCellsPerSec(sim::detectIsaTier());
        for (auto &b : _ewmaCellsPerSec)
            b.store(seed, std::memory_order_relaxed);
    }

    /**
     * Current cells/sec estimate for a job of @p cells DP cells: the
     * EWMA of the job's log2-cell-count shape bucket (or the pinned
     * modeled rate). Bucketing keeps one long job from skewing the
     * estimates of short jobs — cache behavior and per-job overhead
     * make measured cells/sec strongly shape-dependent.
     */
    double
    cellsPerSecEstimate(double cells) const
    {
        return _ewmaCellsPerSec[bucketOf(cells)].load(
            std::memory_order_relaxed);
    }

    CostEstimate
    estimate(const Job &job) const override
    {
        const double cells = baselineCells<K>(job, _bandWidth);
        const double rate = cellsPerSecEstimate(cells);
        // The host threads serve jobs concurrently, so one job's
        // marginal completion contribution shrinks with the pool.
        return {cells / (rate * _threads), true};
    }

    void
    run(const std::vector<Job> &jobs, const std::vector<int> &indices,
        Result *results, uint64_t *cycles, ChannelStats &acct,
        StageRunControl &ctl) override
    {
        ctl.done.assign(indices.size(), 1); // never yields mid-shard
        const int n = static_cast<int>(indices.size());
        parallelFor(n, std::min(_threads, std::max(1, n)), [&](int k) {
            const int idx = indices[static_cast<size_t>(k)];
            const auto &job = jobs[static_cast<size_t>(idx)];
            const double cells = baselineCells<K>(job, _bandWidth);
            const auto t0 = std::chrono::steady_clock::now();
            Result res = _aligner.align(job.query, job.reference);
            double seconds =
                std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - t0)
                    .count();
            if (_modeledCellsPerSec > 0)
                seconds = cells / _modeledCellsPerSec; // pinned rate
            else if (seconds > 0)
                updateEwma(cells, cells / seconds);
            if (_skipTraceback) {
                res.ops.clear();
                res.start = res.end;
            }
            cycles[static_cast<size_t>(idx)] =
                baseline::wallClockCycles(seconds, _cpuMhz);
            results[static_cast<size_t>(idx)] = std::move(res);
        });

        // Host threads as slots: greedy earliest-free packing, same
        // arbiter shape as the device channels' NB blocks. The slot
        // vector is run-local: the pipeline's CPU dispatch slot has
        // capacity > 1, so run() calls for different tickets may
        // execute concurrently (this backend has no other mutable
        // state — MatrixAligner::align is const).
        std::vector<uint64_t> slot_free(
            static_cast<size_t>(_threads), 0);
        for (const int idx : indices) {
            const uint64_t c = cycles[static_cast<size_t>(idx)];
            auto it = std::min_element(slot_free.begin(), slot_free.end());
            *it += c;
            acct.totalCycles += c;
            acct.alignments++;
        }
        acct.busyCycles +=
            *std::max_element(slot_free.begin(), slot_free.end());
    }

  private:
    /** Shape buckets: log2(cell count), clamped. 2^31 cells tops out
     *  well past the longest dispatchable pairs. */
    static constexpr int kEwmaBuckets = 32;

    static size_t
    bucketOf(double cells)
    {
        const int b = static_cast<int>(std::log2(std::max(1.0, cells)));
        return static_cast<size_t>(std::clamp(b, 0, kEwmaBuckets - 1));
    }

    /**
     * Relaxed-atomic per-bucket EWMA (alpha 0.25): concurrent updates
     * may drop a sample, which only costs estimate freshness, never
     * correctness.
     */
    void
    updateEwma(double cells, double rate)
    {
        std::atomic<double> &slot = _ewmaCellsPerSec[bucketOf(cells)];
        const double prev = slot.load(std::memory_order_relaxed);
        slot.store(prev + 0.25 * (rate - prev),
                   std::memory_order_relaxed);
    }

    ref::MatrixAligner<K> _aligner;
    int _bandWidth;
    double _cpuMhz;
    int _threads;
    bool _skipTraceback;
    double _modeledCellsPerSec;
    std::array<std::atomic<double>, kEwmaBuckets> _ewmaCellsPerSec;
};

/**
 * Modeled GPU backend: baselines/gpu_model promoted onto the backend
 * seam for the kernels the paper benchmarks on a GPU (GASAL2 for the
 * DNA global/local/banded-local families, CUDASW++ for protein local).
 * Functional results come from the same full-matrix golden model the
 * CPU backend uses (bit-identical to the device for in-range shapes);
 * accounting is modeled, not measured: each run() is one batched
 * kernel launch — a fixed launch overhead plus the batch's DP cells at
 * the published iso-cost GCUPS — with per-job cycles proportional to
 * each job's cells, all counted at the V100 clock. The "arbiter" is
 * the GPU itself: one fully-shared slot whose busy time is the modeled
 * batch service time.
 */
template <core::KernelSpec K>
class GpuModelBackend : public AlignBackend<K>
{
  public:
    using Base = AlignBackend<K>;
    using typename Base::Job;
    using typename Base::Params;
    using typename Base::Result;

    /** True when the paper has a GPU baseline for kernel @p K. */
    static bool covered() { return baseline::hasGpuBaseline(K::kernelId); }

    GpuModelBackend(const Params &params, int band_width, int threads,
                    bool skip_traceback)
        : _aligner(params, band_width), _bandWidth(band_width),
          _threads(std::max(1, threads)), _skipTraceback(skip_traceback)
    {}

    CostEstimate
    estimate(const Job &job) const override
    {
        if (!covered())
            return {0, false};
        // Pure service cost; the per-launch overhead is reported via
        // batchOverheadSeconds() so the router charges it exactly once
        // per shard (run() accounts it the same way).
        const double cells = baselineCells<K>(job, _bandWidth);
        return {baseline::gpuModelServiceSec(K::kernelId, cells), true};
    }

    double
    batchOverheadSeconds() const override
    {
        return baseline::gpuModelLaunchOverheadSec();
    }

    void
    run(const std::vector<Job> &jobs, const std::vector<int> &indices,
        Result *results, uint64_t *cycles, ChannelStats &acct,
        StageRunControl &ctl) override
    {
        ctl.done.assign(indices.size(), 1); // never yields mid-shard
        // Functional pass on host threads (the model has no GPU to run
        // on); accounting below is purely analytic.
        const int n = static_cast<int>(indices.size());
        parallelFor(n, std::min(_threads, std::max(1, n)), [&](int k) {
            const int idx = indices[static_cast<size_t>(k)];
            const auto &job = jobs[static_cast<size_t>(idx)];
            Result res = _aligner.align(job.query, job.reference);
            if (_skipTraceback) {
                res.ops.clear();
                res.start = res.end;
            }
            cycles[static_cast<size_t>(idx)] = std::max<uint64_t>(
                1, baseline::gpuModelServiceCycles(
                       K::kernelId, baselineCells<K>(job, _bandWidth)));
            results[static_cast<size_t>(idx)] = std::move(res);
        });

        // One batched launch: overhead + total cells at the tool's
        // GCUPS. The batch runs concurrently on the GPU, so busy time
        // is the batch service time, not a per-job sum.
        double batch_cells = 0;
        for (const int idx : indices) {
            batch_cells +=
                baselineCells<K>(jobs[static_cast<size_t>(idx)],
                                 _bandWidth);
            acct.totalCycles += cycles[static_cast<size_t>(idx)];
            acct.alignments++;
        }
        acct.busyCycles +=
            static_cast<uint64_t>(baseline::gpuModelLaunchOverheadSec() *
                                  baseline::gpuModelClockMhz() * 1e6) +
            baseline::gpuModelServiceCycles(K::kernelId, batch_cells);
    }

  private:
    ref::MatrixAligner<K> _aligner;
    int _bandWidth;
    int _threads;
    bool _skipTraceback;
};

} // namespace dphls::host

#endif // DPHLS_HOST_BACKEND_HH
