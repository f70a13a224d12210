/**
 * @file
 * Command-line aligner over the DP-HLS simulated device.
 *
 * Reads queries and references from FASTA files, runs the chosen kernel
 * on the systolic engine and reports scores, CIGARs and device cycles —
 * the host-side program of paper front-end step 6, packaged as a tool.
 *
 * The tool is a streaming host: FASTA records are parsed incrementally,
 * submitted to the StreamPipeline in chunks, and written back as each
 * chunk's ticket completes — parsing, alignment and writeback overlap
 * instead of barriering on the whole file. Worker threads (--threads)
 * are decoupled from the modeled channel count (--nk); the main thread,
 * while it waits to collect a ticket, also runs shards queued for the
 * workers (and so may run completion callbacks), and
 * --cpu-fallback routes pairs the device cannot take (over --max-len)
 * or should not take (both ends under --cpu-floor) to the CPU baseline
 * backend, with the hetero split reported per backend.
 *
 * --dispatch cost switches from the shape-threshold rule to cost-model
 * routing (lowest estimated completion time over device channels, the
 * CPU backend when --cpu-fallback is set, and the modeled GPU backend
 * when --gpu-model is set; --gpu-model alone implies --dispatch cost).
 * --chunk auto (or 0) sizes each submitted ticket adaptively from the
 * observed drain latency so the parse -> align -> writeback pipeline
 * stays full across kernel speeds.
 *
 * Scheduling: --priority P submits every ticket in priority class P
 * (higher classes are dispatched first when the pipeline is shared)
 * and --deadline-ms D stamps each ticket with a deadline D ms after
 * its submission — completions past the deadline are reported in the
 * batch summary, and cost-model routing prefers backends whose
 * estimated completion beats the deadline. --two-class-demo runs the
 * input once as a mixed interactive/bulk workload under FIFO and
 * under priority scheduling and reports the modeled p50/p99 ticket
 * latency of each class, making the scheduler's effect visible end to
 * end from the command line.
 *
 * Usage:
 *   dphls_align --kernel <name> --query q.fa --reference r.fa
 *               [--npe N] [--band W] [--max-len L] [--nk K] [--nb B]
 *               [--threads T] [--lanes W] [--chunk N|auto]
 *               [--dispatch threshold|cost] [--gpu-model]
 *               [--cpu-fallback] [--cpu-floor L] [--no-cache]
 *               [--no-traceback] [--priority P] [--deadline-ms D]
 *               [--two-class-demo]
 *               [--isa-tier auto|scalar|sse2|avx2|avx512]
 *               [--intra-pair] [--intra-pair-min-len L]
 *               [--preempt]
 *
 * --preempt lets higher-priority tickets interrupt in-flight shards at
 * lane-group boundaries (bit-identical output).
 *
 * --isa-tier pins the SIMD tier of the host lane engine (auto picks
 * the widest the CPU supports); results are identical at every tier,
 * only throughput changes. --intra-pair routes single-pair tickets
 * whose shorter end is at least --intra-pair-min-len through the
 * anti-diagonal intra-pair SIMD path instead of the lane engine.
 *
 * Kernels: global-linear, global-affine, local-linear, local-affine,
 *          two-piece, overlap, semi-global, banded-global, banded-local,
 *          banded-two-piece, protein-local; pairs are i-th query against
 *          i-th reference (the shorter list is cycled).
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/cigar.hh"
#include "host/latency_probe.hh"
#include "host/stream_pipeline.hh"
#include "kernels/all.hh"
#include "model/frequency_model.hh"
#include "seq/fasta.hh"
#include "workloads/mixed_demo.hh"

using namespace dphls;

namespace {

struct Options
{
    std::string kernel = "global-linear";
    std::string queryPath;
    std::string referencePath;
    int npe = 32;
    int band = 64;
    int maxLen = 4096;
    int nk = 4;
    int nb = 1;
    int threads = 0;   //!< host workers; 0 = one per channel
    int lanes = 8;     //!< SIMD lane width (results identical at any width)
    int chunk = 256;   //!< pairs per submitted batch; 0/auto = adaptive
    int cpuFloor = 0;  //!< with --cpu-fallback: short-pair floor
    bool cpuFallback = false;
    bool gpuModel = false;     //!< add the modeled GPU backend
    std::string dispatch;      //!< "", "threshold" or "cost"
    bool cache = true;
    bool traceback = true;
    int priority = 0;          //!< scheduling class of every ticket
    double deadlineMs = 0;     //!< per-ticket deadline (0 = none)
    bool twoClassDemo = false; //!< run the priority-scheduling demo
    sim::IsaTier isaTier = sim::IsaTier::Auto; //!< --isa-tier
    bool intraPair = false;    //!< route single long pairs to DiagSimd
    int intraPairMinLen = 1024; //!< shorter-end floor for --intra-pair
    bool preempt = false;       //!< lane-group preemption points
    std::string workload;       //!< "mixed": the three-class demo
    uint64_t seed = 1;          //!< --workload input seed
};

void
usage()
{
    std::fprintf(stderr,
                 "usage: dphls_align --kernel NAME --query FASTA "
                 "--reference FASTA\n"
                 "                   [--npe N] [--band W] [--max-len L] "
                 "[--nk K] [--nb B]\n"
                 "                   [--threads T] [--lanes W] "
                 "[--chunk N|auto]\n"
                 "                   [--dispatch threshold|cost] "
                 "[--gpu-model] [--cpu-fallback]\n"
                 "                   [--cpu-floor L] [--no-cache] "
                 "[--no-traceback]\n"
                 "                   [--priority P] [--deadline-ms D] "
                 "[--two-class-demo]\n"
                 "                   [--isa-tier "
                 "auto|scalar|sse2|avx2|avx512]\n"
                 "                   [--intra-pair] "
                 "[--intra-pair-min-len L]\n"
                 "                   [--preempt]\n"
"                   [--workload mixed] [--seed S]\n"
                 "--threads T: pool workers (0 = one per channel); the "
                 "main thread also runs\n"
                 "             queued shards while it waits to collect "
                 "a ticket\n"
                 "kernels: global-linear global-affine local-linear "
                 "local-affine two-piece\n"
                 "         overlap semi-global banded-global banded-local "
                 "banded-two-piece protein-local\n");
}

/**
 * Incremental FASTA source that cycles back to the start of its file
 * when the other source still has records — the streaming equivalent of
 * "the shorter list is cycled" over fully-parsed vectors.
 */
template <typename SeqT>
class CyclingFastaSource
{
  public:
    using Decode = SeqT (*)(const seq::FastaRecord &);

    CyclingFastaSource(std::string path, Decode decode)
        : _path(std::move(path)), _decode(decode),
          _stream(std::make_unique<seq::FastaStream>(_path))
    {}

    /** True once this source has hit its end of file at least once. */
    bool exhausted() const { return _exhausted; }

    /**
     * Produce the next sequence. Returns false — ending the pairing —
     * when this source hits EOF and the other one is already
     * exhausted; otherwise cycles back to its first record.
     */
    bool
    next(SeqT &out, bool other_exhausted)
    {
        seq::FastaRecord rec;
        if (_stream->next(rec)) {
            out = _decode(rec);
            _count++;
            return true;
        }
        _exhausted = true;
        if (other_exhausted)
            return false;
        if (_count == 0)
            throw std::runtime_error("empty FASTA input: " + _path);
        _stream = std::make_unique<seq::FastaStream>(_path);
        if (!_stream->next(rec))
            return false;
        out = _decode(rec);
        _count++;
        return true;
    }

  private:
    std::string _path;
    Decode _decode;
    std::unique_ptr<seq::FastaStream> _stream;
    int64_t _count = 0;
    bool _exhausted = false;
};

/** The per-ticket scheduling class the options ask for. */
host::TicketOptions
ticketOptions(const Options &opt)
{
    if (opt.deadlineMs > 0)
        return host::TicketOptions::afterMs(opt.priority, opt.deadlineMs);
    host::TicketOptions topt;
    topt.priority = opt.priority;
    return topt;
}

/**
 * Two-class scheduling demo: the input pairs are split into bulk
 * tickets (every --chunk pairs, the re-alignment batch class) and
 * interactive tickets (one pair in eight, submitted alone), interleaved
 * in submission order. The same workload runs twice on a one-channel,
 * one-thread pipeline — once with every ticket in class 0 (FIFO) and
 * once with the interactive tickets in a higher priority class — and
 * the modeled completion latency of each ticket (cumulative channel
 * busy cycles at its completion, at the kernel's fmax) is reported as
 * per-class p50/p99. Deterministic: all tickets are queued while the
 * pipeline is paused, and the accounting is cycle-domain.
 */
template <typename K, typename SeqT>
int
runTwoClassDemo(const Options &opt,
                SeqT (*decode)(const seq::FastaRecord &))
{
    using Pipeline = host::StreamPipeline<K>;
    using Job = typename Pipeline::Job;

    CyclingFastaSource<SeqT> queries(opt.queryPath, decode);
    CyclingFastaSource<SeqT> references(opt.referencePath, decode);
    std::vector<Job> jobs;
    for (;;) {
        Job job;
        if (!queries.next(job.query, references.exhausted()))
            break;
        if (!references.next(job.reference, queries.exhausted()))
            break;
        jobs.push_back(std::move(job));
    }
    if (jobs.empty()) {
        std::fprintf(stderr, "two-class demo: no pairs in input\n");
        return 1;
    }

    const double fmax = model::kernelFrequencyMhz<K>();
    const size_t bulk_chunk =
        std::max<size_t>(1, opt.chunk > 0 ? static_cast<size_t>(opt.chunk)
                                          : 64);
    const auto run = [&](int interactive_priority) {
        host::BatchConfig cfg;
        cfg.npe = opt.npe;
        cfg.nb = opt.nb;
        cfg.nk = 1; // one channel: the contended-queue case
        cfg.threads = 1;
        cfg.fmaxMhz = fmax;
        cfg.bandWidth = opt.band;
        cfg.maxQueryLength = opt.maxLen;
        cfg.maxReferenceLength = opt.maxLen;
        cfg.skipTraceback = !opt.traceback;
        cfg.hostOverheadCycles = 0;
        cfg.collectPathStats = false;
        cfg.cacheEntries = 0;
        Pipeline pipeline(cfg);

        auto probe = std::make_shared<host::TwoClassLatencyProbe>(fmax);
        std::vector<typename Pipeline::Ticket> tickets;
        const auto submitClass = [&](std::vector<Job> batch,
                                     bool interactive) {
            host::TicketOptions topt;
            topt.priority = interactive ? interactive_priority : 0;
            topt.tag = interactive ? "interactive" : "bulk";
            // Deadlines only in the prioritized leg: a deadline also
            // reorders equal-priority dispatch (EDF tiebreak), so
            // stamping the baseline leg would corrupt its pure-FIFO
            // semantics and flatten the reported speedup.
            if (interactive && interactive_priority > 0 &&
                opt.deadlineMs > 0) {
                topt = host::TicketOptions::afterMs(
                    interactive_priority, opt.deadlineMs, "interactive");
            }
            tickets.push_back(pipeline.submit(
                std::move(batch), std::move(topt),
                [probe, interactive](host::BatchTicket<K> &t) {
                    probe->record(t.stats().makespanCycles, interactive);
                }));
        };

        // Queue the whole mixed backlog before dispatch starts, so the
        // measured order is the scheduler's, not the submission race's.
        pipeline.pause();
        std::vector<Job> bulk;
        for (size_t i = 0; i < jobs.size(); i++) {
            if (i % 8 == 0) {
                submitClass({jobs[i]}, true);
            } else {
                bulk.push_back(jobs[i]);
                if (bulk.size() >= bulk_chunk) {
                    submitClass(std::move(bulk), false);
                    bulk.clear();
                }
            }
        }
        if (!bulk.empty())
            submitClass(std::move(bulk), false);
        pipeline.resume();
        for (const auto &t : tickets)
            t->wait();
        pipeline.drain();
        return probe;
    };

    const auto fifo = run(0);
    const auto prio = run(10);
    // percentile() selects in place (partial reorder), so copy each
    // class once instead of copying + fully sorting on every call.
    std::vector<double> fifo_int = fifo->interactive();
    std::vector<double> fifo_bulk = fifo->bulk();
    std::vector<double> prio_int = prio->interactive();
    std::vector<double> prio_bulk = prio->bulk();
    const double fifo_p99 = host::percentile(fifo_int, 0.99);
    const double prio_p99 = host::percentile(prio_int, 0.99);
    std::printf("# two-class demo: %zu interactive + %zu bulk tickets "
                "(%zu pairs), kernel %s @ %.1f MHz, 1 channel\n",
                fifo_int.size(), fifo_bulk.size(), jobs.size(), K::name,
                fmax);
    std::printf("#   fifo:     interactive p50 %.3f ms, p99 %.3f ms; "
                "bulk p99 %.3f ms\n",
                1e3 * host::percentile(fifo_int, 0.5), 1e3 * fifo_p99,
                1e3 * host::percentile(fifo_bulk, 0.99));
    std::printf("#   priority: interactive p50 %.3f ms, p99 %.3f ms; "
                "bulk p99 %.3f ms\n",
                1e3 * host::percentile(prio_int, 0.5), 1e3 * prio_p99,
                1e3 * host::percentile(prio_bulk, 0.99));
    std::printf("#   interactive p99 speedup: %.2fx\n",
                prio_p99 > 0 ? fifo_p99 / prio_p99 : 0.0);
    return 0;
}

template <typename K, typename SeqT>
int
runStreaming(const Options &opt, SeqT (*decode)(const seq::FastaRecord &))
{
    using Pipeline = host::StreamPipeline<K>;

    if (opt.twoClassDemo)
        return runTwoClassDemo<K>(opt, decode);

    host::BatchConfig cfg;
    cfg.npe = opt.npe;
    cfg.nb = opt.nb;
    cfg.nk = opt.nk;
    cfg.threads = opt.threads;
    cfg.fmaxMhz = model::kernelFrequencyMhz<K>();
    cfg.bandWidth = opt.band;
    cfg.maxQueryLength = opt.maxLen;
    cfg.maxReferenceLength = opt.maxLen;
    cfg.skipTraceback = !opt.traceback;
    cfg.hostOverheadCycles = 0; // report pure device cycles per pair
    cfg.laneWidth = opt.lanes;
    cfg.cpuFallback = opt.cpuFallback;
    cfg.cpuFloorLen = opt.cpuFloor;
    cfg.gpuModel = opt.gpuModel;
    // --gpu-model implies cost-model dispatch (the GPU backend only
    // receives jobs under it) unless --dispatch threshold insists.
    cfg.dispatch = opt.dispatch == "cost" ||
                           (opt.dispatch.empty() && opt.gpuModel)
                       ? host::DispatchPolicy::CostModel
                       : host::DispatchPolicy::Threshold;
    cfg.cacheEntries = opt.cache ? 4096 : 0;
    cfg.isaTier = opt.isaTier;
    cfg.intraPairSimd = opt.intraPair;
    cfg.intraPairSimdMinLen = opt.intraPairMinLen;
    cfg.preemption = opt.preempt;
    Pipeline pipeline(cfg);

    CyclingFastaSource<SeqT> queries(opt.queryPath, decode);
    CyclingFastaSource<SeqT> references(opt.referencePath, decode);

    // Streaming epoch aggregation over per-ticket statistics.
    host::BatchStats epoch;
    using Clock = std::chrono::steady_clock;
    std::deque<std::pair<typename Pipeline::Ticket, Clock::time_point>>
        pending;
    // Measured host rate of the stream loop (parse, align, writeback),
    // printed beside the modeled device rate.
    const Clock::time_point wall_start = Clock::now();
    double wall_cells = 0;

    // Adaptive chunking (--chunk auto/0): size the next ticket from the
    // observed submit-to-collect latency of retired tickets, keeping
    // each ticket's drain near a fixed target so the parse -> align ->
    // writeback pipeline stays full for fast kernels (bigger chunks)
    // without going lumpy for slow ones (smaller chunks).
    const bool adaptive = opt.chunk <= 0;
    size_t chunk = adaptive ? 64 : static_cast<size_t>(opt.chunk);
    constexpr double target_latency = 0.15; // seconds per ticket drain
    constexpr size_t chunk_min = 16, chunk_max = 16384;

    bool header_printed = false;
    const auto writeback = [&](const typename Pipeline::Ticket &ticket,
                               Clock::time_point submitted) {
        if (!header_printed) {
            std::printf("%-20s %-20s %-10s %-12s %s\n", "query",
                        "reference", "score", "cycles", "cigar");
            header_printed = true;
        }
        host::accumulateBatchStats(epoch, pipeline.collect(ticket));
        if (adaptive) {
            const double latency =
                std::chrono::duration<double>(Clock::now() - submitted)
                    .count();
            if (latency > 0 && !ticket->jobs().empty()) {
                const double ideal = static_cast<double>(chunk) *
                                     target_latency / latency;
                // Move halfway toward the ideal size per retired
                // ticket: responsive without oscillating on noise.
                chunk = std::clamp(
                    static_cast<size_t>(
                        (static_cast<double>(chunk) + ideal) / 2.0),
                    chunk_min, chunk_max);
            }
        }
        const auto &jobs = ticket->jobs();
        const auto &results = ticket->results();
        const auto &cycles = ticket->cycles();
        for (size_t i = 0; i < jobs.size(); i++) {
            const auto &q = jobs[i].query;
            const auto &r = jobs[i].reference;
            const auto &res = results[i];
            wall_cells += static_cast<double>(q.length()) *
                          static_cast<double>(r.length());
            std::printf("%-20.20s %-20.20s %-10.0f %-12llu %s\n",
                        q.name.empty() ? "(unnamed)" : q.name.c_str(),
                        r.name.empty() ? "(unnamed)" : r.name.c_str(),
                        res.scoreAsDouble(),
                        (unsigned long long)cycles[i],
                        res.ops.empty()
                            ? "-"
                            : core::toCigar(res.ops).c_str());
        }
    };

    // Parse -> submit -> writeback loop: each chunk is one ticket;
    // completed front tickets are written back while later chunks are
    // still parsing or aligning (output stays in submission order).
    // Backpressure bounds memory to a few in-flight chunks: parsing is
    // much faster than alignment, so without the cap a large input
    // would materialize entirely as pending tickets.
    const size_t max_pending =
        4 + static_cast<size_t>(pipeline.threadCount());
    bool done = false;
    size_t submitted_chunks = 0;
    while (!done) {
        std::vector<typename Pipeline::Job> jobs;
        jobs.reserve(chunk);
        while (jobs.size() < chunk) {
            typename Pipeline::Job job;
            if (!queries.next(job.query, references.exhausted())) {
                done = true;
                break;
            }
            if (!references.next(job.reference, queries.exhausted())) {
                done = true;
                break;
            }
            jobs.push_back(std::move(job));
        }
        if (!jobs.empty()) {
            const size_t njobs = jobs.size();
            try {
                pending.emplace_back(
                    pipeline.submit(std::move(jobs), ticketOptions(opt)),
                    Clock::now());
                submitted_chunks++;
            } catch (const std::invalid_argument &e) {
                // An undispatchable pair (over every enabled backend's
                // maxima) must not escape as an unhandled exception:
                // report it with its context — the message carries the
                // job's index within the chunk and its qlen x rlen
                // shape — retire the tickets already in flight so
                // their output is not lost, and exit non-zero.
                std::fprintf(stderr,
                             "error: %s\n"
                             "error: chunk %zu (%zu pairs, after %zu "
                             "submitted chunks) rejected at submit; "
                             "completing in-flight work\n",
                             e.what(), submitted_chunks, njobs,
                             submitted_chunks);
                while (!pending.empty()) {
                    writeback(pending.front().first,
                              pending.front().second);
                    pending.pop_front();
                }
                return 1;
            }
        }
        while (!pending.empty() &&
               (pending.front().first->done() ||
                pending.size() > max_pending)) {
            // collect() blocks when forced by backpressure
            writeback(pending.front().first, pending.front().second);
            pending.pop_front();
        }
    }
    while (!pending.empty()) {
        // collect() blocks until complete
        writeback(pending.front().first, pending.front().second);
        pending.pop_front();
    }

    const double wall_s =
        std::chrono::duration<double>(Clock::now() - wall_start).count();
    host::finalizeBatchStats(epoch, cfg.fmaxMhz, cfg.cpuEquivalentMhz);
    std::printf("# batch: %d alignments over %d channel(s) x %d host "
                "thread(s), makespan %llu cycles, %.3g aligns/sec @ %.1f "
                "MHz (modeled), isa %s\n",
                epoch.alignments, pipeline.channelCount(),
                pipeline.threadCount(),
                (unsigned long long)epoch.makespanCycles,
                epoch.alignsPerSec, cfg.fmaxMhz,
                sim::isaTierName(pipeline.activeIsaTier()));
    std::printf("# wall: %.3f s, %.3g pairs/s, %.3g GCUPS (measured on "
                "this host, parse to writeback)\n",
                wall_s, wall_s > 0 ? epoch.alignments / wall_s : 0.0,
                wall_s > 0 ? wall_cells / wall_s / 1e9 : 0.0);
    const auto sections =
        host::backendSections(epoch, cfg.fmaxMhz, cfg.cpuEquivalentMhz);
    for (const auto &b : sections) {
        if (sections.size() < 2 && std::strcmp(b.name, "cpu") != 0)
            continue; // single-backend runs: skip the redundant section
        std::printf("#   backend %-6s %6d alignments, %12llu cycles "
                    "(busy %llu @ %.1f MHz)\n",
                    b.name, b.alignments,
                    (unsigned long long)b.totalCycles,
                    (unsigned long long)b.busyCycles, b.clockMhz);
    }
    if (opt.deadlineMs > 0 || epoch.deadlineMisses > 0 ||
        epoch.cancelled > 0 || epoch.preemptions > 0) {
        std::printf("# scheduling: priority %d, %d deadline miss(es), "
                    "%d cancelled, %d preemption(s)\n",
                    opt.priority, epoch.deadlineMisses, epoch.cancelled,
                    epoch.preemptions);
    }
    if (epoch.paths.columns > 0) {
        std::printf("# paths: %.2f%% identity, %d matches, %d mismatches, "
                    "%d ins, %d del, %d gap opens\n",
                    100.0 * epoch.paths.identity(), epoch.paths.matches,
                    epoch.paths.mismatches, epoch.paths.insertions,
                    epoch.paths.deletions, epoch.paths.gapOpens);
    }
    const auto cc = pipeline.cacheCounters();
    if (cc.hits + cc.misses > 0) {
        std::printf("# cache: %llu hits, %llu misses (%.1f%% hit rate)\n",
                    (unsigned long long)cc.hits,
                    (unsigned long long)cc.misses,
                    100.0 * static_cast<double>(cc.hits) /
                        static_cast<double>(cc.hits + cc.misses));
    }
    return 0;
}

/**
 * Mixed-workload demo (--workload mixed): one seeded input set served
 * as three concurrent traffic classes — streaming sDTW basecalling
 * (realtime, deadline-tagged), seed-chain-extend read mapping
 * (interactive) and bulk batch re-alignment (class 0) — then re-run
 * with each class isolated on fresh pipelines. Scheduling only
 * reorders work: the tool verifies every mapping, classification and
 * bulk score is bit-identical across the two runs (non-zero exit
 * otherwise) and reports per-class modeled p50/p99 completion latency
 * from the concurrent run.
 */
int
runWorkloadDemo(const Options &opt)
{
    workloads::MixedDemoConfig cfg =
        workloads::MixedDemoConfig::makeDefault();
    cfg.seed = opt.seed;
    cfg.interactivePriority = opt.priority > 0 ? opt.priority : 10;
    if (opt.deadlineMs > 0)
        cfg.realtimeDeadlineMs = opt.deadlineMs;

    const auto mixed = workloads::runMixedDemo(cfg, true);
    const auto isolated = workloads::runMixedDemo(cfg, false);

    // Scheduling must never change a result.
    size_t mismatches = 0;
    const auto check = [&](bool ok, const char *what, size_t i) {
        if (!ok) {
            std::fprintf(stderr,
                         "error: %s %zu differs between concurrent "
                         "and isolated runs\n",
                         what, i);
            mismatches++;
        }
    };
    check(mixed.mappings.size() == isolated.mappings.size(), "mapping",
          0);
    for (size_t i = 0; i < mixed.mappings.size() &&
                       i < isolated.mappings.size();
         i++) {
        const auto &a = mixed.mappings[i];
        const auto &b = isolated.mappings[i];
        check(a.mapped == b.mapped && a.refStart == b.refStart &&
                  a.refEnd == b.refEnd && a.score == b.score &&
                  a.secondScore == b.secondScore && a.mapq == b.mapq &&
                  a.ops == b.ops,
              "mapping", i);
    }
    check(mixed.basecalls.size() == isolated.basecalls.size(),
          "basecall", 0);
    for (size_t i = 0; i < mixed.basecalls.size() &&
                       i < isolated.basecalls.size();
         i++) {
        const auto &a = mixed.basecalls[i];
        const auto &b = isolated.basecalls[i];
        check(a.abandoned == b.abandoned &&
                  a.samplesConsumed == b.samplesConsumed &&
                  a.hostScore == b.hostScore &&
                  a.deviceScored == b.deviceScored &&
                  a.deviceScore == b.deviceScore &&
                  a.onTarget == b.onTarget,
              "basecall", i);
    }
    check(mixed.bulkScores == isolated.bulkScores, "bulk batch", 0);

    int mapped = 0, placed = 0;
    for (size_t i = 0; i < mixed.mappings.size(); i++) {
        if (!mixed.mappings[i].mapped)
            continue;
        mapped++;
        if (std::abs(mixed.mappings[i].refStart -
                     mixed.trueLoci[i]) <= cfg.mapper.windowPad)
            placed++;
    }
    int abandoned = 0, on_target = 0;
    for (const auto &b : mixed.basecalls) {
        abandoned += b.abandoned ? 1 : 0;
        on_target += b.onTarget ? 1 : 0;
    }
    std::printf("# mixed workload: %d tickets (seed %llu) — %zu mapper "
                "reads (%d mapped, %d on true locus), %zu squiggle "
                "reads (%d abandoned early, %d on-target), %zu bulk "
                "batches\n",
                mixed.tickets,
                static_cast<unsigned long long>(opt.seed),
                mixed.mappings.size(), mapped, placed,
                mixed.basecalls.size(), abandoned, on_target,
                mixed.bulkScores.size());
    const auto report = [](const char *cls, std::vector<double> lat) {
        if (lat.empty()) {
            std::printf("#   %-12s no tickets\n", cls);
            return;
        }
        std::printf("#   %-12s p50 %.3f ms, p99 %.3f ms (%zu tickets)\n",
                    cls, 1e3 * host::percentile(lat, 0.5),
                    1e3 * host::percentile(lat, 0.99), lat.size());
    };
    report("realtime", mixed.latencies.realtime);
    report("interactive", mixed.latencies.interactive);
    report("bulk", mixed.latencies.bulk);
    if (mismatches > 0) {
        std::fprintf(stderr,
                     "error: %zu result(s) changed under concurrency\n",
                     mismatches);
        return 1;
    }
    std::printf("# identity: concurrent results bit-identical to "
                "isolated runs\n");
    return 0;
}

seq::DnaSequence
decodeDna(const seq::FastaRecord &rec)
{
    return seq::dnaFromString(rec.residues, rec.name);
}

seq::ProteinSequence
decodeProtein(const seq::FastaRecord &rec)
{
    return seq::proteinFromString(rec.residues, rec.name);
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    for (int i = 1; i < argc; i++) {
        const std::string a = argv[i];
        auto next = [&]() -> const char * {
            if (i + 1 >= argc) {
                usage();
                std::exit(2);
            }
            return argv[++i];
        };
        if (a == "--kernel") {
            opt.kernel = next();
        } else if (a == "--query") {
            opt.queryPath = next();
        } else if (a == "--reference") {
            opt.referencePath = next();
        } else if (a == "--npe") {
            opt.npe = std::atoi(next());
        } else if (a == "--band") {
            opt.band = std::atoi(next());
        } else if (a == "--max-len") {
            opt.maxLen = std::atoi(next());
        } else if (a == "--nk") {
            opt.nk = std::atoi(next());
        } else if (a == "--nb") {
            opt.nb = std::atoi(next());
        } else if (a == "--threads") {
            opt.threads = std::atoi(next());
        } else if (a == "--lanes") {
            opt.lanes = std::atoi(next());
        } else if (a == "--chunk") {
            const std::string v = next();
            if (v == "auto") {
                opt.chunk = 0; // adaptive
            } else {
                // Strictly numeric: a typo must error, not silently
                // flip the tool into a different chunking mode.
                char *end = nullptr;
                const long parsed = std::strtol(v.c_str(), &end, 10);
                if (v.empty() || *end != '\0' || parsed < 0) {
                    usage();
                    return 2;
                }
                opt.chunk = static_cast<int>(parsed); // 0 = adaptive
            }
        } else if (a == "--dispatch") {
            opt.dispatch = next();
            if (opt.dispatch != "threshold" && opt.dispatch != "cost") {
                usage();
                return 2;
            }
        } else if (a == "--gpu-model") {
            opt.gpuModel = true;
        } else if (a == "--cpu-fallback") {
            opt.cpuFallback = true;
        } else if (a == "--cpu-floor") {
            opt.cpuFloor = std::atoi(next());
        } else if (a == "--no-cache") {
            opt.cache = false;
        } else if (a == "--no-traceback") {
            opt.traceback = false;
        } else if (a == "--priority") {
            opt.priority = std::atoi(next());
        } else if (a == "--deadline-ms") {
            char *end = nullptr;
            const std::string v = next();
            opt.deadlineMs = std::strtod(v.c_str(), &end);
            if (v.empty() || *end != '\0' || opt.deadlineMs < 0) {
                usage();
                return 2;
            }
        } else if (a == "--two-class-demo") {
            opt.twoClassDemo = true;
        } else if (a == "--isa-tier") {
            if (!sim::parseIsaTier(next(), opt.isaTier)) {
                usage();
                return 2;
            }
        } else if (a == "--intra-pair") {
            opt.intraPair = true;
        } else if (a == "--intra-pair-min-len") {
            opt.intraPairMinLen = std::atoi(next());
        } else if (a == "--preempt") {
            opt.preempt = true;
        } else if (a == "--workload") {
            opt.workload = next();
            if (opt.workload != "mixed") {
                usage();
                return 2;
            }
        } else if (a == "--seed") {
            opt.seed = static_cast<uint64_t>(
                std::strtoull(next(), nullptr, 10));
        } else {
            usage();
            return 2;
        }
    }
    if (opt.workload == "mixed") {
        try {
            return runWorkloadDemo(opt);
        } catch (const std::exception &e) {
            std::fprintf(stderr, "error: %s\n", e.what());
            return 1;
        }
    }
    if (opt.queryPath.empty() || opt.referencePath.empty()) {
        usage();
        return 2;
    }

    try {
        if (opt.kernel == "protein-local") {
            return runStreaming<kernels::ProteinLocal>(opt, decodeProtein);
        }
        if (opt.kernel == "global-linear")
            return runStreaming<kernels::GlobalLinear>(opt, decodeDna);
        if (opt.kernel == "global-affine")
            return runStreaming<kernels::GlobalAffine>(opt, decodeDna);
        if (opt.kernel == "local-linear")
            return runStreaming<kernels::LocalLinear>(opt, decodeDna);
        if (opt.kernel == "local-affine")
            return runStreaming<kernels::LocalAffine>(opt, decodeDna);
        if (opt.kernel == "two-piece")
            return runStreaming<kernels::GlobalTwoPiece>(opt, decodeDna);
        if (opt.kernel == "overlap")
            return runStreaming<kernels::Overlap>(opt, decodeDna);
        if (opt.kernel == "semi-global")
            return runStreaming<kernels::SemiGlobal>(opt, decodeDna);
        if (opt.kernel == "banded-global")
            return runStreaming<kernels::BandedGlobalLinear>(opt,
                                                             decodeDna);
        if (opt.kernel == "banded-local")
            return runStreaming<kernels::BandedLocalAffine>(opt,
                                                            decodeDna);
        if (opt.kernel == "banded-two-piece")
            return runStreaming<kernels::BandedGlobalTwoPiece>(opt,
                                                               decodeDna);
        std::fprintf(stderr, "unknown kernel '%s'\n", opt.kernel.c_str());
        usage();
        return 2;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
    }
}
