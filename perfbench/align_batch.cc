/**
 * @file
 * align_batch: closed-loop bulk re-alignment, the dphls_align path.
 *
 * Set-up (untimed) writes seeded, all-distinct DNA pairs as two FASTA
 * files: reference lengths spread over 256..2048 bp by a low-discrepancy
 * sequence (every 256-pair chunk mixes lengths), each query about 5%
 * divergent from its reference. The timed loop is dphls_align's
 * streaming loop: FastaStream::next + dnaFromString, submit in 256-pair
 * tickets with the tool's backpressure (4 + threads in flight), collect,
 * and toCigar writeback into an in-memory sink. Configuration is
 * dphls_align's defaults for local-affine (nk 4, lanes 8, cache 4096,
 * threshold dispatch, traceback on) with threads = nproc - 1, so the
 * workers plus the producer fit the machine.
 */

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <deque>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include <unistd.h>

#include "common.hh"
#include "core/cigar.hh"
#include "host/stream_pipeline.hh"
#include "kernels/local_affine.hh"
#include "model/frequency_model.hh"
#include "reference/matrix_aligner.hh"
#include "seq/fasta.hh"
#include "seq/random.hh"
#include "seq/read_simulator.hh"
#include "systolic/lane_engine.hh"

namespace perfbench {

namespace {

using namespace dphls;
using K = kernels::LocalAffine;
using Pipeline = host::StreamPipeline<K>;
using Job = Pipeline::Job;
using Result = Pipeline::Result;

constexpr int kMinLen = 256;
constexpr int kMaxLen = 2048;
constexpr size_t kChunk = 256;      //!< dphls_align's default --chunk
constexpr size_t kGoldenSamples = 8; //!< pairs re-aligned by the golden model
constexpr size_t kModelTickets = 2; //!< tickets whose modeled cycles repeat
constexpr int kEnginePairs = 256;   //!< pairs in the one-thread engine probe
constexpr int kSetupRepeats = 101;  //!< pipeline constructions for setup_s
/**
 * Idle time before each construction, so each starts cold, as a user's
 * single construction does. Back-to-back constructions reuse the last
 * pipeline's cached thread stacks and warm caches: they read 2-3x
 * faster and their per-run medians swung by about 20% on a shared VM.
 */
constexpr auto kSetupPause = std::chrono::milliseconds(5);
constexpr size_t kRateBlock = 4;    //!< tickets per steady-rate sample

/** dphls_align's runStreaming configuration for local-affine. */
host::BatchConfig
pipelineConfig(int threads)
{
    host::BatchConfig cfg;
    cfg.npe = 32;
    cfg.nb = 1;
    cfg.nk = 4;
    cfg.threads = threads;
    cfg.fmaxMhz = model::kernelFrequencyMhz<K>();
    cfg.bandWidth = 64;
    cfg.maxQueryLength = 4096;
    cfg.maxReferenceLength = 4096;
    cfg.skipTraceback = false;
    cfg.hostOverheadCycles = 0;
    cfg.laneWidth = 8;
    cfg.dispatch = host::DispatchPolicy::Threshold;
    cfg.cacheEntries = 4096;
    return cfg;
}

struct InputInfo
{
    size_t pairs = 0;
    size_t repeated = 0;
    double cells = 0;
    size_t bytes = 0;
};

/** Write @p n seeded pairs to the query and reference FASTA files. */
InputInfo
writeInputs(const std::string &qpath, const std::string &rpath, size_t n,
            uint64_t seed)
{
    seq::Rng rng(seed);
    const double offset = rng.uniform();
    std::ofstream qf(qpath), rf(rpath);
    if (!qf || !rf)
        throw std::runtime_error("cannot write FASTA under work dir");
    InputInfo info;
    std::unordered_set<size_t> seen; // pair hashes: repeated-pair share
    for (size_t i = 0; i < n; i++) {
        const int len =
            kMinLen + static_cast<int>((kMaxLen - kMinLen + 1) *
                                       spreadFraction(i, offset));
        const auto ref = seq::randomDna(len, rng);
        const auto query = seq::mutateDna(ref, 0.04, 0.01, rng);
        const std::string q = seq::dnaToString(query);
        const std::string r = seq::dnaToString(ref);
        qf << ">q" << i << '\n' << q << '\n';
        rf << ">r" << i << '\n' << r << '\n';
        info.cells += cells(query.length(), ref.length());
        info.bytes += q.size() + r.size();
        if (!seen.insert(std::hash<std::string>{}(q + '/' + r)).second)
            info.repeated++;
    }
    info.pairs = n;
    if (!qf.flush() || !rf.flush())
        throw std::runtime_error("short write of FASTA inputs");
    return info;
}

/** One golden-checked pair. */
struct Sample
{
    Job job;
    Result result;
};

/** What one timed window measured. */
struct Window
{
    double seconds = 0;
    uint64_t pairs = 0;       //!< pairs written back
    uint64_t incomplete = 0;  //!< pairs whose ticket slot did not complete
    uint64_t submitted = 0;
    double cells = 0;
    std::vector<double> ticketMs;
    /** (completion time s, pairs) per ticket, for the steady rate. */
    std::vector<std::pair<double, double>> completions;
    double blockedSeconds = 0; //!< producer time inside collect()
    bool exhausted = false;
};

/** The streaming producer, shared by the untimed and timed windows. */
class Producer
{
  public:
    Producer(Pipeline &pipeline, Tracer &tracer, const std::string &qpath,
             const std::string &rpath, uint64_t seed)
        : _pipeline(pipeline), _tracer(tracer), _queries(qpath),
          _references(rpath), _sampleRng(seed ^ 0x5a5a5a5aULL)
    {}

    /** Stream pairs for @p seconds, then drain what is in flight. */
    Window
    run(double seconds)
    {
        Window w;
        const size_t max_pending =
            4 + static_cast<size_t>(_pipeline.threadCount());
        std::deque<Pending> pending;
        const auto start = Clock::now();
        const auto stop = start + std::chrono::duration_cast<Clock::duration>(
                                      std::chrono::duration<double>(seconds));
        Span whole(_tracer, "bench.align_window");
        bool done = false;
        while (!done) {
            std::vector<Job> jobs;
            jobs.reserve(kChunk);
            while (jobs.size() < kChunk) {
                Job job;
                if (!nextPair(job)) {
                    done = true;
                    w.exhausted = true;
                    break;
                }
                jobs.push_back(std::move(job));
            }
            if (!jobs.empty()) {
                Pending p;
                p.id = _nextTicket++;
                p.completedNs = std::make_shared<std::atomic<int64_t>>(-1);
                w.submitted += jobs.size();
                p.submitNs = _tracer.nowNs();
                {
                    Span s(_tracer, "host.submit", p.id);
                    auto done_ns = p.completedNs;
                    Tracer *tr = &_tracer;
                    p.ticket = _pipeline.submit(
                        std::move(jobs), host::TicketOptions{},
                        [done_ns, tr](host::BatchTicket<K> &) {
                            done_ns->store(tr->nowNs());
                        });
                }
                pending.push_back(std::move(p));
            }
            while (!pending.empty() &&
                   (pending.front().ticket->done() ||
                    pending.size() > max_pending)) {
                writeback(pending.front(), w);
                pending.pop_front();
            }
            if (Clock::now() >= stop)
                done = true;
        }
        while (!pending.empty()) {
            writeback(pending.front(), w);
            pending.pop_front();
        }
        w.seconds = secondsBetween(start, Clock::now());
        return w;
    }

    const std::vector<Sample> &samples() const { return _samples; }
    size_t sinkBytes() const { return _sinkBytes + _sink.size(); }
    /** Modeled cycles of the first kModelTickets tickets. */
    const host::BatchStats &modelStats() const { return _model; }
    size_t modelTickets() const { return _modelTickets; }

  private:
    struct Pending
    {
        Pipeline::Ticket ticket;
        uint64_t id = 0;
        int64_t submitNs = 0;
        std::shared_ptr<std::atomic<int64_t>> completedNs;
    };

    bool
    nextPair(Job &job)
    {
        Span s(_tracer, "seq.parse", _nextTicket);
        seq::FastaRecord q, r;
        if (!_queries.next(q) || !_references.next(r))
            return false;
        job.query = seq::dnaFromString(q.residues, q.name);
        job.reference = seq::dnaFromString(r.residues, r.name);
        return true;
    }

    void
    writeback(const Pending &p, Window &w)
    {
        host::BatchStats stats;
        {
            const auto t0 = Clock::now();
            Span s(_tracer, "host.collect", p.id);
            stats = _pipeline.collect(p.ticket);
            w.blockedSeconds += secondsBetween(t0, Clock::now());
        }
        const int64_t done_ns = p.completedNs->load();
        const uint64_t pairs_before = w.pairs;
        if (_modelTickets < kModelTickets) {
            host::accumulateBatchStats(_model, stats);
            host::finalizeBatchStats(_model, model::kernelFrequencyMhz<K>());
            _modelTickets++;
        }
        const auto &jobs = p.ticket->jobs();
        const auto &results = p.ticket->results();
        const auto &cycles = p.ticket->cycles();
        const auto &completed = p.ticket->completed();
        char line[160];
        for (size_t i = 0; i < jobs.size(); i++) {
            if (!completed[i]) {
                w.incomplete++;
                continue;
            }
            const auto &res = results[i];
            std::string cigar;
            {
                Span s(_tracer, "core.cigar", p.id);
                cigar = res.ops.empty() ? "-" : core::toCigar(res.ops);
            }
            const int n = std::snprintf(
                line, sizeof line, "%-20.20s %-20.20s %-10.0f %-12llu ",
                jobs[i].query.name.c_str(), jobs[i].reference.name.c_str(),
                res.scoreAsDouble(), (unsigned long long)cycles[i]);
            _sink.append(line, static_cast<size_t>(std::max(0, n)));
            _sink.append(cigar);
            _sink.push_back('\n');
            if (_sink.size() > (1u << 20)) {
                _sinkBytes += _sink.size();
                _sink.clear();
            }
            w.pairs++;
            w.cells += cells(jobs[i].query.length(),
                             jobs[i].reference.length());
            // Reservoir sample for the golden-model check.
            _written++;
            if (_samples.size() < kGoldenSamples) {
                _samples.push_back({jobs[i], res});
            } else {
                const uint64_t slot = _sampleRng.below(_written);
                if (slot < kGoldenSamples)
                    _samples[slot] = {jobs[i], res};
            }
        }
        if (done_ns >= 0) {
            w.ticketMs.push_back(1e-6 *
                                 static_cast<double>(done_ns - p.submitNs));
            w.completions.emplace_back(
                1e-9 * static_cast<double>(done_ns),
                static_cast<double>(w.pairs - pairs_before));
            _tracer.record("host.ticket", p.submitNs, done_ns, p.id, 0);
        }
    }

    Pipeline &_pipeline;
    Tracer &_tracer;
    seq::FastaStream _queries;
    seq::FastaStream _references;
    seq::Rng _sampleRng;
    uint64_t _nextTicket = 1;
    uint64_t _written = 0;
    std::string _sink;
    size_t _sinkBytes = 0;
    std::vector<Sample> _samples;
    host::BatchStats _model;
    size_t _modelTickets = 0;
};

/** Modeled cycles of the first kModelTickets tickets, recomputed. */
host::BatchStats
recomputeModel(const std::string &qpath, const std::string &rpath,
               int threads)
{
    Pipeline pipeline(pipelineConfig(threads));
    seq::FastaStream qs(qpath), rs(rpath);
    host::BatchStats total;
    for (size_t t = 0; t < kModelTickets; t++) {
        std::vector<Job> jobs;
        seq::FastaRecord q, r;
        while (jobs.size() < kChunk && qs.next(q) && rs.next(r)) {
            Job job;
            job.query = seq::dnaFromString(q.residues, q.name);
            job.reference = seq::dnaFromString(r.residues, r.name);
            jobs.push_back(std::move(job));
        }
        host::accumulateBatchStats(
            total, pipeline.collect(pipeline.submit(std::move(jobs))));
    }
    host::finalizeBatchStats(total, model::kernelFrequencyMhz<K>());
    return total;
}

/** One-thread LaneAligner probe on the first pairs, sorted like shards. */
double
engineSeconds(const std::vector<Job> &jobs, bool traceback, double &cells_out)
{
    sim::EngineConfig ecfg;
    ecfg.numPe = 32;
    ecfg.bandWidth = 64;
    ecfg.maxQueryLength = 4096;
    ecfg.maxReferenceLength = 4096;
    ecfg.skipTraceback = !traceback;
    sim::LaneAligner<K> lanes(ecfg);
    std::vector<const Job *> order;
    for (const auto &j : jobs)
        order.push_back(&j);
    std::sort(order.begin(), order.end(), [](const Job *a, const Job *b) {
        return a->query.length() != b->query.length()
            ? a->query.length() < b->query.length()
            : a->reference.length() < b->reference.length();
    });
    cells_out = 0;
    const auto t0 = Clock::now();
    for (size_t i = 0; i < order.size(); i += 8) {
        std::vector<sim::LaneAligner<K>::LanePair> group;
        for (size_t k = i; k < std::min(order.size(), i + 8); k++) {
            group.push_back({&order[k]->query, &order[k]->reference});
            cells_out += cells(order[k]->query.length(),
                               order[k]->reference.length());
        }
        const auto res = lanes.alignLanes(group);
        if (res.size() != group.size())
            throw std::runtime_error("alignLanes returned a short group");
    }
    return secondsBetween(t0, Clock::now());
}

} // namespace

void
runAlignBatch(const Options &opt, Tracer &tracer, Report &rep)
{
    const int cpus = onlineCpus();
    const int threads = std::max(1, cpus - 1);
    const std::string qpath = opt.workDir + "/align_query.fa";
    const std::string rpath = opt.workDir + "/align_reference.fa";

    // Enough pairs for the window at a generous rate; a run that
    // exhausts them stops early and records it.
    const size_t n_pairs = static_cast<size_t>(
        std::max(4096.0, opt.seconds * 700.0 * threads));
    const InputInfo in = writeInputs(qpath, rpath, n_pairs, opt.seed);

    // setup_s: pipeline construction, median of repeats.
    std::vector<double> setups;
    std::unique_ptr<Pipeline> pipeline;
    for (int i = 0; i < kSetupRepeats; i++) {
        pipeline.reset();
        std::this_thread::sleep_for(kSetupPause);
        const auto t0 = Clock::now();
        pipeline = std::make_unique<Pipeline>(pipelineConfig(threads));
        setups.push_back(secondsBetween(t0, Clock::now()));
    }

    Producer producer(*pipeline, tracer, qpath, rpath, opt.seed);
    Window untraced, traced;
    if (opt.trace) {
        // Same-process untraced half, then the traced half: their
        // throughput ratio is the tracing overhead.
        tracer.setEnabled(false);
        untraced = producer.run(opt.seconds / 2);
        tracer.setEnabled(true);
        traced = producer.run(opt.seconds / 2);
    } else {
        untraced = producer.run(opt.seconds);
    }
    const double rss = peakRssMb(getpid());
    const auto cache = pipeline->cacheCounters();
    const Window &w = opt.trace ? traced : untraced;

    // ---- output checks
    uint64_t failed = untraced.incomplete + traced.incomplete;
    {
        ref::MatrixAligner<K> golden(K::defaultParams(), 64);
        for (const auto &s : producer.samples()) {
            const auto g = golden.align(s.job.query, s.job.reference);
            if (g.score != s.result.score || g.ops != s.result.ops ||
                g.start.row != s.result.start.row ||
                g.start.col != s.result.start.col ||
                g.end.row != s.result.end.row ||
                g.end.col != s.result.end.col) {
                rep.fail("pair " + s.job.query.name +
                         " differs from ref::MatrixAligner");
                failed++;
            }
        }
    }
    const auto model = producer.modelStats();
    const auto again = recomputeModel(qpath, rpath, threads);
    if (producer.modelTickets() != kModelTickets ||
        again.makespanCycles != model.makespanCycles ||
        again.totalCycles != model.totalCycles) {
        rep.fail("modeled cycles of the first tickets do not repeat");
    }
    rep.attempted = untraced.submitted + traced.submitted;
    rep.failed = failed;

    // ---- end-to-end, and ticket latency (the untraced window)
    rep.set("setup_s", median(setups), "s");
    rep.set("peak_rss_mb", rss, "MB");
    rep.set("throughput_per_s", blockRate(untraced.completions, kRateBlock),
            "1/s");
    rep.set("latency_p50_ms", percentile(untraced.ticketMs, 0.5), "ms");
    rep.set("latency_p90_ms", percentile(untraced.ticketMs, 0.9), "ms");
    rep.set("latency_p99_ms", percentile(untraced.ticketMs, 0.99), "ms");

    // ---- named workload metrics (the measured window)
    const double pairs_rate = blockRate(w.completions, kRateBlock);
    const double gcups =
        w.pairs ? pairs_rate * (w.cells / w.pairs) / 1e9 : 0;
    rep.set("pairs_per_s", pairs_rate, "1/s");
    rep.set("gcups", gcups, "Gcell/s");
    rep.set("failed_share",
            rep.attempted ? static_cast<double>(rep.failed) / rep.attempted
                          : 0,
            "ratio");
    rep.set("model.makespan_cycles",
            static_cast<double>(model.makespanCycles), "cycles");
    rep.set("model.total_cycles", static_cast<double>(model.totalCycles),
            "cycles");

    // ---- per-layer (traced window)
    if (opt.trace) {
        rep.set("trace.overhead_share",
                1.0 - blockRate(traced.completions, kRateBlock) /
                          blockRate(untraced.completions, kRateBlock),
                "ratio");
        rep.set("seq.parse_s", tracer.total("seq.parse"), "s");
        std::vector<double> submit_us;
        for (const double d : tracer.durations("host.submit"))
            submit_us.push_back(1e6 * d);
        rep.set("host.submit_us.p50", percentile(submit_us, 0.5), "us");
        rep.set("host.submit_us.p99", percentile(submit_us, 0.99), "us");
        rep.set("host.ticket_ms.p50", percentile(w.ticketMs, 0.5), "ms");
        rep.set("host.ticket_ms.p99", percentile(w.ticketMs, 0.99), "ms");
        rep.set("host.producer_blocked_share", w.blockedSeconds / w.seconds,
                "ratio");
        rep.set("core.cigar_s", tracer.total("core.cigar"), "s");

        // One-thread engine probe on the first pairs of the input.
        std::vector<Job> probe;
        seq::FastaStream qs(qpath), rs(rpath);
        seq::FastaRecord q, r;
        while (static_cast<int>(probe.size()) < kEnginePairs &&
               qs.next(q) && rs.next(r)) {
            probe.push_back({seq::dnaFromString(q.residues, q.name),
                             seq::dnaFromString(r.residues, r.name)});
        }
        double probe_cells = 0;
        const double on = engineSeconds(probe, true, probe_cells);
        const double off = engineSeconds(probe, false, probe_cells);
        const double engine_gcups = probe_cells / on / 1e9;
        rep.set("systolic.engine_gcups", engine_gcups, "Gcell/s");
        rep.set("systolic.traceback_share", 1.0 - off / on, "ratio");
        rep.set("host.efficiency", gcups / (threads * engine_gcups),
                "ratio");
    }
    const uint64_t lookups = cache.hits + cache.misses;
    rep.set("host.cache_hit_ratio",
            lookups ? static_cast<double>(cache.hits) / lookups : 0,
            "ratio");
    rep.set("host.cache_lookups", static_cast<double>(lookups), "count");

    rep.note("workers", threads);
    rep.note("producer_threads", 1);
    rep.note("isa_tier", sim::isaTierName(pipeline->activeIsaTier()));
    rep.note("kernel", K::name);
    rep.note("input_pairs", static_cast<double>(in.pairs));
    rep.note("input_total_cells", in.cells);
    rep.note("input_fasta_bytes", static_cast<double>(in.bytes));
    rep.note("repeated_pair_share",
             static_cast<double>(in.repeated) / in.pairs);
    rep.note("length_distribution",
             "reference 256..2048 bp low-discrepancy uniform; query = "
             "reference with 4% substitutions + 1% indels");
    rep.note("measured_pairs", static_cast<double>(w.pairs));
    rep.note("measured_cells", w.cells);
    rep.note("measured_tickets", static_cast<double>(w.ticketMs.size()));
    rep.note("input_exhausted", w.exhausted ? "yes" : "no");
    rep.note("setup_samples", static_cast<double>(setups.size()));
    rep.note("golden_samples", static_cast<double>(producer.samples().size()));
    rep.note("model_tickets", static_cast<double>(kModelTickets));
    rep.note("writeback_bytes",
             static_cast<double>(producer.sinkBytes()));

    pipeline.reset();
    std::remove(qpath.c_str());
    std::remove(rpath.c_str());
}

} // namespace perfbench
