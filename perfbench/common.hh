/**
 * @file
 * Shared pieces of the perfbench binary: command-line options, the
 * in-memory span tracer (Chrome trace-event output), percentiles, peak
 * RSS, and the metric report each workload fills in.
 *
 * Tracing is the benchmark's own: spans wrap the calls the benchmark
 * makes into each library layer (seq, host, systolic, core, workloads,
 * serve). Nothing inside the library is instrumented. With tracing off
 * a Span is one predictable branch.
 */

#ifndef PERFBENCH_COMMON_HH
#define PERFBENCH_COMMON_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <sys/types.h>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** Seconds between two steady-clock points. */
inline double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

/** Parsed command line of one benchmark run. */
struct Options
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    std::string serveBinary; //!< built dphls_serve (serve_open only)
    std::string workDir;     //!< scratch files: FASTA, socket, trace
};

/** One reported number. */
struct Metric
{
    double value = 0;
    std::string unit;
};

/**
 * Outcome of one workload run: the output-check verdict, operation
 * counts, every metric the workload measured (the runner selects the
 * end-to-end or per-layer set), and free-form facts about the run
 * printed as a "# record" line so machines can be compared tier-matched.
 */
struct Report
{
    bool correct = true;
    uint64_t attempted = 0;
    uint64_t failed = 0;
    std::map<std::string, Metric> metrics;
    std::map<std::string, std::string> record;

    void set(const std::string &name, double value, const std::string &unit)
    {
        metrics[name] = Metric{value, unit};
    }
    void note(const std::string &key, const std::string &value)
    {
        record[key] = value;
    }
    void note(const std::string &key, double value);
    /** Record a failed output check (message goes to stderr). */
    void fail(const std::string &what);
};

/**
 * In-memory span recorder. A span holds its name, start, end, parent
 * span, and the ticket/request id it belongs to. Spans opened on one
 * thread nest through a thread-local parent pointer.
 */
class Tracer
{
  public:
    struct SpanRec
    {
        const char *name = "";
        int64_t startNs = 0;
        int64_t endNs = 0;
        int64_t parent = -1; //!< index of the enclosing span, -1 = root
        uint64_t id = 0;     //!< ticket / request / read id
        uint32_t tid = 0;
    };

    explicit Tracer(bool enabled) : _enabled(enabled) {}

    bool enabled() const { return _enabled.load(std::memory_order_relaxed); }
    void setEnabled(bool on) { _enabled.store(on); }

    /** Nanoseconds since the tracer's epoch. */
    int64_t nowNs() const;
    int64_t toNs(Clock::time_point t) const;

    /** Open a span on this thread; returns its index (-1 when off). */
    int64_t open(const char *name, uint64_t id);
    /** Close span @p idx (opened on this thread). */
    void close(int64_t idx);
    /** Record a finished span measured elsewhere (root span). */
    void record(const char *name, int64_t start_ns, int64_t end_ns,
                uint64_t id, uint32_t tid);

    /** Durations (seconds) of every span called @p name. */
    std::vector<double> durations(const std::string &name) const;
    /** Sum of durations (seconds) of spans called @p name. */
    double total(const std::string &name) const;
    /** Self time (span minus its children) summed per span name. */
    std::map<std::string, double> selfSeconds() const;
    size_t size() const
    {
        std::lock_guard<std::mutex> lk(_mutex);
        return _spans.size();
    }

    /** Write Chrome trace-event JSON (Perfetto opens it). */
    bool writeChrome(const std::string &path) const;

  private:
    std::atomic<bool> _enabled;
    Clock::time_point _epoch = Clock::now();
    mutable std::mutex _mutex;
    std::vector<SpanRec> _spans;
};

/** RAII span: no-op when the tracer is off. */
class Span
{
  public:
    Span(Tracer &t, const char *name, uint64_t id = 0)
        : _t(t), _idx(t.enabled() ? t.open(name, id) : -1)
    {}
    ~Span()
    {
        if (_idx >= 0)
            _t.close(_idx);
    }
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    Tracer &_t;
    int64_t _idx;
};

/** Percentile by linear interpolation (@p p in [0,1]); 0 when empty. */
double percentile(std::vector<double> v, double p);
double median(std::vector<double> v);

/**
 * Rate samples from completion events (time in seconds, work done):
 * for every run of @p block consecutive events, the work they complete
 * divided by the time they span. Empty when there are not more than
 * @p block events.
 */
std::vector<double> blockRates(std::vector<std::pair<double, double>> events,
                               size_t block);

/**
 * Steady-state rate: the median of blockRates(). Ramp-up before the
 * first event and a drain tail do not enter, and a transient stall
 * moves only the few runs it overlaps. 0 when there are no samples.
 */
double blockRate(std::vector<std::pair<double, double>> events, size_t block);

/** Peak resident set (VmHWM) of @p pid in MB; 0 when unreadable. */
double peakRssMb(pid_t pid);
/** Number of online processors. */
int onlineCpus();

/** Cells of a DP matrix, as a double. */
inline double
cells(int qlen, int rlen)
{
    return static_cast<double>(qlen) * static_cast<double>(rlen);
}

/**
 * Low-discrepancy fraction for item @p i (golden-ratio sequence from a
 * seeded offset): any prefix of items covers [0,1) almost evenly, so a
 * time-bounded run sees the same length mix whatever the seed.
 */
double spreadFraction(uint64_t i, double offset);

/** The workloads; each throws std::runtime_error when it cannot run. */
void runAlignBatch(const Options &opt, Tracer &tracer, Report &report);
void runServeOpen(const Options &opt, Tracer &tracer, Report &report);

/**
 * The long-read phase of align_batch's traced run (map_long.cc): maps
 * reads for @p seconds and sets the `workloads`, tiling and tile-engine
 * per-layer metrics in @p report.
 */
void runLongReads(uint64_t seed, double seconds, Tracer &tracer,
                  Report &report);

} // namespace perfbench

#endif // PERFBENCH_COMMON_HH
