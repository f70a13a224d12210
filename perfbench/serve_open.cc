/**
 * @file
 * serve_open: open-loop Poisson traffic against the built dphls_serve
 * daemon over its Unix socket.
 *
 * One client drives two classes, each on its own connection, with one
 * sender and one receiver thread:
 *  - interactive: single global-affine pairs of 32..256 bp, each with a
 *    deadline equal to the SLO;
 *  - bulk: 32-pair requests at a tenth of the interactive rate.
 * The offered interactive rate steps through a fixed ladder; the first
 * three rungs are the named rates low / mid / high, the last sits
 * above the knee. Every request is generated and encoded before the
 * window opens, and latency runs from the request's due time, so a
 * stalled daemon or a late sender shows up in the numbers. A refused,
 * failed or unanswered request counts as missing the SLO.
 *
 * Before the ladder, a closed-loop probe keeps a few interactive
 * single-pair requests with the SLO deadline in flight and measures the
 * daemon's serving capacity (throughput_per_s).
 *
 * The daemon runs at its defaults except --kernel global-affine and
 * --threads nproc - 2 (the client's two threads take the rest).
 */

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <poll.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include "common.hh"
#include "kernels/global_affine.hh"
#include "reference/matrix_aligner.hh"
#include "seq/random.hh"
#include "serve/socket_io.hh"

extern char **environ;

namespace perfbench {

namespace {

using namespace dphls;

/**
 * Interactive offered rates (requests/s); bulk runs at a tenth. The
 * first three are the named rates; the last is the overload rung,
 * well above the knee (about 20k pairs/s on 2 daemon workers).
 */
constexpr double kLadder[] = {400, 1200, 2400, 9600};
constexpr size_t kRungs = sizeof kLadder / sizeof kLadder[0];
constexpr size_t kOver = kRungs - 1;
constexpr const char *kNamed[] = {"low", "mid", "high"};
constexpr double kOverSeconds = 2.0;
/**
 * Closed-loop capacity probe: interactive single-pair requests kept
 * kSatWindow in flight on one connection, cycling over kSatPool
 * distinct pairs (the daemon runs without a result cache), in two
 * segments of kSatSegmentSeconds, one before the ladder and one after,
 * so the rate samples span the run. Open-loop overload answers swing
 * with admission and client contention; a closed loop measures the
 * serving capacity steadily.
 */
constexpr double kSatSegmentSeconds = 6.0;
constexpr int kSatWindow = 16;
constexpr size_t kSatPool = 1024;
constexpr size_t kSatBlock = 256; //!< answers per capacity sample
constexpr double kSloMs = 25.0;
constexpr int kBulkPairs = 32;
constexpr int kMinLen = 32;
constexpr int kMaxLen = 256;
constexpr int kSetupRepeats = 41;
constexpr size_t kGoldenSamples = 48;
/** A missed request's latency: far above any SLO, finite for JSON. */
constexpr double kMissedMs = 1e6;
constexpr double kDrainSeconds = 20.0;
constexpr double kRungGapSeconds = 0.2;

/** A spawned dphls_serve; stopped and reaped on destruction. */
class Daemon
{
  public:
    Daemon(const std::string &binary, const std::string &socket_path,
           int threads)
        : _socket(socket_path)
    {
        int out[2];
        if (pipe(out) != 0)
            throw std::runtime_error("pipe failed");
        posix_spawn_file_actions_t fa;
        posix_spawn_file_actions_init(&fa);
        posix_spawn_file_actions_adddup2(&fa, out[1], STDOUT_FILENO);
        posix_spawn_file_actions_addclose(&fa, out[0]);
        posix_spawn_file_actions_addclose(&fa, out[1]);
        const std::string th = std::to_string(threads);
        const char *argv[] = {binary.c_str(), "--socket",
                              socket_path.c_str(), "--kernel",
                              "global-affine", "--threads", th.c_str(),
                              nullptr};
        const int rc = posix_spawn(&_pid, binary.c_str(), &fa, nullptr,
                                   const_cast<char **>(argv), environ);
        posix_spawn_file_actions_destroy(&fa);
        close(out[1]);
        _stdout = serve::Fd(out[0]);
        if (rc != 0) {
            _pid = -1;
            throw std::runtime_error("cannot spawn " + binary + ": " +
                                     std::strerror(rc));
        }
        // The daemon prints its banner after the socket is listening.
        char c = 0;
        for (;;) {
            const ssize_t n = read(_stdout.get(), &c, 1);
            if (n <= 0)
                throw std::runtime_error("dphls_serve exited at start-up");
            if (c == '\n')
                break;
        }
    }

    ~Daemon() { stop(); }
    Daemon(const Daemon &) = delete;
    Daemon &operator=(const Daemon &) = delete;

    pid_t pid() const { return _pid; }

    /** Reap after a Shutdown; returns the exit status (-1 = signalled). */
    int
    wait()
    {
        if (_pid < 0)
            return _status;
        int st = 0;
        while (waitpid(_pid, &st, 0) < 0 && errno == EINTR) {
        }
        _pid = -1;
        _status = WIFEXITED(st) ? WEXITSTATUS(st) : -1;
        return _status;
    }

    /** Terminate (if still running) and reap. */
    void
    stop()
    {
        if (_pid < 0)
            return;
        kill(_pid, SIGTERM);
        // A Unix listener only wakes on shutdown(); connect once so the
        // accept loop observes the stop flag.
        serve::unixConnect(_socket);
        wait();
    }

  private:
    std::string _socket;
    pid_t _pid = -1;
    int _status = 0;
    serve::Fd _stdout;
};

/** Blocking request/response on one connection (set-up and stats). */
serve::Frame
roundTrip(int fd, serve::MsgType type, uint64_t rid,
          const std::vector<uint8_t> &payload, serve::MsgType expect)
{
    if (!serve::writeFrame(fd, type, rid, payload))
        throw std::runtime_error("write to dphls_serve failed");
    serve::Frame f;
    std::string err;
    if (!serve::readFrame(fd, f, &err) || f.type() != expect ||
        f.requestId() != rid)
        throw std::runtime_error("unexpected reply from dphls_serve " + err);
    return f;
}

serve::Fd
connectHello(const std::string &socket_path)
{
    serve::Fd fd = serve::unixConnect(socket_path);
    if (!fd.valid())
        throw std::runtime_error("cannot connect to " + socket_path);
    const auto f = roundTrip(fd.get(), serve::MsgType::Hello, 0,
                             serve::encodeHello("global-affine"),
                             serve::MsgType::HelloOk);
    serve::decodeHelloOk(f);
    return fd;
}

enum class Outcome : uint8_t
{
    Pending,
    Ok,
    RefusedDeadline,
    RefusedQuota,
    RefusedOther,
    Error
};

bool
isRefusal(Outcome o)
{
    return o == Outcome::RefusedDeadline || o == Outcome::RefusedQuota ||
           o == Outcome::RefusedOther;
}

/** One pre-built request and what became of it. */
struct Request
{
    size_t rung = 0;
    bool interactive = true;
    int pairs = 1;
    int64_t dueNs = 0;  //!< relative to the window start
    int64_t sentNs = -1;
    int64_t doneNs = -1;
    Outcome outcome = Outcome::Pending;
    bool sampled = false;
    double cells = 0;
    std::vector<uint8_t> payload; //!< encoded Align body
    std::vector<serve::WireJob> jobs; //!< kept for sampled requests only
    serve::AlignResponse response;    //!< kept for sampled requests only
};

/** Everything one ladder pass produced. */
struct Pass
{
    std::vector<Request> requests;
    Clock::time_point start;
    std::vector<double> rungStart, rungEnd; //!< seconds from start
    uint64_t protocolErrors = 0;
};

/** Exponential gap for rate @p per_sec. */
double
expGap(seq::Rng &rng, double per_sec)
{
    double u = rng.uniform();
    if (u < 1e-12)
        u = 1e-12;
    return -std::log(u) / per_sec;
}

std::vector<uint8_t>
randomCodes(seq::Rng &rng)
{
    std::vector<uint8_t> c(static_cast<size_t>(rng.range(kMinLen, kMaxLen)));
    for (auto &x : c)
        x = static_cast<uint8_t>(rng.below(4));
    return c;
}

seq::DnaSequence
dnaOf(const std::vector<uint8_t> &codes)
{
    seq::DnaSequence d;
    for (const uint8_t c : codes)
        d.chars.push_back(seq::DnaChar{c});
    return d;
}

/** Generate and encode every request of one ladder pass. */
Pass
buildPass(uint64_t seed, double named_seconds, Tracer &tracer)
{
    Pass pass;
    seq::Rng rng(seed);
    double t0 = 0;
    for (size_t r = 0; r < kRungs; r++) {
        const double t1 = t0 + (r == kOver ? kOverSeconds : named_seconds);
        pass.rungStart.push_back(t0);
        pass.rungEnd.push_back(t1);
        struct Due
        {
            double t;
            bool interactive;
        };
        std::vector<Due> due;
        for (double t = t0 + expGap(rng, kLadder[r]); t < t1;
             t += expGap(rng, kLadder[r]))
            due.push_back({t, true});
        for (double t = t0 + expGap(rng, kLadder[r] / 10); t < t1;
             t += expGap(rng, kLadder[r] / 10))
            due.push_back({t, false});
        std::sort(due.begin(), due.end(),
                  [](const Due &a, const Due &b) { return a.t < b.t; });
        for (const auto &d : due) {
            serve::AlignRequest req;
            req.trafficClass = d.interactive
                ? serve::TrafficClass::Interactive
                : serve::TrafficClass::Bulk;
            req.deadlineMicros =
                d.interactive ? static_cast<uint64_t>(kSloMs * 1e3) : 0;
            req.tenant = d.interactive ? "interactive" : "bulk";
            Request out;
            out.rung = r;
            out.interactive = d.interactive;
            out.pairs = d.interactive ? 1 : kBulkPairs;
            out.dueNs = static_cast<int64_t>(d.t * 1e9);
            for (int p = 0; p < out.pairs; p++) {
                serve::WireJob job;
                job.query = randomCodes(rng);
                job.reference = randomCodes(rng);
                out.cells += cells(static_cast<int>(job.query.size()),
                                   static_cast<int>(job.reference.size()));
                req.jobs.push_back(std::move(job));
            }
            {
                Span s(tracer, "serve.encode", pass.requests.size() + 1);
                out.payload = serve::encodeAlignRequest(req);
            }
            out.sampled = rng.chance(1.0 / 64);
            if (out.sampled)
                out.jobs = std::move(req.jobs);
            pass.requests.push_back(std::move(out));
        }
        t0 = t1 + kRungGapSeconds;
    }
    return pass;
}

/**
 * Send every request on schedule and collect every reply. The daemon's
 * peak RSS is read as the overload rung starts, so it reflects the
 * named rates, not the overload backlog.
 */
void
runPass(Pass &pass, int int_fd, int bulk_fd, Tracer &tracer, pid_t daemon,
        double &rss_mb)
{
    auto &reqs = pass.requests;
    std::atomic<size_t> sent{0};
    std::atomic<bool> send_failed{false};
    pass.start = Clock::now() + std::chrono::milliseconds(20);
    const auto ns_since = [&](Clock::time_point t) {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(
                   t - pass.start)
            .count();
    };

    std::thread sender([&] {
        for (size_t i = 0; i < reqs.size(); i++) {
            auto &r = reqs[i];
            std::this_thread::sleep_until(pass.start +
                                          std::chrono::nanoseconds(r.dueNs));
            bool ok = false;
            {
                Span s(tracer, "serve.send", i + 1);
                r.sentNs = ns_since(Clock::now());
                ok = serve::writeFrame(r.interactive ? int_fd : bulk_fd,
                                       serve::MsgType::Align, i + 1,
                                       r.payload);
            }
            if (!ok) {
                send_failed = true;
                break;
            }
            sent.store(i + 1, std::memory_order_release);
        }
    });

    // Receiver (this thread): poll both connections until every sent
    // request is answered or the drain budget runs out.
    const int64_t last_due = reqs.empty() ? 0 : reqs.back().dueNs;
    const int64_t give_up =
        last_due + static_cast<int64_t>(kDrainSeconds * 1e9);
    const int64_t over_start =
        static_cast<int64_t>(pass.rungStart[kOver] * 1e9);
    bool rss_read = false;
    size_t answered = 0;
    pollfd fds[2] = {{int_fd, POLLIN, 0}, {bulk_fd, POLLIN, 0}};
    while (true) {
        if (!rss_read && ns_since(Clock::now()) >= over_start) {
            rss_mb = peakRssMb(daemon);
            rss_read = true;
        }
        const size_t s = sent.load(std::memory_order_acquire);
        if ((s == reqs.size() || send_failed) && answered >= s)
            break;
        if (ns_since(Clock::now()) > give_up)
            break;
        const int n = poll(fds, 2, 50);
        if (n < 0 && errno != EINTR)
            break;
        for (auto &p : fds) {
            if (n <= 0 || !(p.revents & (POLLIN | POLLHUP | POLLERR)))
                continue;
            serve::Frame f;
            if (!serve::readFrame(p.fd, f)) {
                pass.protocolErrors++;
                p.fd = -1; // poll ignores negative descriptors
                continue;
            }
            const int64_t now = ns_since(Clock::now());
            const uint64_t rid = f.requestId();
            if (rid == 0 || rid > reqs.size() ||
                reqs[rid - 1].outcome != Outcome::Pending) {
                pass.protocolErrors++;
                continue;
            }
            auto &r = reqs[rid - 1];
            r.doneNs = now;
            answered++;
            try {
                if (f.type() == serve::MsgType::AlignOk) {
                    Span sp(tracer, "serve.decode", rid);
                    auto res = serve::decodeAlignResponse(f);
                    r.outcome = Outcome::Ok;
                    if (res.results.size() != static_cast<size_t>(r.pairs))
                        r.outcome = Outcome::Error;
                    for (const auto &jr : res.results)
                        if (!jr.completed)
                            r.outcome = Outcome::Error;
                    if (r.sampled)
                        r.response = std::move(res);
                } else if (f.type() == serve::MsgType::Reject) {
                    const auto info = serve::decodeReject(f);
                    r.outcome =
                        info.reason == serve::RejectReason::DeadlineUnmeetable
                        ? Outcome::RefusedDeadline
                        : info.reason == serve::RejectReason::QuotaExceeded
                        ? Outcome::RefusedQuota
                        : Outcome::RefusedOther;
                } else {
                    r.outcome = Outcome::Error;
                    pass.protocolErrors++;
                }
            } catch (const serve::ProtocolError &) {
                r.outcome = Outcome::Error;
                pass.protocolErrors++;
            }
        }
    }
    sender.join();
    if (send_failed)
        pass.protocolErrors++;
    if (!rss_read)
        rss_mb = peakRssMb(daemon);
}

/** What the closed-loop capacity probe saw, over all its segments. */
struct Saturation
{
    std::vector<double> rates; //!< answered pairs/s, one per block
    uint64_t sent = 0, failed = 0;
    uint64_t answeredOk = 0; //!< completed pairs as the daemon counts them
    size_t goldenChecked = 0;
};

/**
 * One capacity-probe segment: keep kSatWindow interactive single-pair
 * requests, each carrying the SLO deadline, in flight for
 * kSatSegmentSeconds, and add the answered-pairs rate of every
 * kSatBlock answers to @p sat. Every answer goes through decode,
 * admission, reservation and a ticket of its own. Requests are
 * generated before the segment starts; its first answers are checked
 * against @p golden after it ends.
 */
void
saturate(int fd, uint64_t seed, Saturation &sat, Report &rep,
         const ref::MatrixAligner<kernels::GlobalAffine> &golden)
{
    seq::Rng rng(seed);
    std::vector<serve::WireJob> jobs(kSatPool);
    std::vector<std::vector<uint8_t>> payloads(kSatPool);
    for (size_t i = 0; i < kSatPool; i++) {
        serve::AlignRequest req;
        req.trafficClass = serve::TrafficClass::Interactive;
        req.deadlineMicros = static_cast<uint64_t>(kSloMs * 1e3);
        req.tenant = "interactive";
        jobs[i] = {randomCodes(rng), randomCodes(rng)};
        req.jobs.push_back(jobs[i]);
        payloads[i] = serve::encodeAlignRequest(req);
    }
    // Request ids stay clear of the ladder's and of earlier segments'.
    const uint64_t first_rid = (uint64_t{1} << 30) + sat.sent;
    uint64_t sent = 0;
    const auto send = [&] {
        if (!serve::writeFrame(fd, serve::MsgType::Align, first_rid + sent,
                               payloads[sent % kSatPool]))
            throw std::runtime_error("write to dphls_serve failed");
        sent++;
    };
    const auto start = Clock::now();
    const auto stop =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(kSatSegmentSeconds));
    std::vector<std::pair<double, double>> answers;
    std::vector<std::pair<uint64_t, serve::AlignResponse>> samples;
    for (int i = 0; i < kSatWindow; i++)
        send();
    for (uint64_t answered = 0; answered < sent; answered++) {
        serve::Frame f;
        if (!serve::readFrame(fd, f))
            throw std::runtime_error("dphls_serve closed the connection");
        const auto now = Clock::now();
        const uint64_t n = f.requestId() - first_rid;
        bool ok = f.type() == serve::MsgType::AlignOk && n < sent;
        if (ok) {
            auto res = serve::decodeAlignResponse(f);
            ok = res.results.size() == 1 && res.results[0].completed;
            sat.answeredOk += ok ? 1 : 0;
            if (ok && n < kGoldenSamples)
                samples.emplace_back(n, std::move(res));
        }
        if (!ok)
            sat.failed++;
        answers.emplace_back(secondsBetween(start, now), ok ? 1.0 : 0.0);
        if (now < stop)
            send();
    }
    sat.sent += sent;
    const auto rates = blockRates(std::move(answers), kSatBlock);
    sat.rates.insert(sat.rates.end(), rates.begin(), rates.end());
    for (const auto &[n, res] : samples) {
        const auto &job = jobs[n % kSatPool];
        const auto g = golden.align(dnaOf(job.query), dnaOf(job.reference));
        if (res.results[0].score != g.scoreAsDouble() ||
            serve::decodeRuns(res.results[0].runs) != g.ops) {
            rep.fail("capacity probe result differs from ref::MatrixAligner");
            sat.failed++;
        }
        sat.goldenChecked++;
    }
}

/** Per-rung latency summary. */
struct RungStats
{
    std::vector<double> interactiveMs; //!< misses at kMissedMs
    std::vector<double> bulkMs;
    uint64_t refused = 0, failed = 0, backlogEnd = 0;
};

RungStats
rungStats(const Pass &pass, size_t rung)
{
    RungStats st;
    const int64_t end = static_cast<int64_t>(pass.rungEnd[rung] * 1e9);
    for (const auto &r : pass.requests) {
        if (r.dueNs < end && (r.doneNs < 0 || r.doneNs > end))
            st.backlogEnd++;
        if (r.rung != rung)
            continue;
        const bool ok = r.outcome == Outcome::Ok;
        if (isRefusal(r.outcome))
            st.refused++;
        else if (!ok)
            st.failed++;
        const double ms = ok ? 1e-6 * static_cast<double>(r.doneNs - r.dueNs)
                             : kMissedMs;
        (r.interactive ? st.interactiveMs : st.bulkMs).push_back(ms);
    }
    return st;
}

} // namespace

void
runServeOpen(const Options &opt, Tracer &tracer, Report &rep)
{
    if (opt.serveBinary.empty())
        throw std::runtime_error("serve_open needs --serve-bin");
    const int cpus = onlineCpus();
    const int threads = std::max(1, cpus - 2);
    const std::string sock =
        opt.workDir + "/serve-" + std::to_string(getpid()) + ".sock";

    // setup_s: spawn -> first HelloOk, median of repeats; the last
    // daemon serves the run.
    std::vector<double> setups;
    std::unique_ptr<Daemon> daemon;
    serve::Fd conn, bulk_conn;
    for (int i = 0; i < kSetupRepeats; i++) {
        if (daemon) {
            roundTrip(conn.get(), serve::MsgType::Shutdown, 1, {},
                      serve::MsgType::ShutdownOk);
            conn.reset();
            if (daemon->wait() != 0)
                throw std::runtime_error("dphls_serve set-up exit != 0");
        }
        const auto t0 = Clock::now();
        daemon = std::make_unique<Daemon>(opt.serveBinary, sock, threads);
        conn = connectHello(sock);
        setups.push_back(secondsBetween(t0, Clock::now()));
    }
    bulk_conn = connectHello(sock);

    // The traced run splits the time into an untraced and a traced
    // pass; their latency ratio is the tracing overhead.
    const int passes = opt.trace ? 2 : 1;
    const double probe_seconds = 2 * kSatSegmentSeconds;
    const double rung_seconds = std::max(
        0.2, ((opt.seconds - probe_seconds) / passes - kOverSeconds) / kOver -
                 kRungGapSeconds);
    tracer.setEnabled(false);
    ref::MatrixAligner<kernels::GlobalAffine> golden;
    Saturation sat;
    saturate(conn.get(), opt.seed * 7919 + 7, sat, rep, golden);
    std::vector<Pass> runs;
    double rss = 0, traced_rss = 0; // the untraced pass's is reported
    for (int p = 0; p < passes; p++) {
        const bool traced = opt.trace && p == passes - 1;
        tracer.setEnabled(traced);
        runs.push_back(buildPass(opt.seed * 7919 + p, rung_seconds, tracer));
        runPass(runs.back(), conn.get(), bulk_conn.get(), tracer,
                daemon->pid(), p == 0 ? rss : traced_rss);
    }

    tracer.setEnabled(false);
    saturate(conn.get(), opt.seed * 7919 + 8, sat, rep, golden);

    // Stats: closed accounting and the daemon-side refusal counters.
    const auto sf = roundTrip(conn.get(), serve::MsgType::Stats, 1, {},
                              serve::MsgType::StatsOk);
    const serve::ServeStats stats = serve::decodeStats(sf);
    roundTrip(conn.get(), serve::MsgType::Shutdown, 2, {},
              serve::MsgType::ShutdownOk);
    conn.reset();
    bulk_conn.reset();
    const int exit_status = daemon->wait();

    // ---- checks
    // A refusal at a named rate is a failed request; at the overload
    // rung it is the designed load shedding and counts against
    // capacity_rps and serve.refused_share instead.
    uint64_t attempted = sat.sent, failed = sat.failed, protocol = 0,
             ok_jobs = sat.answeredOk, over_refused = 0;
    size_t golden_checked = 0;
    for (const auto &pass : runs) {
        protocol += pass.protocolErrors;
        for (const auto &r : pass.requests) {
            attempted++;
            if (r.outcome == Outcome::Ok)
                ok_jobs += static_cast<uint64_t>(r.pairs);
            else if (isRefusal(r.outcome) && r.rung == kOver)
                over_refused++;
            else
                failed++;
            if (!r.sampled || r.outcome != Outcome::Ok ||
                golden_checked >= kGoldenSamples)
                continue;
            golden_checked++;
            for (size_t j = 0; j < r.jobs.size(); j++) {
                const auto g = golden.align(dnaOf(r.jobs[j].query),
                                            dnaOf(r.jobs[j].reference));
                const auto &got = r.response.results[j];
                if (got.score != g.scoreAsDouble() ||
                    serve::decodeRuns(got.runs) != g.ops) {
                    rep.fail("serve result differs from ref::MatrixAligner");
                    failed++;
                }
            }
        }
    }
    if (protocol > 0)
        rep.fail(std::to_string(protocol) + " protocol error(s)");
    if (!stats.accountingClosed)
        rep.fail("daemon accounting not closed");
    if (stats.acceptedRequests + stats.rejectedRequests() != attempted)
        rep.fail("daemon saw " +
                 std::to_string(stats.acceptedRequests +
                                stats.rejectedRequests()) +
                 " requests, client sent " + std::to_string(attempted));
    if (stats.completedJobs != ok_jobs)
        rep.fail("daemon completed " + std::to_string(stats.completedJobs) +
                 " jobs, client received " + std::to_string(ok_jobs));
    if (exit_status != 0)
        rep.fail("dphls_serve exited with status " +
                 std::to_string(exit_status));
    if (golden_checked == 0 || sat.goldenChecked == 0)
        rep.fail("no sampled response to check");
    rep.attempted = attempted;
    rep.failed = failed;

    // ---- metrics: the untraced pass is runs[0]
    const auto summarize = [&](const Pass &pass, const char *prefix) {
        double capacity = 0;
        std::vector<RungStats> rs;
        for (size_t r = 0; r < kRungs; r++) {
            rs.push_back(rungStats(pass, r));
            const auto &s = rs.back();
            const double offered = kLadder[r] * 1.1;
            const bool backlog_ok =
                static_cast<double>(s.backlogEnd) <=
                std::max(8.0, 2.0 * offered * kSloMs * 1e-3);
            if (percentile(s.interactiveMs, 0.99) <= kSloMs &&
                s.refused == 0 && s.failed == 0 && backlog_ok)
                capacity = kLadder[r];
        }
        for (size_t r = 0; r < kOver; r++) {
            const std::string n = kNamed[r];
            rep.set(std::string(prefix) + "interactive_p50_ms." + n,
                    percentile(rs[r].interactiveMs, 0.5), "ms");
            rep.set(std::string(prefix) + "interactive_p99_ms." + n,
                    percentile(rs[r].interactiveMs, 0.99), "ms");
            rep.set(std::string(prefix) + "bulk_p99_ms." + n,
                    percentile(rs[r].bulkMs, 0.99), "ms");
        }
        rep.set(std::string(prefix) + "capacity_rps", capacity, "1/s");
        return rs;
    };
    // Interactive latency pooled over the named rates.
    const auto pooled = [](const std::vector<RungStats> &rs) {
        std::vector<double> ms;
        for (size_t r = 0; r < kOver; r++)
            ms.insert(ms.end(), rs[r].interactiveMs.begin(),
                      rs[r].interactiveMs.end());
        return ms;
    };
    const auto base = summarize(runs[0], "");
    const auto base_ms = pooled(base);
    rep.set("setup_s", median(setups), "s");
    rep.set("peak_rss_mb", rss, "MB");
    rep.set("throughput_per_s", median(sat.rates), "1/s");
    rep.set("latency_p50_ms", percentile(base_ms, 0.5), "ms");
    rep.set("latency_p90_ms", percentile(base_ms, 0.9), "ms");
    rep.set("latency_p99_ms", percentile(base_ms, 0.99), "ms");
    rep.set("failed_share",
            attempted ? static_cast<double>(failed) / attempted : 0, "ratio");

    const Pass &measured = runs.back();
    if (opt.trace) {
        const auto traced = summarize(measured, "traced.");
        rep.set("trace.overhead_share",
                percentile(pooled(traced), 0.5) / percentile(base_ms, 0.5) -
                    1.0,
                "ratio");
        // The named workload metrics come from the traced pass.
        for (const auto &[k, m] : std::map<std::string, Metric>(rep.metrics)) {
            if (k.rfind("traced.", 0) == 0) {
                rep.metrics[k.substr(7)] = m;
                rep.metrics.erase(k);
            }
        }
        std::vector<double> enc_us, dec_us;
        for (const double d : tracer.durations("serve.encode"))
            enc_us.push_back(1e6 * d);
        for (const double d : tracer.durations("serve.decode"))
            dec_us.push_back(1e6 * d);
        rep.set("serve.encode_us", median(enc_us), "us");
        rep.set("serve.decode_us", median(dec_us), "us");
    }
    const double req_total =
        static_cast<double>(stats.acceptedRequests + stats.rejectedRequests());
    rep.set("serve.refused_share.deadline",
            req_total > 0 ? stats.rejectedDeadline / req_total : 0, "ratio");
    rep.set("serve.refused_share.quota",
            req_total > 0 ? stats.rejectedQuota / req_total : 0, "ratio");
    rep.set("serve.refused_share.other",
            req_total > 0 ? (stats.rejectedUndispatchable +
                             stats.rejectedMalformed) /
                                req_total
                          : 0,
            "ratio");
    rep.set("serve.deadline_miss_share",
            stats.completedJobs > 0
                ? static_cast<double>(stats.deadlineMissJobs) /
                      stats.completedJobs
                : 0,
            "ratio");
    {
        // Backlog when the measured pass's send window closed.
        const auto &reqs = measured.requests;
        const int64_t close = reqs.empty() ? 0 : reqs.back().sentNs;
        uint64_t backlog = 0;
        std::vector<double> late_ms;
        for (const auto &r : reqs) {
            if (r.doneNs < 0 || r.doneNs > close)
                backlog++;
            if (r.sentNs >= 0)
                late_ms.push_back(1e-6 * static_cast<double>(r.sentNs - r.dueNs));
        }
        rep.set("serve.backlog_end", static_cast<double>(backlog), "count");
        rep.set("serve.generator_late_ms.p99", percentile(late_ms, 0.99),
                "ms");
    }

    std::string ladder;
    for (size_t r = 0; r < kRungs; r++)
        ladder += (r ? "," : "") + std::to_string(static_cast<int>(kLadder[r]));
    rep.note("ladder_interactive_rps", ladder);
    rep.note("named_rates", "low,mid,high = first three rungs; last = "
                            "overload");
    rep.note("bulk", "32-pair requests at 1/10 of the interactive rate");
    rep.note("slo_ms", kSloMs);
    rep.note("rung_seconds", rung_seconds);
    rep.note("pair_lengths", "32..256 bp uniform random codes");
    rep.note("requests_sent", static_cast<double>(attempted));
    rep.note("overload_refused", static_cast<double>(over_refused));
    rep.note("overload_seconds", kOverSeconds);
    rep.note("capacity_probe", "closed loop, " + std::to_string(kSatWindow) +
                                   " interactive single pairs in flight, "
                                   "SLO deadline");
    rep.note("capacity_probe_seconds", probe_seconds);
    rep.note("capacity_probe_requests", static_cast<double>(sat.sent));
    rep.note("interactive_samples", static_cast<double>(base_ms.size()));
    rep.note("golden_checked_requests",
             static_cast<double>(golden_checked + sat.goldenChecked));
    rep.note("daemon_threads", threads);
    rep.note("client_threads", 2);
    rep.note("isa_tier", stats.isaTier);
    rep.note("daemon_accepted", static_cast<double>(stats.acceptedRequests));
    rep.note("daemon_completed_jobs", static_cast<double>(stats.completedJobs));
    rep.note("setup_samples", kSetupRepeats);
    rep.note("repeated_pair_share", 0.0);
    double total_cells = 0;
    for (const auto &pass : runs)
        for (const auto &r : pass.requests)
            total_cells += r.cells;
    rep.note("total_cells", total_cells);
}

} // namespace perfbench
