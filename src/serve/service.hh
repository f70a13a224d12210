/**
 * @file
 * Transport-independent request handling of the dphls_serve daemon.
 *
 * AlignService owns one StreamPipeline and turns decoded protocol
 * frames into pipeline operations: Align requests pass quota, then
 * deadline admission (serve/admission.hh over
 * StreamPipeline::reserveCompletion — the reservation books the
 * request's routed work into the backlog atomically with the estimate,
 * so concurrent sessions cannot double-book the same free slot; the
 * booking commits on submit and releases on reject), then submit with
 * the traffic class mapped onto a ticket priority; responses are
 * produced by the ticket's completion callback through a
 * caller-supplied sink, so they naturally arrive in completion order,
 * not submission order.
 *
 * The service is transport-agnostic on purpose: tools/dphls_serve.cc
 * drives it from Unix-socket session threads, tests/test_serve.cc
 * drives it directly with in-memory frames and a vector-of-frames sink
 * — admission, quota, accounting and encode/decode are all covered
 * without a socket in the loop.
 *
 * Thread-safety: handleFrame() may be called concurrently from any
 * number of session threads. The sink passed with each frame must be
 * callable from a worker thread (completion callbacks run there) and
 * from the calling thread itself (rejects and empty batches respond
 * synchronously), and must serialize its own writes.
 */

#ifndef DPHLS_SERVE_SERVICE_HH
#define DPHLS_SERVE_SERVICE_HH

#include <atomic>
#include <functional>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "host/check.hh"
#include "host/stream_pipeline.hh"
#include "serve/admission.hh"
#include "systolic/isa_tier.hh"
#include "serve/protocol.hh"
#include "serve/quota.hh"

namespace dphls::serve {

/** Service-level knobs on top of the pipeline's BatchConfig. */
struct ServiceConfig
{
    AdmissionPolicy admission{};
    /** Per-tenant in-flight job cap; 0 disables quotas. */
    uint64_t maxInFlightJobsPerTenant = 0;
    /** Ticket priority of TrafficClass::Interactive (bulk is 0). */
    int interactivePriority = 10;
    /**
     * Ticket priority of TrafficClass::Realtime (streaming basecaller
     * chunks, mapper extensions with deadlines): above Interactive so
     * per-chunk latency holds under an interactive burst.
     */
    int realtimePriority = 20;
    /** Jobs per Align request above which the request is malformed. */
    uint32_t maxJobsPerRequest = 1u << 16;
    /**
     * Extra accepted kernel name in Hello checks (the CLI spelling,
     * e.g. "global-affine", vs K::name's display spelling).
     */
    std::string kernelAlias;
};

/**
 * Protocol front-end over a StreamPipeline running kernel @p K
 * (sequence kernels only: K::CharT must be a single-code character —
 * DnaChar or AminoChar).
 */
template <core::KernelSpec K>
class AlignService
{
  public:
    using Pipeline = host::StreamPipeline<K>;
    using Ticket = typename Pipeline::Ticket;
    using CharT = typename K::CharT;
    using Job = typename Pipeline::Job;

    /** Response writer: (type, echoed request id, payload). */
    using Sink =
        std::function<void(MsgType, uint64_t, std::vector<uint8_t>)>;

    AlignService(host::BatchConfig pipeline_cfg, ServiceConfig cfg = {})
        : _cfg(cfg), _pipeline(pipeline_cfg),
          _quotas(cfg.maxInFlightJobsPerTenant)
    {}

    Pipeline &pipeline() { return _pipeline; }
    const ServiceConfig &config() const { return _cfg; }

    /** True once a Shutdown frame has been accepted. */
    bool
    draining() const
    {
        return _draining.load(std::memory_order_acquire);
    }

    /**
     * Handle one decoded frame; every response (including errors) goes
     * through @p sink with the frame's request id echoed.
     */
    void
    handleFrame(const Frame &frame, Sink sink)
    {
        reapCompleted();
        switch (frame.type()) {
          case MsgType::Hello:
            handleHello(frame, sink);
            return;
          case MsgType::Align:
            handleAlign(frame, std::move(sink));
            return;
          case MsgType::Stats:
            sink(MsgType::StatsOk, frame.requestId(),
                 encodeStats(snapshot()));
            return;
          case MsgType::Shutdown:
            _draining.store(true, std::memory_order_release);
            _pipeline.drain();
            reapCompleted();
            sink(MsgType::ShutdownOk, frame.requestId(), {});
            return;
          default:
            countMalformed();
            sink(MsgType::Error, frame.requestId(),
                 encodeReject({RejectReason::Malformed,
                               "unexpected message type"}));
            return;
        }
    }

    /** Current accounting snapshot (what StatsOk carries). */
    ServeStats
    snapshot()
    {
        reapCompleted();
        std::lock_guard lk(_statsMutex);
        host::BatchStats epoch = _epoch;
        const double fmax = _pipeline.config().fmaxMhz;
        const double cpu_mhz = _pipeline.config().cpuEquivalentMhz;
        host::finalizeBatchStats(epoch, fmax, cpu_mhz);
        ServeStats s;
        s.acceptedRequests = _acceptedRequests;
        s.rejectedDeadline = _rejectedDeadline;
        s.rejectedQuota = _rejectedQuota;
        s.rejectedUndispatchable = _rejectedUndispatchable;
        s.rejectedMalformed = _rejectedMalformed;
        s.completedJobs = _completedJobs;
        s.cancelledJobs = _cancelledJobs;
        s.deadlineMissJobs = _deadlineMissJobs;
        s.totalCycles = epoch.totalCycles;
        s.makespanCycles = epoch.makespanCycles;
        s.alignsPerSec = epoch.alignsPerSec;
        s.isaTier = sim::isaTierName(_pipeline.activeIsaTier());
        for (const auto &b : host::backendSections(epoch, fmax, cpu_mhz)) {
            WireBackendStats wb;
            wb.name = b.name;
            wb.clockMhz = b.clockMhz;
            wb.busyCycles = b.busyCycles;
            wb.totalCycles = b.totalCycles;
            wb.alignments = b.alignments;
            wb.cancelled = b.cancelled;
            wb.deadlineMisses = b.deadlineMisses;
            // Preemptions are slot-yield events, not jobs: they ride
            // along per backend but stay out of the closure sums.
            wb.preemptions = b.preemptions;
            wb.seconds = b.seconds;
            s.backends.push_back(std::move(wb));
        }
        // Accounting closure, end to end: the per-backend sections must
        // sum to the epoch totals (the torture tests' invariant), and
        // the epoch totals must match the job counters this service
        // kept independently from ticket callbacks. Rejected requests
        // appear in neither — rejection happens before submit.
        uint64_t sec_aligns = 0, sec_cancelled = 0, sec_misses = 0,
                 sec_cycles = 0;
        for (const auto &b : s.backends) {
            sec_aligns += static_cast<uint64_t>(b.alignments);
            sec_cancelled += static_cast<uint64_t>(b.cancelled);
            sec_misses += static_cast<uint64_t>(b.deadlineMisses);
            sec_cycles += b.totalCycles;
        }
        s.accountingClosed =
            sec_aligns == static_cast<uint64_t>(epoch.alignments) &&
            sec_cancelled == static_cast<uint64_t>(epoch.cancelled) &&
            sec_misses ==
                static_cast<uint64_t>(epoch.deadlineMisses) &&
            sec_cycles == epoch.totalCycles &&
            sec_aligns == _completedJobs &&
            sec_cancelled == _cancelledJobs &&
            sec_misses == _deadlineMissJobs;
        DPHLS_DCHECK(s.accountingClosed,
                     "serve accounting not closed: sections (",
                     sec_aligns, " aligned, ", sec_cancelled,
                     " cancelled, ", sec_misses, " missed, ", sec_cycles,
                     " cycles) vs epoch (", epoch.alignments, ", ",
                     epoch.cancelled, ", ", epoch.deadlineMisses, ", ",
                     epoch.totalCycles, ") vs counters (",
                     _completedJobs, ", ", _cancelledJobs, ", ",
                     _deadlineMissJobs, ")");
        return s;
    }

    /** In-flight jobs of @p tenant (test hook). */
    uint64_t inFlight(const std::string &tenant) const
    {
        return _quotas.inFlight(tenant);
    }

  private:
    /** Map a wire traffic class onto its configured ticket priority. */
    int
    priorityOf(TrafficClass cls) const
    {
        switch (cls) {
          case TrafficClass::Realtime:
            return _cfg.realtimePriority;
          case TrafficClass::Interactive:
            return _cfg.interactivePriority;
          case TrafficClass::Bulk:
            break;
        }
        return 0;
    }

    void
    handleHello(const Frame &frame, const Sink &sink)
    {
        std::string wanted;
        try {
            wanted = decodeHello(frame);
        } catch (const ProtocolError &e) {
            countMalformed();
            sink(MsgType::Error, frame.requestId(),
                 encodeReject({RejectReason::Malformed, e.what()}));
            return;
        }
        if (!wanted.empty() && wanted != K::name &&
            wanted != _cfg.kernelAlias) {
            sink(MsgType::Error, frame.requestId(),
                 encodeReject({RejectReason::Malformed,
                               std::string("kernel mismatch: serving ") +
                                   K::name}));
            return;
        }
        ServerInfo info;
        info.kernel = K::name;
        info.maxQueryLength = static_cast<uint32_t>(
            _pipeline.config().maxQueryLength);
        info.maxReferenceLength = static_cast<uint32_t>(
            _pipeline.config().maxReferenceLength);
        info.alphabetSymbols = CharT::numSymbols;
        sink(MsgType::HelloOk, frame.requestId(), encodeHelloOk(info));
    }

    void
    handleAlign(const Frame &frame, Sink sink)
    {
        const uint64_t rid = frame.requestId();
        auto reject = [&](RejectReason reason, std::string msg) {
            sink(MsgType::Reject, rid,
                 encodeReject({reason, std::move(msg)}));
        };

        if (draining()) {
            reject(RejectReason::ShuttingDown, "daemon is draining");
            return;
        }

        AlignRequest req;
        try {
            req = decodeAlignRequest(frame);
        } catch (const ProtocolError &e) {
            countMalformed();
            reject(RejectReason::Malformed, e.what());
            return;
        }
        if (req.jobs.size() > _cfg.maxJobsPerRequest) {
            countMalformed();
            reject(RejectReason::Malformed, "too many jobs in request");
            return;
        }

        std::vector<Job> jobs;
        jobs.reserve(req.jobs.size());
        for (const WireJob &wj : req.jobs) {
            Job job;
            if (!decodeSequence(wj.query, job.query) ||
                !decodeSequence(wj.reference, job.reference)) {
                countMalformed();
                reject(RejectReason::Malformed,
                       "sequence code out of alphabet range");
                return;
            }
            jobs.push_back(std::move(job));
        }

        const uint64_t njobs = jobs.size();
        if (!_quotas.tryAcquire(req.tenant, njobs)) {
            {
                std::lock_guard lk(_statsMutex);
                _rejectedQuota++;
            }
            reject(RejectReason::QuotaExceeded,
                   "tenant over in-flight job quota");
            return;
        }

        host::TicketOptions topt;
        if (req.deadlineMicros > 0) {
            topt = host::TicketOptions::afterMs(
                priorityOf(req.trafficClass),
                static_cast<double>(req.deadlineMicros) * 1e-3,
                req.tenant);
        } else {
            topt.priority = priorityOf(req.trafficClass);
            topt.tag = req.tenant;
        }

        // Reserve-on-estimate: the reservation holds the request's
        // routed work in the backlog signal until it either commits
        // into the submitted ticket or releases on a reject below —
        // concurrent sessions therefore see each other's admitted-but-
        // not-yet-submitted work and cannot double-book a free slot.
        // It routes with the ticket's own options, so it books the
        // slots the submitted ticket lands on.
        const double budget =
            static_cast<double>(req.deadlineMicros) * 1e-6;
        host::AdmissionReservation reservation;
        if (req.deadlineMicros > 0 && _cfg.admission.enabled) {
            try {
                reservation = _pipeline.reserveCompletion(jobs, topt);
            } catch (const std::invalid_argument &e) {
                _quotas.release(req.tenant, njobs);
                {
                    std::lock_guard lk(_statsMutex);
                    _rejectedUndispatchable++;
                }
                reject(RejectReason::Undispatchable, e.what());
                return;
            }
            if (!admits(_cfg.admission, reservation.estimateSeconds(),
                        budget)) {
                const double estimate = reservation.estimateSeconds();
                reservation.release();
                _quotas.release(req.tenant, njobs);
                {
                    std::lock_guard lk(_statsMutex);
                    _rejectedDeadline++;
                }
                reject(RejectReason::DeadlineUnmeetable,
                       "estimated completion " +
                           std::to_string(estimate) +
                           " s exceeds deadline budget " +
                           std::to_string(budget) + " s");
                return;
            }
        }

        const std::string tenant = req.tenant;
        Ticket ticket;
        try {
            // sink is captured by copy: the reject path below must
            // still be able to answer when submit throws.
            // Commit-on-submit: the enqueue replaces the reservation's
            // booking with the ticket's live entries (an inactive
            // reservation — no-deadline path — commits nothing).
            ticket = _pipeline.submit(
                std::move(jobs), std::move(topt),
                [this, sink, rid, tenant,
                 njobs](host::BatchTicket<K> &t) {
                    completeTicket(t, sink, rid, tenant, njobs);
                },
                std::move(reservation));
        } catch (const std::invalid_argument &e) {
            // Undispatchable shape surfaced by submit-time routing
            // (no-deadline path, where admission did not pre-screen):
            // translated into a protocol-level Reject, never a crash.
            _quotas.release(tenant, njobs);
            {
                std::lock_guard lk(_statsMutex);
                _rejectedUndispatchable++;
            }
            reject(RejectReason::Undispatchable, e.what());
            return;
        }
        {
            std::lock_guard lk(_statsMutex);
            _acceptedRequests++;
        }
        std::lock_guard lk(_ticketMutex);
        _live.push_back(std::move(ticket));
    }

    /** Completion callback: account, release quota, answer. */
    void
    completeTicket(host::BatchTicket<K> &t, const Sink &sink,
                   uint64_t rid, const std::string &tenant,
                   uint64_t njobs)
    {
        AlignResponse res;
        res.deadlineMissed = t.stats().deadlineMisses > 0;
        res.totalCycles = t.stats().totalCycles;
        const auto &results = t.results();
        const auto &cycles = t.cycles();
        const auto &completed = t.completed();
        res.results.reserve(results.size());
        for (size_t i = 0; i < results.size(); i++) {
            WireJobResult jr;
            jr.completed = completed[i] != 0;
            jr.score = results[i].scoreAsDouble();
            jr.cycles = cycles[i];
            jr.runs = encodeRuns(results[i].ops);
            res.results.push_back(std::move(jr));
        }
        DPHLS_DCHECK(static_cast<uint64_t>(t.stats().alignments) +
                             static_cast<uint64_t>(t.stats().cancelled) ==
                         njobs,
                     "ticket accounting not closed at completion: ",
                     t.stats().alignments, " aligned + ",
                     t.stats().cancelled, " cancelled != ", njobs,
                     " jobs");
        {
            std::lock_guard lk(_statsMutex);
            host::accumulateBatchStats(_epoch, t.stats());
            _completedJobs +=
                static_cast<uint64_t>(t.stats().alignments);
            _cancelledJobs +=
                static_cast<uint64_t>(t.stats().cancelled);
            _deadlineMissJobs +=
                static_cast<uint64_t>(t.stats().deadlineMisses);
        }
        _quotas.release(tenant, njobs);
        sink(MsgType::AlignOk, rid, encodeAlignResponse(res));
    }

    /**
     * Retire completed tickets from the pipeline's outstanding set.
     * Completion callbacks cannot collect their own ticket (wait()
     * would deadlock before _done is set), so sessions sweep here on
     * their next frame instead; memory is bounded by the quotas.
     */
    void
    reapCompleted()
    {
        std::vector<Ticket> done;
        {
            std::lock_guard lk(_ticketMutex);
            for (auto it = _live.begin(); it != _live.end();) {
                if ((*it)->done()) {
                    done.push_back(std::move(*it));
                    it = _live.erase(it);
                } else {
                    ++it;
                }
            }
        }
        for (const Ticket &t : done)
            _pipeline.collect(t);
    }

    /** Map wire code bytes onto the kernel's character type. */
    static bool
    decodeSequence(const std::vector<uint8_t> &codes,
                   seq::Sequence<CharT> &out)
    {
        out.chars.reserve(codes.size());
        for (const uint8_t code : codes) {
            if (code >= CharT::numSymbols)
                return false;
            out.chars.push_back(CharT{code});
        }
        return true;
    }

    void
    countMalformed()
    {
        std::lock_guard lk(_statsMutex);
        _rejectedMalformed++;
    }

    ServiceConfig _cfg;
    Pipeline _pipeline;
    TenantQuotas _quotas;
    std::atomic<bool> _draining{false};

    host::DebugMutex _ticketMutex{host::lockrank::kServiceTickets,
                                  "service-tickets"};
    std::vector<Ticket> _live; //!< submitted, not yet reaped

    /** Guards _epoch and every counter below. */
    host::DebugMutex _statsMutex{host::lockrank::kServiceStats,
                                 "service-stats"};
    host::BatchStats _epoch;
    uint64_t _acceptedRequests = 0;
    uint64_t _rejectedDeadline = 0;
    uint64_t _rejectedQuota = 0;
    uint64_t _rejectedUndispatchable = 0;
    uint64_t _rejectedMalformed = 0;
    uint64_t _completedJobs = 0;
    uint64_t _cancelledJobs = 0;
    uint64_t _deadlineMissJobs = 0;
};

} // namespace dphls::serve

#endif // DPHLS_SERVE_SERVICE_HH
