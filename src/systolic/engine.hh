/**
 * @file
 * The DP-HLS back-end: a cycle-level linear systolic array engine.
 *
 * `SystolicAligner` executes any kernel satisfying core::KernelSpec
 * through one of three execution paths that decouple functional DP
 * computation from schedule modeling:
 *
 *  - the **wavefront reference path** (`wavefront_path.hh`) runs the
 *    exact micro-architecture the paper's HLS pragmas produce (Fig. 2C):
 *    NPE-row chunks, one anti-diagonal per initiation interval,
 *    preserved-row buffer, address-coalesced traceback banks, per-PE
 *    optimum tracking and reduction (Section 5.2), fixed banding via
 *    wavefront loop bounds (Section 4, step 1.6);
 *  - the **fast functional path** (`fast_path.hh`) computes the same
 *    recurrence row-major over flattened per-layer row buffers with the
 *    band handled by loop bounds — several times faster on the host;
 *  - the **anti-diagonal SIMD path** (`diag_path.hh`) vectorizes one
 *    alignment along its anti-diagonals through the runtime-dispatched
 *    ISA-tier sweeps — the host analog of the array's own wavefront
 *    parallelism, for single long pairs that cannot fill the lane
 *    engine's inter-pair lanes.
 *
 * Cycle statistics are analytic functions of the wavefront trip counts
 * (`engine_common.hh`), so results AND cycle numbers are bit-identical
 * across paths (enforced by tests/test_fastpath_equivalence.cc). The
 * engine selects the fast path automatically unless a ScheduleTrace is
 * attached; `EngineConfig::path` overrides the selection.
 *
 * Functional results are bit-identical to the full-matrix reference
 * aligner (enforced by the test suite); cycle counts per phase feed the
 * throughput model.
 */

#ifndef DPHLS_SYSTOLIC_ENGINE_HH
#define DPHLS_SYSTOLIC_ENGINE_HH

#include <stdexcept>

#include "systolic/diag_path.hh"
#include "systolic/engine_common.hh"
#include "systolic/fast_path.hh"
#include "systolic/wavefront_path.hh"

namespace dphls::sim {

/**
 * Systolic-array aligner for kernel @p K: one DP-HLS block of NPE PEs.
 */
template <core::KernelSpec K>
class SystolicAligner
{
  public:
    using ScoreT = typename K::ScoreT;
    using CharT = typename K::CharT;
    using Params = typename K::Params;
    using Result = core::AlignResult<ScoreT>;
    static constexpr int nLayers = K::nLayers;

    explicit SystolicAligner(EngineConfig cfg = {},
                             Params params = K::defaultParams())
        : _cfg(cfg), _params(params)
    {
        if (_cfg.numPe < 1)
            throw std::invalid_argument("numPe must be >= 1");
        if ((_cfg.path == EnginePath::Fast ||
             _cfg.path == EnginePath::DiagSimd) &&
            _cfg.trace != nullptr)
            throw std::invalid_argument(
                "ScheduleTrace requires the wavefront path");
    }

    const EngineConfig &config() const { return _cfg; }
    const Params &params() const { return _params; }

    /** The execution path align() runs under the current config. */
    EnginePath
    activePath() const
    {
        if (_cfg.path == EnginePath::Auto) {
            return _cfg.trace == nullptr ? EnginePath::Fast
                                         : EnginePath::Wavefront;
        }
        return _cfg.path;
    }

    /** Cycle statistics of the most recent align() call. */
    const CycleStats &lastStats() const { return _stats; }

    /** Total cycles of the most recent align() call per the cycle model. */
    uint64_t
    lastTotalCycles() const
    {
        return totalCycles(_stats, _cfg.cycles);
    }

    /** Align one pair; returns score/optimum/traceback path. */
    Result
    align(const seq::Sequence<CharT> &query,
          const seq::Sequence<CharT> &reference)
    {
        if (query.length() > _cfg.maxQueryLength)
            throw std::invalid_argument("query exceeds MAX_QUERY_LENGTH");
        if (reference.length() > _cfg.maxReferenceLength)
            throw std::invalid_argument(
                "reference exceeds MAX_REFERENCE_LENGTH");

        switch (activePath()) {
        case EnginePath::DiagSimd:
            return diagAlign<K>(_cfg, _params, query, reference, _stats,
                                _diagWs, _fastWs);
        case EnginePath::Fast:
            return fastAlign<K>(_cfg, _params, query, reference, _stats,
                                _fastWs);
        default:
            return wavefrontAlign<K>(_cfg, _params, query, reference,
                                     _stats);
        }
    }

  private:
    EngineConfig _cfg;
    Params _params;
    CycleStats _stats;
    FastWorkspace<K> _fastWs;
    DiagWorkspace<K> _diagWs;
};

} // namespace dphls::sim

#endif // DPHLS_SYSTOLIC_ENGINE_HH
