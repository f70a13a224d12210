/**
 * @file
 * Long reads: the dphls_map long-read path (ReadMapper::plan ->
 * mapLong -> host::tiledAlign on the caller's thread), closed loop,
 * one read at a time. It runs as the last phase of align_batch's
 * traced run and gives the per-layer numbers of the `workloads` layer
 * (seed and chain), the tiling layer and the tile engine. It is not a
 * gated workload: one caller thread's speed swung twofold between
 * seconds on a shared VM, far past any bound a gate allows.
 *
 * Set-up builds a seeded genome with seq::makeReferenceGenome and times
 * the ReadMapper constructor (the minimizer index, seq.index_s). Reads
 * are 4..16 kb from seq::simulateRead, lengths spread by a
 * low-discrepancy sequence.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <stdexcept>
#include <vector>

#include "common.hh"
#include "host/tiling.hh"
#include "reference/matrix_aligner.hh"
#include "seq/random.hh"
#include "seq/read_simulator.hh"
#include "workloads/mapper.hh"

namespace perfbench {

namespace {

using namespace dphls;
using workloads::ReadMapper;
using workloads::ReadMapping;

constexpr int kGenomeLength = 3'000'000;
constexpr int kMinRead = 4000;
constexpr int kMaxRead = 16000;
constexpr double kReadError = 0.05;
constexpr int kIndexRepeats = 3;
/** Reads re-tiled after the window; the first kModelReads give model.* */
constexpr size_t kTileProbeReads = 8;
constexpr size_t kModelReads = 4;
constexpr size_t kRateBlock = 8; //!< reads per steady-rate sample
/** Placement floor: share of reads within windowPad of their origin. */
constexpr double kPlacedFloor = 0.90;

/** dphls_map's device window: reads longer than this take mapLong. */
constexpr int kMaxQuery = 1024;
constexpr int kMaxReference = 1024;

struct Mapped
{
    size_t read = 0; //!< index into the read set
    ReadMapping mapping;
    double end = 0;   //!< completion time, seconds since set-up ended
    double tiled = 0; //!< mapLong's time
};

/** Tiles and cells of one read, re-tiled outside the timed window. */
struct TileProbe
{
    int tiles = 0;
    double cells = 0;
    uint64_t cycles = 0;
    int goldenMismatches = 0; //!< tiles whose score or path differ
    std::vector<core::AlnOp> ops;
};

/**
 * tiledAlign's tile loop, replayed with per-tile spans so the tile
 * count and exact tile cells are visible; its stitched path must equal
 * the one host::tiledAlign produced inside mapLong. Every tile is also
 * aligned by ref::MatrixAligner, and must match it in score and path.
 */
TileProbe
probeTiles(Tracer &tracer, uint64_t id, const seq::DnaSequence &query,
           const seq::DnaSequence &reference, const host::TilingConfig &cfg)
{
    sim::EngineConfig ecfg;
    ecfg.maxQueryLength = cfg.tileSize;
    ecfg.maxReferenceLength = cfg.tileSize;
    sim::SystolicAligner<kernels::GlobalAffine> eng(
        ecfg, kernels::GlobalAffine::defaultParams());
    const ref::MatrixAligner<kernels::GlobalAffine> golden;
    TileProbe out;
    const int qlen = query.length();
    const int rlen = reference.length();
    int qi = 0, rj = 0;
    while (qi < qlen || rj < rlen) {
        const int tq = std::min(cfg.tileSize, qlen - qi);
        const int tr = std::min(cfg.tileSize, rlen - rj);
        seq::DnaSequence qs, rs;
        qs.chars.assign(query.chars.begin() + qi,
                        query.chars.begin() + qi + tq);
        rs.chars.assign(reference.chars.begin() + rj,
                        reference.chars.begin() + rj + tr);
        core::AlignResult<kernels::GlobalAffine::ScoreT> res;
        {
            Span s(tracer, "systolic.tile", id);
            res = eng.align(qs, rs);
        }
        const auto gold = golden.align(qs, rs);
        if (gold.scoreAsDouble() != res.scoreAsDouble() ||
            gold.ops != res.ops)
            out.goldenMismatches++;
        out.cycles += eng.lastTotalCycles();
        out.tiles++;
        out.cells += cells(tq, tr);
        const bool last = tq == qlen - qi && tr == rlen - rj;
        const int keep =
            host::committedOps(res.ops, tq, tr, cfg.tileOverlap, last);
        for (int k = 0; k < keep; k++) {
            const auto op = res.ops[static_cast<size_t>(k)];
            out.ops.push_back(op);
            qi += op != core::AlnOp::Del ? 1 : 0;
            rj += op != core::AlnOp::Ins ? 1 : 0;
        }
        if (last)
            break;
    }
    return out;
}

} // namespace

void
runLongReads(uint64_t seed, double seconds, Tracer &tracer, Report &rep)
{
    seq::Rng genome_rng(seed);
    const seq::DnaSequence genome =
        seq::makeReferenceGenome(kGenomeLength, genome_rng);

    // seq.index_s: the ReadMapper constructor, median of repeats.
    std::vector<double> index_s;
    std::unique_ptr<ReadMapper> mapper;
    for (int i = 0; i < kIndexRepeats; i++) {
        mapper.reset();
        const auto t0 = Clock::now();
        mapper = std::make_unique<ReadMapper>(genome);
        index_s.push_back(secondsBetween(t0, Clock::now()));
    }

    // Reads, all generated before the timed window.
    seq::Rng read_rng(seed * 0x9e3779b97f4a7c15ULL + 1);
    const double offset = read_rng.uniform();
    const size_t n_reads =
        static_cast<size_t>(std::max(64.0, seconds * 60.0));
    std::vector<seq::SimulatedRead> reads;
    double read_bases = 0;
    for (size_t i = 0; i < n_reads; i++) {
        seq::ReadSimConfig rcfg;
        rcfg.readLength =
            kMinRead + static_cast<int>((kMaxRead - kMinRead + 1) *
                                        spreadFraction(i, offset));
        rcfg.errorRate = kReadError;
        reads.push_back(seq::simulateRead(genome, rcfg, read_rng));
        read_bases += reads.back().read.length();
    }

    // Closed loop: map reads one at a time until time is up, with
    // mapRead's long-read path split into one span per call.
    std::vector<Mapped> done;
    bool exhausted = false;
    const auto epoch = Clock::now();
    const auto stop = epoch + std::chrono::duration_cast<Clock::duration>(
                                  std::chrono::duration<double>(seconds));
    for (size_t next = 0; Clock::now() < stop; next++) {
        if (next == reads.size()) {
            exhausted = true;
            break;
        }
        const auto &read = reads[next].read;
        Mapped m;
        m.read = next;
        {
            Span whole(tracer, "workloads.map_read", next);
            workloads::MapPlan plan;
            {
                Span s(tracer, "workloads.plan", next);
                plan = mapper->plan(read, kMaxQuery, kMaxReference);
            }
            if (!plan.longRead)
                throw std::runtime_error("read under the device window");
            Span s(tracer, "host.map_long", next);
            const auto tl = Clock::now();
            m.mapping = mapper->mapLong(read, plan);
            m.tiled = secondsBetween(tl, Clock::now());
        }
        m.end = secondsBetween(epoch, Clock::now());
        done.push_back(std::move(m));
    }

    // ---- output checks: score == rescore of the returned path, placement
    const auto &cfg = mapper->config();
    uint64_t failed = 0, placed = 0;
    for (const auto &m : done) {
        const auto &sim = reads[m.read];
        const auto &mp = m.mapping;
        if (!mp.mapped) {
            failed++;
            continue;
        }
        const auto plan = mapper->plan(sim.read, kMaxQuery, kMaxReference);
        const auto &cand = plan.candidates.at(0);
        seq::DnaSequence win;
        win.chars.assign(genome.chars.begin() + cand.refStart,
                         genome.chars.begin() + cand.refEnd);
        std::vector<core::AlnOp> full(
            static_cast<size_t>(mp.refStart - cand.refStart),
            core::AlnOp::Del);
        full.insert(full.end(), mp.ops.begin(), mp.ops.end());
        full.insert(full.end(), static_cast<size_t>(cand.refEnd - mp.refEnd),
                    core::AlnOp::Del);
        const double rescored = static_cast<double>(host::rescoreAffinePath(
            sim.read, win, full, kernels::GlobalAffine::defaultParams()));
        if (rescored != mp.score) {
            rep.fail("read " + std::to_string(m.read) + " score " +
                     std::to_string(mp.score) + " != rescored path " +
                     std::to_string(rescored));
            failed++;
        }
        if (std::abs(mp.refStart - sim.refStart) <= cfg.windowPad)
            placed++;
    }
    const double placed_share =
        done.empty() ? 0 : static_cast<double>(placed) / done.size();
    if (placed_share < kPlacedFloor)
        rep.fail("placed share " + std::to_string(placed_share) +
                 " below floor");

    // Re-tile the first reads outside the window: their modeled cycles
    // must repeat exactly, and they give tile counts and cells.
    uint64_t model_cycles = 0;
    size_t probe_reads = 0;
    double probe_cells = 0, probe_tiles = 0, probe_seconds = 0;
    for (size_t i = 0; i < done.size() && i < kTileProbeReads; i++) {
        const Mapped &m = done[i];
        const auto &read = reads[m.read].read;
        const auto plan = mapper->plan(read, kMaxQuery, kMaxReference);
        const auto &cand = plan.candidates.at(0);
        seq::DnaSequence win;
        win.chars.assign(genome.chars.begin() + cand.refStart,
                         genome.chars.begin() + cand.refEnd);
        const auto probe = probeTiles(tracer, m.read, read, win, cfg.tiling);
        const size_t lead = static_cast<size_t>(m.mapping.refStart -
                                                cand.refStart);
        const bool same_path =
            probe.ops.size() >= lead + m.mapping.ops.size() &&
            std::equal(m.mapping.ops.begin(), m.mapping.ops.end(),
                       probe.ops.begin() + static_cast<long>(lead));
        if (probe.cycles != m.mapping.cycles || !same_path) {
            rep.fail("read " + std::to_string(m.read) +
                     " tiles do not repeat (cycles or path)");
            failed++;
        } else if (probe.goldenMismatches > 0) {
            rep.fail("read " + std::to_string(m.read) + ": " +
                     std::to_string(probe.goldenMismatches) +
                     " tile(s) differ from ref::MatrixAligner");
            failed++;
        }
        if (i < kModelReads)
            model_cycles += m.mapping.cycles;
        probe_reads++;
        probe_cells += probe.cells;
        probe_tiles += probe.tiles;
        probe_seconds += m.tiled;
    }
    rep.attempted = done.size();
    rep.failed = failed;

    std::vector<std::pair<double, double>> completions;
    std::vector<double> plan_ms, tiled_ms;
    for (const auto &m : done)
        completions.emplace_back(m.end, 1.0);
    for (const double d : tracer.durations("workloads.plan"))
        plan_ms.push_back(1e3 * d);
    for (const double d : tracer.durations("host.map_long"))
        tiled_ms.push_back(1e3 * d);
    rep.set("reads_per_s", blockRate(std::move(completions), kRateBlock),
            "1/s");
    rep.set("seq.index_s", median(index_s), "s");
    rep.set("workloads.plan_ms.p50", percentile(plan_ms, 0.5), "ms");
    rep.set("workloads.plan_ms.p99", percentile(plan_ms, 0.99), "ms");
    rep.set("workloads.placed_share", placed_share, "ratio");
    rep.set("host.tiled_ms.p50", percentile(tiled_ms, 0.5), "ms");
    rep.set("host.tiled_ms.p99", percentile(tiled_ms, 0.99), "ms");
    rep.set("host.tiles_per_read",
            probe_reads ? probe_tiles / probe_reads : 0, "count");
    rep.set("systolic.tile_gcups",
            probe_seconds > 0 ? probe_cells / probe_seconds / 1e9 : 0,
            "Gcell/s");
    rep.set("model.device_cycles", static_cast<double>(model_cycles),
            "cycles");

    rep.note("genome_bp", kGenomeLength);
    rep.note("index_minimizers",
             static_cast<double>(mapper->index().distinctMinimizers()));
    rep.note("read_lengths", "4000..16000 bp low-discrepancy uniform, "
                             "5% error (simulateRead mix)");
    rep.note("reads_generated", static_cast<double>(reads.size()));
    rep.note("read_bases_generated", read_bases);
    rep.note("reads_mapped", static_cast<double>(done.size()));
    rep.note("input_exhausted", exhausted ? "yes" : "no");
    rep.note("seconds", seconds);
    rep.note("index_samples", kIndexRepeats);
    rep.note("tile_probe_reads", static_cast<double>(probe_reads));
    rep.note("model_reads", static_cast<double>(kModelReads));
}

} // namespace perfbench
