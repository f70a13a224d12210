/**
 * @file
 * Heterogeneous channels scenario (paper Section 4, step 5): one FPGA
 * design hosting a global aligner and a local aligner side by side, each
 * with its own host channel — e.g. an assembly pipeline polishing contigs
 * (global) while scanning for motifs (local) on the same card. Each kernel
 * partition is one StreamPipeline; both tickets are submitted before
 * either is collected, so the host feeds the partitions concurrently, as
 * independent channel groups run on the FPGA.
 */

#include <algorithm>

#include <cstdio>

#include "host/stream_pipeline.hh"
#include "kernels/global_affine.hh"
#include "kernels/local_linear.hh"
#include "model/resource_model.hh"
#include "seq/read_simulator.hh"

using namespace dphls;

int
main()
{
    seq::Rng rng(777);

    // Workload 1: 64 global polishing alignments (read vs draft contig).
    std::vector<host::AlignmentJob<seq::DnaChar>> polish;
    for (int i = 0; i < 64; i++) {
        host::AlignmentJob<seq::DnaChar> j;
        j.query = seq::randomDna(256, rng);
        j.reference = seq::mutateDna(j.query, 0.08, 0.04, rng);
        if (j.reference.length() > 256)
            j.reference.chars.resize(256);
        polish.push_back(std::move(j));
    }
    // Workload 2: 64 local motif scans (short motif vs window).
    std::vector<host::AlignmentJob<seq::DnaChar>> scan;
    const auto motif = seq::randomDna(48, rng);
    for (int i = 0; i < 64; i++) {
        host::AlignmentJob<seq::DnaChar> j;
        j.query = motif;
        j.reference = seq::randomDna(256, rng);
        // Embed the motif in half of the windows.
        if (i % 2 == 0) {
            for (int k = 0; k < 48; k++)
                j.reference.chars[static_cast<size_t>(100 + k)] = motif[k];
        }
        scan.push_back(std::move(j));
    }

    // Partition the device: 2 channels x 4 blocks per kernel.
    host::BatchConfig cfg;
    cfg.npe = 32;
    cfg.nb = 4;
    cfg.nk = 2;
    host::StreamPipeline<kernels::GlobalAffine> global(cfg);
    host::StreamPipeline<kernels::LocalLinear> local(cfg);

    const double nk = static_cast<double>(cfg.nk);
    const auto res =
        model::estimateKernel(
            model::kernelHwDesc<kernels::GlobalAffine>(256, 256, 2),
            cfg.npe, cfg.nb) * nk +
        model::estimateKernel(
            model::kernelHwDesc<kernels::LocalLinear>(256, 256, 1),
            cfg.npe, cfg.nb) * nk;
    const auto util = model::FpgaDevice::xcvu9p().utilization(res);
    printf("combined design: LUT %.2f%%  FF %.2f%%  BRAM %.2f%%  DSP "
           "%.3f%% of the XCVU9P\n",
           util.lutPct, util.ffPct, util.bramPct, util.dspPct);

    const auto ticket_g = global.submitBorrowed(polish);
    const auto ticket_l = local.submitBorrowed(scan);
    std::vector<core::AlignResult<int32_t>> res_g, res_l;
    const auto stats_g = global.collect(ticket_g, &res_g);
    const auto stats_l = local.collect(ticket_l, &res_l);
    // The partitions overlap: their wall-clock union is the slower one.
    const double seconds = std::max(stats_g.seconds, stats_l.seconds);

    int hits = 0;
    for (size_t i = 0; i < res_l.size(); i++)
        hits += res_l[i].score >= 48; // near-perfect motif hit
    printf("polish channel: %d alignments, %.3g aligns/s\n",
           stats_g.alignments, stats_g.alignsPerSec);
    printf("scan channel:   %d alignments, %.3g aligns/s, %d/64 windows "
           "contain the motif (expected 32)\n",
           stats_l.alignments, stats_l.alignsPerSec, hits);
    printf("combined:       %.3g aligns/s across both kernels\n",
           seconds > 0 ? (polish.size() + scan.size()) / seconds : 0.0);
    return 0;
}
