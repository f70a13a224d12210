/**
 * @file
 * Short-read mapping scenario (BWA-MEM-style, kernel #7): semi-global
 * alignment of simulated 128-base reads against 256-base candidate
 * reference windows, batched through the streaming executor's device model
 * (NK channels x NB blocks), mirroring the paper's host-side workflow
 * (front-end step 6).
 */

#include <cstdio>

#include "host/stream_pipeline.hh"
#include "kernels/semi_global.hh"
#include "seq/read_simulator.hh"

using namespace dphls;

int
main()
{
    seq::Rng rng(42);
    const auto genome = seq::makeReferenceGenome(20000, rng);

    // Simulate 200 short reads with Illumina-like low error.
    seq::ReadSimConfig rcfg;
    rcfg.readLength = 128;
    rcfg.errorRate = 0.03;
    std::vector<host::AlignmentJob<seq::DnaChar>> jobs;
    std::vector<int> true_start;
    for (int i = 0; i < 200; i++) {
        const auto sim = seq::simulateRead(genome, rcfg, rng);
        host::AlignmentJob<seq::DnaChar> job;
        job.query = sim.read;
        // Candidate window: the true locus padded by 64 bases each side
        // (as a seeding stage would produce).
        const int w0 = std::max(0, sim.refStart - 64);
        const int w1 = std::min(genome.length(), sim.refEnd + 64);
        job.reference.chars.assign(genome.chars.begin() + w0,
                                   genome.chars.begin() + w1);
        true_start.push_back(sim.refStart - w0);
        jobs.push_back(std::move(job));
    }

    // Device: 32 PEs per block, 8 blocks, 2 channels.
    host::BatchConfig cfg;
    cfg.npe = 32;
    cfg.nb = 8;
    cfg.nk = 2;
    cfg.fmaxMhz = 250.0;
    using Pipeline = host::StreamPipeline<kernels::SemiGlobal>;
    Pipeline pipeline(cfg);

    std::vector<Pipeline::Result> results;
    const auto stats =
        pipeline.collect(pipeline.submitBorrowed(jobs), &results);

    int well_placed = 0;
    double mean_identity = 0;
    for (size_t i = 0; i < results.size(); i++) {
        const auto &res = results[i];
        // The alignment's reference start should land near the true one.
        if (std::abs(res.start.col - true_start[i]) <= 8)
            well_placed++;
        int matches = 0;
        for (const auto op : res.ops)
            matches += op == core::AlnOp::Match ? 1 : 0;
        mean_identity += res.ops.empty()
            ? 0.0
            : static_cast<double>(matches) /
                  static_cast<double>(res.ops.size());
    }
    mean_identity /= static_cast<double>(results.size());

    printf("mapped %d reads against candidate windows\n",
           stats.alignments);
    printf("  placed within 8 bp of true locus: %d/%d\n", well_placed,
           stats.alignments);
    printf("  mean path identity: %.3f\n", mean_identity);
    printf("  simulated device throughput: %.3g alignments/s "
           "(%.0f cycles/alignment, %d blocks)\n",
           stats.alignsPerSec, stats.cyclesPerAlign, cfg.nb * cfg.nk);
    return 0;
}
