/**
 * @file
 * Tests for heterogeneous kernel partitions (paper Section 4 step 5: NK
 * heterogeneous kernels linked in one design). Each partition is its own
 * StreamPipeline; the two run concurrently.
 */

#include <gtest/gtest.h>

#include <utility>

#include "host/stream_pipeline.hh"
#include "kernels/global_affine.hh"
#include "kernels/local_linear.hh"
#include "model/resource_model.hh"
#include "seq/read_simulator.hh"

using namespace dphls;
using namespace dphls::model;

namespace {

/** Mutated 80-base DNA pairs for the two-kernel tests. */
std::vector<host::AlignmentJob<seq::DnaChar>>
partitionJobs(int n, uint64_t seed)
{
    std::vector<host::AlignmentJob<seq::DnaChar>> jobs;
    seq::Rng rng(seed);
    for (int i = 0; i < n; i++) {
        host::AlignmentJob<seq::DnaChar> j;
        j.query = seq::randomDna(80, rng);
        j.reference = seq::mutateDna(j.query, 0.1, 0.05, rng);
        jobs.push_back(std::move(j));
    }
    return jobs;
}

host::BatchConfig
partitionConfig(int nb, int nk)
{
    host::BatchConfig cfg;
    cfg.npe = 8;
    cfg.nb = nb;
    cfg.nk = nk;
    return cfg;
}

} // namespace

TEST(StreamPipeline, ConcurrentKernelPipelinesMatchDedicatedRuns)
{
    // Paper Section 4 step 5: NK heterogeneous kernels linked in one
    // design. Each kernel partition is its own pipeline; both tickets
    // are in flight before either is collected, so the two pools run
    // concurrently — yet every result equals a dedicated run.
    using G = kernels::GlobalAffine;
    using L = kernels::LocalLinear;
    const auto jobs_g = partitionJobs(20, 91);
    const auto jobs_l = partitionJobs(20, 92);

    host::StreamPipeline<G> pipe_g(partitionConfig(2, 1));
    host::StreamPipeline<L> pipe_l(partitionConfig(2, 1));
    const auto ticket_g = pipe_g.submitBorrowed(jobs_g);
    const auto ticket_l = pipe_l.submitBorrowed(jobs_l);
    std::vector<core::AlignResult<int32_t>> res_g, res_l;
    pipe_g.collect(ticket_g, &res_g);
    pipe_l.collect(ticket_l, &res_l);

    host::StreamPipeline<G> solo_g(partitionConfig(2, 1));
    host::StreamPipeline<L> solo_l(partitionConfig(2, 1));
    std::vector<core::AlignResult<int32_t>> want_g, want_l;
    solo_g.runAll(jobs_g, &want_g);
    solo_l.runAll(jobs_l, &want_l);

    ASSERT_EQ(res_g.size(), want_g.size());
    ASSERT_EQ(res_l.size(), want_l.size());
    for (size_t i = 0; i < res_g.size(); i++) {
        EXPECT_EQ(res_g[i].score, want_g[i].score);
        EXPECT_EQ(res_g[i].ops, want_g[i].ops);
    }
    for (size_t i = 0; i < res_l.size(); i++)
        EXPECT_EQ(res_l[i].score, want_l[i].score);
}

TEST(StreamPipeline, ConcurrentKernelPartitionsCombineThroughput)
{
    // The partitions overlap, so the design's makespan is the slower
    // partition's, and the combined rate beats either partition alone.
    using G = kernels::GlobalAffine;
    using L = kernels::LocalLinear;
    auto run = [](int nb, int nk, int n_g, uint64_t seed_g, int n_l,
                  uint64_t seed_l) {
        const auto jobs_g = partitionJobs(n_g, seed_g);
        const auto jobs_l = partitionJobs(n_l, seed_l);
        host::StreamPipeline<G> pipe_g(partitionConfig(nb, nk));
        host::StreamPipeline<L> pipe_l(partitionConfig(nb, nk));
        const auto ticket_g = pipe_g.submitBorrowed(jobs_g);
        const auto ticket_l = pipe_l.submitBorrowed(jobs_l);
        return std::make_pair(pipe_g.collect(ticket_g),
                              pipe_l.collect(ticket_l));
    };
    const auto [big, small] = run(2, 1, 40, 93, 4, 94);
    EXPECT_GT(big.makespanCycles, small.makespanCycles);

    const auto [first, second] = run(2, 2, 32, 95, 32, 96);
    const double combined =
        (first.alignments + second.alignments) /
        std::max(first.seconds, second.seconds);
    EXPECT_GT(combined, first.alignsPerSec);
    EXPECT_GT(combined, second.alignsPerSec);
}

TEST(ResourceModel, HeterogeneousPartitionsFitTheDevice)
{
    // Paper Section 4 step 5: a global and a local aligner side by side,
    // 2 channels x 8 blocks of 8 PEs each, share one XCVU9P.
    const auto r =
        estimateKernel(kernelHwDesc<kernels::GlobalAffine>(256, 256, 2), 8,
                       8) * 2.0 +
        estimateKernel(kernelHwDesc<kernels::LocalLinear>(256, 256, 1), 8,
                       8) * 2.0;
    EXPECT_TRUE(FpgaDevice::xcvu9p().fits(r));
    EXPECT_GT(r.lut, 0.0);
}
