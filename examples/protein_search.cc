/**
 * @file
 * Protein homology search scenario (BLASTp/EMBOSS-Water-style, kernel
 * #15): a query protein scanned against a small database with BLOSUM62
 * local alignment — streamed through the ticket-based StreamPipeline
 * the way a serving host would run it: the database is submitted in
 * chunks that align while later chunks are still being prepared, and
 * entries longer than the synthesized device maximum fall back to the
 * CPU backend instead of being rejected. True homologs must rank first.
 */

#include <algorithm>
#include <cstdio>

#include "host/stream_pipeline.hh"
#include "kernels/protein_local.hh"
#include "seq/protein_sampler.hh"

using namespace dphls;

int
main()
{
    seq::Rng rng(123);
    using Pipeline = host::StreamPipeline<kernels::ProteinLocal>;

    // The query protein and a database of 40 entries: 5 are diverged
    // homologs of the query, 35 are unrelated background proteins —
    // including a few over the device's 512-residue limit, which the
    // dispatch policy routes to the CPU baseline backend.
    const auto query = seq::sampleProtein(300, rng);
    struct Entry
    {
        seq::ProteinSequence prot;
        bool homolog;
    };
    std::vector<Entry> db;
    for (int i = 0; i < 5; i++)
        db.push_back({seq::mutateProtein(query, 0.3, 0.05, rng), true});
    for (int i = 0; i < 35; i++) {
        const int len = i % 8 == 0
            ? 600 + 40 * i // over the device maximum: CPU fallback
            : seq::sampleProteinLength(rng, 100, 500);
        db.push_back({seq::sampleProtein(len, rng), false});
    }

    host::BatchConfig cfg;
    cfg.npe = 32;
    cfg.nb = 8;
    cfg.nk = 5;
    cfg.threads = 2;       // host workers, decoupled from the 5 channels
    cfg.fmaxMhz = 200.0;   // kernel #15's achieved tier (Table 2)
    cfg.maxQueryLength = 512;
    cfg.maxReferenceLength = 512;
    cfg.cpuFallback = true; // oversized entries go to the CPU backend
    Pipeline pipeline(cfg);

    // Stream the database through in chunks: each chunk is one ticket,
    // submitted before the previous ones have finished.
    constexpr size_t chunk = 8;
    std::vector<Pipeline::Ticket> tickets;
    for (size_t base = 0; base < db.size(); base += chunk) {
        std::vector<Pipeline::Job> jobs;
        for (size_t i = base; i < std::min(db.size(), base + chunk); i++)
            jobs.push_back({query, db[i].prot});
        tickets.push_back(pipeline.submit(std::move(jobs)));
    }

    // Collect in submission order and fold the per-ticket accounting
    // into one epoch summary.
    std::vector<core::AlignResult<int32_t>> results;
    host::BatchStats epoch;
    for (const auto &t : tickets) {
        std::vector<core::AlignResult<int32_t>> part;
        host::accumulateBatchStats(epoch, pipeline.collect(t, &part));
        results.insert(results.end(),
                       std::make_move_iterator(part.begin()),
                       std::make_move_iterator(part.end()));
    }
    host::finalizeBatchStats(epoch, cfg.fmaxMhz, cfg.cpuEquivalentMhz);

    std::vector<size_t> order(db.size());
    for (size_t i = 0; i < order.size(); i++)
        order[i] = i;
    std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
        return results[a].score > results[b].score;
    });

    printf("query length %d, database of %zu proteins (%zu tickets)\n",
           query.length(), db.size(), tickets.size());
    printf("top 8 hits by BLOSUM62 local score:\n");
    printf("  %-5s %-8s %-10s %-9s\n", "rank", "score", "homolog?", "len");
    int homologs_in_top5 = 0;
    for (size_t r = 0; r < 8; r++) {
        const auto i = order[r];
        if (r < 5 && db[i].homolog)
            homologs_in_top5++;
        printf("  %-5zu %-8d %-10s %-9d\n", r + 1, results[i].score,
               db[i].homolog ? "yes" : "no", db[i].prot.length());
    }
    printf("homologs in top 5: %d/5\n", homologs_in_top5);
    printf("throughput: %.3g alignments/s\n", epoch.alignsPerSec);
    for (const auto &b : host::backendSections(epoch, cfg.fmaxMhz,
                                               cfg.cpuEquivalentMhz)) {
        printf("  backend %-6s: %d alignments, %llu busy cycles @ %.0f "
               "MHz\n",
               b.name, b.alignments, (unsigned long long)b.busyCycles,
               b.clockMhz);
    }
    return 0;
}
