#include "host/stream_pipeline.hh"

#include "baselines/gpu_model.hh"

namespace dphls::host {

namespace {

/** Clock (MHz) that slot @p s of a stats object with @p nk device
 *  slots counts its cycles at. */
double
slotClockMhz(size_t s, size_t nk, double fmax_mhz, double cpu_mhz)
{
    if (s < nk)
        return fmax_mhz;
    return s == nk ? cpu_mhz : baseline::gpuModelClockMhz();
}

double
cyclesToSeconds(uint64_t cycles, double mhz)
{
    return mhz > 0 ? static_cast<double>(cycles) / (mhz * 1e6) : 0.0;
}

void
addSlot(ChannelStats &into, const ChannelStats &add)
{
    into.busyCycles += add.busyCycles;
    into.totalCycles += add.totalCycles;
    into.alignments += add.alignments;
    into.cancelled += add.cancelled;
    into.deadlineMisses += add.deadlineMisses;
    into.preemptions += add.preemptions;
}

} // namespace

void
mergePathStats(core::AlignmentStats &into, const core::AlignmentStats &add)
{
    into.matches += add.matches;
    into.mismatches += add.mismatches;
    into.insertions += add.insertions;
    into.deletions += add.deletions;
    into.gapOpens += add.gapOpens;
    into.columns += add.columns;
}

void
finalizeBatchStats(BatchStats &stats, double fmax_mhz, double cpu_mhz)
{
    const size_t nk = stats.deviceSlots();
    ChannelStats sum;
    stats.makespanCycles = 0;
    stats.seconds = 0;
    for (size_t s = 0; s < stats.slots.size(); s++) {
        const ChannelStats &slot = stats.slots[s];
        addSlot(sum, slot);
        if (s < nk)
            stats.makespanCycles =
                std::max(stats.makespanCycles, slot.busyCycles);
        // The slots run concurrently; the epoch's wall time is the
        // slowest one at its own clock.
        stats.seconds = std::max(
            stats.seconds,
            cyclesToSeconds(slot.busyCycles,
                            slotClockMhz(s, nk, fmax_mhz, cpu_mhz)));
    }
    stats.totalCycles = sum.totalCycles;
    stats.alignments = sum.alignments;
    stats.cancelled = sum.cancelled;
    stats.deadlineMisses = sum.deadlineMisses;
    stats.preemptions = sum.preemptions;
    stats.alignsPerSec =
        stats.seconds > 0 ? stats.alignments / stats.seconds : 0.0;
    stats.cyclesPerAlign =
        stats.alignments > 0
            ? static_cast<double>(stats.totalCycles) / stats.alignments
            : 0.0;
}

void
accumulateBatchStats(BatchStats &into, const BatchStats &add)
{
    if (into.slots.size() < add.slots.size())
        into.slots.resize(add.slots.size());
    for (size_t s = 0; s < add.slots.size(); s++)
        addSlot(into.slots[s], add.slots[s]);
    mergePathStats(into.paths, add.paths);
}

std::vector<BackendStats>
backendSections(const BatchStats &stats, double fmax_mhz, double cpu_mhz)
{
    static constexpr const char *kNames[] = {"device", "cpu", "gpu"};
    const size_t nk = stats.deviceSlots();
    // Section 0 merges the device channels; each later slot (CPU, GPU)
    // opens its own.
    std::vector<BackendStats> sections(1);
    for (size_t s = 0; s < stats.slots.size(); s++) {
        if (s >= nk) {
            sections.emplace_back();
            sections.back().name = kNames[s - nk + 1];
        }
        BackendStats &b = sections.back();
        const ChannelStats &slot = stats.slots[s];
        b.clockMhz = slotClockMhz(s, nk, fmax_mhz, cpu_mhz);
        b.busyCycles = std::max(b.busyCycles, slot.busyCycles);
        b.totalCycles += slot.totalCycles;
        b.alignments += slot.alignments;
        b.cancelled += slot.cancelled;
        b.deadlineMisses += slot.deadlineMisses;
        b.preemptions += slot.preemptions;
        b.seconds = cyclesToSeconds(b.busyCycles, b.clockMhz);
    }
    sections.front().clockMhz = fmax_mhz;
    sections.erase(std::remove_if(sections.begin() + 1, sections.end(),
                                  [](const BackendStats &b) {
                                      return b.alignments == 0 &&
                                             b.cancelled == 0;
                                  }),
                   sections.end());
    return sections;
}

} // namespace dphls::host
