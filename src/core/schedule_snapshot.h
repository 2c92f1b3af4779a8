/**
 * @file
 * Mid-run scheduler checkpoints for prefix-reuse delta compilation.
 *
 * A ScheduleSnapshot freezes what MusstiScheduler::run cannot derive —
 * the op stream with its counters (SWAP insertions included), placement
 * chains, LRU stamps, router eviction/arrival/RNG state, the
 * anticipated-usage table, and the DAG completion watermark as one
 * chain-head count per qubit — at a point where the phase-1 drain has
 * just proven every frontier gate non-executable. Resuming from one
 * builds the DAG directly at the watermark and restores the rest
 * verbatim, which by construction reproduces the cold run's state bit
 * for bit; the remaining suffix then schedules through the ordinary
 * loop (see scheduler.cpp, "Why a checkpoint is resumable" and
 * src/core/README.md).
 *
 * Snapshots are keyed by Circuit::prefixHash of the input prefix they
 * cover: two circuits agreeing on qubit count, name, and the first
 * `inputPrefixGates` gates hash equally, so CompileService finds the
 * longest reusable checkpoint by hash lookup, never by diffing.
 */
#ifndef MUSSTI_CORE_SCHEDULE_SNAPSHOT_H
#define MUSSTI_CORE_SCHEDULE_SNAPSHOT_H

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "common/rng.h"
#include "lint/schedule_linter.h"
#include "sim/schedule.h"

namespace mussti {

/**
 * Router conflict-handling state at a checkpoint: the eviction count,
 * the FIFO arrival stamps, and the Random-policy RNG stream position.
 * Captured and restored as one unit so every later pickVictim() draw
 * and arrival comparison replays identically.
 */
struct RouterCheckpoint
{
    std::vector<std::int64_t> arrival;
    std::int64_t arrivalClock = 0;
    int evictions = 0;
    Rng rng{0};
};

/** One resumable checkpoint of a MUSS-TI scheduling pass. */
struct ScheduleSnapshot
{
    /**
     * Circuit::prefixHash(inputPrefixGates) of the *input* circuit the
     * snapshot was captured from — the snapshot-cache key component.
     * Stamped by the compile pass (the scheduler sees only the lowered
     * circuit); 0 until then.
     */
    std::uint64_t prefixHash = 0;

    /** Input-circuit gate count the snapshot covers (key metadata). */
    std::size_t inputPrefixGates = 0;

    /**
     * Lowered-circuit gate count the snapshot covers: every scheduled
     * or exposed gate has circuitIndex < loweredPrefixGates, so any
     * lowered circuit sharing this prefix can resume here.
     */
    std::size_t loweredPrefixGates = 0;

    /**
     * DAG completion watermark: per qubit, how many gates of its
     * dependency chain have retired (DependencyDag::qubitChainHead).
     * The scheduler retires only gates heading both their chains, so
     * these counts name the retired set exactly, and a DAG built at
     * them equals the captured one (DependencyDag's constructor).
     */
    std::vector<int> chainHeads;

    /** The op stream and counters emitted up to the checkpoint. */
    Schedule schedule;

    /** Placement chains per zone at the checkpoint (front to back). */
    std::vector<std::vector<int>> chains;

    /** LRU use stamps and clock. */
    std::vector<std::int64_t> lruStamps;
    std::int64_t lruClock = 0;

    /** Router eviction/arrival/RNG state. */
    RouterCheckpoint router;

    /**
     * The per-step anticipated-usage table as the pass last snapshot it
     * (deliberately stale relative to the DAG — the cold pass syncs it
     * lazily, and the resumed pass must observe the same staleness).
     */
    std::vector<int> nextUse;

    /**
     * Per-qubit window depth (clamped to the horizon) of the qubit's
     * last unfinished two-qubit gate inside the covered lowered prefix,
     * or -1 when no such gate remains. This seeds the candidate-
     * selection sweep (scheduler.cpp, suffixWindowClean): suffix gates
     * chain onto exactly these depths, so whether a resume point stays
     * invisible to an edited suffix is decidable from the new circuit
     * alone, without building a DAG.
     */
    std::vector<int> chainTailDepth;

    /** Routing steps (phase-2 iterations) up to the checkpoint. */
    int routingSteps = 0;

    /**
     * The schedule linter's own walk state at the checkpoint, exported
     * by the lint of the compile that captured the snapshot — never
     * derived from the scheduler state above. A resumed compile's
     * safety net lints only the ops after it. Stamped by the compile
     * pass; a snapshot without it is never resumed from.
     */
    std::optional<ScheduleLintState> lint;

    /** Approximate heap footprint, for the snapshot-cache byte budget. */
    std::size_t
    approxBytes() const
    {
        std::size_t bytes = sizeof(*this);
        bytes += chainHeads.capacity() * sizeof(int);
        bytes += schedule.ops.capacity() * sizeof(ScheduledOp);
        for (const auto &chain : schedule.initialChains)
            bytes += chain.capacity() * sizeof(int);
        for (const auto &chain : chains)
            bytes += chain.capacity() * sizeof(int);
        bytes += lruStamps.capacity() * sizeof(std::int64_t);
        bytes += router.arrival.capacity() * sizeof(std::int64_t);
        bytes += nextUse.capacity() * sizeof(int);
        bytes += chainTailDepth.capacity() * sizeof(int);
        if (lint)
            bytes += lint->approxBytes();
        return bytes;
    }
};

} // namespace mussti

#endif // MUSSTI_CORE_SCHEDULE_SNAPSHOT_H
