/**
 * @file
 * Multi-level qubit routing and conflict handling (paper section 3.2).
 *
 * Routing brings the operands of a selected gate into a zone where the
 * gate may execute. Candidate plans are costed in shuttles (plus chain
 * extraction swaps and move distance as tie-breakers) and the cheapest
 * plan is executed. When a target zone lacks space, the LRU resident is
 * evicted to the nearest lower-level zone with a free slot — the
 * page-fault analogy of the paper.
 *
 * The router is allocation-free in steady state: candidate plans, mover
 * sets, and protect sets live in inline-capacity SmallVecs, victim
 * scans walk the contiguous zone chains directly, and the only heap
 * traffic left is the per-construction arrival table (outside the
 * scheduling loop). micro_scheduler_bench's allocation counter pins
 * this property.
 */
#ifndef MUSSTI_CORE_ROUTER_H
#define MUSSTI_CORE_ROUTER_H

#include <vector>

#include "arch/eml_device.h"
#include "arch/placement.h"
#include "common/rng.h"
#include "common/small_vec.h"
#include "core/config.h"
#include "core/frontier_worklist.h"
#include "core/lru.h"
#include "core/schedule_snapshot.h"
#include "sim/params.h"
#include "sim/schedule.h"
#include "sim/shuttle_emitter.h"

namespace mussti {

/**
 * Qubits that must not be evicted during the current routing action:
 * the gate operands plus at most one in-flight mover. Inline capacity
 * covers the worst case, so building one never allocates.
 */
using ProtectSet = SmallVec<int, 4>;

/** Routing engine bound to one in-progress compilation. */
class Router
{
  public:
    Router(const EmlDevice &device, const PhysicalParams &params,
           Placement &placement, Schedule &schedule, LruTracker &lru,
           ReplacementPolicy policy = ReplacementPolicy::AnticipatoryLru,
           std::uint64_t seed = 2025);

    /**
     * Make the two-qubit gate (qa, qb) executable: after the call either
     * both qubits share a gate-capable zone (same module) or each sits
     * in an optical zone of its own module (cross-module).
     */
    void routeForGate(int qubit_a, int qubit_b);

    /**
     * Bring one qubit into an optical zone of its module (used by SWAP
     * insertion before emitting fiber gates).
     */
    void routeToOptical(int qubit, const ProtectSet &protect);

    /**
     * Anticipated-usage hint (the paper's LRU "considers both historical
     * and anticipated qubit usage"): next_use[q] is the DAG layer of
     * qubit q's next two-qubit gate, or a large sentinel when it has no
     * use within the scheduler's window. Eviction prefers the victim
     * with the farthest next use (approximate Belady), breaking ties by
     * chain-extraction cost and then LRU age. Owned by the scheduler
     * and refreshed before each routing step; size = qubit count.
     */
    void setNextUse(const std::vector<int> *next_use)
    {
        nextUse_ = next_use;
    }

    /** Register the relocation observer (may be null). */
    void setMoveListener(QubitMoveListener *listener)
    {
        moveListener_ = listener;
    }

    /** The registered relocation observer, or null. */
    QubitMoveListener *moveListener() const { return moveListener_; }

    /** Total evictions performed so far (conflict-handling count). */
    int evictionCount() const { return evictions_; }

    /**
     * Capture the conflict-handling state into a delta-compile
     * checkpoint: arrival stamps (FIFO policy), eviction count, and the
     * Random-policy RNG stream position.
     */
    void
    saveCheckpoint(RouterCheckpoint &out) const
    {
        out.arrival = arrival_;
        out.arrivalClock = arrivalClock_;
        out.evictions = evictions_;
        out.rng = rng_;
    }

    /** Restore the state captured by saveCheckpoint. */
    void
    restoreCheckpoint(const RouterCheckpoint &checkpoint)
    {
        MUSSTI_ASSERT(checkpoint.arrival.size() == arrival_.size(),
                      "router checkpoint across qubit counts");
        arrival_ = checkpoint.arrival;
        arrivalClock_ = checkpoint.arrivalClock;
        evictions_ = checkpoint.evictions;
        rng_ = checkpoint.rng;
    }

  private:
    const EmlDevice &device_;
    const PhysicalParams &params_;
    Placement &placement_;
    ShuttleEmitter emitter_;
    LruTracker &lru_;
    const std::vector<int> *nextUse_ = nullptr;
    QubitMoveListener *moveListener_ = nullptr;
    ReplacementPolicy policy_;
    Rng rng_;
    std::vector<std::int64_t> arrival_; ///< Per-qubit arrival stamps
                                        ///< (FIFO policy).
    std::int64_t arrivalClock_ = 0;
    int evictions_ = 0;

    /** Relocate via the emitter and notify the move listener. */
    void relocate(int qubit, int zone);

    /** Pick the eviction victim of a zone under the active policy. */
    int pickVictim(int zone, const ProtectSet &protect);

    /** Free slots of a zone. */
    int freeSlots(int zone) const;

    /**
     * Estimated cost of moving the `count` movers into `zone` (shuttle
     * + extraction swaps + distance tie-breaker + eviction deficit).
     */
    double planCost(const int *movers, int count, int zone) const;

    /**
     * Evict the LRU resident of `zone` (excluding `protect`) to the
     * nearest lower-level zone with space; falls back level by level and
     * finally to any same-module zone with space.
     */
    void evictOne(int zone, const ProtectSet &protect);

    /** Move a qubit into `zone`, evicting until a slot is free. */
    void moveIn(int qubit, int zone, const ProtectSet &protect);

    /** Pick the best optical zone of a module for one mover. */
    int chooseOpticalZone(int module, int qubit) const;
};

} // namespace mussti

#endif // MUSSTI_CORE_ROUTER_H
