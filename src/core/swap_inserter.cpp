#include "core/swap_inserter.h"

#include "common/logging.h"

namespace mussti {

SwapInserter::SwapInserter(const EmlDevice &device,
                           const PhysicalParams &params,
                           const MusstiConfig &config,
                           Placement &placement, Schedule &schedule,
                           Router &router, LruTracker &lru)
    : device_(device), params_(params), config_(config),
      placement_(placement), schedule_(schedule), router_(router),
      lru_(lru)
{
    MUSSTI_REQUIRE(config.swapThreshold >= 3,
                   "SWAP threshold T must be >= 3 (a SWAP costs 3 MS "
                   "gates)");
    // Pre-size the lazy weight row so the first query inside the
    // scheduling loop performs no allocation.
    weights_.reserve(device.numModules());
}

int
SwapInserter::choosePartner(const WeightTable &weights, int target_module,
                            int exclude_a, int exclude_b) const
{
    // Candidates: qubits resident on the target module that have no
    // near-future work there (W(qc, cj) == 0). Prefer ions already in an
    // optical zone (no extra shuttle), then the LRU-oldest.
    int best = -1;
    bool best_optical = false;
    std::int64_t best_stamp = 0;
    for (int z : device_.zonesOfModule(target_module)) {
        const bool optical = device_.zone(z).kind == ZoneKind::Optical;
        for (int q : placement_.chain(z)) {
            if (q == exclude_a || q == exclude_b)
                continue;
            if (weights.weight(q, target_module) != 0)
                continue;
            const std::int64_t stamp = lru_.stampOf(q);
            const bool better = best < 0 ||
                (optical && !best_optical) ||
                (optical == best_optical && stamp < best_stamp);
            if (better) {
                best = q;
                best_optical = optical;
                best_stamp = stamp;
            }
        }
    }
    return best;
}

void
SwapInserter::performSwap(int qubit, int partner)
{
    // Both ends must sit in optical zones before the fiber SWAP.
    router_.routeToOptical(qubit, {qubit, partner});
    router_.routeToOptical(partner, {qubit, partner});

    const int zone_q = placement_.zoneOf(qubit);
    const int zone_p = placement_.zoneOf(partner);
    MUSSTI_ASSERT(device_.zone(zone_q).kind == ZoneKind::Optical &&
                  device_.zone(zone_p).kind == ZoneKind::Optical &&
                  device_.zone(zone_q).module !=
                      device_.zone(zone_p).module,
                  "SWAP insertion endpoints not fiber-linkable");

    for (int i = 0; i < 3; ++i) {
        ScheduledOp op;
        op.kind = OpKind::FiberGate;
        op.q0 = qubit;
        op.q1 = partner;
        op.zoneFrom = zone_q;
        op.zoneTo = zone_p;
        op.durationUs = params_.fiberGateTimeUs;
        op.inserted = true;
        schedule_.push(op);
    }
    ++schedule_.insertedSwapGates;
    placement_.exchange(qubit, partner);
    lru_.touch(qubit);
    lru_.touch(partner);
    // A logical SWAP relocates both ions; the frontier worklist needs
    // to re-examine their pending gates just like after a shuttle.
    if (QubitMoveListener *listener = router_.moveListener()) {
        listener->onQubitMoved(qubit);
        listener->onQubitMoved(partner);
    }
}

void
SwapInserter::maybeInsert(const DependencyDag &dag, int qubit_a,
                          int qubit_b)
{
    // The view reads the live dag/placement, so each query already sees
    // the effect of any SWAP performed for the first operand; only the
    // cached row must be dropped after a migration.
    weights_.bind(dag, placement_, device_, config_.lookAhead);
    for (int q : {qubit_a, qubit_b}) {
        const int home = device_.zone(placement_.zoneOf(q)).module;
        if (weights_.weight(q, home) != 0)
            continue;
        const auto [target, weight] = weights_.bestForeignModule(q, home);
        if (target < 0 || weight <= config_.swapThreshold)
            continue;
        const int partner = choosePartner(weights_, target,
                                          qubit_a, qubit_b);
        if (partner < 0)
            continue;
        performSwap(q, partner);
        weights_.invalidateCache();
    }
}

} // namespace mussti
