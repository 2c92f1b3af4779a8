#include "baselines/dai.h"

#include <algorithm>

#include "common/hash.h"
#include "common/logging.h"

namespace mussti {

DaiCompiler::DaiCompiler(const GridConfig &grid,
                         const PhysicalParams &params, int look_ahead)
    : GridCompilerBase("dai", grid, params), lookAhead_(look_ahead)
{
    double discount = 1.0;
    for (int layer = 0; layer < lookAhead_; ++layer) {
        discount_.push_back(discount);
        discount *= 0.7;
    }
}

int
DaiCompiler::windowHorizon() const
{
    return std::max(1, lookAhead_);
}

double
DaiCompiler::futureCost(const Pass &pass, int qubit, int trap) const
{
    // The unfinished suffix of the chain has strictly increasing window
    // depths, so the gates inside the look-ahead are its prefix.
    double cost = 0.0;
    const QubitChainView chain = pass.dag.qubitChain(qubit);
    for (int i = pass.dag.qubitChainHead(qubit); i < chain.size(); ++i) {
        const DagNodeId id = chain[i];
        const int layer = pass.dag.windowDepth(id);
        if (layer >= lookAhead_)
            break;
        const int partner_trap =
            pass.placement.zoneOf(pass.dag.node(id).gate.partnerOf(qubit));
        cost += discount_[layer] * device().hopDistance(trap, partner_trap);
    }
    return cost;
}

void
DaiCompiler::hashConfigExtra(Fnv1a &hash) const
{
    hash.update(lookAhead_);
}

void
DaiCompiler::scheduleStep(Pass &pass) const
{
    const DagNodeId chosen = pass.dag.frontier().front();
    const Gate &gate = pass.dag.node(chosen).gate;
    const int trap_a = pass.placement.zoneOf(gate.q0);
    const int trap_b = pass.placement.zoneOf(gate.q1);
    MUSSTI_ASSERT(trap_a != trap_b, "scheduleStep on executable gate");

    auto congestion = [&](int trap, int arrivals) {
        const int free = device().config().trapCapacity -
            pass.placement.sizeOf(trap);
        return arrivals > free ? 2.0 * (arrivals - free) : 0.0;
    };

    // Candidate plans, costed in a fixed order (the first cheapest
    // wins): move q0 to trap_b, move q1 to trap_a, or meet in an
    // intermediate trap on the path between them.
    struct Plan { bool moveA; bool moveB; int target; double cost; };
    Plan best{true, false, trap_b,
        device().hopDistance(trap_a, trap_b) +
        futureCost(pass, gate.q0, trap_b) + congestion(trap_b, 1)};
    const auto consider = [&best](const Plan &plan) {
        if (plan.cost < best.cost)
            best = plan;
    };
    consider({false, true, trap_a,
        device().hopDistance(trap_a, trap_b) +
        futureCost(pass, gate.q1, trap_a) + congestion(trap_a, 1)});

    device().forEachPathTrap(trap_a, trap_b, [&](int mid) {
        if (mid == trap_b)
            return;
        consider({true, true, mid,
            device().hopDistance(trap_a, mid) +
            device().hopDistance(trap_b, mid) +
            futureCost(pass, gate.q0, mid) +
            futureCost(pass, gate.q1, mid) + congestion(mid, 2)});
    });

    if (best.moveA)
        relocate(pass, gate.q0, best.target, gate.q0, gate.q1);
    if (best.moveB)
        relocate(pass, gate.q1, best.target, gate.q0, gate.q1);
    executeNode(pass, chosen);
}

} // namespace mussti
