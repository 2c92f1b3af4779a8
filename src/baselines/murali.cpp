#include "baselines/murali.h"

#include "common/logging.h"

namespace mussti {

void
MuraliCompiler::scheduleStep(Pass &pass) const
{
    const DagNodeId chosen = pass.dag.frontier().front();
    const Gate &gate = pass.dag.node(chosen).gate;
    const int trap_a = pass.placement.zoneOf(gate.q0);
    const int trap_b = pass.placement.zoneOf(gate.q1);
    MUSSTI_ASSERT(trap_a != trap_b, "scheduleStep on executable gate");

    // Move the operand with fewer remaining gates toward the busier one.
    int mover = gate.q0;
    int dest = trap_b;
    if (pass.remainingDegree[gate.q1] <
        pass.remainingDegree[gate.q0]) {
        mover = gate.q1;
        dest = trap_a;
    }
    relocate(pass, mover, dest, gate.q0, gate.q1);
    executeNode(pass, chosen);
}

} // namespace mussti
