#include "baselines/mqt_like.h"

#include "common/logging.h"

namespace mussti {

void
MqtLikeCompiler::scheduleStep(Pass &pass) const
{
    const DagNodeId chosen = pass.dag.frontier().front();
    const Gate &gate = pass.dag.node(chosen).gate;

    // Both operands must reach the processing trap.
    for (int q : {gate.q0, gate.q1}) {
        if (pass.placement.zoneOf(q) != processingTrap_)
            relocate(pass, q, processingTrap_, gate.q0, gate.q1);
    }
    executeNode(pass, chosen);
}

} // namespace mussti
