/**
 * @file
 * Reference reads of a DependencyDag's look-ahead window, built only on
 * its public API: the non-destructive layer peel the incremental window
 * replaced, and one window layer as a set. Tests cross-check the
 * window (depths, nextUse, threshold reads), the SWAP-insertion weight
 * table and the Dai baseline's future cost against them.
 */
#ifndef MUSSTI_TESTS_DAG_REFERENCE_H
#define MUSSTI_TESTS_DAG_REFERENCE_H

#include <algorithm>
#include <utility>
#include <vector>

#include "dag/dag.h"

namespace mussti {

/**
 * Nodes in the first `k` layers of the remaining graph, layer by layer,
 * each ascending: layer 0 is the frontier, layer i+1 the nodes unlocked
 * when layers <= i retire. Non-destructive.
 */
inline std::vector<std::vector<DagNodeId>>
frontLayers(const DependencyDag &dag, int k)
{
    std::vector<std::vector<DagNodeId>> layers;
    // Simulated retirement on a copy of the pending-predecessor counts
    // (-1 = not reached yet).
    std::vector<int> pending(static_cast<std::size_t>(dag.size()), -1);
    std::vector<DagNodeId> current = dag.frontier();
    for (int layer = 0; layer < k && !current.empty(); ++layer) {
        std::vector<DagNodeId> next;
        for (DagNodeId id : current) {
            for (DagNodeId succ : dag.successors(id)) {
                if (pending[succ] < 0)
                    pending[succ] = dag.node(succ).pendingPreds;
                if (--pending[succ] == 0)
                    next.push_back(succ);
            }
        }
        std::sort(next.begin(), next.end());
        layers.push_back(std::move(current));
        current = std::move(next);
    }
    return layers;
}

/**
 * Unfinished nodes whose window depth is exactly `depth`
 * (0 <= depth < windowHorizon()), ascending; for depth < k <= horizon,
 * layer `depth` of frontLayers(dag, k).
 */
inline std::vector<DagNodeId>
windowLayer(const DependencyDag &dag, int depth)
{
    std::vector<DagNodeId> layer;
    dag.forEachWindowNode([&](DagNodeId id) {
        if (dag.windowDepth(id) == depth)
            layer.push_back(id);
    });
    std::sort(layer.begin(), layer.end());
    return layer;
}

} // namespace mussti

#endif // MUSSTI_TESTS_DAG_REFERENCE_H
