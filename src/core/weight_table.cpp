#include "core/weight_table.h"

#include "common/logging.h"

namespace mussti {

const std::vector<int> &
WeightTable::row(int qubit) const
{
    MUSSTI_ASSERT(dag_ != nullptr, "query on an unbound weight table");
    if (rowQubit_ == qubit)
        return row_;
    row_.assign(numModules_, 0);

    // The qubit's window gates are a chain prefix: walk it until the
    // first node at or beyond the look-ahead depth. Counts match an
    // eager layer-peel build exactly (tests/dag_reference.h) — that
    // build increments this row once per window gate touching the
    // qubit, which is precisely this prefix. withinLayers is the DAG's
    // threshold read: it settles only the layers the answer needs.
    const QubitChainView chain = dag_->qubitChain(qubit);
    for (int i = dag_->qubitChainHead(qubit); i < chain.size(); ++i) {
        const DagNodeId id = chain[i];
        if (!dag_->withinLayers(id, lookAhead_))
            break;
        const Gate &g = dag_->node(id).gate;
        const int partner = g.q0 == qubit ? g.q1 : g.q0;
        const int zone = placement_->zoneOf(partner);
        MUSSTI_ASSERT(zone >= 0, "weight table over unplaced qubits");
        ++row_[device_->zone(zone).module];
    }

    rowQubit_ = qubit;
    return row_;
}

int
WeightTable::weight(int qubit, int module) const
{
    MUSSTI_ASSERT(module >= 0 && module < numModules_,
                  "weight table module out of range");
    return row(qubit)[module];
}

int
WeightTable::totalWeight(int qubit) const
{
    const std::vector<int> &r = row(qubit);
    int total = 0;
    for (int m = 0; m < numModules_; ++m)
        total += r[m];
    return total;
}

std::pair<int, int>
WeightTable::bestForeignModule(int qubit, int exclude_module) const
{
    const std::vector<int> &r = row(qubit);
    int best_module = -1;
    int best_weight = 0;
    for (int m = 0; m < numModules_; ++m) {
        if (m == exclude_module)
            continue;
        if (r[m] > best_weight) {
            best_weight = r[m];
            best_module = m;
        }
    }
    return {best_module, best_weight};
}

} // namespace mussti
