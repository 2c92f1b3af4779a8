/**
 * @file
 * SWAP-insertion weight table (paper section 3.3).
 *
 * W(q, c) counts the two-qubit gates within the first k layers of the
 * remaining dependency DAG that involve qubit q and a partner currently
 * resident on module c. A qubit with W(q, module(q)) == 0 has no near-
 * future work where it lives; if some other module holds more than T
 * future partners, migrating the qubit there (via a logical SWAP) saves
 * shuttles.
 *
 * The table is a lazy view, not a materialised matrix: a qubit's window
 * gates are a prefix of its dependency chain (window depths are
 * non-decreasing along a chain), so one row costs O(k) chain entries.
 * The SWAP-insertion hot path touches a handful of rows per fiber gate,
 * which makes the on-demand rows far cheaper than rebuilding the full
 * numQubits x numModules matrix each time. Values are identical to an
 * eager build from a k-layer peel of the remaining DAG (the tests'
 * reference peel, tests/dag_reference.h) — each row counts exactly the
 * window gates touching that qubit. The look-ahead must stay inside
 * the DAG's window: k <= windowHorizon().
 */
#ifndef MUSSTI_CORE_WEIGHT_TABLE_H
#define MUSSTI_CORE_WEIGHT_TABLE_H

#include <cstddef>
#include <utility>
#include <vector>

#include "arch/eml_device.h"
#include "arch/placement.h"
#include "common/logging.h"
#include "dag/dag.h"

namespace mussti {

/** Lazy view of W(q, c) over the first k layers of a DAG. */
class WeightTable
{
  public:
    /** Unbound table; bind() before the first query. */
    WeightTable() = default;

    /** Bind to the current DAG window and placement (cheap). */
    WeightTable(const DependencyDag &dag, const Placement &placement,
                const EmlDevice &device, int look_ahead)
    {
        bind(dag, placement, device, look_ahead);
    }

    /**
     * (Re)bind the view. O(1): rows are computed on first use per
     * qubit. Queries reflect the bound structures' state at query time;
     * call again (or invalidateCache) after mutating the placement or
     * DAG to drop the row cache.
     */
    void
    bind(const DependencyDag &dag, const Placement &placement,
         const EmlDevice &device, int look_ahead)
    {
        MUSSTI_ASSERT(look_ahead <= dag.windowHorizon(),
                      "weight-table look-ahead " << look_ahead
                      << " beyond the DAG window horizon "
                      << dag.windowHorizon());
        dag_ = &dag;
        placement_ = &placement;
        device_ = &device;
        lookAhead_ = look_ahead;
        numModules_ = device.numModules();
        invalidateCache();
    }

    /** Drop the cached row (after a placement/DAG mutation). */
    void
    invalidateCache()
    {
        rowQubit_ = -1;
    }

    /**
     * Pre-size the row storage for a device's module count, so the
     * first query inside the scheduling loop performs no allocation.
     */
    void
    reserve(int num_modules)
    {
        row_.reserve(static_cast<std::size_t>(num_modules));
    }

    /** W(q, module). */
    int weight(int qubit, int module) const;

    /** Sum over all modules of W(q, *): near-future activity of q. */
    int totalWeight(int qubit) const;

    /**
     * Module with the highest W(q, *) other than `exclude_module`;
     * returns {-1, 0} when the qubit has no cross-module future work.
     */
    std::pair<int, int> bestForeignModule(int qubit,
                                          int exclude_module) const;

  private:
    const DependencyDag *dag_ = nullptr;
    const Placement *placement_ = nullptr;
    const EmlDevice *device_ = nullptr;
    int lookAhead_ = 0;
    int numModules_ = 0;

    mutable std::vector<int> row_; ///< Cached row, numModules wide.
    mutable int rowQubit_ = -1;    ///< Owner of row_, or -1.

    /** Compute (or fetch) the qubit's row of module counts. */
    const std::vector<int> &row(int qubit) const;
};

} // namespace mussti

#endif // MUSSTI_CORE_WEIGHT_TABLE_H
