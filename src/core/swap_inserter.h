/**
 * @file
 * Logical SWAP insertion across modules (paper section 3.3).
 *
 * After a cross-module (fiber) gate on (qa, qb): for each operand q with
 * no remaining near-future work on its own module (W(q, module(q)) == 0),
 * if some other module cj holds more than T future partners and contains
 * a qubit qc that is itself idle on cj (W(qc, cj) == 0), a logical SWAP
 * (three fiber MS gates) exchanges q and qc. The paper requires T >= 3
 * because a SWAP costs three entangling gates; the default is 4.
 */
#ifndef MUSSTI_CORE_SWAP_INSERTER_H
#define MUSSTI_CORE_SWAP_INSERTER_H

#include <vector>

#include "arch/eml_device.h"
#include "arch/placement.h"
#include "core/config.h"
#include "core/lru.h"
#include "core/router.h"
#include "core/weight_table.h"
#include "dag/dag.h"
#include "sim/params.h"
#include "sim/schedule.h"

namespace mussti {

/** The SWAP-insertion pass, invoked after every fiber gate. */
class SwapInserter
{
  public:
    SwapInserter(const EmlDevice &device, const PhysicalParams &params,
                 const MusstiConfig &config, Placement &placement,
                 Schedule &schedule, Router &router, LruTracker &lru);

    /**
     * Consider migrating qa and/or qb after their fiber gate. Each
     * logical SWAP performed (0, 1, or 2) counts in the schedule's
     * insertedSwapGates.
     */
    void maybeInsert(const DependencyDag &dag, int qubit_a, int qubit_b);

  private:
    const EmlDevice &device_;
    const PhysicalParams &params_;
    const MusstiConfig &config_;
    Placement &placement_;
    Schedule &schedule_;
    Router &router_;
    LruTracker &lru_;
    WeightTable weights_; ///< Lazy weight view re-bound per maybeInsert;
                          ///< row storage reused across the whole pass.

    /**
     * Pick the exchange partner on the target module, or -1. The
     * excluded qubits are exactly the two operands of the triggering
     * fiber gate, so they arrive as plain ids — no exclusion list to
     * build or scan per chain resident.
     */
    int choosePartner(const WeightTable &weights, int target_module,
                      int exclude_a, int exclude_b) const;

    /** Emit the 3-fiber-gate SWAP and exchange the placements. */
    void performSwap(int qubit, int partner);
};

} // namespace mussti

#endif // MUSSTI_CORE_SWAP_INSERTER_H
