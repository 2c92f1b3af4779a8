/**
 * @file
 * Schedule validation: is a compiled schedule physically legal and
 * logically equivalent to its source circuit? The answer comes from the
 * schedule linter (lint/schedule_linter.h), the one schedule oracle;
 * this is its first-error view, tagged with the invariant the error
 * breaks:
 *  P1  Chain legality (sch.shuttle, sch.placement): Split removes a
 *      chain-edge ion; IonSwap exchanges adjacent ions; Merge inserts at
 *      an edge; Move follows a Split of the same ion.
 *  P2  Capacity (sch.capacity): no zone ever exceeds its capacity.
 *  P3  Gate placement (sch.zone): Gate2Q has both qubits co-resident in
 *      one gate-capable zone; FiberGate couples two optical zones of
 *      different modules with the qubits resident there; Gate1Q acts on
 *      a resident qubit.
 *  P4  Completeness and order (sch.dep-order, sch.coverage): the
 *      non-inserted two-qubit gate ops cover the circuit's two-qubit
 *      gates exactly once each, in an order consistent with the
 *      dependency DAG.
 *  P5  SWAP-insertion soundness (sch.swap-triple): inserted gates come
 *      in triples on a fixed qubit pair (a logical SWAP decomposition).
 */
#ifndef MUSSTI_SIM_VALIDATOR_H
#define MUSSTI_SIM_VALIDATOR_H

#include <string>

#include "circuit/circuit.h"
#include "sim/schedule.h"

namespace mussti {

class TargetDevice; // arch/target_device.h

/** Result of validation: ok() or the first violated invariant. */
struct ValidationReport
{
    bool valid = true;
    std::string firstError;

    explicit operator bool() const { return valid; }
};

/** Stateless validator bound to a device (which must outlive it). */
class ScheduleValidator
{
  public:
    explicit ScheduleValidator(const TargetDevice &device)
        : device_(device)
    {}

    /** Lint the schedule; report its first error, if any. */
    ValidationReport validate(const Schedule &schedule,
                              const Circuit &circuit) const;

  private:
    const TargetDevice &device_;
};

} // namespace mussti

#endif // MUSSTI_SIM_VALIDATOR_H
