/**
 * @file
 * Initial mapping strategies (paper section 3.4).
 *
 * Trivial: qubits are placed in program order, module by module, filling
 * zones from the highest level downward (optical, operation, storage) —
 * "zones with higher levels typically offer superior functionality".
 *
 * SABRE: a two-fold search over full scheduling runs, implemented once
 * as SabreTwoFoldPass (core/compiler.cpp). The forward schedule's final
 * placement seeds a pass over the reversed circuit, whose final
 * placement seeds a refined forward pass — pre-loading qubits into the
 * working zones before use, like memory-block pre-loading.
 */
#ifndef MUSSTI_CORE_MAPPER_H
#define MUSSTI_CORE_MAPPER_H

#include "arch/eml_device.h"
#include "arch/placement.h"

namespace mussti {

/** Level-ordered sequential placement. */
Placement trivialPlacement(const EmlDevice &device, int num_qubits);

} // namespace mussti

#endif // MUSSTI_CORE_MAPPER_H
