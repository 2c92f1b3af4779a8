/**
 * @file
 * Construction of named compiler backends.
 *
 * The one place that knows every concrete compiler; bench drivers and
 * the CLI resolve a backend by name here and then talk only to the
 * ICompilerBackend interface. Adding a backend = adding a branch here
 * (plus the backend itself), nothing else.
 */
#ifndef MUSSTI_BASELINES_BACKEND_FACTORY_H
#define MUSSTI_BASELINES_BACKEND_FACTORY_H

#include <memory>
#include <string>
#include <vector>

#include "arch/device_registry.h"
#include "arch/grid_device.h"
#include "core/backend.h"
#include "core/config.h"
#include "sim/params.h"

namespace mussti {

/** The MUSS-TI compiler as a shareable backend. */
std::shared_ptr<const ICompilerBackend>
makeMusstiBackend(const MusstiConfig &config = {},
                  const PhysicalParams &params = {});

/**
 * A grid baseline by name: "murali" [55], "dai" [13], or "mqt" [70]
 * (case-insensitive). fatal() on unknown names.
 */
std::shared_ptr<const ICompilerBackend>
makeGridBackend(const std::string &which, const GridConfig &grid,
                const PhysicalParams &params = {});

/**
 * Backend `name` (case-insensitive: "mussti" or a grid baseline) for
 * the device `spec`: MUSS-TI compiles under `config` with its device
 * replaced by the spec's, a grid baseline on the spec's grid. A spec of
 * the other family is InvalidInput (`input.device-mismatch`). compile_cli,
 * lint_cli, the compile daemon and the tuner all resolve here, so a
 * served compile is configured exactly like a local one.
 */
std::shared_ptr<const ICompilerBackend>
makeBackendFor(const std::string &name, const DeviceSpec &spec,
               MusstiConfig config = {});

/** The grid baseline names makeGridBackend() accepts. */
std::vector<std::string> gridBackendNames();

} // namespace mussti

#endif // MUSSTI_BASELINES_BACKEND_FACTORY_H
