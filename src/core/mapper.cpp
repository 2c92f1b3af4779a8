#include "core/mapper.h"

#include <algorithm>
#include <vector>

#include "common/logging.h"

namespace mussti {

Placement
trivialPlacement(const EmlDevice &device, int num_qubits)
{
    MUSSTI_REQUIRE(num_qubits == device.numQubits(),
                   "placement qubit count must match the device sizing");
    Placement placement(num_qubits, device.numZones());

    for (int m = 0; m < device.numModules(); ++m) {
        const auto [lo, hi] = device.moduleQubitRange(m);
        // Zones ordered by level descending (optical, operation,
        // storage); stable on position for determinism.
        std::vector<int> zones = device.zonesOfModule(m);
        std::stable_sort(zones.begin(), zones.end(),
                         [&](int a, int b) {
                             return device.zone(a).level() >
                                    device.zone(b).level();
                         });
        int next = lo;
        for (int z : zones) {
            for (int slot = 0; slot < device.zone(z).capacity &&
                 next < hi; ++slot) {
                placement.insert(next, z, ChainEnd::Back);
                ++next;
            }
        }
        MUSSTI_REQUIRE(next == hi, "module " << m << " cannot hold its "
                       "qubit share");
    }
    return placement;
}

} // namespace mussti
