#include "arch/grid_device.h"

#include <sstream>

#include "common/logging.h"
#include "common/string_util.h"
#include "sim/op.h"

namespace mussti {

GridDevice::GridDevice(const GridConfig &config)
    : TargetDevice(DeviceFamily::Grid), config_(config)
{
    MUSSTI_REQUIRE(config.width >= 1 && config.height >= 1,
                   "grid needs positive dimensions");
    MUSSTI_REQUIRE(config.trapCapacity > 0, "trap capacity must be > 0");
    // Qubits are bounded by slots; a schedule indexes them as int16.
    const long long slots = static_cast<long long>(config.width) *
                            config.height * config.trapCapacity;
    MUSSTI_REQUIRE(slots <= kMaxOpIndex,
                   "grid of " << slots << " slots exceeds the "
                   << kMaxOpIndex << " qubits a schedule can index");

    std::vector<ZoneInfo> zones;
    std::vector<std::pair<int, int>> edges;
    for (int t = 0; t < numTraps(); ++t) {
        ZoneInfo info;
        info.kind = ZoneKind::Operation;
        info.module = 0;
        info.capacity = config.trapCapacity;
        // 1D projection of the 2D position; hop metrics use row/col.
        info.positionUm = (rowOf(t) + colOf(t)) * config.pitchUm;
        zones.push_back(info);
        // Undirected lattice edges, emitted once per pair. Neighbour
        // order per trap: up, left precede down, right via edge order
        // (up/left edges were emitted by the earlier endpoint).
        if (rowOf(t) + 1 < config.height)
            edges.emplace_back(t, trapAt(rowOf(t) + 1, colOf(t)));
        if (colOf(t) + 1 < config.width)
            edges.emplace_back(t, trapAt(rowOf(t), colOf(t) + 1));
    }
    finalizeTopology(std::move(zones), edges);
}

std::string
gridSpecString(const GridConfig &config)
{
    std::ostringstream out;
    out << "grid:" << config.width << "x" << config.height
        << ",cap=" << config.trapCapacity;
    if (config.pitchUm != 200.0)
        out << ",pitch=" << formatCompact(config.pitchUm);
    return out.str();
}

std::string
GridDevice::spec() const
{
    return gridSpecString(config_);
}

std::string
GridDevice::describe() const
{
    std::ostringstream out;
    out << "grid QCCD: " << config_.width << "x" << config_.height
        << " traps, trap capacity " << config_.trapCapacity << ", "
        << slotCount() << " slots";
    return out.str();
}

} // namespace mussti
