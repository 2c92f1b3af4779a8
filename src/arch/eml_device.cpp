#include "arch/eml_device.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/logging.h"
#include "common/string_util.h"
#include "sim/op.h"

namespace mussti {

namespace {

/** The zone mix of module `m` under the config (uniform or per-module). */
EmlModuleMix
mixOfModule(const EmlConfig &config, int m)
{
    if (!config.moduleMix.empty())
        return config.moduleMix[m];
    return {config.numStorageZones, config.numOperationZones,
            config.numOpticalZones};
}

} // namespace

EmlDevice::EmlDevice(const EmlConfig &config, int num_qubits)
    : TargetDevice(DeviceFamily::Eml), config_(config),
      numQubits_(num_qubits)
{
    MUSSTI_REQUIRE(num_qubits > 0, "device needs a positive qubit count");
    MUSSTI_REQUIRE(num_qubits <= kMaxOpIndex,
                   "device of " << num_qubits << " qubits exceeds the "
                   << kMaxOpIndex << " a schedule can index");
    MUSSTI_REQUIRE(config.trapCapacity >= 2,
                   "trap capacity must be >= 2 (two-qubit gates need "
                   "co-located ions)");

    int num_modules;
    if (!config.moduleMix.empty()) {
        num_modules = static_cast<int>(config.moduleMix.size());
        MUSSTI_REQUIRE(config.forcedNumModules < 1 ||
                       config.forcedNumModules == num_modules,
                       "forcedNumModules (" << config.forcedNumModules
                       << ") disagrees with the heterogeneous module mix ("
                       << num_modules << " modules)");
    } else {
        num_modules = config.forcedNumModules >= 1
            ? config.forcedNumModules
            : (num_qubits + config.maxQubitsPerModule - 1) /
                  config.maxQubitsPerModule;
    }
    for (int m = 0; m < num_modules; ++m) {
        const EmlModuleMix mix = mixOfModule(config, m);
        MUSSTI_REQUIRE(mix.operation >= 1,
                       "module " << m << " needs an operation zone");
        MUSSTI_REQUIRE(mix.optical >= 1,
                       "module " << m << " needs an optical zone");
        MUSSTI_REQUIRE(mix.storage >= 0,
                       "module " << m << " has a negative storage count");
    }

    std::vector<ZoneInfo> zones;
    std::vector<std::pair<int, int>> edges;
    moduleZones_.resize(num_modules);
    for (int m = 0; m < num_modules; ++m) {
        const EmlModuleMix mix = mixOfModule(config, m);

        // Capacity sanity: the module's qubit share must fit with at
        // least one free slot per gate zone so routing can always make
        // progress.
        const int zones_per_module = mix.storage + mix.operation +
            mix.optical;
        const int slots_per_module = zones_per_module *
            config.trapCapacity;
        const int lo = m * config.maxQubitsPerModule;
        const int hi = std::min(num_qubits,
                                lo + config.maxQubitsPerModule);
        const int assigned = std::max(0, hi - lo);
        MUSSTI_REQUIRE(assigned == 0 || slots_per_module >= assigned + 2,
                       "module " << m << " slots (" << slots_per_module
                       << ") cannot hold its qubit share (" << assigned
                       << ") plus routing headroom; enlarge capacity or "
                       "add zones");

        // Spatial order: storage half, operation, optical, storage half.
        std::vector<ZoneKind> order;
        const int lead_storage = mix.storage / 2;
        for (int i = 0; i < lead_storage; ++i)
            order.push_back(ZoneKind::Storage);
        for (int i = 0; i < mix.operation; ++i)
            order.push_back(ZoneKind::Operation);
        for (int i = 0; i < mix.optical; ++i)
            order.push_back(ZoneKind::Optical);
        for (int i = lead_storage; i < mix.storage; ++i)
            order.push_back(ZoneKind::Storage);

        for (std::size_t slot = 0; slot < order.size(); ++slot) {
            ZoneInfo info;
            info.kind = order[slot];
            info.module = m;
            info.capacity = config.trapCapacity;
            info.positionUm = static_cast<double>(slot) * config.zonePitchUm;
            const int zone_id = static_cast<int>(zones.size());
            if (slot > 0)
                edges.emplace_back(zone_id - 1, zone_id);
            moduleZones_[m].push_back(zone_id);
            zones.push_back(info);
        }
    }
    MUSSTI_REQUIRE(static_cast<long long>(num_modules) *
                       config.maxQubitsPerModule >= num_qubits,
                   "device of " << num_modules << " modules cannot hold "
                   << num_qubits << " qubits at " <<
                   config.maxQubitsPerModule << " per module");

    finalizeTopology(std::move(zones), edges);

    // Per-module kind and gate-capability indices: the router queries
    // these inside its plan-costing loops, so resolve them once.
    for (auto &by_kind : moduleZonesByKind_)
        by_kind.resize(num_modules);
    moduleGateZones_.resize(num_modules);
    for (int m = 0; m < num_modules; ++m) {
        for (int z : moduleZones_[m]) {
            moduleZonesByKind_[zoneLevel(zone(z).kind)][m].push_back(z);
            if (zone(z).gateCapable())
                moduleGateZones_[m].push_back(z);
        }
    }

    // Zone-distance lookup: distanceUm sits inside the router's
    // plan-costing loops, so resolve the geometry once here. Cross-
    // module pairs stay -1 (ions never shuttle between modules).
    const int nz = numZones();
    zoneDistanceUm_.assign(static_cast<std::size_t>(nz) * nz, -1.0);
    for (int m = 0; m < num_modules; ++m) {
        for (int a : moduleZones_[m]) {
            for (int b : moduleZones_[m]) {
                zoneDistanceUm_[static_cast<std::size_t>(a) * nz + b] =
                    std::fabs(zone(a).positionUm - zone(b).positionUm);
            }
        }
    }
}

const std::vector<int> &
EmlDevice::zonesOfModule(int module) const
{
    MUSSTI_ASSERT(module >= 0 && module < numModules(),
                  "module " << module << " out of range");
    return moduleZones_[module];
}

const std::vector<int> &
EmlDevice::zonesOfKind(int module, ZoneKind kind) const
{
    MUSSTI_ASSERT(module >= 0 && module < numModules(),
                  "module " << module << " out of range");
    return moduleZonesByKind_[zoneLevel(kind)][module];
}

const std::vector<int> &
EmlDevice::gateZonesOfModule(int module) const
{
    MUSSTI_ASSERT(module >= 0 && module < numModules(),
                  "module " << module << " out of range");
    return moduleGateZones_[module];
}

double
EmlDevice::distanceUm(int zone_a, int zone_b) const
{
    MUSSTI_ASSERT(zone_a >= 0 && zone_a < numZones() && zone_b >= 0 &&
                  zone_b < numZones(),
                  "distanceUm zone out of range: " << zone_a << ", "
                  << zone_b);
    const double distance =
        zoneDistanceUm_[static_cast<std::size_t>(zone_a) * numZones() +
                        zone_b];
    MUSSTI_ASSERT(distance >= 0.0,
                  "distanceUm across modules "
                  << zone(zone_a).module << " and "
                  << zone(zone_b).module
                  << "; ions cannot shuttle between modules");
    return distance;
}

bool
EmlDevice::fiberLinked(int zone_a, int zone_b) const
{
    const ZoneInfo &a = zone(zone_a);
    const ZoneInfo &b = zone(zone_b);
    return a.kind == ZoneKind::Optical && b.kind == ZoneKind::Optical &&
           a.module != b.module;
}

int
EmlDevice::moduleSlotCount(int module) const
{
    int slots = 0;
    for (int z : zonesOfModule(module))
        slots += zone(z).capacity;
    return slots;
}

std::pair<int, int>
EmlDevice::moduleQubitRange(int module) const
{
    const int per = config_.maxQubitsPerModule;
    const int lo = module * per;
    const int hi = std::min(numQubits_, lo + per);
    return {lo, std::max(lo, hi)};
}

std::string
emlSpecString(const EmlConfig &config)
{
    std::ostringstream out;
    out << "eml:";
    if (!config.moduleMix.empty()) {
        out << "hetero=";
        for (std::size_t m = 0; m < config.moduleMix.size(); ++m) {
            const EmlModuleMix &mix = config.moduleMix[m];
            if (m > 0)
                out << "-";
            out << mix.storage << "." << mix.operation << "."
                << mix.optical;
        }
        out << ",cap=" << config.trapCapacity;
    } else {
        out << "cap=" << config.trapCapacity
            << ",storage=" << config.numStorageZones
            << ",op=" << config.numOperationZones
            << ",optical=" << config.numOpticalZones;
        if (config.forcedNumModules >= 1)
            out << ",modules=" << config.forcedNumModules;
    }
    out << ",maxq=" << config.maxQubitsPerModule;
    if (config.zonePitchUm != 200.0)
        out << ",pitch=" << formatCompact(config.zonePitchUm);
    return out.str();
}

std::string
EmlDevice::spec() const
{
    return emlSpecString(config_);
}

std::string
EmlDevice::describe() const
{
    std::ostringstream out;
    out << "EML-QCCD" << (config_.moduleMix.empty() ? "" : " (heterogeneous)")
        << ": " << numModules() << " module(s), " << numZones()
        << " zones, trap capacity " << config_.trapCapacity << ", "
        << slotCount() << " slots";
    return out.str();
}

} // namespace mussti
