/**
 * @file
 * The polymorphic device layer every compiler backend targets.
 *
 * A TargetDevice is an immutable trap topology: a list of ZoneInfo
 * descriptors plus the shuttle connectivity between them. The base
 * class owns everything the passes, evaluators, and benches consume —
 * zone descriptors, kind/module queries, an index-based adjacency view
 * (no per-call vector), a precomputed O(1) hop-distance table, and a
 * describe()/spec() round trip through the DeviceRegistry grammar
 * (arch/device_registry.h). Concrete families (EmlDevice, GridDevice)
 * contribute only their geometry and family-specific vocabulary.
 *
 * All runtime state (ion placement, heat) lives elsewhere; a device is
 * safe to share across threads for the lifetime of a CompileService.
 */
#ifndef MUSSTI_ARCH_TARGET_DEVICE_H
#define MUSSTI_ARCH_TARGET_DEVICE_H

#include <string>
#include <utility>
#include <vector>

#include "arch/zone.h"
#include "common/logging.h"

namespace mussti {

/** Concrete topology families the registry can instantiate. */
enum class DeviceFamily { Eml, Grid };

/** Spec-grammar prefix of a family ("eml", "grid"). */
const char *deviceFamilyName(DeviceFamily family);

/**
 * Lightweight view into the device's CSR adjacency: the zones reachable
 * from one zone in a single shuttle hop. Valid as long as the device
 * lives; cheap to copy (two pointers), so the router's inner loops can
 * ask for neighbourhoods without allocating.
 */
class NeighborView
{
  public:
    NeighborView(const int *first, const int *last)
        : first_(first), last_(last)
    {}

    const int *begin() const { return first_; }
    const int *end() const { return last_; }
    int size() const { return static_cast<int>(last_ - first_); }
    bool empty() const { return first_ == last_; }

    int
    operator[](int i) const
    {
        MUSSTI_ASSERT(i >= 0 && i < size(),
                      "neighbor index " << i << " out of range");
        return first_[i];
    }

  private:
    const int *first_;
    const int *last_;
};

/**
 * Abstract immutable device topology. Construction order for derived
 * classes: validate the config, lay out zones and hop edges, then call
 * finalizeTopology() exactly once to freeze the adjacency and the
 * hop-distance table.
 */
class TargetDevice
{
  public:
    virtual ~TargetDevice() = default;

    DeviceFamily family() const { return family_; }
    const char *familyName() const { return deviceFamilyName(family_); }

    int numZones() const { return static_cast<int>(zones_.size()); }

    /** All zone descriptors (evaluator/timeline input). */
    const std::vector<ZoneInfo> &zoneInfos() const { return zones_; }

    /** Static zone descriptor by global zone id (hot path, inline). */
    const ZoneInfo &
    zone(int zone_id) const
    {
        MUSSTI_ASSERT(zone_id >= 0 && zone_id < numZones(),
                      "zone id " << zone_id << " out of range");
        return zones_[zone_id];
    }

    /** Zone-kind queries (shared vocabulary of every consumer). */
    ZoneKind kindOf(int zone_id) const { return zone(zone_id).kind; }
    bool gateCapable(int zone_id) const { return zone(zone_id).gateCapable(); }
    int moduleOf(int zone_id) const { return zone(zone_id).module; }

    /** Modules present (1 for monolithic grids). */
    int numModules() const { return numModules_; }

    /** Total ion slots on the device (sum of zone capacities). */
    int slotCount() const { return slotCount_; }

    /**
     * Zones reachable from `zone_id` in one shuttle hop, as a view into
     * the shared adjacency index — no per-call allocation.
     */
    NeighborView
    neighbors(int zone_id) const
    {
        MUSSTI_ASSERT(zone_id >= 0 && zone_id < numZones(),
                      "neighbors zone " << zone_id << " out of range");
        const int *base = adjacency_.data();
        return {base + adjacencyOffsets_[zone_id],
                base + adjacencyOffsets_[zone_id + 1]};
    }

    /**
     * Shuttle hops between two zones, served from a table precomputed
     * at construction (BFS over the adjacency) — this sits inside the
     * routers' plan-costing inner loops. Returns -1 for pairs no
     * shuttle path connects (e.g. zones of different EML modules).
     */
    int
    hopDistance(int zone_a, int zone_b) const
    {
        MUSSTI_ASSERT(zone_a >= 0 && zone_a < numZones() && zone_b >= 0 &&
                      zone_b < numZones(),
                      "hopDistance zone out of range: " << zone_a << ", "
                      << zone_b);
        return hopTable_[static_cast<std::size_t>(zone_a) * numZones() +
                         zone_b];
    }

    /**
     * Canonical DeviceRegistry spec string: parsing it re-creates this
     * topology (DeviceRegistry::parse(device.spec()) round-trips).
     */
    virtual std::string spec() const = 0;

    /** One-line human-readable topology summary. */
    virtual std::string describe() const = 0;

  protected:
    explicit TargetDevice(DeviceFamily family) : family_(family) {}

    TargetDevice(const TargetDevice &) = default;
    TargetDevice &operator=(const TargetDevice &) = default;

    /**
     * Freeze the topology: adopt the zone descriptors, build the CSR
     * adjacency from undirected hop `edges`, and precompute the all-
     * pairs hop-distance table (BFS per source; the device sizes this
     * library models keep that well under a millisecond).
     */
    void finalizeTopology(std::vector<ZoneInfo> zones,
                          const std::vector<std::pair<int, int>> &edges);

  private:
    DeviceFamily family_;
    std::vector<ZoneInfo> zones_;
    int numModules_ = 0;
    int slotCount_ = 0;
    std::vector<int> adjacencyOffsets_; ///< numZones+1 CSR offsets.
    std::vector<int> adjacency_;        ///< Flat neighbour lists.
    std::vector<int> hopTable_;         ///< numZones^2; -1 = unreachable.
};

} // namespace mussti

#endif // MUSSTI_ARCH_TARGET_DEVICE_H
