/**
 * @file
 * Tests for the device models: zone taxonomy, EML module construction,
 * fiber links, geometry, and the grid substrate.
 */
#include <vector>

#include <gtest/gtest.h>

#include "arch/eml_device.h"
#include "arch/grid_device.h"
#include "arch/zone.h"

namespace mussti {
namespace {

TEST(Zone, LevelsMatchHierarchy)
{
    EXPECT_EQ(zoneLevel(ZoneKind::Storage), 0);
    EXPECT_EQ(zoneLevel(ZoneKind::Operation), 1);
    EXPECT_EQ(zoneLevel(ZoneKind::Optical), 2);
}

TEST(Zone, GateCapability)
{
    EXPECT_FALSE(isGateCapable(ZoneKind::Storage));
    EXPECT_TRUE(isGateCapable(ZoneKind::Operation));
    EXPECT_TRUE(isGateCapable(ZoneKind::Optical));
}

TEST(EmlDevice, ModuleCountFromQubits)
{
    const EmlConfig config;
    EXPECT_EQ(EmlDevice(config, 32).numModules(), 1);
    EXPECT_EQ(EmlDevice(config, 33).numModules(), 2);
    EXPECT_EQ(EmlDevice(config, 128).numModules(), 4);
    EXPECT_EQ(EmlDevice(config, 299).numModules(), 10);
}

TEST(EmlDevice, ForcedModuleCount)
{
    EmlConfig config;
    config.forcedNumModules = 3;
    EXPECT_EQ(EmlDevice(config, 16).numModules(), 3);
}

TEST(EmlDevice, DefaultModuleZoneMix)
{
    const EmlDevice device(EmlConfig{}, 64);
    for (int m = 0; m < device.numModules(); ++m) {
        EXPECT_EQ(device.zonesOfKind(m, ZoneKind::Storage).size(), 2u);
        EXPECT_EQ(device.zonesOfKind(m, ZoneKind::Operation).size(), 1u);
        EXPECT_EQ(device.zonesOfKind(m, ZoneKind::Optical).size(), 1u);
        EXPECT_EQ(device.gateZonesOfModule(m).size(), 2u);
    }
}

TEST(EmlDevice, TwoOpticalZoneVariant)
{
    EmlConfig config;
    config.numOpticalZones = 2;
    const EmlDevice device(config, 64);
    EXPECT_EQ(device.zonesOfKind(0, ZoneKind::Optical).size(), 2u);
    EXPECT_EQ(device.zonesOfModule(0).size(), 5u);
}

TEST(EmlDevice, ZonesBelongToTheirModule)
{
    const EmlDevice device(EmlConfig{}, 96);
    for (int m = 0; m < device.numModules(); ++m) {
        for (int z : device.zonesOfModule(m))
            EXPECT_EQ(device.zone(z).module, m);
    }
}

TEST(EmlDevice, FiberLinksOnlyCrossModuleOptical)
{
    const EmlDevice device(EmlConfig{}, 64);
    const int optical0 = device.zonesOfKind(0, ZoneKind::Optical)[0];
    const int optical1 = device.zonesOfKind(1, ZoneKind::Optical)[0];
    const int storage0 = device.zonesOfKind(0, ZoneKind::Storage)[0];
    EXPECT_TRUE(device.fiberLinked(optical0, optical1));
    EXPECT_FALSE(device.fiberLinked(optical0, optical0));
    EXPECT_FALSE(device.fiberLinked(optical0, storage0));
}

TEST(EmlDevice, IntraModuleDistances)
{
    const EmlDevice device(EmlConfig{}, 32);
    const auto zones = device.zonesOfModule(0);
    // Adjacent traps are one pitch apart.
    EXPECT_DOUBLE_EQ(device.distanceUm(zones[0], zones[1]),
                     device.config().zonePitchUm);
    EXPECT_DOUBLE_EQ(device.distanceUm(zones[0], zones[3]),
                     3 * device.config().zonePitchUm);
}

TEST(EmlDevice, CrossModuleDistancePanics)
{
    const EmlDevice device(EmlConfig{}, 64);
    const int z0 = device.zonesOfModule(0)[0];
    const int z1 = device.zonesOfModule(1)[0];
    EXPECT_THROW(device.distanceUm(z0, z1), std::logic_error);
}

TEST(EmlDevice, ModuleQubitRanges)
{
    const EmlDevice device(EmlConfig{}, 70);
    EXPECT_EQ(device.moduleQubitRange(0), (std::pair{0, 32}));
    EXPECT_EQ(device.moduleQubitRange(1), (std::pair{32, 64}));
    EXPECT_EQ(device.moduleQubitRange(2), (std::pair{64, 70}));
}

TEST(EmlDevice, SlotAccounting)
{
    const EmlDevice device(EmlConfig{}, 32);
    EXPECT_EQ(device.moduleSlotCount(0), 4 * 16);
}

TEST(EmlDevice, RejectsUndersizedModules)
{
    EmlConfig config;
    config.trapCapacity = 2;  // 4 zones * 2 = 8 slots < 32 qubits
    EXPECT_THROW(EmlDevice(config, 32), std::runtime_error);
}

TEST(EmlDevice, RejectsCapacityOne)
{
    EmlConfig config;
    config.trapCapacity = 1;
    EXPECT_THROW(EmlDevice(config, 2), std::runtime_error);
}

TEST(GridDevice, NeighborsInterior)
{
    const GridDevice grid(GridConfig{3, 3, 4});
    const auto n = grid.neighbors(4); // center of 3x3
    EXPECT_EQ(n.size(), 4u);
}

TEST(GridDevice, NeighborsCorner)
{
    const GridDevice grid(GridConfig{3, 3, 4});
    EXPECT_EQ(grid.neighbors(0).size(), 2u);
}

TEST(GridDevice, HopDistanceIsManhattan)
{
    const GridDevice grid(GridConfig{4, 5, 4});
    EXPECT_EQ(grid.hopDistance(0, grid.trapAt(4, 3)), 7);
    EXPECT_EQ(grid.hopDistance(3, 3), 0);
}

TEST(GridDevice, PathEndsAtTargetAndHasHopLength)
{
    const GridDevice grid(GridConfig{4, 4, 4});
    const int from = grid.trapAt(0, 0);
    const int to = grid.trapAt(2, 3);
    std::vector<int> path;
    grid.forEachPathTrap(from, to, [&](int t) { path.push_back(t); });
    ASSERT_FALSE(path.empty());
    EXPECT_EQ(path.back(), to);
    EXPECT_EQ(static_cast<int>(path.size()), grid.hopDistance(from, to));
    // Consecutive hops are adjacent.
    int prev = from;
    for (int t : path) {
        EXPECT_EQ(grid.hopDistance(prev, t), 1);
        prev = t;
    }
}

TEST(GridDevice, AllTrapsGateCapable)
{
    const GridDevice grid(GridConfig{2, 2, 12});
    for (const auto &info : grid.zoneInfos())
        EXPECT_TRUE(info.gateCapable());
}

TEST(GridDevice, SlotCount)
{
    EXPECT_EQ(GridDevice(GridConfig{2, 3, 8}).slotCount(), 48);
}

} // namespace
} // namespace mussti
