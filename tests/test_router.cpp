/**
 * @file
 * Tests for the multi-level router: plan selection, LRU conflict
 * eviction, multi-level demotion, and optical-zone routing.
 */
#include <memory>

#include <gtest/gtest.h>

#include "arch/eml_device.h"
#include "core/lru.h"
#include "core/router.h"

namespace mussti {
namespace {

TEST(Lru, VictimIsOldest)
{
    LruTracker lru(4);
    lru.touch(0);
    lru.touch(1);
    lru.touch(2);
    const ZoneChain zone{0, 1, 2};
    EXPECT_EQ(lru.victim(zone, -1, -1), 0);
    lru.touch(0);
    EXPECT_EQ(lru.victim(zone, -1, -1), 1);
}

TEST(Lru, NeverUsedBeatsUsed)
{
    LruTracker lru(4);
    lru.touch(0);
    const ZoneChain zone{0, 3};
    EXPECT_EQ(lru.victim(zone, -1, -1), 3);
}

TEST(Lru, ExclusionRespected)
{
    LruTracker lru(3);
    const ZoneChain zone{0, 1};
    EXPECT_EQ(lru.victim(zone, 0, -1), 1);
    EXPECT_EQ(lru.victim(zone, 0, 1), -1);
}

TEST(Lru, AllCandidatesExcludedReturnsSentinel)
{
    // Regression for the documented -1 contract: every caller must
    // guard it (grid spill dead-lock test exercises the caller side).
    LruTracker lru(4);
    lru.touch(0);
    lru.touch(1);
    const ZoneChain zone{0, 1};
    EXPECT_EQ(lru.victim(zone, 0, 1), -1);
    EXPECT_EQ(lru.victim(zone, 1, 0), -1);  // order irrelevant
    EXPECT_EQ(lru.victim({}, -1, -1), -1); // empty chain
    // A kept qubit outside the chain is harmless.
    EXPECT_EQ(lru.victim(ZoneChain{2}, 3, 2), -1);
}

/** Small 1-module fixture: capacity 4 per zone, 12 qubits. */
class RouterTest : public ::testing::Test
{
  protected:
    RouterTest()
    {
        config_.trapCapacity = 4;
        config_.maxQubitsPerModule = 12;
        device_ = std::make_unique<EmlDevice>(config_, 12);
        placement_ = std::make_unique<Placement>(12, device_->numZones());
        lru_ = std::make_unique<LruTracker>(12);
        // zones: [storage, operation, optical, storage]
        const auto zones = device_->zonesOfModule(0);
        for (int q = 0; q < 12; ++q)
            placement_->insert(q, zones[q / 4], ChainEnd::Back);
        schedule_.initialChains = Schedule::snapshotChains(*placement_);
        router_ = std::make_unique<Router>(*device_, params_, *placement_,
                                           schedule_, *lru_);
    }

    int zoneIdx(int i) const { return device_->zonesOfModule(0)[i]; }

    EmlConfig config_;
    PhysicalParams params_;
    std::unique_ptr<EmlDevice> device_;
    std::unique_ptr<Placement> placement_;
    std::unique_ptr<LruTracker> lru_;
    Schedule schedule_;
    std::unique_ptr<Router> router_;
};

TEST_F(RouterTest, MovesSingleQubitToPartnersGateZone)
{
    // q0 in storage, q4 in operation. The operation zone is full
    // (q4..q7), so the plan is one LRU eviction plus the move of q0:
    // exactly two shuttles.
    router_->routeForGate(0, 4);
    EXPECT_EQ(placement_->zoneOf(0), placement_->zoneOf(4));
    EXPECT_TRUE(device_->zone(placement_->zoneOf(0)).gateCapable());
    EXPECT_EQ(schedule_.shuttleCount, 2);
    EXPECT_EQ(router_->evictionCount(), 1);
}

TEST_F(RouterTest, BothInStorageMoveToGateZone)
{
    // q0, q1 both in storage zone 0: both move into a (full) gate zone,
    // displacing two residents: 4 shuttles total.
    router_->routeForGate(0, 1);
    const int zone = placement_->zoneOf(0);
    EXPECT_EQ(zone, placement_->zoneOf(1));
    EXPECT_TRUE(device_->zone(zone).gateCapable());
    EXPECT_EQ(schedule_.shuttleCount, 4);
    EXPECT_EQ(router_->evictionCount(), 2);
}

TEST_F(RouterTest, AlreadyColocatedGateZoneNoOp)
{
    // q4, q5 both already in the operation zone.
    router_->routeForGate(4, 5);
    EXPECT_EQ(schedule_.shuttleCount, 0);
}

TEST_F(RouterTest, ConflictEvictsLruToLowerLevel)
{
    // Fill the operation zone's LRU state: q4..q7 resident; touch all
    // but q5 so q5 is the victim.
    lru_->touch(4);
    lru_->touch(6);
    lru_->touch(7);
    // Optical zone q8..q11 is full too; route (0, 8): q0 must enter the
    // optical zone (partner there), forcing an eviction.
    lru_->touch(9);
    lru_->touch(10);
    lru_->touch(11);
    router_->routeForGate(0, 8);
    EXPECT_EQ(placement_->zoneOf(0), placement_->zoneOf(8));
    EXPECT_GE(router_->evictionCount(), 1);
    // q5 (the LRU victim of whichever gate zone got pressure) must have
    // been demoted out of it; every zone stays within capacity.
    for (int z = 0; z < device_->numZones(); ++z)
        EXPECT_LE(placement_->sizeOf(z), device_->zone(z).capacity);
}

TEST_F(RouterTest, EvictionTargetsLowerLevelFirst)
{
    // Make room in the operation zone so demotion from optical can land
    // there: move q4 out first (manually).
    lru_->touch(8); // protect-ish: make q8 newest
    // Route a storage qubit into the full optical zone: victim must be
    // demoted to operation (level 1) if it has space. Operation is full
    // (q4..q7), so first make space by routing one op-zone ion away is
    // implicit via cascade -- here we verify the fallback works at all
    // and placement stays legal.
    router_->routeForGate(0, 8);
    int total = 0;
    for (int z = 0; z < device_->numZones(); ++z) {
        EXPECT_LE(placement_->sizeOf(z), device_->zone(z).capacity);
        total += placement_->sizeOf(z);
    }
    EXPECT_EQ(total, 12);
}

TEST_F(RouterTest, RouteToOpticalIdempotent)
{
    router_->routeToOptical(8, {});
    EXPECT_EQ(schedule_.shuttleCount, 0);
    router_->routeToOptical(0, {});
    EXPECT_EQ(device_->zone(placement_->zoneOf(0)).kind,
              ZoneKind::Optical);
    EXPECT_GE(schedule_.shuttleCount, 1);
}

TEST_F(RouterTest, ProtectedQubitsSurviveEvictions)
{
    // Fill optical, then force q0+q8 gate: neither operand may be
    // evicted even under pressure.
    router_->routeForGate(0, 8);
    EXPECT_EQ(placement_->zoneOf(0), placement_->zoneOf(8));
}

TEST(RouterCross, CrossModuleRoutesBothToOptical)
{
    EmlConfig config;
    config.trapCapacity = 4;
    config.maxQubitsPerModule = 8;
    const EmlDevice device(config, 16); // 2 modules
    Placement placement(16, device.numZones());
    for (int q = 0; q < 16; ++q) {
        const int module = q / 8;
        // Module-local zones 0 (storage) and 1 (operation) only, so
        // both operands must shuttle into their optical zones.
        placement.insert(q, device.zonesOfModule(module)[(q % 8) / 4],
                         ChainEnd::Back);
    }
    Schedule schedule;
    schedule.initialChains = Schedule::snapshotChains(placement);
    LruTracker lru(16);
    PhysicalParams params;
    Router router(device, params, placement, schedule, lru);

    router.routeForGate(0, 8); // storage module 0 x storage module 1
    const int zone_a = placement.zoneOf(0);
    const int zone_b = placement.zoneOf(8);
    EXPECT_EQ(device.zone(zone_a).kind, ZoneKind::Optical);
    EXPECT_EQ(device.zone(zone_b).kind, ZoneKind::Optical);
    EXPECT_NE(device.zone(zone_a).module, device.zone(zone_b).module);
    EXPECT_EQ(schedule.shuttleCount, 2);
}

} // namespace
} // namespace mussti
