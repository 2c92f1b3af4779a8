/**
 * @file
 * Tests for the schedule validator: it must accept well-formed op
 * streams and reject every class of physical or logical violation
 * (these are the invariants the compiler tests then rely on).
 */
#include <gtest/gtest.h>

#include "arch/eml_device.h"
#include "sim/shuttle_emitter.h"
#include "sim/validator.h"

namespace mussti {
namespace {

/** Two-module fixture with a tiny circuit scheduled by hand. */
class ValidatorTest : public ::testing::Test
{
  protected:
    ValidatorTest() : device_(EmlConfig{}, 64), circuit_(64, "hand")
    {
    }

    /** Places qubit q in the given zone (back edge). */
    Placement
    basePlacement() const
    {
        Placement p(64, device_.numZones());
        for (int q = 0; q < 64; ++q) {
            const int module = q < 32 ? 0 : 1;
            const auto zones = device_.zonesOfModule(module);
            p.insert(q, zones[q % zones.size()], ChainEnd::Back);
        }
        return p;
    }

    ScheduledOp
    gate2q(int a, int b, int zone) const
    {
        ScheduledOp op;
        op.kind = OpKind::Gate2Q;
        op.q0 = a;
        op.q1 = b;
        op.zoneFrom = op.zoneTo = zone;
        op.durationUs = 40.0;
        return op;
    }

    EmlDevice device_;
    Circuit circuit_;
    PhysicalParams params_;
};

TEST_F(ValidatorTest, AcceptsEmptyScheduleOfEmptyCircuit)
{
    Placement p = basePlacement();
    Schedule schedule;
    schedule.initialChains = Schedule::snapshotChains(p);
    const ScheduleValidator validator(device_);
    EXPECT_TRUE(validator.validate(schedule, circuit_));
}

TEST_F(ValidatorTest, AcceptsColocatedGate)
{
    // Qubits 1 and 5 share zone index 1 (operation) of module 0.
    circuit_.cx(1, 5);
    Placement p = basePlacement();
    Schedule schedule;
    schedule.initialChains = Schedule::snapshotChains(p);
    ScheduledOp op = gate2q(1, 5, device_.zonesOfModule(0)[1]);
    op.circuitGate = 0;
    schedule.push(op);
    EXPECT_TRUE(ScheduleValidator(device_)
                    .validate(schedule, circuit_));
}

TEST_F(ValidatorTest, RejectsSplitGate)
{
    circuit_.cx(0, 1); // zones 0 and 1
    Placement p = basePlacement();
    Schedule schedule;
    schedule.initialChains = Schedule::snapshotChains(p);
    ScheduledOp op = gate2q(0, 1, device_.zonesOfModule(0)[0]);
    op.circuitGate = 0;
    schedule.push(op);
    const auto report = ScheduleValidator(device_)
                            .validate(schedule, circuit_);
    EXPECT_FALSE(report);
    EXPECT_NE(report.firstError.find("P3"), std::string::npos);
}

TEST_F(ValidatorTest, RejectsGateInStorage)
{
    circuit_.cx(0, 4); // both in zone 0 (storage)
    Placement p = basePlacement();
    Schedule schedule;
    schedule.initialChains = Schedule::snapshotChains(p);
    ScheduledOp op = gate2q(0, 4, device_.zonesOfModule(0)[0]);
    op.circuitGate = 0;
    schedule.push(op);
    const auto report = ScheduleValidator(device_)
                            .validate(schedule, circuit_);
    EXPECT_FALSE(report);
    EXPECT_NE(report.firstError.find("storage"), std::string::npos);
}

TEST_F(ValidatorTest, RejectsMissingCoverage)
{
    circuit_.cx(1, 5);
    Placement p = basePlacement();
    Schedule schedule;
    schedule.initialChains = Schedule::snapshotChains(p);
    const auto report = ScheduleValidator(device_)
                            .validate(schedule, circuit_);
    EXPECT_FALSE(report);
    EXPECT_NE(report.firstError.find("P4"), std::string::npos);
}

TEST_F(ValidatorTest, RejectsOutOfOrderExecution)
{
    // Gate 1 depends on gate 0 via qubit 5.
    circuit_.cx(1, 5);
    circuit_.cx(5, 9);
    Placement p = basePlacement();
    Schedule schedule;
    schedule.initialChains = Schedule::snapshotChains(p);
    ScheduledOp second = gate2q(5, 9, device_.zonesOfModule(0)[1]);
    second.circuitGate = 1;
    schedule.push(second);
    ScheduledOp first = gate2q(1, 5, device_.zonesOfModule(0)[1]);
    first.circuitGate = 0;
    schedule.push(first);
    const auto report = ScheduleValidator(device_)
                            .validate(schedule, circuit_);
    EXPECT_FALSE(report);
    EXPECT_NE(report.firstError.find("P4"), std::string::npos);
}

TEST_F(ValidatorTest, AcceptsEmittedShuttles)
{
    circuit_.cx(0, 1);
    Placement p = basePlacement();
    Schedule schedule;
    schedule.initialChains = Schedule::snapshotChains(p);
    ShuttleEmitter emitter(device_.zoneInfos(), params_, p, schedule);
    emitter.relocate(0, device_.zonesOfModule(0)[1]);
    ScheduledOp op = gate2q(0, 1, device_.zonesOfModule(0)[1]);
    op.circuitGate = 0;
    schedule.push(op);
    EXPECT_TRUE(ScheduleValidator(device_)
                    .validate(schedule, circuit_));
}

TEST_F(ValidatorTest, RejectsHandForgedNonEdgeSplit)
{
    // Zone 0 holds 0,4,8,...: relocate the interior qubit 4 (index 1)
    // to the operation zone with a complete split -> move -> merge, so
    // only chain order can reject it.
    Placement p = basePlacement();
    Schedule schedule;
    schedule.initialChains = Schedule::snapshotChains(p);
    const int zone0 = device_.zonesOfModule(0)[0];
    const int zone1 = device_.zonesOfModule(0)[1];
    ScheduledOp split;
    split.kind = OpKind::Split;
    split.q0 = 4;
    split.zoneFrom = split.zoneTo = zone0;
    split.durationUs = 80.0;
    schedule.push(split);
    ScheduledOp move = split;
    move.kind = OpKind::Move;
    move.zoneTo = zone1;
    schedule.push(move);
    ScheduledOp merge = split;
    merge.kind = OpKind::Merge;
    merge.zoneFrom = merge.zoneTo = zone1;
    schedule.push(merge);
    const auto report = ScheduleValidator(device_)
                            .validate(schedule, circuit_);
    EXPECT_FALSE(report);
    EXPECT_NE(report.firstError.find("P1"), std::string::npos);
    EXPECT_NE(report.firstError.find("non-edge"), std::string::npos);
}

TEST_F(ValidatorTest, RejectsNonAdjacentIonSwap)
{
    // Zone 0's chain starts 0,4,8: qubits 0 and 8 are two apart.
    Placement p = basePlacement();
    Schedule schedule;
    schedule.initialChains = Schedule::snapshotChains(p);
    ScheduledOp swap;
    swap.kind = OpKind::IonSwap;
    swap.q0 = 0;
    swap.q1 = 8;
    swap.zoneFrom = swap.zoneTo = device_.zonesOfModule(0)[0];
    schedule.push(swap);
    const auto report = ScheduleValidator(device_)
                            .validate(schedule, circuit_);
    EXPECT_FALSE(report);
    EXPECT_NE(report.firstError.find("P1"), std::string::npos);
    EXPECT_NE(report.firstError.find("non-adjacent"), std::string::npos);

    // Swapping neighbours 0 and 4 is legal.
    swap.q1 = 4;
    schedule.ops.set(0, swap);
    EXPECT_TRUE(ScheduleValidator(device_).validate(schedule, circuit_));
}

TEST_F(ValidatorTest, RejectsMergeBeyondCapacity)
{
    EmlConfig tiny;
    tiny.trapCapacity = 2;
    tiny.maxQubitsPerModule = 6;
    const EmlDevice dev(tiny, 6);
    Circuit qc(6);
    Placement p(6, dev.numZones());
    const auto zones = dev.zonesOfModule(0);
    p.insert(0, zones[0], ChainEnd::Back);
    p.insert(1, zones[1], ChainEnd::Back);
    p.insert(2, zones[1], ChainEnd::Back);
    p.insert(3, zones[2], ChainEnd::Back);
    p.insert(4, zones[3], ChainEnd::Back);
    p.insert(5, zones[3], ChainEnd::Back);
    Schedule schedule;
    schedule.initialChains = Schedule::snapshotChains(p);
    // Forge: split qubit 0 from zones[0], merge into full zones[1].
    ScheduledOp split;
    split.kind = OpKind::Split;
    split.q0 = 0;
    split.zoneFrom = split.zoneTo = zones[0];
    schedule.push(split);
    ScheduledOp move;
    move.kind = OpKind::Move;
    move.q0 = 0;
    move.zoneFrom = zones[0];
    move.zoneTo = zones[1];
    schedule.push(move);
    ScheduledOp merge;
    merge.kind = OpKind::Merge;
    merge.q0 = 0;
    merge.zoneFrom = merge.zoneTo = zones[1];
    schedule.push(merge);
    const auto report =
        ScheduleValidator(dev).validate(schedule, qc);
    EXPECT_FALSE(report);
    EXPECT_NE(report.firstError.find("P2"), std::string::npos);
}

TEST_F(ValidatorTest, RejectsDanglingInFlightIon)
{
    Placement p = basePlacement();
    Schedule schedule;
    schedule.initialChains = Schedule::snapshotChains(p);
    ScheduledOp split;
    split.kind = OpKind::Split;
    split.q0 = 0;
    split.zoneFrom = split.zoneTo = device_.zonesOfModule(0)[0];
    schedule.push(split);
    const auto report = ScheduleValidator(device_)
                            .validate(schedule, circuit_);
    EXPECT_FALSE(report);
    EXPECT_NE(report.firstError.find("in flight"), std::string::npos);
}

TEST_F(ValidatorTest, FiberGateRequiresOpticalZones)
{
    circuit_.cx(0, 32); // module 0 and module 1, but storage zones
    Placement p = basePlacement();
    Schedule schedule;
    schedule.initialChains = Schedule::snapshotChains(p);
    ScheduledOp fiber;
    fiber.kind = OpKind::FiberGate;
    fiber.q0 = 0;
    fiber.q1 = 32;
    fiber.zoneFrom = device_.zonesOfModule(0)[0];
    fiber.zoneTo = device_.zonesOfModule(1)[0];
    fiber.circuitGate = 0;
    schedule.push(fiber);
    const auto report = ScheduleValidator(device_)
                            .validate(schedule, circuit_);
    EXPECT_FALSE(report);
    EXPECT_NE(report.firstError.find("optical"), std::string::npos);
}

TEST_F(ValidatorTest, AcceptsValidFiberGate)
{
    // Qubit 2 is in module 0's optical zone (index 2), qubit 34 in
    // module 1's optical zone.
    circuit_.cx(2, 34);
    Placement p = basePlacement();
    Schedule schedule;
    schedule.initialChains = Schedule::snapshotChains(p);
    ScheduledOp fiber;
    fiber.kind = OpKind::FiberGate;
    fiber.q0 = 2;
    fiber.q1 = 34;
    fiber.zoneFrom = device_.zonesOfModule(0)[2];
    fiber.zoneTo = device_.zonesOfModule(1)[2];
    fiber.durationUs = 200.0;
    fiber.circuitGate = 0;
    schedule.push(fiber);
    EXPECT_TRUE(ScheduleValidator(device_)
                    .validate(schedule, circuit_));
}

TEST_F(ValidatorTest, InsertedSwapTripleExchangesPlacement)
{
    // One real fiber gate, then an inserted logical SWAP of (2, 34),
    // then a local gate that is only legal *because* the swap moved
    // qubit 34 into module 0's optical zone.
    circuit_.cx(2, 34);
    circuit_.cx(34, 6); // 6 lives in zone 2 (optical) of module 0
    Placement p = basePlacement();
    Schedule schedule;
    schedule.initialChains = Schedule::snapshotChains(p);
    const int optical0 = device_.zonesOfModule(0)[2];
    const int optical1 = device_.zonesOfModule(1)[2];

    ScheduledOp fiber;
    fiber.kind = OpKind::FiberGate;
    fiber.q0 = 2;
    fiber.q1 = 34;
    fiber.zoneFrom = optical0;
    fiber.zoneTo = optical1;
    fiber.circuitGate = 0;
    schedule.push(fiber);

    for (int i = 0; i < 3; ++i) {
        ScheduledOp swap_gate;
        swap_gate.kind = OpKind::FiberGate;
        swap_gate.q0 = 2;
        swap_gate.q1 = 34;
        swap_gate.zoneFrom = optical0;
        swap_gate.zoneTo = optical1;
        swap_gate.inserted = true;
        schedule.push(swap_gate);
    }

    ScheduledOp local = gate2q(34, 6, optical0);
    local.circuitGate = 1;
    schedule.push(local);

    EXPECT_TRUE(ScheduleValidator(device_)
                    .validate(schedule, circuit_));
}

TEST_F(ValidatorTest, RejectsIncompleteSwapTriple)
{
    circuit_.cx(2, 34);
    Placement p = basePlacement();
    Schedule schedule;
    schedule.initialChains = Schedule::snapshotChains(p);
    const int optical0 = device_.zonesOfModule(0)[2];
    const int optical1 = device_.zonesOfModule(1)[2];
    ScheduledOp fiber;
    fiber.kind = OpKind::FiberGate;
    fiber.q0 = 2;
    fiber.q1 = 34;
    fiber.zoneFrom = optical0;
    fiber.zoneTo = optical1;
    fiber.circuitGate = 0;
    schedule.push(fiber);
    ScheduledOp swap_gate = fiber;
    swap_gate.circuitGate = -1;
    swap_gate.inserted = true;
    schedule.push(swap_gate); // only one of three
    const auto report = ScheduleValidator(device_)
                            .validate(schedule, circuit_);
    EXPECT_FALSE(report);
}

} // namespace
} // namespace mussti
