/**
 * @file
 * Direct tests for the Schedule container API and op descriptions —
 * pieces the compiler suites exercise only indirectly.
 */
#include <gtest/gtest.h>

#include <cmath>

#include "arch/eml_device.h"
#include "arch/grid_device.h"
#include "common/error.h"
#include "sim/schedule.h"

namespace mussti {
namespace {

static_assert(sizeof(PackedOp) == 16);

/** A fiber gate carrying every field, with a settable cost. */
ScheduledOp
fullOp(double duration_us, double nbar)
{
    ScheduledOp op;
    op.kind = OpKind::FiberGate;
    op.q0 = kMaxOpIndex;
    op.q1 = 7;
    op.zoneFrom = 3;
    op.zoneTo = -1;
    op.durationUs = duration_us;
    op.nbar = nbar;
    op.circuitGate = 1 << 30;
    op.inserted = true;
    op.enterFront = false;
    return op;
}

void
expectSameOp(const ScheduledOp &a, const ScheduledOp &b)
{
    EXPECT_EQ(a.kind, b.kind);
    EXPECT_EQ(a.q0, b.q0);
    EXPECT_EQ(a.q1, b.q1);
    EXPECT_EQ(a.zoneFrom, b.zoneFrom);
    EXPECT_EQ(a.zoneTo, b.zoneTo);
    EXPECT_EQ(a.durationUs, b.durationUs);
    EXPECT_EQ(a.nbar, b.nbar);
    EXPECT_EQ(a.circuitGate, b.circuitGate);
    EXPECT_EQ(a.inserted, b.inserted);
    EXPECT_EQ(a.enterFront, b.enterFront);
}

TEST(OpStream, PackedOpsDecodeToWhatWasPushed)
{
    Schedule schedule;
    const ScheduledOp a = fullOp(200.0, 0.0);
    ScheduledOp b;
    b.kind = OpKind::Merge;
    b.q0 = 0;
    b.zoneTo = kMaxOpIndex;
    b.durationUs = 80.0;
    b.nbar = 0.1;
    schedule.push(a);
    schedule.push(b);
    ASSERT_EQ(schedule.ops.size(), 2u);
    expectSameOp(schedule.ops[0], a);
    expectSameOp(schedule.ops[1], b);
    std::size_t i = 0;
    for (const ScheduledOp &op : schedule.ops)
        expectSameOp(op, i++ == 0 ? a : b);
    EXPECT_EQ(schedule.ops.end() - schedule.ops.begin(), 2);
}

TEST(OpStream, CostPairsInternByBitPattern)
{
    OpStream ops;
    ops.push_back(fullOp(10.0, 0.5));
    ops.push_back(fullOp(10.0, 0.5));
    ops.push_back(fullOp(10.0, 0.0));
    ops.push_back(fullOp(10.0, -0.0)); // A distinct bit pattern.
    ops.push_back(fullOp(10.0, 0.5));
    EXPECT_EQ(ops.costs().size(), 3u);
    EXPECT_EQ(ops.packed()[4].cost, ops.packed()[0].cost);
    EXPECT_TRUE(std::signbit(ops[3].nbar));
    EXPECT_FALSE(std::signbit(ops[2].nbar));
}

TEST(OpStream, EditsKeepTheStreamDecodable)
{
    OpStream ops;
    for (int i = 0; i < 4; ++i)
        ops.push_back(fullOp(1.0 + i, 0.0));
    ops.set(0, fullOp(9.0, 0.0));
    ops.insert(1, fullOp(8.0, 0.0));
    ops.erase(4);
    ASSERT_EQ(ops.size(), 4u);
    EXPECT_EQ(ops[0].durationUs, 9.0);
    EXPECT_EQ(ops[1].durationUs, 8.0);
    EXPECT_EQ(ops[2].durationUs, 2.0);
    EXPECT_EQ(ops[3].durationUs, 3.0);
}

TEST(OpStream, ByteCountIsSixteenPerOpPlusTheTable)
{
    OpStream ops;
    for (int i = 0; i < 1000; ++i)
        ops.push_back(fullOp(i % 2 == 0 ? 10.0 : 80.0, 0.1));
    ops.shrink_to_fit();
    EXPECT_EQ(ops.costs().size(), 2u);
    EXPECT_LE(ops.bytes(), 1000 * sizeof(PackedOp) + 256);
}

TEST(OpStream, ATableOverflowIsAStructuredError)
{
    OpStream ops;
    ops.reserve(OpStream::kMaxCosts + 1);
    for (std::size_t i = 0; i < OpStream::kMaxCosts; ++i)
        ops.push_back(fullOp(static_cast<double>(i), 0.0));
    ASSERT_EQ(ops.costs().size(), OpStream::kMaxCosts);
    // Repeating a known pair still fits.
    ops.push_back(fullOp(0.0, 0.0));
    try {
        ops.push_back(fullOp(-1.0, 0.0));
        FAIL() << "pushed past the cost table";
    } catch (const MusstiError &error) {
        EXPECT_EQ(error.category(), ErrorCategory::ResourceExhausted);
        EXPECT_EQ(error.code(), "resource.op-cost-table");
    }
    EXPECT_EQ(ops.size(), OpStream::kMaxCosts + 1);
    EXPECT_EQ(ops[OpStream::kMaxCosts - 1].durationUs,
              static_cast<double>(OpStream::kMaxCosts - 1));
}

TEST(OpStream, AnIndexPastInt16IsRefused)
{
    OpStream ops;
    ScheduledOp op = fullOp(1.0, 0.0);
    op.q1 = kMaxOpIndex + 1;
    try {
        ops.push_back(op);
        FAIL() << "packed a qubit past int16";
    } catch (const MusstiError &error) {
        EXPECT_EQ(error.code(), "input.require");
    }
    EXPECT_TRUE(ops.empty());
}

TEST(OpStream, FromPackedRejectsInconsistentTables)
{
    OpStream ops;
    ops.push_back(fullOp(1.0, 0.0));
    ops.push_back(fullOp(2.0, 0.0));
    const auto rebuilt = OpStream::fromPacked(ops.packed(), ops.costs());
    ASSERT_TRUE(rebuilt.has_value());
    expectSameOp((*rebuilt)[1], ops[1]);

    std::vector<PackedOp> bad_index = ops.packed();
    bad_index[1].cost = 2;
    EXPECT_FALSE(OpStream::fromPacked(bad_index, ops.costs()));
    std::vector<PackedOp> bad_kind = ops.packed();
    bad_kind[0].kind = 7;
    EXPECT_FALSE(OpStream::fromPacked(bad_kind, ops.costs()));
    std::vector<OpCost> repeated = ops.costs();
    repeated[1] = repeated[0];
    EXPECT_FALSE(OpStream::fromPacked(ops.packed(), repeated));
}

TEST(OpStream, DevicesPastInt16IndicesAreRefused)
{
    EXPECT_THROW(EmlDevice(EmlConfig{}, kMaxOpIndex + 1), MusstiError);
    GridConfig grid;
    grid.width = 40;
    grid.height = 40;
    grid.trapCapacity = 30; // 48,000 slots.
    EXPECT_THROW(GridDevice{grid}, MusstiError);
}

TEST(ScheduleApi, PushMaintainsCounters)
{
    Schedule schedule;
    ScheduledOp merge;
    merge.kind = OpKind::Merge;
    merge.q0 = 0;
    merge.zoneTo = 0;
    schedule.push(merge);
    schedule.push(merge);
    ScheduledOp swap;
    swap.kind = OpKind::IonSwap;
    swap.q0 = 0;
    swap.q1 = 1;
    schedule.push(swap);
    EXPECT_EQ(schedule.shuttleCount, 2);
    EXPECT_EQ(schedule.ionSwapCount, 1);
}

TEST(ScheduleApi, ExtraShuttleBooking)
{
    Schedule schedule;
    schedule.addExtraShuttles(3);
    EXPECT_EQ(schedule.shuttleCount, 3);
}

TEST(ScheduleApi, SerialDurationSumsOps)
{
    Schedule schedule;
    ScheduledOp op;
    op.kind = OpKind::Gate1Q;
    op.q0 = 0;
    op.durationUs = 5.0;
    schedule.push(op);
    op.durationUs = 40.0;
    schedule.push(op);
    EXPECT_DOUBLE_EQ(schedule.serialDurationUs(), 45.0);
}

TEST(ScheduleApi, SnapshotRoundTripsPlacement)
{
    const EmlDevice device(EmlConfig{}, 8);
    Placement placement(8, device.numZones());
    const auto zones = device.zonesOfModule(0);
    placement.insert(0, zones[1], ChainEnd::Back);
    placement.insert(1, zones[1], ChainEnd::Front);
    for (int q = 2; q < 8; ++q)
        placement.insert(q, zones[0], ChainEnd::Back);

    Schedule schedule;
    schedule.initialChains = Schedule::snapshotChains(placement);
    const Placement rebuilt = schedule.initialPlacement(8);

    for (int q = 0; q < 8; ++q) {
        EXPECT_EQ(rebuilt.zoneOf(q), placement.zoneOf(q)) << q;
        EXPECT_EQ(rebuilt.chainIndex(q), placement.chainIndex(q)) << q;
    }
}

TEST(ScheduleApi, OpDescribeMentionsEverything)
{
    ScheduledOp op;
    op.kind = OpKind::FiberGate;
    op.q0 = 3;
    op.q1 = 40;
    op.zoneFrom = 2;
    op.zoneTo = 6;
    op.durationUs = 200.0;
    op.inserted = true;
    const std::string text = op.describe();
    EXPECT_NE(text.find("fiber-gate"), std::string::npos);
    EXPECT_NE(text.find("q3"), std::string::npos);
    EXPECT_NE(text.find("q40"), std::string::npos);
    EXPECT_NE(text.find("z2"), std::string::npos);
    EXPECT_NE(text.find("z6"), std::string::npos);
    EXPECT_NE(text.find("[inserted]"), std::string::npos);
}

TEST(ScheduleApi, ShuttlePrimitiveClassification)
{
    ScheduledOp op;
    for (OpKind kind : {OpKind::Split, OpKind::Move, OpKind::Merge,
                        OpKind::IonSwap}) {
        op.kind = kind;
        EXPECT_TRUE(op.isShuttlePrimitive()) << opKindName(kind);
        EXPECT_FALSE(op.isGate());
    }
    for (OpKind kind : {OpKind::Gate1Q, OpKind::Gate2Q,
                        OpKind::FiberGate}) {
        op.kind = kind;
        EXPECT_TRUE(op.isGate()) << opKindName(kind);
    }
}

TEST(ScheduleApi, OpKindNamesDistinct)
{
    std::set<std::string> names;
    for (OpKind kind : {OpKind::Split, OpKind::Move, OpKind::Merge,
                        OpKind::IonSwap, OpKind::Gate1Q, OpKind::Gate2Q,
                        OpKind::FiberGate}) {
        names.insert(opKindName(kind));
    }
    EXPECT_EQ(names.size(), 7u);
}

} // namespace
} // namespace mussti
