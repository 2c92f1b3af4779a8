/**
 * @file
 * Tests for the MUSS-TI scheduler and compiler facade: every produced
 * schedule must validate against the source circuit, and the scheduling
 * policies must show their signature behaviours (executable-first
 * draining, low shuttle counts on streaming workloads, fiber gates for
 * cross-module work).
 */
#include <gtest/gtest.h>

#include "common/hash.h"
#include "core/compiler.h"
#include "core/mapper.h"
#include "core/scheduler.h"
#include "sim/validator.h"
#include "workloads/workloads.h"

namespace mussti {
namespace {

CompileResult
compileWith(const Circuit &circuit, MappingKind mapping,
            bool swap_insertion = true)
{
    MusstiConfig config;
    config.mapping = mapping;
    config.enableSwapInsertion = swap_insertion;
    return MusstiCompiler(config).compile(circuit);
}

void
expectValid(const Circuit &circuit, const CompileResult &result)
{
    MusstiConfig config;
    const EmlDevice device(config.device, circuit.numQubits());
    const auto report = ScheduleValidator(device.zoneInfos())
                            .validate(result.schedule, result.lowered);
    EXPECT_TRUE(report) << report.firstError;
}

TEST(Scheduler, GhzSingleModuleValid)
{
    const Circuit qc = makeGhz(32);
    const auto result = compileWith(qc, MappingKind::Trivial);
    expectValid(qc, result);
    EXPECT_EQ(result.metrics.gate2qCount +
              result.metrics.fiberGateCount, 31);
}

TEST(Scheduler, GhzStreamingHasFewShuttles)
{
    // A linear chain through a 32-slot gate area: the LRU stream should
    // need far fewer shuttles than gates.
    const Circuit qc = makeGhz(32);
    const auto result = compileWith(qc, MappingKind::Trivial);
    EXPECT_LT(result.metrics.shuttleCount, 16);
}

TEST(Scheduler, SingleModuleHasNoFiberGates)
{
    const Circuit qc = makeAdder(32);
    const auto result = compileWith(qc, MappingKind::Trivial);
    EXPECT_EQ(result.metrics.fiberGateCount, 0);
    expectValid(qc, result);
}

TEST(Scheduler, CrossModuleUsesFiber)
{
    // 64 qubits -> 2 modules; GHZ crosses the boundary exactly once
    // per chain link across modules.
    const Circuit qc = makeGhz(64);
    const auto result = compileWith(qc, MappingKind::Trivial, false);
    EXPECT_GE(result.metrics.fiberGateCount, 1);
    expectValid(qc, result);
}

TEST(Scheduler, ExecutableGatesDrainWithoutRouting)
{
    // Two gates already co-located in the optical zone execute with
    // zero shuttles under trivial mapping (qubits 0..15 share zone).
    Circuit qc(32, "drain");
    qc.cx(0, 1);
    qc.cx(2, 3);
    const auto result = compileWith(qc, MappingKind::Trivial);
    EXPECT_EQ(result.metrics.shuttleCount, 0);
    expectValid(qc, result);
}

TEST(Scheduler, OneQubitGatesAreCostedNotRouted)
{
    Circuit qc(32, "oneq");
    qc.h(0);
    qc.h(31); // resident in storage under trivial mapping
    qc.cx(0, 1);
    const auto result = compileWith(qc, MappingKind::Trivial);
    EXPECT_EQ(result.metrics.gate1qCount, 2);
    EXPECT_EQ(result.metrics.shuttleCount, 0);
}

TEST(Scheduler, MeasureAndBarrierAreFree)
{
    Circuit qc(32, "free");
    qc.cx(0, 1);
    qc.measure(0);
    qc.measure(1);
    qc.add(Gate(GateKind::Barrier, -1));
    const auto result = compileWith(qc, MappingKind::Trivial);
    EXPECT_EQ(result.metrics.gate1qCount, 0);
    EXPECT_EQ(result.metrics.gate2qCount, 1);
}

TEST(Scheduler, LoweredCircuitDecomposesSwaps)
{
    Circuit qc(32, "sw");
    qc.swap(0, 20);
    const auto result = compileWith(qc, MappingKind::Trivial);
    EXPECT_EQ(result.lowered.twoQubitCount(), 3);
    expectValid(qc, result);
}

TEST(Scheduler, SchedulerRunRejectsPartialPlacement)
{
    MusstiConfig config;
    const Circuit qc = makeGhz(8);
    const EmlDevice device(config.device, 8);
    const PhysicalParams params;
    MusstiScheduler scheduler(device, params, config);
    Placement partial(8, device.numZones()); // nothing placed
    EXPECT_THROW(scheduler.run(qc, partial), std::runtime_error);
}

TEST(Scheduler, CompileTimeIsMeasured)
{
    const auto result = compileWith(makeAdder(64), MappingKind::Sabre);
    EXPECT_GT(result.compileTimeSec, 0.0);
}

TEST(Scheduler, MetricsTimeMatchesScheduleSum)
{
    const auto result = compileWith(makeQft(16), MappingKind::Trivial);
    EXPECT_NEAR(result.metrics.executionTimeUs,
                result.schedule.serialDurationUs(), 1e-9);
}

/**
 * FNV-1a fingerprint over everything a compilation produces: the full
 * op stream (every field of every op), the initial and final chain
 * snapshots, the counters, and the headline metrics. Any behavioural
 * drift in the scheduler/router/SWAP-inserter changes it.
 */
std::uint64_t
scheduleFingerprint(const CompileResult &r)
{
    Fnv1a h;
    h.update(static_cast<std::uint64_t>(r.schedule.ops.size()));
    for (const ScheduledOp &op : r.schedule.ops) {
        h.update(static_cast<int>(op.kind));
        h.update(op.q0);
        h.update(op.q1);
        h.update(op.zoneFrom);
        h.update(op.zoneTo);
        h.update(op.durationUs);
        h.update(op.nbar);
        h.update(op.circuitGate);
        h.update(op.inserted);
        h.update(op.enterFront);
    }
    for (const auto &chain : r.schedule.initialChains) {
        h.update(static_cast<std::uint64_t>(chain.size()));
        for (int q : chain)
            h.update(q);
    }
    for (const auto &chain : r.finalChains) {
        h.update(static_cast<std::uint64_t>(chain.size()));
        for (int q : chain)
            h.update(q);
    }
    h.update(r.schedule.shuttleCount);
    h.update(r.schedule.ionSwapCount);
    h.update(r.schedule.insertedSwapGates);
    h.update(r.swapInsertions);
    h.update(r.evictions);
    h.update(r.metrics.shuttleCount);
    h.update(r.metrics.executionTimeUs);
    h.update(r.metrics.lnFidelity);
    return h.digest();
}

struct GoldenCase
{
    const char *family;
    int qubits;
    MappingKind mapping;
    ReplacementPolicy policy;
    std::uint64_t fingerprint;
};

/**
 * Golden fingerprints captured from the pre-incremental-window
 * implementation (the PR-1 tree, whose scheduler recomputed the whole
 * look-ahead window per routing step). The incremental DAG window,
 * nextUse snapshotting, lazy weight rows, distance table, and arena
 * reuse must all be pure optimisations: schedules and metrics stay
 * bit-identical. If an INTENTIONAL behaviour change ever lands, refresh
 * these constants in the same commit and say so in its message.
 */
TEST(Scheduler, BitIdenticalToPreIncrementalWindowImplementation)
{
    const GoldenCase cases[] = {
        {"adder", 16, MappingKind::Trivial,
         ReplacementPolicy::AnticipatoryLru, 0xb9187d857d8727f8ull},
        {"adder", 48, MappingKind::Sabre,
         ReplacementPolicy::AnticipatoryLru, 0x7f671609132e03adull},
        {"bv", 48, MappingKind::Sabre,
         ReplacementPolicy::AnticipatoryLru, 0xd1cbd994e5467a2bull},
        {"ghz", 64, MappingKind::Sabre,
         ReplacementPolicy::AnticipatoryLru, 0xde02e8451cc0bd8aull},
        {"qaoa", 48, MappingKind::Sabre,
         ReplacementPolicy::AnticipatoryLru, 0xc0f43afa63592fb0ull},
        {"qft", 32, MappingKind::Sabre,
         ReplacementPolicy::AnticipatoryLru, 0x0fe7e02abaeb3ec6ull},
        {"sqrt", 45, MappingKind::Sabre,
         ReplacementPolicy::AnticipatoryLru, 0x48c6afefa71e0c0eull},
        {"ran", 40, MappingKind::Sabre,
         ReplacementPolicy::AnticipatoryLru, 0x58a2db1e0094056dull},
        {"sc", 36, MappingKind::Sabre,
         ReplacementPolicy::AnticipatoryLru, 0xb0c28092aa9b9f79ull},
        {"adder", 128, MappingKind::Sabre,
         ReplacementPolicy::AnticipatoryLru, 0x9da91635a092ba24ull},
        {"qaoa", 96, MappingKind::Sabre,
         ReplacementPolicy::AnticipatoryLru, 0x1040969b00253364ull},
        {"ran", 40, MappingKind::Sabre, ReplacementPolicy::Lru,
         0xa60e1087b9b955a0ull},
        {"ran", 40, MappingKind::Sabre, ReplacementPolicy::Fifo,
         0x3771b757ac38925dull},
        {"ran", 40, MappingKind::Sabre, ReplacementPolicy::Random,
         0x55b80d6e0f148401ull},
    };
    for (const GoldenCase &c : cases) {
        MusstiConfig config;
        config.mapping = c.mapping;
        config.replacement = c.policy;
        const auto result =
            MusstiCompiler(config).compile(makeBenchmark(c.family,
                                                         c.qubits));
        EXPECT_EQ(scheduleFingerprint(result), c.fingerprint)
            << c.family << "_n" << c.qubits << " diverged from the "
            << "pre-incremental-window scheduler";
    }
}

/**
 * The incrementally maintained executable-ready worklist must drain in
 * exactly the order of the historical full-frontier re-scan: compile
 * every family under both drains and compare full fingerprints. This is
 * the cross-check oracle behind MusstiConfig::incrementalFrontier —
 * relocation dirtying (shuttles, evictions, logical SWAP exchanges) and
 * mid-round requeue ordering all fold into the fingerprint.
 */
TEST(Scheduler, FrontierWorklistMatchesFullRescan)
{
    const char *families[] = {"adder", "bv", "ghz", "qaoa", "qft",
                              "sqrt", "ran", "sc"};
    const ReplacementPolicy policies[] = {
        ReplacementPolicy::AnticipatoryLru, ReplacementPolicy::Lru,
        ReplacementPolicy::Fifo, ReplacementPolicy::Random};
    for (const char *family : families) {
        for (int qubits : {48, 96}) {
            const Circuit qc = makeBenchmark(family, qubits);
            MusstiConfig incremental;
            MusstiConfig rescan;
            rescan.incrementalFrontier = false;
            const auto fast = MusstiCompiler(incremental).compile(qc);
            const auto slow = MusstiCompiler(rescan).compile(qc);
            EXPECT_EQ(scheduleFingerprint(fast),
                      scheduleFingerprint(slow))
                << family << "_n" << qubits
                << ": worklist drain diverged from the full re-scan";
        }
    }
    // The drains must also agree under every replacement policy — each
    // policy takes a different victim, so relocation-dirtying patterns
    // differ.
    for (const ReplacementPolicy policy : policies) {
        const Circuit qc = makeBenchmark("ran", 64);
        MusstiConfig incremental;
        incremental.replacement = policy;
        MusstiConfig rescan = incremental;
        rescan.incrementalFrontier = false;
        EXPECT_EQ(scheduleFingerprint(
                      MusstiCompiler(incremental).compile(qc)),
                  scheduleFingerprint(MusstiCompiler(rescan).compile(qc)))
            << "policy " << static_cast<int>(policy)
            << ": worklist drain diverged from the full re-scan";
    }
}

/** Every workload family at several sizes must produce valid schedules
 * under both mappings — the central correctness property sweep. */
class SchedulerPropertyTest
    : public ::testing::TestWithParam<
          std::tuple<const char *, int, MappingKind>>
{};

TEST_P(SchedulerPropertyTest, ScheduleValidates)
{
    const auto [family, n, mapping] = GetParam();
    const Circuit qc = makeBenchmark(family, n);
    const auto result = compileWith(qc, mapping);
    MusstiConfig config;
    const EmlDevice device(config.device, qc.numQubits());
    const auto report = ScheduleValidator(device.zoneInfos())
                            .validate(result.schedule, result.lowered);
    ASSERT_TRUE(report) << family << "_n" << n << ": "
                        << report.firstError;
    // Coverage: every 2q gate of the lowered circuit is in the stream.
    EXPECT_EQ(result.metrics.gate2qCount + result.metrics.fiberGateCount -
                  3 * result.metrics.insertedSwapGates,
              result.lowered.twoQubitCount());
}

INSTANTIATE_TEST_SUITE_P(
    AllFamilies, SchedulerPropertyTest,
    ::testing::Combine(
        ::testing::Values("adder", "bv", "ghz", "qaoa", "qft", "sqrt",
                          "ran", "sc"),
        ::testing::Values(16, 32, 48),
        ::testing::Values(MappingKind::Trivial, MappingKind::Sabre)));

/** Larger multi-module sweep (slower; fewer combos). */
class SchedulerScaleTest
    : public ::testing::TestWithParam<std::pair<const char *, int>>
{};

TEST_P(SchedulerScaleTest, MultiModuleValidates)
{
    const auto [family, n] = GetParam();
    const Circuit qc = makeBenchmark(family, n);
    const auto result = compileWith(qc, MappingKind::Sabre);
    MusstiConfig config;
    const EmlDevice device(config.device, qc.numQubits());
    const auto report = ScheduleValidator(device.zoneInfos())
                            .validate(result.schedule, result.lowered);
    ASSERT_TRUE(report) << report.firstError;
    EXPECT_GT(device.numModules(), 1);
}

INSTANTIATE_TEST_SUITE_P(
    MediumSizes, SchedulerScaleTest,
    ::testing::Values(std::pair{"adder", 128}, std::pair{"bv", 128},
                      std::pair{"ghz", 128}, std::pair{"qaoa", 128},
                      std::pair{"sqrt", 117}));

} // namespace
} // namespace mussti
