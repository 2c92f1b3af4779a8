/**
 * @file
 * Tests for the MUSS-TI scheduler and compiler facade: every produced
 * schedule must validate against the source circuit, and the scheduling
 * policies must show their signature behaviours (executable-first
 * draining, low shuttle counts on streaming workloads, fiber gates for
 * cross-module work).
 */
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/error.h"
#include "common/hash.h"
#include "common/rng.h"
#include "core/compile_service.h"
#include "core/compiler.h"
#include "core/frontier_worklist.h"
#include "core/mapper.h"
#include "core/scheduler.h"
#include "dag/dag.h"
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
    const auto report = ScheduleValidator(device)
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
 *
 * The rows after the first fourteen cover every family at 48 and 96
 * qubits and ran:64 under each replacement policy. They were captured
 * while the scheduler still carried the full-frontier re-scan drain,
 * and both drains produced these values; they keep the frontier
 * worklist's relocation dirtying (shuttles, evictions, logical SWAP
 * exchanges) pinned on real schedules. adder:48, bv:48, qaoa:48 and
 * qaoa:96 already appear above with the same values.
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
        {"adder", 96, MappingKind::Sabre,
         ReplacementPolicy::AnticipatoryLru, 0x540af4171fb14739ull},
        {"bv", 96, MappingKind::Sabre,
         ReplacementPolicy::AnticipatoryLru, 0xa2caaf90b46fae76ull},
        {"ghz", 48, MappingKind::Sabre,
         ReplacementPolicy::AnticipatoryLru, 0xfaf9f3688f826379ull},
        {"ghz", 96, MappingKind::Sabre,
         ReplacementPolicy::AnticipatoryLru, 0x3bad2333a7893655ull},
        {"qft", 48, MappingKind::Sabre,
         ReplacementPolicy::AnticipatoryLru, 0x2fe597d7e9d0c4c9ull},
        {"qft", 96, MappingKind::Sabre,
         ReplacementPolicy::AnticipatoryLru, 0x772ffd68228df192ull},
        {"sqrt", 48, MappingKind::Sabre,
         ReplacementPolicy::AnticipatoryLru, 0x428b897fc6166603ull},
        {"sqrt", 96, MappingKind::Sabre,
         ReplacementPolicy::AnticipatoryLru, 0xffe93079269784b1ull},
        {"ran", 48, MappingKind::Sabre,
         ReplacementPolicy::AnticipatoryLru, 0xc36e59dcea817bddull},
        {"ran", 96, MappingKind::Sabre,
         ReplacementPolicy::AnticipatoryLru, 0xed051f6f4001706aull},
        {"sc", 48, MappingKind::Sabre,
         ReplacementPolicy::AnticipatoryLru, 0x636a2ee307a0a7c2ull},
        {"sc", 96, MappingKind::Sabre,
         ReplacementPolicy::AnticipatoryLru, 0x6f287f8ae51e5c2bull},
        {"ran", 64, MappingKind::Sabre,
         ReplacementPolicy::AnticipatoryLru, 0xe3ca1c38d5e66273ull},
        {"ran", 64, MappingKind::Sabre, ReplacementPolicy::Lru,
         0x2ceb49a74d09ff6bull},
        {"ran", 64, MappingKind::Sabre, ReplacementPolicy::Fifo,
         0xf0f69bcd2d4a28a5ull},
        {"ran", 64, MappingKind::Sabre, ReplacementPolicy::Random,
         0x94e21114cf4b7e36ull},
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
 * A toy scheduling run for the FrontierWorklist oracle: qubits sit in
 * zones, and a gate executes when both operands share one. Executing
 * gate `id` also moves one qubit, keyed on `id` — as SWAP insertion
 * moves qubits right after a fiber gate, mid-round — and a routing
 * step between drains moves the first frontier gate's second operand
 * next to its first. With a worklist bound, every completion and every
 * move is reported to it.
 */
struct ZoneRun
{
    ZoneRun(const Circuit &circuit, int num_zones, std::uint64_t seed)
        : dag(circuit), zone(static_cast<std::size_t>(circuit.numQubits())),
          zones(num_zones)
    {
        Rng rng(seed);
        for (int &z : zone)
            z = rng.intIn(0, zones - 1);
    }

    DependencyDag dag;
    std::vector<int> zone;
    int zones;
    FrontierWorklist *worklist = nullptr;
    std::vector<DagNodeId> executed; ///< Completion order.
    int drained = 0;                 ///< Gates executed by a drain.

    bool
    executable(DagNodeId id) const
    {
        const Gate &g = dag.node(id).gate;
        return zone[g.q0] == zone[g.q1];
    }

    void
    move(int qubit, int to)
    {
        zone[qubit] = to;
        if (worklist != nullptr)
            worklist->onQubitMoved(qubit);
    }

    void
    execute(DagNodeId id)
    {
        dag.complete(id);
        executed.push_back(id);
        if (worklist != nullptr)
            worklist->noteCompleted(id);
        if (id % 3 != 2) {
            const int qubit = (id * 7 + 3) % static_cast<int>(zone.size());
            move(qubit, (zone[qubit] + 1 + id % (zones - 1)) % zones);
        }
    }

    void
    drainAndExecute(DagNodeId id)
    {
        if (executable(id)) {
            execute(id);
            ++drained;
        }
    }

    void
    route()
    {
        const DagNodeId id = dag.frontier().front();
        const Gate &g = dag.node(id).gate;
        move(g.q1, zone[g.q0]);
        execute(id);
    }
};

/** The historical drain: re-scan a frontier snapshot until fixpoint. */
void
fullRescanDrain(ZoneRun &run)
{
    bool progressed = true;
    while (progressed) {
        progressed = false;
        const std::vector<DagNodeId> snapshot = run.dag.frontier();
        for (DagNodeId id : snapshot) {
            if (run.dag.isReady(id) && run.executable(id)) {
                run.drainAndExecute(id);
                progressed = true;
            }
        }
    }
}

TEST(FrontierWorklist, MatchesFullRescanUnderMidRoundMoves)
{
    // The worklist must execute exactly the gate sequence of the full
    // re-scan, although it only re-checks gates that became ready or
    // had an operand moved — including moves made from inside the
    // visitor, whose gates re-enter the current round when ahead of
    // the cursor.
    for (std::uint64_t seed = 1; seed <= 24; ++seed) {
        const int qubits = 10 + static_cast<int>(seed % 5) * 4;
        const int zones = 3 + static_cast<int>(seed % 3);
        const Circuit qc = makeRandomCircuit(qubits, 12 * qubits, seed);

        ZoneRun rescan(qc, zones, seed);
        while (!rescan.dag.empty()) {
            fullRescanDrain(rescan);
            if (!rescan.dag.empty())
                rescan.route();
        }

        ZoneRun incremental(qc, zones, seed);
        FrontierWorklist worklist(incremental.dag);
        incremental.worklist = &worklist;
        while (!incremental.dag.empty()) {
            worklist.drain([&](DagNodeId id) {
                incremental.drainAndExecute(id);
            });
            if (!incremental.dag.empty())
                incremental.route();
        }

        ASSERT_EQ(incremental.executed, rescan.executed)
            << "seed " << seed << ": worklist drain diverged from the "
            << "full re-scan";
        // Not vacuous: both drains and routing steps did real work.
        EXPECT_GT(rescan.drained, 0) << "seed " << seed;
        EXPECT_LT(rescan.drained, static_cast<int>(rescan.executed.size()))
            << "seed " << seed;
    }
}

/**
 * Compile qft 16 with `look_ahead`: a clean input error naming
 * lookAhead — through the compiler and through the service — never a
 * panic.
 */
void
expectLookAheadRejected(int look_ahead)
{
    SCOPED_TRACE(testing::Message() << "lookAhead " << look_ahead);
    const ScopedFatalSilence quiet;
    MusstiConfig config;
    config.lookAhead = look_ahead;
    const Circuit qc = makeQft(16);
    try {
        (void)MusstiCompiler(config).compile(qc);
        FAIL() << "expected an input error";
    } catch (const MusstiFault &fault) {
        EXPECT_EQ(fault.category(), ErrorCategory::InvalidInput);
        EXPECT_EQ(fault.code(), "input.require");
        EXPECT_NE(std::string(fault.what()).find("lookAhead"),
                  std::string::npos)
            << fault.what();
    }

    CompileServiceConfig service_config;
    service_config.numThreads = 1;
    CompileService service(service_config);
    const CompileOutcome outcome =
        service
            .submitOutcome({std::make_shared<MusstiCompiler>(config), qc,
                            {}, {}, {}})
            .get();
    ASSERT_FALSE(outcome.ok());
    EXPECT_EQ(outcome.errorInfo().category(), ErrorCategory::InvalidInput);
    EXPECT_EQ(outcome.errorInfo().code(), "input.require");
}

/** The weight table reads depths below lookAhead, so a look-ahead past
    the DAG window would read what the window does not maintain. */
TEST(Scheduler, LookAheadBeyondHorizonIsAnInputError)
{
    expectLookAheadRejected(DependencyDag::kDefaultWindowHorizon + 1);
}

/** A look-ahead below one layer would silently switch SWAP insertion
    off (every weight reads 0). */
TEST(Scheduler, LookAheadBelowOneIsAnInputError)
{
    for (const int look_ahead : {0, -5})
        expectLookAheadRejected(look_ahead);
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
    const auto report = ScheduleValidator(device)
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
    const auto report = ScheduleValidator(device)
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
