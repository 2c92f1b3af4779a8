/**
 * @file
 * Tests for the baseline grid compilers: validity of their schedules,
 * their characteristic behaviours (MQT-like gates only in the
 * processing trap; Dai look-ahead <= Murali greedy on structured
 * workloads), hop-counted shuttle accounting, the up-front rejection of
 * grids that cannot shuttle, and the equivalence of the worklist drain
 * and the window-read Dai look-ahead with the full re-scan and the
 * layer peel they replaced.
 */
#include <bit>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "arch/device_registry.h"
#include "baselines/dai.h"
#include "baselines/mqt_like.h"
#include "baselines/murali.h"
#include "common/error.h"
#include "sim/validator.h"
#include "workloads/workloads.h"

namespace mussti {
namespace {

GridConfig
smallGrid()
{
    return GridConfig{2, 2, 12};
}

void
expectValid(const GridDevice &device, const CompileResult &result)
{
    const auto report = ScheduleValidator(device.zoneInfos())
                            .validate(result.schedule, result.lowered);
    EXPECT_TRUE(report) << report.firstError;
}

TEST(Murali, CompilesSmallSuiteValidly)
{
    const PhysicalParams params;
    for (const auto &spec : smallScaleSuite()) {
        MuraliCompiler compiler(smallGrid(), params);
        const Circuit qc = makeBenchmark(spec.family, spec.numQubits);
        const auto result = compiler.compile(qc);
        expectValid(compiler.device(), result);
    }
}

TEST(Murali, ColocatedCircuitNeedsNoShuttles)
{
    Circuit qc(8, "local");
    qc.cx(0, 1);
    qc.cx(2, 3);
    const PhysicalParams params;
    MuraliCompiler compiler(GridConfig{2, 2, 8}, params);
    const auto result = compiler.compile(qc);
    EXPECT_EQ(result.metrics.shuttleCount, 0);
}

TEST(Murali, CrossTrapGateCostsShuttles)
{
    Circuit qc(24, "cross");
    qc.cx(0, 23); // trap 0 and trap 2 under row-major fill, cap 12
    const PhysicalParams params;
    MuraliCompiler compiler(smallGrid(), params);
    const auto result = compiler.compile(qc);
    EXPECT_GE(result.metrics.shuttleCount, 1);
    expectValid(compiler.device(), result);
}

TEST(Dai, CompilesSmallSuiteValidly)
{
    const PhysicalParams params;
    for (const auto &spec : smallScaleSuite()) {
        DaiCompiler compiler(smallGrid(), params);
        const Circuit qc = makeBenchmark(spec.family, spec.numQubits);
        const auto result = compiler.compile(qc);
        expectValid(compiler.device(), result);
    }
}

TEST(Dai, LookAheadBeatsGreedyOnCommunicationHeavyWorkloads)
{
    const PhysicalParams params;
    // Average across the communication-heavy families; the look-ahead
    // baseline must not lose to greedy overall (the paper's Table 2
    // relationship between [13] and [55]).
    double murali_total = 0.0, dai_total = 0.0;
    for (const char *family : {"sqrt", "qft", "adder"}) {
        const Circuit qc = makeBenchmark(family, 30);
        MuraliCompiler murali(smallGrid(), params);
        DaiCompiler dai(smallGrid(), params);
        murali_total += murali.compile(qc).metrics.shuttleCount;
        dai_total += dai.compile(qc).metrics.shuttleCount;
    }
    EXPECT_LE(dai_total, murali_total * 1.05);
}

TEST(MqtLike, GatesOnlyInProcessingTrap)
{
    const PhysicalParams params;
    MqtLikeCompiler compiler(smallGrid(), params);
    const Circuit qc = makeBenchmark("adder", 32);
    const auto result = compiler.compile(qc);
    for (const auto &op : result.schedule.ops) {
        if (op.kind == OpKind::Gate2Q) {
            EXPECT_EQ(op.zoneFrom, compiler.processingTrap());
        }
    }
    expectValid(compiler.device(), result);
}

TEST(MqtLike, ShuttleHeaviestBaseline)
{
    // Table 2: [70] shuttles dominate [55] and [13] on every app.
    const PhysicalParams params;
    for (const char *family : {"adder", "qft"}) {
        const Circuit qc = makeBenchmark(family, 32);
        MuraliCompiler murali(smallGrid(), params);
        MqtLikeCompiler mqt(smallGrid(), params);
        EXPECT_GT(mqt.compile(qc).metrics.shuttleCount,
                  murali.compile(qc).metrics.shuttleCount)
            << family;
    }
}

TEST(GridBase, RejectsOversizedCircuit)
{
    const PhysicalParams params;
    MuraliCompiler compiler(GridConfig{2, 2, 4}, params); // 16 slots
    EXPECT_THROW(compiler.compile(makeGhz(32)), std::runtime_error);
}

TEST(GridBase, HopAccountingExceedsMergeCountOnBigGrids)
{
    // On a 4x5 grid, far-apart interactions take multi-hop shuttles, so
    // booked shuttles exceed the number of Merge ops.
    const PhysicalParams params;
    MuraliCompiler compiler(GridConfig{4, 5, 16}, params);
    const Circuit qc = makeRandomCircuit(256, 200, 3);
    const auto result = compiler.compile(qc);
    int merges = 0;
    for (const auto &op : result.schedule.ops)
        merges += op.kind == OpKind::Merge;
    EXPECT_GT(result.metrics.shuttleCount, merges);
    expectValid(compiler.device(), result);
}

/** Exposes the protected spill machinery for dead-lock regression. */
class SpillProbe : public MuraliCompiler
{
  public:
    using MuraliCompiler::MuraliCompiler;
    using MuraliCompiler::Pass;
    using MuraliCompiler::initialPlacement;
    using MuraliCompiler::relocate;
};

TEST(GridBase, SpillDeadLockPanicsCleanly)
{
    // Regression for the all-candidates-excluded case: the target trap
    // is full and every resident is protected, so LruTracker::victim
    // returns -1. The relocation must fail with a clean diagnostic
    // panic, not index a placement with -1.
    const PhysicalParams params;
    const GridConfig grid{2, 1, 2}; // two traps, capacity 2
    SpillProbe probe(grid, params);

    Circuit qc(4, "spill");
    qc.cx(0, 1);
    const Circuit lowered = qc.withSwapsDecomposed();
    SpillProbe::Pass pass(probe.device(), params, lowered,
                          probe.initialPlacement(4));
    // Row-major fill: trap 0 holds {0, 1}, trap 1 holds {2, 3}.
    // Moving qubit 2 into trap 0 while protecting both residents leaves
    // no spill victim.
    EXPECT_THROW(probe.relocate(pass, 2, 0, 0, 1), std::logic_error);
}

TEST(GridBase, SpillWithFreeVictimSucceeds)
{
    // Same setup with an unprotected resident and a free slot for it:
    // the spill resolves. Trap 0 holds {0, 1}, trap 1 holds only {2}.
    const PhysicalParams params;
    const GridConfig grid{2, 1, 2};
    SpillProbe probe(grid, params);

    Circuit qc(3, "spill-ok");
    qc.cx(0, 1);
    const Circuit lowered = qc.withSwapsDecomposed();
    SpillProbe::Pass pass(probe.device(), params, lowered,
                          probe.initialPlacement(3));
    probe.relocate(pass, 2, 0, 0, 2);
    EXPECT_EQ(pass.placement.zoneOf(2), 0);
    EXPECT_NE(pass.placement.zoneOf(1), 0); // qubit 1 was spilled out
}

TEST(GridBase, FullMultiTrapGridIsAnInputError)
{
    // Every slot filled on more than one trap: operands in different
    // traps can never meet, since no slot is left to spill to. The
    // placement pass says so up front instead of panicking mid-schedule.
    const PhysicalParams params;
    MqtLikeCompiler mqt(GridConfig{2, 1, 2}, params);
    try {
        mqt.compile(makeBenchmark("qft", 4));
        FAIL() << "a full grid compiled";
    } catch (const MusstiFault &fault) {
        EXPECT_EQ(fault.category(), ErrorCategory::InvalidInput);
        EXPECT_EQ(fault.code(), "input.grid-infeasible");
        EXPECT_NE(fault.message().find("grid:2x1,cap=2"), std::string::npos)
            << fault.message();
    }
}

TEST(GridBase, PairlessTrapCapacityIsAnInputError)
{
    const PhysicalParams params;
    MuraliCompiler murali(GridConfig{2, 1, 1}, params);
    try {
        murali.compile(makeBenchmark("qft", 2));
        FAIL() << "a capacity-1 grid compiled a two-qubit gate";
    } catch (const MusstiFault &fault) {
        EXPECT_EQ(fault.category(), ErrorCategory::InvalidInput);
        EXPECT_NE(fault.message().find("grid:2x1,cap=1"), std::string::npos)
            << fault.message();
    }
}

TEST(GridBase, FeasibleEdgeGridsStillCompile)
{
    const PhysicalParams params;
    // One full trap: every gate is local, nothing ever moves.
    MuraliCompiler single(GridConfig{1, 1, 4}, params);
    EXPECT_EQ(single.compile(makeBenchmark("qft", 4))
                  .metrics.shuttleCount, 0);
    // A full multi-trap grid without two-qubit gates needs no shuttle.
    Circuit local(4, "1q-only");
    for (int q = 0; q < 4; ++q)
        local.h(q);
    MqtLikeCompiler mqt(GridConfig{2, 1, 2}, params);
    EXPECT_EQ(mqt.compile(local).metrics.shuttleCount, 0);
    // One free slot is enough to shuttle.
    DaiCompiler dai(GridConfig{2, 1, 2}, params);
    expectValid(dai.device(), dai.compile(makeBenchmark("qft", 3)));
}

/** Op-for-op equality of two schedules; reports the first difference. */
void
expectSameOps(const Schedule &expected, const Schedule &actual,
              const std::string &label)
{
    ASSERT_EQ(expected.ops.size(), actual.ops.size()) << label;
    for (std::size_t i = 0; i < expected.ops.size(); ++i) {
        const ScheduledOp &a = expected.ops[i];
        const ScheduledOp &b = actual.ops[i];
        const bool same = a.kind == b.kind && a.q0 == b.q0 &&
            a.q1 == b.q1 && a.zoneFrom == b.zoneFrom &&
            a.zoneTo == b.zoneTo && a.durationUs == b.durationUs &&
            a.nbar == b.nbar && a.circuitGate == b.circuitGate &&
            a.inserted == b.inserted && a.enterFront == b.enterFront;
        ASSERT_TRUE(same) << label << ": op " << i << " differs: "
                          << a.describe() << " vs " << b.describe();
    }
    EXPECT_EQ(expected.shuttleCount, actual.shuttleCount) << label;
}

/**
 * Runs a grid baseline with the historical drain: re-snapshot the whole
 * frontier and re-scan it until nothing executes (a verbatim copy of
 * the drain the FrontierWorklist replaced), so compile() — the worklist
 * drain — can be checked against it op for op.
 */
template <typename Base>
class RescanProbe : public Base
{
  public:
    using Base::Base;
    using Pass = typename Base::Pass;

    Schedule
    rescanSchedule(const Circuit &circuit) const
    {
        const Circuit lowered = circuit.withSwapsDecomposed();
        Pass pass(this->device(), this->params_, lowered,
                  this->initialPlacement(lowered.numQubits()),
                  this->windowHorizon());
        while (!pass.dag.empty()) {
            rescanDrain(pass);
            if (pass.dag.empty())
                break;
            this->scheduleStep(pass);
        }
        for (const Gate &g1 : pass.dag.trailing1q()) {
            if (!isSingleQubit(g1.kind))
                continue;
            ScheduledOp op;
            op.kind = OpKind::Gate1Q;
            op.q0 = g1.q0;
            op.zoneFrom = pass.placement.zoneOf(g1.q0);
            op.zoneTo = op.zoneFrom;
            op.durationUs = this->params_.gate1qTimeUs;
            pass.schedule.push(op);
        }
        return std::move(pass.schedule);
    }

  private:
    void
    rescanDrain(Pass &pass) const
    {
        bool progressed = true;
        while (progressed) {
            progressed = false;
            const std::vector<DagNodeId> snapshot = pass.dag.frontier();
            for (DagNodeId id : snapshot) {
                if (pass.dag.isReady(id) &&
                    this->executable(pass, pass.dag.node(id).gate)) {
                    this->executeNode(pass, id);
                    progressed = true;
                }
            }
        }
    }
};

/**
 * Dai with a cost cross-check at every strategy step: the window-read
 * future cost must equal, bit for bit, the historical sum over a
 * frontLayers() peel (a verbatim copy below) for both operands and
 * every trap of the grid.
 */
class DaiCostProbe : public RescanProbe<DaiCompiler>
{
  public:
    DaiCostProbe(const GridConfig &grid, int look_ahead)
        : RescanProbe<DaiCompiler>(grid, PhysicalParams{}, look_ahead),
          lookAhead_(look_ahead)
    {}

    mutable long long checks = 0;        ///< Cost pairs compared.
    mutable long long nonZeroChecks = 0; ///< ...of which had a future cost.

  protected:
    void
    scheduleStep(Pass &pass) const override
    {
        const auto layers = pass.dag.frontLayers(lookAhead_);
        const Gate &gate = pass.dag.node(pass.dag.frontier().front()).gate;
        for (int q : {gate.q0, gate.q1}) {
            for (int trap = 0; trap < device().numTraps(); ++trap) {
                const double peeled = layersFutureCost(pass, layers, q, trap);
                const double windowed = futureCost(pass, q, trap);
                EXPECT_EQ(std::bit_cast<std::uint64_t>(peeled),
                          std::bit_cast<std::uint64_t>(windowed))
                    << "qubit " << q << " trap " << trap << ": " << peeled
                    << " vs " << windowed;
                ++checks;
                nonZeroChecks += peeled != 0.0;
            }
        }
        DaiCompiler::scheduleStep(pass);
    }

  private:
    int lookAhead_;

    double
    layersFutureCost(const Pass &pass,
                     const std::vector<std::vector<DagNodeId>> &layers,
                     int qubit, int trap) const
    {
        double cost = 0.0;
        double discount = 1.0;
        for (const auto &layer : layers) {
            for (DagNodeId id : layer) {
                const Gate &g = pass.dag.node(id).gate;
                if (!g.touches(qubit))
                    continue;
                const int partner_trap =
                    pass.placement.zoneOf(g.partnerOf(qubit));
                cost += discount * device().hopDistance(trap, partner_trap);
            }
            discount *= 0.7;
        }
        return cost;
    }
};

/** Seeded random circuits that keep capacity-starved grids spilling. */
std::vector<Circuit>
starvedCircuits(const GridConfig &grid)
{
    const int slots = grid.width * grid.height * grid.trapCapacity;
    std::vector<Circuit> circuits;
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
        const int qubits = slots - 1 - static_cast<int>(seed % 3);
        circuits.push_back(makeRandomCircuit(qubits, 3 * qubits, seed));
    }
    circuits.push_back(makeQaoa(slots - 2, 1, 7));
    return circuits;
}

const char *const kStarvedGrids[] = {"grid:8x8,cap=4", "grid:3x2,cap=3"};

TEST(GridBase, WorklistDrainMatchesFullRescan)
{
    for (const char *spec : kStarvedGrids) {
        const GridConfig grid = DeviceRegistry::parse(spec).grid;
        const RescanProbe<MuraliCompiler> murali(grid, PhysicalParams{});
        const RescanProbe<MqtLikeCompiler> mqt(grid, PhysicalParams{});
        for (const Circuit &qc : starvedCircuits(grid)) {
            const std::string label = std::string(spec) + " " + qc.name();
            expectSameOps(murali.rescanSchedule(qc),
                          murali.compile(qc).schedule, label + " murali");
            expectSameOps(mqt.rescanSchedule(qc), mqt.compile(qc).schedule,
                          label + " mqt");
        }
    }
}

TEST(Dai, WindowLookAheadMatchesLayerPeel)
{
    for (const char *spec : kStarvedGrids) {
        const GridConfig grid = DeviceRegistry::parse(spec).grid;
        for (int look_ahead : {1, 6}) {
            DaiCostProbe dai(grid, look_ahead);
            for (const Circuit &qc : starvedCircuits(grid)) {
                const std::string label = std::string(spec) + " " +
                    qc.name() + " look-ahead " + std::to_string(look_ahead);
                expectSameOps(dai.rescanSchedule(qc),
                              dai.compile(qc).schedule, label);
            }
            EXPECT_GT(dai.nonZeroChecks, 0) << spec;
            EXPECT_GT(dai.checks, dai.nonZeroChecks) << spec;
        }
    }
}

TEST(Dai, ZeroLookAheadHasNoFutureCost)
{
    // look_ahead <= 0 scans no layer: the plans cost hops and
    // congestion only, as with an empty peel.
    const GridConfig grid = DeviceRegistry::parse("grid:3x2,cap=3").grid;
    DaiCostProbe dai(grid, 0);
    for (const Circuit &qc : starvedCircuits(grid))
        expectSameOps(dai.rescanSchedule(qc), dai.compile(qc).schedule,
                      qc.name());
    EXPECT_GT(dai.checks, 0);
    EXPECT_EQ(dai.nonZeroChecks, 0);
}

TEST(GridBase, CompileReportsStrategySteps)
{
    const GridConfig grid = DeviceRegistry::parse("grid:3x2,cap=3").grid;
    const Circuit qc = makeRandomCircuit(15, 45, 3);
    MuraliCompiler murali(grid, PhysicalParams{});
    const CompileResult greedy = murali.compile(qc);
    EXPECT_GT(greedy.routingSteps, 0);
    EXPECT_EQ(greedy.windowVisits, 0u); // nothing reads its window
    DaiCompiler dai(grid, PhysicalParams{});
    const CompileResult lookahead = dai.compile(qc);
    EXPECT_GT(lookahead.routingSteps, 0);
    EXPECT_GT(lookahead.windowVisits, 0u);
}

TEST(GridBase, MediumGridSuiteValidates)
{
    const PhysicalParams params;
    const GridConfig grid{3, 4, 16};
    for (const auto &spec : mediumScaleSuite()) {
        const Circuit qc = makeBenchmark(spec.family, spec.numQubits);
        MuraliCompiler murali(grid, params);
        const auto result = murali.compile(qc);
        expectValid(murali.device(), result);
        DaiCompiler dai(grid, params);
        const auto dai_result = dai.compile(qc);
        expectValid(dai.device(), dai_result);
    }
}

} // namespace
} // namespace mussti
