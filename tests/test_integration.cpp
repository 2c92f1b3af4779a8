/**
 * @file
 * Cross-module integration tests: the paper's headline claims as
 * executable assertions. MUSS-TI on EML-QCCD must beat the grid
 * baselines on shuttle count across the evaluation suites, execution
 * time must track shuttles, and the ablation/capacity/optimality
 * relationships of sections 5.3-5.9 must hold in direction.
 */
#include <chrono>
#include <vector>

#include <gtest/gtest.h>

#include "baselines/dai.h"
#include "baselines/murali.h"
#include "common/stats.h"
#include "core/compiler.h"
#include "sim/validator.h"
#include "workloads/workloads.h"

namespace mussti {
namespace {

CompileResult
mussti(const Circuit &qc, MusstiConfig config = {})
{
    return MusstiCompiler(config).compile(qc);
}

TEST(Integration, MusstiBeatsBaselinesOnSmallSuiteAverage)
{
    const PhysicalParams params;
    std::vector<double> ours, murali_counts, dai_counts;
    for (const auto &spec : smallScaleSuite()) {
        const Circuit qc = makeBenchmark(spec.family, spec.numQubits);
        ours.push_back(mussti(qc).metrics.shuttleCount);
        MuraliCompiler murali(GridConfig{2, 2, 12}, params);
        murali_counts.push_back(murali.compile(qc).metrics.shuttleCount);
        DaiCompiler dai(GridConfig{2, 2, 12}, params);
        dai_counts.push_back(dai.compile(qc).metrics.shuttleCount);
    }
    // Paper: 41.74% average reduction small-scale; require a clear win.
    EXPECT_GT(averageReductionPercent(murali_counts, ours), 25.0);
    EXPECT_GT(averageReductionPercent(dai_counts, ours), 15.0);
}

TEST(Integration, MusstiBeatsBaselinesOnMediumSuite)
{
    const PhysicalParams params;
    std::vector<double> ours, murali_counts;
    for (const auto &spec : mediumScaleSuite()) {
        const Circuit qc = makeBenchmark(spec.family, spec.numQubits);
        ours.push_back(mussti(qc).metrics.shuttleCount);
        MuraliCompiler murali(GridConfig{3, 4, 16}, params);
        murali_counts.push_back(murali.compile(qc).metrics.shuttleCount);
    }
    // Paper: 73.38% medium-scale reduction; require a strong win.
    EXPECT_GT(averageReductionPercent(murali_counts, ours), 40.0);
}

TEST(Integration, ExecutionTimeTracksShuttleReduction)
{
    const PhysicalParams params;
    for (const char *family : {"adder", "sqrt"}) {
        const Circuit qc = makeBenchmark(family, 32);
        const auto ours = mussti(qc);
        MuraliCompiler murali(GridConfig{2, 2, 12}, params);
        const auto base = murali.compile(qc);
        if (ours.metrics.shuttleCount < base.metrics.shuttleCount) {
            EXPECT_LT(ours.metrics.executionTimeUs,
                      base.metrics.executionTimeUs)
                << family;
        }
    }
}

TEST(Integration, FidelityBeatsBaselineOnCommunicationHeavyApps)
{
    const PhysicalParams params;
    const Circuit qc = makeSqrt(30);
    const auto ours = mussti(qc);
    MuraliCompiler murali(GridConfig{2, 2, 12}, params);
    const auto base = murali.compile(qc);
    EXPECT_GT(ours.metrics.lnFidelity, base.metrics.lnFidelity);
}

TEST(Integration, SabrePlusSwapInsertIsBestAblationArmOnAggregate)
{
    // Fig 8 directionality: across the medium suite, the combined
    // configuration must not lose to the trivial baseline in aggregate
    // log-fidelity (per-app noise of a few percent is expected; the
    // paper's claim is the overall trend).
    MusstiConfig trivial;
    trivial.mapping = MappingKind::Trivial;
    trivial.enableSwapInsertion = false;

    MusstiConfig combined;
    combined.mapping = MappingKind::Sabre;
    combined.enableSwapInsertion = true;

    double base_ln = 0.0, best_ln = 0.0;
    for (const auto &spec : mediumScaleSuite()) {
        const Circuit qc = makeBenchmark(spec.family, spec.numQubits);
        base_ln += mussti(qc, trivial).metrics.lnFidelity;
        best_ln += mussti(qc, combined).metrics.lnFidelity;
    }
    EXPECT_GE(best_ln, base_ln);
}

TEST(Integration, PerfectRegimesUpperBoundRealFidelity)
{
    // Section 5.9: perfect-gate and perfect-shuttle fidelities bound the
    // real configuration from above.
    const Circuit qc = makeAdder(128);
    const MusstiConfig config;

    PhysicalParams real_params;
    PhysicalParams perfect_gate;
    perfect_gate.perfectGate = true;
    PhysicalParams perfect_shuttle;
    perfect_shuttle.perfectShuttle = true;

    const auto real = MusstiCompiler(config, real_params).compile(qc);
    const auto pg = MusstiCompiler(config, perfect_gate).compile(qc);
    const auto ps = MusstiCompiler(config, perfect_shuttle).compile(qc);

    EXPECT_GE(pg.metrics.lnFidelity, real.metrics.lnFidelity);
    EXPECT_GE(ps.metrics.lnFidelity, real.metrics.lnFidelity);
}

TEST(Integration, TwoOpticalZonesHelpLargeApps)
{
    // Section 5.8 / Fig 12: two entanglement zones improve *fidelity*
    // on most large communication-heavy apps by spreading fiber-port
    // heat (shuttle counts may tick up slightly; the paper's claim is
    // about reliability).
    int wins = 0;
    const std::vector<BenchmarkSpec> apps = {
        {"sqrt", 299}, {"ran", 256}, {"sc", 274}};
    for (const auto &spec : apps) {
        const Circuit qc = makeBenchmark(spec.family, spec.numQubits);
        MusstiConfig one_zone;
        MusstiConfig two_zones;
        two_zones.device.numOpticalZones = 2;
        const auto one = mussti(qc, one_zone);
        const auto two = mussti(qc, two_zones);
        wins += two.metrics.lnFidelity > one.metrics.lnFidelity;
    }
    EXPECT_GE(wins, 2);
}

TEST(Integration, CompilationTimeScalesPolynomially)
{
    // Section 5.6: compilation stays tractable as size grows. Guard the
    // asymptotics with a loose budget: the full medium suite compiles
    // in seconds.
    const auto t0 = std::chrono::steady_clock::now();
    for (const auto &spec : mediumScaleSuite())
        mussti(makeBenchmark(spec.family, spec.numQubits));
    const double sec = std::chrono::duration<double>(
        std::chrono::steady_clock::now() - t0).count();
    EXPECT_LT(sec, 30.0);
}

TEST(Integration, LargeSuiteEndToEndValid)
{
    MusstiConfig config;
    for (const auto &spec : largeScaleSuite()) {
        const Circuit qc = makeBenchmark(spec.family, spec.numQubits);
        const auto result = mussti(qc, config);
        const EmlDevice device(config.device, qc.numQubits());
        const auto report = ScheduleValidator(device)
                                .validate(result.schedule, result.lowered);
        ASSERT_TRUE(report) << spec.label() << ": " << report.firstError;
    }
}

TEST(Integration, TrapCapacitySweepStaysValid)
{
    // Fig 7's sweep must be runnable: every capacity in 12..20 yields a
    // valid schedule for a medium app.
    const Circuit qc = makeBv(128);
    for (int capacity : {12, 14, 16, 18, 20}) {
        MusstiConfig config;
        config.device.trapCapacity = capacity;
        const auto result = mussti(qc, config);
        const EmlDevice device(config.device, qc.numQubits());
        const auto report = ScheduleValidator(device)
                                .validate(result.schedule, result.lowered);
        ASSERT_TRUE(report) << "capacity " << capacity << ": "
                            << report.firstError;
    }
}

} // namespace
} // namespace mussti
