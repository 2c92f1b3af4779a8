/**
 * @file
 * Tests for the weight table and SWAP insertion (paper section 3.3):
 * W(q, c) accounting, threshold behaviour, and the shuttle savings the
 * mechanism exists to deliver.
 */
#include <gtest/gtest.h>

#include "core/compiler.h"
#include "core/mapper.h"
#include "core/weight_table.h"
#include "sim/validator.h"
#include "workloads/workloads.h"

namespace mussti {
namespace {

/**
 * A communication pattern engineered for SWAP insertion: qubit 0 (module
 * 0) first talks to module 1 once, then repeatedly interacts with
 * module-1 qubits — exactly the Fig 5 scenario.
 */
Circuit
fig5Circuit(int per_module)
{
    const int n = 2 * per_module;
    Circuit qc(n, "fig5");
    // One cross-module gate to trigger the insertion check.
    qc.cx(0, per_module);
    // Then a burst of gates between qubit 0 and module-1 residents.
    for (int i = 1; i <= 6; ++i)
        qc.cx(0, per_module + i);
    return qc;
}

TEST(WeightTable, CountsPartnersByModule)
{
    MusstiConfig config;
    config.device.maxQubitsPerModule = 8;
    const Circuit qc = fig5Circuit(8);
    const EmlDevice device(config.device, qc.numQubits());
    const Placement placement = trivialPlacement(device, qc.numQubits());
    const DependencyDag dag(qc);
    const WeightTable weights(dag, placement, device, 8);

    // Qubit 0's near-future partners all live on module 1.
    EXPECT_EQ(weights.weight(0, 0), 0);
    EXPECT_GE(weights.weight(0, 1), 6);
    const auto [best, w] = weights.bestForeignModule(0, 0);
    EXPECT_EQ(best, 1);
    EXPECT_GE(w, 6);
}

TEST(WeightTable, TotalWeightSumsModules)
{
    MusstiConfig config;
    config.device.maxQubitsPerModule = 8;
    const Circuit qc = fig5Circuit(8);
    const EmlDevice device(config.device, qc.numQubits());
    const Placement placement = trivialPlacement(device, qc.numQubits());
    const DependencyDag dag(qc);
    const WeightTable weights(dag, placement, device, 8);
    EXPECT_EQ(weights.totalWeight(0),
              weights.weight(0, 0) + weights.weight(0, 1));
}

TEST(WeightTable, WindowBoundsLookAhead)
{
    // GHZ is serial: with k=2 only 2 nodes are visible.
    const Circuit qc = makeGhz(64);
    MusstiConfig config;
    const EmlDevice device(config.device, 64);
    const Placement placement = trivialPlacement(device, 64);
    const DependencyDag dag(qc);
    const WeightTable narrow(dag, placement, device, 2);
    const WeightTable wide(dag, placement, device, 40);
    int narrow_total = 0, wide_total = 0;
    for (int q = 0; q < 64; ++q) {
        narrow_total += narrow.totalWeight(q);
        wide_total += wide.totalWeight(q);
    }
    EXPECT_LT(narrow_total, wide_total);
}

TEST(SwapInsertion, FiresOnFig5Pattern)
{
    MusstiConfig config;
    config.device.maxQubitsPerModule = 8;
    config.mapping = MappingKind::Trivial;
    const Circuit qc = fig5Circuit(8);
    const auto result = MusstiCompiler(config).compile(qc);
    EXPECT_GE(result.swapInsertions, 1);

    const EmlDevice device(config.device, qc.numQubits());
    const auto report = ScheduleValidator(device)
                            .validate(result.schedule, result.lowered);
    EXPECT_TRUE(report) << report.firstError;
}

TEST(SwapInsertion, ReducesFiberGatesOnFig5Pattern)
{
    MusstiConfig config;
    config.device.maxQubitsPerModule = 8;
    config.mapping = MappingKind::Trivial;
    const Circuit qc = fig5Circuit(8);

    auto with = MusstiCompiler(config).compile(qc);
    config.enableSwapInsertion = false;
    auto without = MusstiCompiler(config).compile(qc);

    // Without insertion every one of the 7 gates is a fiber gate; with
    // it, after the swap the burst executes locally.
    EXPECT_EQ(without.metrics.fiberGateCount, 7);
    EXPECT_LT(with.metrics.fiberGateCount -
                  3 * with.metrics.insertedSwapGates, 7);
}

TEST(SwapInsertion, DisabledMeansNoInsertedGates)
{
    MusstiConfig config;
    config.enableSwapInsertion = false;
    const auto result = MusstiCompiler(config).compile(makeBv(64));
    EXPECT_EQ(result.swapInsertions, 0);
    EXPECT_EQ(result.metrics.insertedSwapGates, 0);
}

TEST(SwapInsertion, ThresholdBelowThreeRejected)
{
    MusstiConfig config;
    config.swapThreshold = 2;
    EXPECT_THROW(MusstiCompiler(config).compile(makeGhz(64)),
                 std::runtime_error);
}

TEST(SwapInsertion, HighThresholdSuppressesInsertion)
{
    MusstiConfig config;
    config.device.maxQubitsPerModule = 8;
    config.mapping = MappingKind::Trivial;
    config.swapThreshold = 1000;
    const auto result = MusstiCompiler(config).compile(fig5Circuit(8));
    EXPECT_EQ(result.swapInsertions, 0);
}

TEST(SwapInsertion, InsertedTriplesAreConsecutiveFiberGates)
{
    MusstiConfig config;
    config.device.maxQubitsPerModule = 8;
    config.mapping = MappingKind::Trivial;
    const auto result = MusstiCompiler(config).compile(fig5Circuit(8));
    int run = 0;
    for (const auto &op : result.schedule.ops) {
        if (op.isGate() && op.inserted) {
            EXPECT_EQ(op.kind, OpKind::FiberGate);
            ++run;
        } else if (op.isGate()) {
            EXPECT_EQ(run % 3, 0);
        }
    }
    EXPECT_EQ(run, 3 * result.swapInsertions);
}

TEST(SwapInsertion, LookAheadSweepStaysValid)
{
    for (int k : {2, 4, 8, 12, 16}) {
        MusstiConfig config;
        config.lookAhead = k;
        config.device.maxQubitsPerModule = 16;
        const Circuit qc = makeSqrt(47); // multi-module communication
        const auto result = MusstiCompiler(config).compile(qc);
        const EmlDevice device(config.device, qc.numQubits());
        const auto report = ScheduleValidator(device)
                                .validate(result.schedule, result.lowered);
        EXPECT_TRUE(report) << "k=" << k << ": " << report.firstError;
    }
}

} // namespace
} // namespace mussti
