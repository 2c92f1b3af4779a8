/**
 * @file
 * Tests for the extended workload families (Ising, QV, W-state,
 * surface-code cycles) and their end-to-end compilation.
 */
#include <set>

#include <gtest/gtest.h>

#include "core/compiler.h"
#include "sim/validator.h"
#include "workloads/workloads.h"

namespace mussti {
namespace {

TEST(Ising, EvenOddBondStructure)
{
    const Circuit qc = makeIsing(16, 2);
    // ZZ terms: (n-1) bonds per step, 2 CX per bond.
    EXPECT_EQ(qc.twoQubitCount(), 2 * 15 * 2);
    for (const Gate &g : qc.gates()) {
        if (g.twoQubit()) {
            EXPECT_EQ(std::abs(g.q0 - g.q1), 1);
        }
    }
}

TEST(Ising, DeterministicAndSized)
{
    EXPECT_EQ(makeIsing(32, 4), makeIsing(32, 4));
    EXPECT_EQ(makeIsing(32, 4).numQubits(), 32);
}

TEST(QuantumVolume, SquareShape)
{
    const Circuit qc = makeQuantumVolume(16);
    // depth = n layers, floor(n/2) blocks each, 3 CX per block.
    EXPECT_EQ(qc.twoQubitCount(), 16 * 8 * 3);
}

TEST(QuantumVolume, EachLayerPairsQubitsOnce)
{
    const Circuit qc = makeQuantumVolume(12, 3, 5);
    // Between measure-free layers, every qubit appears in at most one
    // SU(4) block: scan blocks of 3 consecutive CX on a fixed pair.
    std::set<std::pair<int, int>> pairs;
    int cx_seen = 0;
    for (const Gate &g : qc.gates()) {
        if (!g.twoQubit())
            continue;
        const auto key = std::minmax(g.q0, g.q1);
        pairs.insert({key.first, key.second});
        ++cx_seen;
    }
    EXPECT_EQ(cx_seen % 3, 0);
}

TEST(WState, LinearCascade)
{
    const Circuit qc = makeWState(16);
    EXPECT_EQ(qc.numQubits(), 16);
    // Each cascade stage: CZ + CX on neighbours.
    EXPECT_EQ(qc.twoQubitCount(), 2 * 15);
    for (const Gate &g : qc.gates()) {
        if (g.twoQubit()) {
            EXPECT_EQ(std::abs(g.q0 - g.q1), 1);
        }
    }
}

TEST(SurfaceCode, QubitBudget)
{
    for (int d : {3, 5, 7}) {
        const Circuit qc = makeSurfaceCodeCycle(d);
        EXPECT_EQ(qc.numQubits(), 2 * d * d - 1) << "d=" << d;
    }
}

TEST(SurfaceCode, StabilizerWeightBudget)
{
    // One round of a distance-d rotated code applies (d-1)^2 weight-4
    // and 2(d-1) weight-2 stabilizers: total CX count is fixed.
    const int d = 5;
    const Circuit qc = makeSurfaceCodeCycle(d, 1);
    const int expected = 4 * (d - 1) * (d - 1) + 2 * 2 * (d - 1);
    EXPECT_EQ(qc.twoQubitCount(), expected);
}

TEST(SurfaceCode, RoundsScaleLinearly)
{
    const Circuit one = makeSurfaceCodeCycle(3, 1);
    const Circuit three = makeSurfaceCodeCycle(3, 3);
    EXPECT_EQ(three.twoQubitCount(), 3 * one.twoQubitCount());
}

TEST(SurfaceCode, RejectsEvenDistance)
{
    EXPECT_THROW(makeSurfaceCodeCycle(4), std::runtime_error);
    EXPECT_THROW(makeSurfaceCodeCycle(1), std::runtime_error);
}

TEST(ExtraFamilies, RegistryLookups)
{
    EXPECT_GT(makeBenchmark("ising", 32).twoQubitCount(), 0);
    EXPECT_GT(makeBenchmark("qv", 16).twoQubitCount(), 0);
    EXPECT_GT(makeBenchmark("wstate", 16).twoQubitCount(), 0);
}

/** End-to-end: the new families compile to valid schedules. */
class ExtraWorkloadCompileTest
    : public ::testing::TestWithParam<const char *>
{};

TEST_P(ExtraWorkloadCompileTest, CompilesValidly)
{
    const Circuit qc = makeBenchmark(GetParam(), 48);
    MusstiConfig config;
    const auto result = MusstiCompiler(config).compile(qc);
    const EmlDevice device(config.device, qc.numQubits());
    const auto report = ScheduleValidator(device)
                            .validate(result.schedule, result.lowered);
    ASSERT_TRUE(report) << GetParam() << ": " << report.firstError;
}

INSTANTIATE_TEST_SUITE_P(NewFamilies, ExtraWorkloadCompileTest,
                         ::testing::Values("ising", "qv", "wstate"));

TEST(SurfaceCode, CompilesOnMultiModuleDevice)
{
    // d=7: 97 qubits -> 4 modules; the QEC-outlook scenario.
    const Circuit qc = makeSurfaceCodeCycle(7, 2);
    MusstiConfig config;
    const auto result = MusstiCompiler(config).compile(qc);
    const EmlDevice device(config.device, qc.numQubits());
    EXPECT_GE(device.numModules(), 3);
    const auto report = ScheduleValidator(device)
                            .validate(result.schedule, result.lowered);
    ASSERT_TRUE(report) << report.firstError;
}

} // namespace
} // namespace mussti
