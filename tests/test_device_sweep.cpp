/**
 * @file
 * Device-shape property sweep: the compiler must produce valid
 * schedules across the whole configuration space the benches explore —
 * capacities, zone mixes, module counts, optical-zone counts, and
 * replacement policies — on representative workloads. Guards against
 * configuration-dependent deadlocks and capacity accounting bugs.
 */
#include <gtest/gtest.h>

#include "core/compiler.h"
#include "sim/validator.h"
#include "workloads/workloads.h"

namespace mussti {
namespace {

struct SweepPoint
{
    int capacity;
    int storageZones;
    int operationZones;
    int opticalZones;
    int maxPerModule;
};

class DeviceSweepTest : public ::testing::TestWithParam<SweepPoint>
{};

TEST_P(DeviceSweepTest, CompilesAndValidates)
{
    const SweepPoint p = GetParam();
    MusstiConfig config;
    config.device.trapCapacity = p.capacity;
    config.device.numStorageZones = p.storageZones;
    config.device.numOperationZones = p.operationZones;
    config.device.numOpticalZones = p.opticalZones;
    config.device.maxQubitsPerModule = p.maxPerModule;

    for (const char *family : {"ghz", "qft", "sqrt"}) {
        const Circuit qc = makeBenchmark(family, 48);
        const auto result = MusstiCompiler(config).compile(qc);
        const EmlDevice device(config.device, qc.numQubits());
        const auto report = ScheduleValidator(device)
                                .validate(result.schedule, result.lowered);
        ASSERT_TRUE(report)
            << family << " cap=" << p.capacity << " zones="
            << p.storageZones << "/" << p.operationZones << "/"
            << p.opticalZones << " perModule=" << p.maxPerModule << ": "
            << report.firstError;
    }
}

INSTANTIATE_TEST_SUITE_P(
    ConfigurationSpace, DeviceSweepTest,
    ::testing::Values(
        SweepPoint{16, 2, 1, 1, 32},  // paper default
        SweepPoint{12, 2, 1, 1, 32},  // Fig 7 low end
        SweepPoint{24, 2, 1, 1, 32},  // Fig 7 high end
        SweepPoint{16, 2, 1, 2, 32},  // Fig 12 two optical zones
        SweepPoint{8, 2, 2, 2, 32},   // Table 2 "2x3" structure
        SweepPoint{16, 4, 1, 1, 32},  // storage-heavy
        SweepPoint{16, 2, 2, 1, 32},  // two operation zones
        SweepPoint{16, 2, 1, 1, 16},  // small modules (more fiber)
        SweepPoint{8, 2, 1, 1, 16},   // tight capacity, small modules
        SweepPoint{20, 1, 1, 1, 24},  // single storage zone
        SweepPoint{6, 3, 2, 1, 16},   // many small zones
        SweepPoint{16, 0, 1, 1, 24}   // no storage at all
        ));

TEST(DeviceSweep, ModuleCountFollowsMaxPerModule)
{
    MusstiConfig config;
    config.device.maxQubitsPerModule = 16;
    const Circuit qc = makeGhz(48);
    const MusstiCompiler compiler(config);
    EXPECT_EQ(compiler.deviceFor(qc)->numModules(), 3);
    const auto result = compiler.compile(qc);
    // Two module boundaries -> at least two fiber gates.
    EXPECT_GE(result.metrics.fiberGateCount, 2);
}

TEST(DeviceSweep, SmallerModulesMeanMoreFiberGates)
{
    // With SWAP insertion disabled (it can reshuffle enough to blur the
    // effect on all-to-all circuits), more module boundaries mean more
    // cross-module gates.
    const Circuit qc = makeQft(64);
    MusstiConfig big;
    big.device.maxQubitsPerModule = 32;
    big.enableSwapInsertion = false;
    MusstiConfig small = big;
    small.device.maxQubitsPerModule = 16;
    const auto big_result = MusstiCompiler(big).compile(qc);
    const auto small_result = MusstiCompiler(small).compile(qc);
    EXPECT_GT(small_result.metrics.fiberGateCount,
              big_result.metrics.fiberGateCount);
}

TEST(DeviceSweep, DeterministicAcrossRuns)
{
    // The whole pipeline is deterministic: identical configs and
    // circuits give op-identical schedules.
    const Circuit qc = makeSqrt(63);
    MusstiConfig config;
    const auto a = MusstiCompiler(config).compile(qc);
    const auto b = MusstiCompiler(config).compile(qc);
    ASSERT_EQ(a.schedule.ops.size(), b.schedule.ops.size());
    for (std::size_t i = 0; i < a.schedule.ops.size(); ++i) {
        EXPECT_EQ(a.schedule.ops[i].kind, b.schedule.ops[i].kind);
        EXPECT_EQ(a.schedule.ops[i].q0, b.schedule.ops[i].q0);
        EXPECT_EQ(a.schedule.ops[i].q1, b.schedule.ops[i].q1);
    }
    EXPECT_EQ(a.metrics.shuttleCount, b.metrics.shuttleCount);
    EXPECT_DOUBLE_EQ(a.metrics.lnFidelity, b.metrics.lnFidelity);
}

TEST(DeviceSweep, MetricsDecompositionSumsToTotal)
{
    for (const char *family : {"ghz", "sqrt", "ran"}) {
        const Circuit qc = makeBenchmark(family, 64);
        const auto result = MusstiCompiler().compile(qc);
        const double sum = result.metrics.lnFromShuttleOps +
                           result.metrics.lnFromGateIntrinsic +
                           result.metrics.lnFromHeatBackground +
                           result.metrics.lnFromLifetime;
        EXPECT_NEAR(sum, result.metrics.lnFidelity,
                    1e-9 * std::abs(sum) + 1e-12)
            << family;
    }
}

} // namespace
} // namespace mussti
