/**
 * @file
 * Tests for initial mapping (paper section 3.4): trivial level-ordered
 * placement and the SABRE two-fold search.
 */
#include <gtest/gtest.h>

#include "core/compiler.h"
#include "core/mapper.h"
#include "sim/validator.h"
#include "workloads/workloads.h"

namespace mussti {
namespace {

TEST(TrivialMapping, PlacesAllQubits)
{
    MusstiConfig config;
    const EmlDevice device(config.device, 70);
    const Placement p = trivialPlacement(device, 70);
    EXPECT_TRUE(p.allPlaced());
}

TEST(TrivialMapping, FillsHighestLevelFirst)
{
    MusstiConfig config;
    const EmlDevice device(config.device, 40); // 2 modules
    const Placement p = trivialPlacement(device, 40);
    // Qubit 0 goes to the optical zone (level 2) of module 0.
    const int zone0 = p.zoneOf(0);
    EXPECT_EQ(device.zone(zone0).kind, ZoneKind::Optical);
    EXPECT_EQ(device.zone(zone0).module, 0);
    // Qubit 16 (after 16 optical slots) goes to the operation zone.
    EXPECT_EQ(device.zone(p.zoneOf(16)).kind, ZoneKind::Operation);
    // Module 1 starts at qubit 32.
    EXPECT_EQ(device.zone(p.zoneOf(32)).module, 1);
    EXPECT_EQ(device.zone(p.zoneOf(32)).kind, ZoneKind::Optical);
}

TEST(TrivialMapping, RespectsModuleRanges)
{
    MusstiConfig config;
    const EmlDevice device(config.device, 96);
    const Placement p = trivialPlacement(device, 96);
    for (int q = 0; q < 96; ++q)
        EXPECT_EQ(device.zone(p.zoneOf(q)).module, q / 32) << q;
}

TEST(TrivialMapping, CapacityNeverExceeded)
{
    MusstiConfig config;
    config.device.trapCapacity = 12;
    const EmlDevice device(config.device, 48);
    const Placement p = trivialPlacement(device, 48);
    for (int z = 0; z < device.numZones(); ++z)
        EXPECT_LE(p.sizeOf(z), device.zone(z).capacity);
}

TEST(SabreMapping, CompilesValidSchedules)
{
    MusstiConfig config;
    config.mapping = MappingKind::Sabre;
    const Circuit qc = makeSqrt(64);
    const auto result = MusstiCompiler(config).compile(qc);
    const EmlDevice device(config.device, 64);
    const auto report = ScheduleValidator(device)
                            .validate(result.schedule, result.lowered);
    EXPECT_TRUE(report) << report.firstError;
}

TEST(SabreMapping, HelpsOrAtLeastDoesNotExplodeShuttles)
{
    // The paper's ablation (Fig 8) shows SABRE strictly helps fidelity
    // on its benchmarks; as a robust cross-workload property we assert
    // SABRE never costs more than a small factor over trivial.
    for (const char *family : {"adder", "bv", "ghz", "qaoa"}) {
        const Circuit qc = makeBenchmark(family, 64);
        MusstiConfig config;
        config.mapping = MappingKind::Trivial;
        const auto trivial = MusstiCompiler(config).compile(qc);
        config.mapping = MappingKind::Sabre;
        const auto sabre = MusstiCompiler(config).compile(qc);
        EXPECT_LE(sabre.metrics.shuttleCount,
                  trivial.metrics.shuttleCount * 2 + 8)
            << family;
    }
}

TEST(SabreMapping, MappingMismatchDeviceSizingIsFatal)
{
    MusstiConfig config;
    const EmlDevice device(config.device, 64);
    EXPECT_THROW(trivialPlacement(device, 32), std::runtime_error);
}

} // namespace
} // namespace mussti
