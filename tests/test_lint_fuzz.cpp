/**
 * @file
 * Bounded fuzz smoke: the linter as an oracle over random workloads.
 *
 * Random circuits are compiled through every backend against two device
 * shapes each, and every resulting schedule must lint clean AND satisfy
 * the reference replay (validator_reference.h). This is the cheap
 * always-on slice of the fuzz strategy: the corpus test proves the
 * linter catches planted violations; this test proves the compilers
 * never produce one on inputs nobody hand-picked. Seeds are fixed so
 * failures reproduce.
 */
#include <gtest/gtest.h>

#include <future>
#include <vector>

#include "arch/device_registry.h"
#include "baselines/backend_factory.h"
#include "common/hash.h"
#include "core/compile_service.h"
#include "lint/schedule_linter.h"
#include "validator_reference.h"
#include "workloads/workloads.h"

namespace mussti {
namespace {

constexpr std::uint64_t kSeeds[] = {1, 7, 2025};

/** FNV-1a over everything a compilation produces (the digest the
 * golden suites use, duplicated to keep this suite self-contained). */
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

/** Lint + replay one compiled artifact; label appears on failure. */
void
expectCleanCompile(const ICompilerBackend &backend,
                   const TargetDevice &device, const Circuit &circuit,
                   const std::string &label)
{
    const CompileResult result = backend.compile(circuit);
    const LintReport report =
        lintSchedule(result.schedule, result.lowered, device);
    EXPECT_TRUE(report.clean())
        << label << "\n" << report.renderText();
    const ValidationReport replay =
        referenceValidate(result.schedule, result.lowered, device);
    EXPECT_TRUE(replay.valid) << label << ": " << replay.firstError;
}

TEST(LintFuzz, MusstiSingleModuleRandomCircuitsLintClean)
{
    MusstiConfig config; // default device: one module, 64 slots
    for (const std::uint64_t seed : kSeeds) {
        const Circuit circuit = makeRandomCircuit(24, 60, seed);
        const auto device =
            DeviceRegistry::createEml(config.device, circuit.numQubits());
        expectCleanCompile(*makeMusstiBackend(config), *device, circuit,
                           "mussti/default seed=" + std::to_string(seed));
    }
}

TEST(LintFuzz, MusstiMultiModuleRandomCircuitsLintClean)
{
    // 20 qubits per module forces 40-qubit circuits across two modules,
    // exercising fiber gates and cross-module placement.
    MusstiConfig config;
    config.device = DeviceRegistry::parse(
                        "eml:cap=12,storage=2,op=1,optical=1,maxq=20")
                        .eml;
    for (const std::uint64_t seed : kSeeds) {
        const Circuit circuit = makeRandomCircuit(40, 80, seed);
        const auto device =
            DeviceRegistry::createEml(config.device, circuit.numQubits());
        expectCleanCompile(*makeMusstiBackend(config), *device, circuit,
                           "mussti/multi seed=" + std::to_string(seed));
    }
}

TEST(LintFuzz, GridBaselinesRandomCircuitsLintClean)
{
    const GridConfig grids[] = {{2, 2, 16}, {3, 2, 8}};
    for (const std::string &backend_name : gridBackendNames()) {
        for (const GridConfig &grid : grids) {
            const auto backend = makeGridBackend(backend_name, grid);
            const GridDevice device(grid);
            for (const std::uint64_t seed : kSeeds) {
                const Circuit circuit = makeRandomCircuit(24, 60, seed);
                expectCleanCompile(
                    *backend, device, circuit,
                    backend_name + "/" + device.spec() +
                        " seed=" + std::to_string(seed));
            }
        }
    }
}

// ---- service differentials (ROADMAP fuzz-strategy follow-up) ---------

TEST(LintFuzz, ThreadedServiceMatchesSerialCompiles)
{
    // The same random circuits, compiled directly (serial oracle) and
    // through a 4-thread CompileService submitted all at once: worker
    // scheduling, the per-thread scheduler arenas, and the cache layers
    // must never leak into the output.
    MusstiConfig config;
    const auto backend = makeMusstiBackend(config);

    std::vector<Circuit> circuits;
    for (const std::uint64_t seed : kSeeds) {
        for (const int qubits : {16, 24, 32})
            circuits.push_back(makeRandomCircuit(qubits, 60, seed));
    }

    CompileServiceConfig svc;
    svc.numThreads = 4;
    CompileService service(svc);
    std::vector<std::future<CompileResult>> threaded;
    threaded.reserve(circuits.size());
    for (const Circuit &qc : circuits)
        threaded.push_back(service.submit(backend, qc));

    for (std::size_t i = 0; i < circuits.size(); ++i) {
        EXPECT_EQ(scheduleFingerprint(threaded[i].get()),
                  scheduleFingerprint(backend->compile(circuits[i])))
            << "circuit " << i << " (" << circuits[i].name()
            << ") diverged between serial and 4-thread compiles";
    }
}

TEST(LintFuzz, DeltaWarmMatchesColdOnRandomExtensions)
{
    // Same rng seed, more two-qubit gates: the extension shares the
    // base's whole gate stream up to the measure block, so a snapshot-
    // seeded warm compile must reproduce the cold (knob-off) compile
    // bit for bit. Dense checkpoints keep small circuits resumable.
    MusstiConfig config;
    MusstiConfig delta_config = config;
    delta_config.deltaCompile = true;
    delta_config.deltaCheckpointGates = 16;
    const auto cold_backend = makeMusstiBackend(config);
    const auto delta_backend = makeMusstiBackend(delta_config);

    for (const std::uint64_t seed : kSeeds) {
        // Deep circuits (well past the 64-layer look-ahead horizon)
        // give the warm path a real chance to resume; shallow ones
        // exercise the probe-and-fall-back path. Both must match cold.
        const Circuit base = makeRandomCircuit(24, 800, seed);
        const Circuit edited = makeRandomCircuit(24, 880, seed);

        const std::uint64_t cold =
            scheduleFingerprint(cold_backend->compile(edited));

        CompileServiceConfig svc;
        svc.numThreads = 1;
        svc.cacheCapacity = 0; // The edited job must really compile.
        svc.snapshotCacheCapacity = 16;
        CompileService service(svc);
        service.submit(delta_backend, base).get();
        EXPECT_EQ(scheduleFingerprint(
                      service.submit(delta_backend, edited).get()),
                  cold)
            << "seed " << seed
            << ": delta-warm compile diverged from the cold oracle";
    }
}

} // namespace
} // namespace mussti
