/**
 * @file
 * Delta-compilation bit-identity: a warm compile resumed from a cached
 * ScheduleSnapshot must equal a cold compile of the same circuit in
 * every observable — schedule ops, placements, counters, metrics —
 * across both EML device shapes, and the snapshot tier must leave the
 * grid baseline backends (which have no delta path) untouched on both
 * grid shapes. The cold path with the knob off is the oracle
 * throughout, matching the discipline of tests/test_backend_golden.cpp:
 * the knob may only change speed, never output.
 */
#include <gtest/gtest.h>

#include "arch/device_registry.h"
#include "baselines/backend_factory.h"
#include "common/hash.h"
#include "core/compile_service.h"
#include "core/compiler.h"
#include "dag/dag.h"
#include "workloads/workloads.h"

namespace mussti {
namespace {

/** FNV-1a over everything a compilation produces (the same digest as
 * tests/test_scheduler.cpp / test_backend_golden.cpp, duplicated to
 * keep each suite self-contained). */
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

/** Re-parameterize: rz angles nudged in the last quarter of gates, so
 * the prefix chain diverges mid-circuit rather than at the end. */
Circuit
reparamTail(const Circuit &base)
{
    Circuit edited(base.numQubits(), base.name());
    const std::size_t pivot = base.size() - base.size() / 4;
    for (std::size_t i = 0; i < base.size(); ++i) {
        Gate g = base[i];
        if (i >= pivot && g.kind == GateKind::Rz)
            g.param += 0.25;
        edited.add(g);
    }
    return edited;
}

/** A single-worker service with the result cache OFF (so the edited
 * job must really compile) and the snapshot tier on. */
CompileServiceConfig
deltaServiceConfig()
{
    CompileServiceConfig svc;
    svc.numThreads = 1;
    svc.cacheCapacity = 0;
    svc.snapshotCacheCapacity = 32;
    return svc;
}

TEST(DeltaCompile, MusstiWarmMatchesColdAcrossDeviceShapes)
{
    // Both EML shapes: the homogeneous default and a registry-built
    // heterogeneous mix (2 modules x maxq=16 fits the 32q workloads).
    // The hetero traps are capacity-starved (cap=8) so the schedule
    // needs real routing — on a device where every gate drains as
    // immediately executable the scheduler never reaches a resumable
    // point, captures nothing, and the test would pass vacuously.
    struct Shape
    {
        const char *label;
        const char *spec; // nullptr = homogeneous defaults
    };
    const Shape shapes[] = {
        {"homogeneous", nullptr},
        {"hetero2", "eml:hetero=2.1.1-2.1.1,cap=8,maxq=16"},
    };
    // 40 Trotter steps ~= 160 two-qubit layers: comfortably deeper
    // than the scheduler's look-ahead horizon (64 layers), which a
    // resumable prefix must clear — shallower circuits fall back to
    // cold wholesale, and this test must exercise real resumes.
    const Circuit base = makeIsing(32, 40);
    const Circuit edits[] = {makeIsing(32, 41), reparamTail(base)};

    for (const Shape &shape : shapes) {
        MusstiConfig config; // paper defaults: SABRE mapping
        if (shape.spec != nullptr)
            config.device = DeviceRegistry::parse(shape.spec).eml;

        MusstiConfig delta_config = config;
        delta_config.deltaCompile = true;
        const auto oracle = std::make_shared<MusstiCompiler>(config);
        const auto warm_backend =
            std::make_shared<MusstiCompiler>(delta_config);

        for (const Circuit &edited : edits) {
            // Cold oracle: plain compile, knob off.
            const std::uint64_t cold =
                scheduleFingerprint(oracle->compile(edited));

            // Warm: base seeds the snapshot cache, the edited job
            // resumes from it.
            CompileService service(deltaServiceConfig());
            service.submit(warm_backend, base).get();
            const CompileResult warm_result =
                service.submit(warm_backend, edited).get();

            EXPECT_EQ(scheduleFingerprint(warm_result), cold)
                << shape.label << " " << edited.name()
                << ": delta-resumed compile diverged from the cold "
                   "oracle";
            // The equality must not hold vacuously: the warm job has
            // to have taken the resume path it claims to test.
            EXPECT_TRUE(warm_result.deltaResumed)
                << shape.label << " " << edited.name()
                << ": edited compile scheduled cold";
            const CompileService::CacheStats stats =
                service.cacheStats();
            EXPECT_GE(stats.deltaResumes, 1u);
            EXPECT_EQ(stats.deltaFallbacks, 0u);
        }
    }
}

TEST(DeltaCompile, LookAheadAtTheHorizonStillResumes)
{
    // lookAhead == the DAG window horizon is the deepest legal one: the
    // SWAP-insertion weight table then reads every layer of the window
    // the resume proof covers. It must still compile cold, and a
    // resume must still equal that cold compile bit for bit.
    MusstiConfig config;
    config.lookAhead = DependencyDag::kDefaultWindowHorizon;
    MusstiConfig delta_config = config;
    delta_config.deltaCompile = true;
    const Circuit base = makeIsing(32, 40);
    const Circuit edited = reparamTail(base);
    const std::uint64_t cold =
        scheduleFingerprint(MusstiCompiler(config).compile(edited));

    CompileService service(deltaServiceConfig());
    const auto warm_backend = std::make_shared<MusstiCompiler>(delta_config);
    service.submit(warm_backend, base).get();
    const CompileResult warm = service.submit(warm_backend, edited).get();
    EXPECT_EQ(scheduleFingerprint(warm), cold);
    EXPECT_TRUE(warm.deltaResumed) << "edited compile scheduled cold";
}

/** The delta_session settings: trivial mapping, 64-gate checkpoints. */
MusstiConfig
trivialDeltaConfig()
{
    MusstiConfig config;
    config.mapping = MappingKind::Trivial;
    config.deltaCompile = true;
    config.deltaCheckpointGates = 64;
    return config;
}

/** The captured checkpoints of `base` that `edited` shares a prefix
    with, each offered alone, that a compile of `edited` resumes from. */
std::vector<ScheduleSnapshot>
resumableCheckpoints(const MusstiCompiler &backend,
                     const std::vector<ScheduleSnapshot> &captured,
                     const Circuit &edited)
{
    std::vector<ScheduleSnapshot> found;
    for (const ScheduleSnapshot &snap : captured) {
        if (edited.prefixHash(snap.inputPrefixGates) != snap.prefixHash)
            continue;
        DeltaCompileIO warm;
        warm.candidates = {std::make_shared<const ScheduleSnapshot>(snap)};
        backend.compile(edited, {.delta = &warm});
        if (warm.resumed)
            found.push_back(snap);
    }
    return found;
}

TEST(DeltaCompile, TheNetLintsOnlyTheResumedSuffix)
{
    // A compile that banks checkpoints lints its whole schedule once; a
    // compile resumed from one lints only the ops after it.
    const MusstiCompiler backend(trivialDeltaConfig());
    MusstiConfig cold_config = trivialDeltaConfig();
    cold_config.deltaCompile = false;
    const Circuit base = makeIsing(32, 40);
    const Circuit edited = reparamTail(base);
    const std::uint64_t cold = scheduleFingerprint(
        MusstiCompiler(cold_config).compile(edited));

    DeltaCompileIO capture;
    const CompileResult base_result =
        backend.compile(base, {.delta = &capture});
    ASSERT_FALSE(capture.captured.empty());
    EXPECT_EQ(capture.lintedOps, base_result.schedule.ops.size());

    const std::vector<ScheduleSnapshot> resumable =
        resumableCheckpoints(backend, capture.captured, edited);
    ASSERT_FALSE(resumable.empty());
    for (const ScheduleSnapshot &snap : resumable) {
        DeltaCompileIO warm;
        warm.candidates = {std::make_shared<const ScheduleSnapshot>(snap)};
        const CompileResult result =
            backend.compile(edited, {.delta = &warm});
        ASSERT_TRUE(warm.resumed);
        EXPECT_EQ(warm.lintedOps,
                  result.schedule.ops.size() - snap.schedule.ops.size())
            << "resumed after op " << snap.schedule.ops.size();
        EXPECT_EQ(scheduleFingerprint(result), cold);
    }
}

TEST(DeltaCompile, TamperedChainsFailTheNetAndNeverShip)
{
    // The scheduler restores a snapshot's placement chains verbatim,
    // but the net starts from the linter's own walk state. Swap two
    // qubits across zones in a resumable candidate (the shape stays
    // valid, so the scheduler resumes): the suffix then moves ions
    // from where the scheduler believes they are, the net sees they
    // are not, and the compile fails instead of returning a schedule.
    const MusstiCompiler backend(trivialDeltaConfig());
    const Circuit base = makeIsing(32, 40);
    const Circuit edited = reparamTail(base);
    DeltaCompileIO capture;
    backend.compile(base, {.delta = &capture});
    const std::vector<ScheduleSnapshot> resumable =
        resumableCheckpoints(backend, capture.captured, edited);
    ASSERT_FALSE(resumable.empty());

    ScheduleSnapshot tampered = resumable.back();
    std::vector<int *> fronts;
    for (std::vector<int> &chain : tampered.chains) {
        if (!chain.empty())
            fronts.push_back(&chain.front());
    }
    ASSERT_GE(fronts.size(), 2u);
    std::swap(*fronts[0], *fronts[1]);

    DeltaCompileIO warm;
    warm.candidates = {
        std::make_shared<const ScheduleSnapshot>(std::move(tampered))};
    try {
        backend.compile(edited, {.delta = &warm});
        ADD_FAILURE() << "a resume from tampered chains shipped";
    } catch (const std::logic_error &error) {
        EXPECT_NE(std::string(error.what()).find("failed lint"),
                  std::string::npos)
            << error.what();
    }
}

TEST(DeltaCompile, GridBaselinesUnaffectedByDeltaService)
{
    // The murali/dai/mqt baselines have no delta path; routing them
    // through a snapshot-tier service twice (second submission probes
    // the tier) must reproduce the direct cold compile exactly, on
    // both grid shapes.
    struct Case
    {
        const char *backend;
        const char *family;
        int qubits;
        GridConfig grid;
    };
    const Case cases[] = {
        {"murali", "adder", 48, {4, 3, 16}},
        {"murali", "qft", 32, {2, 2, 16}},
        {"dai", "adder", 48, {4, 3, 16}},
        {"dai", "qft", 32, {2, 2, 16}},
        {"mqt", "adder", 48, {4, 3, 16}},
        {"mqt", "qft", 32, {2, 2, 16}},
    };
    for (const Case &c : cases) {
        const auto backend = makeGridBackend(c.backend, c.grid);
        const Circuit qc = makeBenchmark(c.family, c.qubits);
        const std::uint64_t cold =
            scheduleFingerprint(backend->compile(qc));

        CompileService service(deltaServiceConfig());
        const std::uint64_t first =
            scheduleFingerprint(service.submit(backend, qc).get());
        const CompileResult second = service.submit(backend, qc).get();

        EXPECT_EQ(first, cold)
            << c.backend << " " << c.family << "_n" << c.qubits;
        EXPECT_EQ(scheduleFingerprint(second), cold)
            << c.backend << " " << c.family << "_n" << c.qubits
            << " (second submission)";
        EXPECT_FALSE(second.deltaResumed);
    }
}

} // namespace
} // namespace mussti
