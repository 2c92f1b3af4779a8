/**
 * @file
 * The SchedulerWorkspace reuse contract: a workspace is an allocation
 * cache, never information. Reusing one arena across the three SABRE
 * legs, across repeated compilations, across different circuits, and
 * across CompileService jobs must yield bit-identical results to fresh
 * state every time, and handing buffers back must leave no state bleed.
 */
#include <memory>

#include <gtest/gtest.h>

#include "common/hash.h"
#include "core/compile_service.h"
#include "core/compiler.h"
#include "core/mapper.h"
#include "core/scheduler.h"
#include "core/scheduler_workspace.h"
#include "workloads/workloads.h"

namespace mussti {
namespace {

/** Same full-compilation digest as tests/test_scheduler.cpp. */
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

TEST(SchedulerWorkspaceReuse, RepeatedCompilesAreBitIdentical)
{
    // One arena, many compilations of the same circuit (the bench's
    // steady-state measurement pattern): every repeat must equal the
    // workspace-free compile.
    const Circuit qc = makeBenchmark("qaoa", 96);
    const MusstiCompiler compiler;
    const std::uint64_t fresh = scheduleFingerprint(compiler.compile(qc));

    const auto workspace = std::make_shared<SchedulerWorkspace>();
    for (int rep = 0; rep < 3; ++rep) {
        EXPECT_EQ(scheduleFingerprint(
                      compiler.compile(qc, {.workspace = workspace})),
                  fresh)
            << "repeat " << rep << " diverged through the shared arena";
    }
}

TEST(SchedulerWorkspaceReuse, CrossCircuitReuseHasNoStateBleed)
{
    // Interleave circuits of different families, sizes, and qubit
    // counts through ONE arena; every result must match its fresh
    // compile. Shrinking then growing exercises stale-capacity reuse in
    // both directions (chain buffers, DAG scratch, worklist state).
    const MusstiCompiler compiler;
    const auto workspace = std::make_shared<SchedulerWorkspace>();
    const std::pair<const char *, int> sequence[] = {
        {"qaoa", 128}, {"ghz", 16}, {"adder", 96},
        {"bv", 48},    {"ran", 64}, {"qaoa", 128},
    };
    for (const auto &[family, qubits] : sequence) {
        const Circuit qc = makeBenchmark(family, qubits);
        EXPECT_EQ(scheduleFingerprint(
                      compiler.compile(qc, {.workspace = workspace})),
                  scheduleFingerprint(compiler.compile(qc)))
            << family << "_n" << qubits
            << " diverged after the arena served a different circuit";
    }
}

TEST(SchedulerWorkspaceReuse, DirectSchedulerRunsShareOneArena)
{
    // The raw scheduler API, as the SABRE legs use it: repeated runs
    // through one workspace equal runs with none, and the workspace's
    // buffers come back (opReserveHint reflects the largest run).
    MusstiConfig config;
    const Circuit qc = makeBenchmark("adder", 48).withSwapsDecomposed();
    const EmlDevice device(config.device, qc.numQubits());
    const PhysicalParams params;
    const MusstiScheduler scheduler(device, params, config);
    const Placement initial = trivialPlacement(device, qc.numQubits());

    const auto bare = scheduler.run(qc, initial);
    SchedulerWorkspace workspace;
    for (int rep = 0; rep < 3; ++rep) {
        const auto reused = scheduler.run(qc, initial, &workspace);
        EXPECT_EQ(reused.schedule.ops.size(), bare.schedule.ops.size());
        EXPECT_EQ(reused.swapInsertions, bare.swapInsertions);
        EXPECT_EQ(reused.evictions, bare.evictions);
        EXPECT_EQ(reused.routingSteps, bare.routingSteps);
    }
    EXPECT_GE(workspace.opReserveHint, bare.schedule.ops.size());
    // The donated DAG scratch really was used and returned.
    EXPECT_FALSE(workspace.dag.chainOffsets.empty());
}

TEST(SchedulerWorkspaceReuse, CompileServiceJobsMatchDirectCompiles)
{
    // Jobs on the service run through per-worker-thread arenas; results
    // must match direct workspace-free compiles regardless of how many
    // jobs an arena already served. Cache disabled so every submission
    // actually compiles.
    CompileServiceConfig service_config;
    service_config.numThreads = 2;
    service_config.cacheCapacity = 0;
    CompileService service(service_config);
    const auto backend = std::make_shared<MusstiCompiler>();

    std::vector<std::pair<const char *, int>> jobs = {
        {"qaoa", 96}, {"adder", 64}, {"ghz", 48},  {"bv", 32},
        {"qaoa", 96}, {"ran", 40},   {"adder", 64}, {"qaoa", 96},
    };
    std::vector<std::future<CompileResult>> futures;
    for (const auto &[family, qubits] : jobs)
        futures.push_back(
            service.submit(backend, makeBenchmark(family, qubits)));
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        const auto &[family, qubits] = jobs[i];
        const auto direct =
            backend->compile(makeBenchmark(family, qubits));
        EXPECT_EQ(scheduleFingerprint(futures[i].get()),
                  scheduleFingerprint(direct))
            << family << "_n" << qubits
            << " diverged through the service's per-thread arena";
    }
    EXPECT_EQ(service.jobsExecuted(), jobs.size());
}

} // namespace
} // namespace mussti
