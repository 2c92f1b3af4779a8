/**
 * @file
 * The scheduler's per-thread arena contract. MusstiScheduler::run keeps
 * one buffer arena per thread, and that arena is an allocation cache,
 * never information. Every reference result here is computed on a fresh
 * thread, whose arena starts cold, and compared with the same work on a
 * thread whose arena already served other circuits: repeats of one
 * circuit, a shrink-then-grow sequence, raw scheduler legs,
 * CompileService jobs, and a delta capture + resume. Resumes from
 * corrupt chain-head watermarks must fall back to that cold schedule.
 */
#include <algorithm>
#include <future>
#include <memory>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "arch/device_registry.h"
#include "core/compile_service.h"
#include "core/compiler.h"
#include "core/mapper.h"
#include "core/scheduler.h"
#include "workloads/workloads.h"

namespace mussti {
namespace {

/** Run `work` on a new thread, whose scheduler arena starts cold. */
template <typename Work>
auto
onColdThread(Work work)
{
    return std::async(std::launch::async, std::move(work)).get();
}

/** Warm the calling thread's arena with an unrelated compile. */
void
warmThisThread()
{
    (void)MusstiCompiler().compile(makeBenchmark("qft", 64));
}

/** resultFingerprint over one raw scheduler run of `lowered`. */
std::uint64_t
runFingerprint(const Circuit &lowered,
               const MusstiScheduler::RunOutput &out)
{
    CompileResult result(lowered);
    result.schedule = out.schedule;
    result.swapInsertions = out.swapInsertions;
    result.evictions = out.evictions;
    result.finalChains = Schedule::snapshotChains(out.finalPlacement);
    return resultFingerprint(result);
}

TEST(SchedulerWorkspaceReuse, RepeatedCompilesAreBitIdentical)
{
    // Many compilations of one circuit on a warm thread (the bench's
    // steady-state measurement pattern): every repeat must equal the
    // cold-thread compile.
    const Circuit qc = makeBenchmark("qaoa", 96);
    const MusstiCompiler compiler;
    const std::uint64_t cold = onColdThread(
        [&] { return resultFingerprint(compiler.compile(qc)); });

    warmThisThread();
    for (int rep = 0; rep < 3; ++rep) {
        EXPECT_EQ(resultFingerprint(compiler.compile(qc)), cold)
            << "repeat " << rep << " diverged on a warm arena";
    }
}

TEST(SchedulerWorkspaceReuse, ShrinkThenGrowHasNoStateBleed)
{
    // Interleave circuits of different families, sizes and qubit counts
    // on one thread; every result must match its cold-thread compile.
    // Shrinking then growing exercises stale-capacity reuse in both
    // directions (chain buffers, DAG scratch, worklist state).
    const MusstiCompiler compiler;
    const std::pair<const char *, int> sequence[] = {
        {"qaoa", 128}, {"ghz", 16}, {"adder", 96},
        {"bv", 48},    {"ran", 64}, {"qaoa", 128},
    };
    for (const auto &[family, qubits] : sequence) {
        const Circuit qc = makeBenchmark(family, qubits);
        const std::uint64_t cold = onColdThread(
            [&] { return resultFingerprint(compiler.compile(qc)); });
        EXPECT_EQ(resultFingerprint(compiler.compile(qc)), cold)
            << family << "_n" << qubits
            << " diverged after the arena served a different circuit";
    }
}

TEST(SchedulerWorkspaceReuse, DirectSchedulerLegsMatchColdThread)
{
    // The raw scheduler API, as the SABRE legs use it: forward, reverse
    // and refined-forward runs on a warm thread equal the same legs on a
    // cold one, repeat after repeat.
    MusstiConfig config;
    const Circuit qc = makeBenchmark("adder", 48).withSwapsDecomposed();
    const Circuit reversed = qc.reversed();
    const EmlDevice device(config.device, qc.numQubits());
    const PhysicalParams params;
    const MusstiScheduler scheduler(device, params, config);
    const Placement initial = trivialPlacement(device, qc.numQubits());

    const auto legs = [&] {
        const auto forward = scheduler.run(qc, initial);
        const auto backward = scheduler.run(reversed,
                                            forward.finalPlacement);
        const auto refined = scheduler.run(qc, backward.finalPlacement);
        return std::vector<std::uint64_t>{
            runFingerprint(qc, forward), runFingerprint(reversed, backward),
            runFingerprint(qc, refined)};
    };
    const std::vector<std::uint64_t> cold = onColdThread(legs);

    warmThisThread();
    for (int rep = 0; rep < 3; ++rep)
        EXPECT_EQ(legs(), cold) << "repeat " << rep;
}

TEST(SchedulerWorkspaceReuse, CompileServiceJobsMatchColdThreadCompiles)
{
    // Jobs on the service run through their worker thread's arena;
    // results must match cold-thread compiles regardless of how many
    // jobs an arena already served. Cache disabled so every submission
    // actually compiles.
    CompileServiceConfig service_config;
    service_config.numThreads = 2;
    service_config.cacheCapacity = 0;
    CompileService service(service_config);
    const auto backend = std::make_shared<MusstiCompiler>();

    const std::vector<std::pair<const char *, int>> jobs = {
        {"qaoa", 96}, {"adder", 64}, {"ghz", 48},  {"bv", 32},
        {"qaoa", 96}, {"ran", 40},   {"adder", 64}, {"qaoa", 96},
    };
    std::vector<std::future<CompileResult>> futures;
    for (const auto &[family, qubits] : jobs)
        futures.push_back(
            service.submit(backend, makeBenchmark(family, qubits)));
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        const auto &[family, qubits] = jobs[i];
        const std::uint64_t cold = onColdThread([&] {
            return resultFingerprint(
                backend->compile(makeBenchmark(family, qubits)));
        });
        EXPECT_EQ(resultFingerprint(futures[i].get()), cold)
            << family << "_n" << qubits
            << " diverged through the service's per-thread arena";
    }
    EXPECT_EQ(service.jobsExecuted(), jobs.size());
}

/**
 * `base` with one CX inserted at the checkpoint's watermark, between the
 * two qubits with the shallowest live chains there. That gate would
 * have sat inside the checkpoint's look-ahead window, so a resume's
 * selection sweep has to reject the checkpoint for an earlier one.
 */
Circuit
insertShallowGate(const Circuit &base, const ScheduleSnapshot &snap)
{
    std::vector<int> qubits;
    for (int q = 0; q < base.numQubits(); ++q) {
        if (snap.chainTailDepth[q] >= 0)
            qubits.push_back(q);
    }
    std::stable_sort(qubits.begin(), qubits.end(), [&](int a, int b) {
        return snap.chainTailDepth[a] < snap.chainTailDepth[b];
    });
    Circuit edited(base.numQubits(), base.name());
    for (std::size_t i = 0; i < base.size(); ++i) {
        if (i == snap.loweredPrefixGates)
            edited.cx(qubits[0], qubits[1]);
        edited.add(base[i]);
    }
    return edited;
}

TEST(SchedulerWorkspaceReuse, DeltaResumeAfterLargerCircuitMatchesColdThread)
{
    // A delta capture followed by a resume, on a thread that has just
    // done the same for a LARGER circuit: the resume-guard scratch and
    // the DAG arrays come back oversized and full of the previous run's
    // entries, and the resumed schedule must still equal a cold-thread
    // compile of the edited circuit.
    MusstiConfig config;
    config.mapping = MappingKind::Trivial;
    const PhysicalParams params;

    // Capture checkpoints, edit the circuit inside the last one's window
    // and resume the edit. Returns the edited circuit and the resumed
    // run's fingerprint.
    const auto captureEditResume = [&](const char *family, int qubits) {
        const auto device = DeviceRegistry::createEml(config.device, qubits);
        const MusstiScheduler scheduler(*device, params, config);
        const Placement initial = trivialPlacement(*device, qubits);
        const Circuit base =
            makeBenchmark(family, qubits).withSwapsDecomposed();

        DeltaRequest capture;
        capture.checkpointEvery = 16;
        const auto captured = scheduler.run(base, initial, &capture);
        EXPECT_GE(captured.snapshots.size(), 2u);
        if (captured.snapshots.empty())
            return std::pair(base, std::uint64_t{0});
        const Circuit edit =
            insertShallowGate(base, captured.snapshots.back());

        std::size_t shared = 0;
        while (base[shared] == edit[shared])
            ++shared;
        DeltaRequest resume;
        for (const ScheduleSnapshot &snap : captured.snapshots) {
            if (snap.loweredPrefixGates <= shared)
                resume.candidates.push_back({&snap, shared});
        }
        const auto resumed = scheduler.run(edit, initial, &resume);
        EXPECT_NE(resumed.resumedFrom, nullptr) << family << "_n" << qubits;
        return std::pair(edit, runFingerprint(edit, resumed));
    };

    (void)captureEditResume("adder", 96);
    const auto [edit, resumed] = captureEditResume("adder", 64);
    const std::uint64_t cold = onColdThread([&] {
        const auto device = DeviceRegistry::createEml(config.device, 64);
        const MusstiScheduler scheduler(*device, params, config);
        return runFingerprint(
            edit, scheduler.run(edit, trivialPlacement(*device, 64)));
    });
    EXPECT_EQ(resumed, cold);
}

TEST(SchedulerWorkspaceReuse, CorruptChainHeadsFallBackToCold)
{
    // A snapshot whose chain-head watermark the edited circuit cannot
    // hold must be refused before the DAG is built at it: no resume, no
    // panic, and the cold schedule.
    MusstiConfig config;
    config.mapping = MappingKind::Trivial;
    const PhysicalParams params;
    const int qubits = 64;
    const auto device = DeviceRegistry::createEml(config.device, qubits);
    const MusstiScheduler scheduler(*device, params, config);
    const Placement initial = trivialPlacement(*device, qubits);
    const Circuit base = makeBenchmark("adder", qubits).withSwapsDecomposed();

    DeltaRequest capture;
    capture.checkpointEvery = 16;
    const auto captured = scheduler.run(base, initial, &capture);
    ASSERT_GE(captured.snapshots.size(), 2u);
    const Circuit edit = insertShallowGate(base, captured.snapshots.back());
    std::size_t shared = 0;
    while (base[shared] == edit[shared])
        ++shared;
    const std::uint64_t cold =
        runFingerprint(edit, scheduler.run(edit, initial));

    // The longest checkpoint that resumes the edit intact.
    const ScheduleSnapshot *intact = nullptr;
    for (auto it = captured.snapshots.rbegin();
         it != captured.snapshots.rend() && intact == nullptr; ++it) {
        DeltaRequest resume;
        resume.candidates.push_back({&*it, shared});
        const auto out = scheduler.run(edit, initial, &resume);
        if (out.resumedFrom != nullptr) {
            EXPECT_EQ(runFingerprint(edit, out), cold);
            intact = &*it;
        }
    }
    ASSERT_NE(intact, nullptr);

    // Per-qubit chain lengths of the edit, and a qubit whose chain
    // still has unretired gates.
    std::vector<int> length(qubits, 0);
    for (std::size_t i = 0; i < edit.size(); ++i) {
        if (edit[i].twoQubit()) {
            ++length[edit[i].q0];
            ++length[edit[i].q1];
        }
    }
    const std::vector<int> &heads = intact->chainHeads;
    int open = 0;
    while (heads[open] >= length[open])
        ++open;

    std::vector<std::pair<const char *, std::vector<int>>> corrupt;
    corrupt.emplace_back("wrong length", heads);
    corrupt.back().second.pop_back();
    corrupt.emplace_back("negative head", heads);
    corrupt.back().second[open] = -1;
    corrupt.emplace_back("head past its chain", heads);
    corrupt.back().second[open] = length[open] + 1;
    // The next gate on `open`'s chain is unretired on its partner's.
    corrupt.emplace_back("split gate", heads);
    ++corrupt.back().second[open];
    // Everything retired: consistent and in range, but it covers the
    // gates at and after the shared prefix.
    corrupt.emplace_back("past the shared prefix", length);

    for (const auto &[what, bad_heads] : corrupt) {
        SCOPED_TRACE(what);
        ScheduleSnapshot bad = *intact;
        bad.chainHeads = bad_heads;
        DeltaRequest resume;
        resume.candidates.push_back({&bad, shared});
        EXPECT_NO_THROW({
            const auto out = scheduler.run(edit, initial, &resume);
            EXPECT_EQ(out.resumedFrom, nullptr);
            EXPECT_EQ(runFingerprint(edit, out), cold);
        });
    }
}

} // namespace
} // namespace mussti
