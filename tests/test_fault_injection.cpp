/**
 * @file
 * Tests for the deterministic fault-injection harness and the
 * CompileService's fault tolerance under it: scripted trigger replay,
 * retry-with-backoff recovery, delta-tier quarantine, shutdown
 * draining, and a soak test that drives a faulted service through a
 * mixed workload asserting no deadlock, no leaked promise, no cache
 * poisoning, and bit-identical survivors.
 *
 * Every test disarms the injector on exit (including failure exits, via
 * an RAII guard) — the injector is process-wide state and a leaked
 * script would corrupt unrelated tests.
 */
#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "baselines/backend_factory.h"
#include "common/error.h"
#include "common/fault_injection.h"
#include "common/hash.h"
#include "common/logging.h"
#include "core/compile_service.h"
#include "core/compiler.h"
#include "workloads/workloads.h"

namespace mussti {
namespace {

/** Disarm on scope exit so a failing test cannot leak its script. */
struct ScopedFaultScript
{
    explicit ScopedFaultScript(FaultScript script)
    {
        FaultInjector::arm(std::move(script));
    }
    ~ScopedFaultScript() { FaultInjector::disarm(); }

    ScopedFaultScript(const ScopedFaultScript &) = delete;
    ScopedFaultScript &operator=(const ScopedFaultScript &) = delete;
};

/** Content fingerprint of a compile result (schedule + metrics). */
std::uint64_t
fingerprint(const CompileResult &result)
{
    Fnv1a hash;
    hash.update(static_cast<std::uint64_t>(result.schedule.ops.size()));
    for (const ScheduledOp &op : result.schedule.ops) {
        hash.update(static_cast<int>(op.kind));
        hash.update(op.q0);
        hash.update(op.q1);
        hash.update(op.zoneFrom);
        hash.update(op.zoneTo);
        hash.update(op.durationUs);
        hash.update(op.circuitGate);
        hash.update(op.inserted);
    }
    hash.update(result.metrics.shuttleCount);
    hash.update(result.metrics.ionSwapCount);
    hash.update(result.metrics.gate1qCount);
    hash.update(result.metrics.gate2qCount);
    hash.update(result.metrics.fiberGateCount);
    hash.update(result.metrics.executionTimeUs);
    hash.update(result.metrics.lnFidelity);
    hash.update(result.swapInsertions);
    hash.update(result.evictions);
    return hash.digest();
}

int
soakJobs(int fallback)
{
    const char *env = std::getenv("MUSSTI_FAULT_SOAK_JOBS");
    if (env == nullptr || *env == '\0')
        return fallback;
    const int parsed = std::atoi(env);
    return parsed > 0 ? parsed : fallback;
}

std::shared_ptr<const ICompilerBackend>
deltaBackend()
{
    MusstiConfig config;
    config.deltaCompile = true;
    config.deltaCheckpointGates = 16;
    return makeMusstiBackend(config);
}

TEST(FaultInjector, DisarmedReportsNothing)
{
    FaultInjector::disarm();
    EXPECT_FALSE(FaultInjector::armed());
    EXPECT_FALSE(FaultInjector::at(FaultSite::PassBoundary).has_value());
    EXPECT_FALSE(FaultInjector::fires(FaultSite::CacheStore));
    EXPECT_NO_THROW(FaultInjector::maybeThrow(FaultSite::WorkerDequeue));
}

TEST(FaultInjector, TriggerFiresOnExactVisit)
{
    FaultScript script;
    script.triggers.push_back(
        {FaultSite::WorkerDequeue, 2, ErrorCategory::Transient,
         "fault.injected"});
    const ScopedFaultScript armed(script);

    EXPECT_FALSE(FaultInjector::fires(FaultSite::WorkerDequeue)); // 0
    EXPECT_FALSE(FaultInjector::fires(FaultSite::WorkerDequeue)); // 1
    EXPECT_TRUE(FaultInjector::fires(FaultSite::WorkerDequeue));  // 2
    EXPECT_FALSE(FaultInjector::fires(FaultSite::WorkerDequeue)); // 3
    EXPECT_EQ(FaultInjector::visitCount(FaultSite::WorkerDequeue), 4u);
    EXPECT_EQ(FaultInjector::firedCount(FaultSite::WorkerDequeue), 1u);

    // Other sites are untouched.
    EXPECT_EQ(FaultInjector::visitCount(FaultSite::PassBoundary), 0u);
}

TEST(FaultInjector, MaybeThrowRaisesTheScriptedError)
{
    FaultScript script;
    script.triggers.push_back(
        {FaultSite::PassBoundary, 0, ErrorCategory::Transient,
         "fault.injected"});
    script.triggers.push_back(
        {FaultSite::PassBoundary, 1, ErrorCategory::ResourceExhausted,
         "fault.oom"});
    const ScopedFaultScript armed(script);

    try {
        FaultInjector::maybeThrow(FaultSite::PassBoundary);
        FAIL();
    } catch (const MusstiError &err) {
        EXPECT_EQ(err.category(), ErrorCategory::Transient);
        EXPECT_EQ(err.code(), "fault.injected");
    }
    const ScopedFatalSilence quiet; // ResourceExhausted echoes
    try {
        FaultInjector::maybeThrow(FaultSite::PassBoundary);
        FAIL();
    } catch (const MusstiError &err) {
        EXPECT_EQ(err.category(), ErrorCategory::ResourceExhausted);
        EXPECT_EQ(err.code(), "fault.oom");
    }
    EXPECT_NO_THROW(FaultInjector::maybeThrow(FaultSite::PassBoundary));
}

TEST(FaultInjector, ProbabilisticModeIsDeterministicPerSeed)
{
    auto record = [](std::uint64_t seed) {
        FaultScript script;
        script.probability = 0.5;
        script.seed = seed;
        script.probabilisticSites = {FaultSite::CacheStore};
        const ScopedFaultScript armed(script);
        std::vector<bool> fired;
        for (int i = 0; i < 64; ++i)
            fired.push_back(FaultInjector::fires(FaultSite::CacheStore));
        return fired;
    };

    const auto a = record(7);
    const auto b = record(7);
    const auto c = record(8);
    EXPECT_EQ(a, b); // same seed → identical firing pattern
    EXPECT_NE(a, c); // different seed → different pattern
    int fired = 0;
    for (const bool f : a)
        fired += f;
    EXPECT_GT(fired, 8);      // p=0.5 over 64 visits actually fires
    EXPECT_LT(fired, 56);     // ... and actually passes too
}

TEST(FaultInjector, ArmResetsCounters)
{
    {
        FaultScript script;
        const ScopedFaultScript armed(script);
        (void)FaultInjector::fires(FaultSite::CacheStore);
        EXPECT_EQ(FaultInjector::visitCount(FaultSite::CacheStore), 1u);
    }
    FaultScript script;
    const ScopedFaultScript rearmed(script);
    EXPECT_EQ(FaultInjector::visitCount(FaultSite::CacheStore), 0u);
}

TEST(FaultService, RetryRecoversFromTransientFaults)
{
    CompileServiceConfig config;
    config.numThreads = 1;
    CompileService service(config);
    const auto backend = makeMusstiBackend();
    const Circuit qc = makeBenchmark("ghz", 30);
    const CompileResult reference = backend->compile(qc);

    FaultScript script;
    script.triggers.push_back({FaultSite::WorkerDequeue, 0,
                               ErrorCategory::Transient, "fault.injected"});
    script.triggers.push_back({FaultSite::WorkerDequeue, 1,
                               ErrorCategory::Transient, "fault.injected"});
    const ScopedFaultScript armed(script);

    CompileOutcome outcome =
        service.submitOutcome({backend, qc, {}, {}, {}}).get();
    ASSERT_TRUE(outcome.ok());
    EXPECT_EQ(outcome.attempts, 3);
    EXPECT_EQ(fingerprint(outcome.value()), fingerprint(reference));

    const CompileService::CacheStats stats = service.cacheStats();
    EXPECT_EQ(stats.jobsRetried, 2u);
    EXPECT_EQ(stats.jobsFailed, 0u);
}

TEST(FaultService, RetryGivesUpAfterMaxAttempts)
{
    CompileServiceConfig config;
    config.numThreads = 1;
    CompileService service(config);
    const auto backend = makeMusstiBackend();

    FaultScript script;
    for (std::uint64_t visit = 0; visit < 3; ++visit)
        script.triggers.push_back({FaultSite::WorkerDequeue, visit,
                                   ErrorCategory::Transient,
                                   "fault.injected"});
    const ScopedFaultScript armed(script);

    CompileOutcome outcome =
        service.submitOutcome({backend, makeGhz(20), {}, {}, {}}).get();
    ASSERT_FALSE(outcome.ok());
    EXPECT_EQ(outcome.attempts, 3);
    EXPECT_EQ(outcome.errorInfo().category(), ErrorCategory::Transient);
    EXPECT_EQ(outcome.errorInfo().code(), "fault.injected");

    const CompileService::CacheStats stats = service.cacheStats();
    EXPECT_EQ(stats.jobsFailed, 1u);
    EXPECT_EQ(stats.jobsRetried, 2u);
}

TEST(FaultService, NonTransientInjectionNeverRetries)
{
    const ScopedFatalSilence quiet; // ResourceExhausted echoes
    CompileServiceConfig config;
    config.numThreads = 1;
    CompileService service(config);

    FaultScript script;
    script.triggers.push_back({FaultSite::WorkerDequeue, 0,
                               ErrorCategory::ResourceExhausted,
                               "fault.oom"});
    const ScopedFaultScript armed(script);

    CompileOutcome outcome =
        service.submitOutcome(
            {makeMusstiBackend(), makeGhz(20), {}, {}, {}}).get();
    ASSERT_FALSE(outcome.ok());
    EXPECT_EQ(outcome.attempts, 1);
    EXPECT_EQ(outcome.errorInfo().category(),
              ErrorCategory::ResourceExhausted);
    EXPECT_EQ(service.cacheStats().jobsRetried, 0u);
}

TEST(FaultService, FailedJobsNeverPoisonTheResultCache)
{
    CompileServiceConfig config;
    config.numThreads = 1;
    CompileService service(config);
    const auto backend = makeMusstiBackend();
    const Circuit qc = makeBenchmark("adder", 30);
    const CompileResult reference = backend->compile(qc);

    {
        // One Transient fault per attempt: the job exhausts its retries.
        FaultScript script;
        for (std::uint64_t visit = 0; visit < 3; ++visit)
            script.triggers.push_back({FaultSite::WorkerDequeue, visit,
                                       ErrorCategory::Transient,
                                       "fault.injected"});
        const ScopedFaultScript armed(script);
        const CompileOutcome failed =
            service.submitOutcome({backend, qc, {}, {}, {}}).get();
        ASSERT_FALSE(failed.ok());
    }

    // Disarmed resubmission must compile fresh (no poisoned entry was
    // banked) and match the fault-free reference bit for bit.
    const CompileOutcome retried =
        service.submitOutcome({backend, qc, {}, {}, {}}).get();
    ASSERT_TRUE(retried.ok());
    EXPECT_EQ(service.cacheHits(), 0u);
    EXPECT_EQ(service.jobsExecuted(), 1u);
    EXPECT_EQ(fingerprint(retried.value()), fingerprint(reference));
}

TEST(FaultService, QuarantineAfterConsecutiveResumeFallbacks)
{
    const ScopedFatalSilence quiet(/*silence_warns=*/true); // quarantine warn
    CompileServiceConfig config;
    config.numThreads = 1;
    config.snapshotCacheCapacity = 16;
    CompileService service(config);
    const auto backend = deltaBackend();

    // Every resume attempt degrades to a cold fallback.
    FaultScript script;
    script.probability = 1.0;
    script.probabilisticSites = {FaultSite::SnapshotResume};
    const ScopedFaultScript armed(script);

    // Base compile banks snapshots; each extension probes them, gets
    // its resume sabotaged, and falls back cold — growing the streak.
    constexpr int kThreshold = SnapshotCache::kQuarantineThreshold;
    (void)service.submitOutcome(
        {backend, makeIsing(24, 40), {}, {}, {}}).get();
    for (int steps = 41; steps <= 40 + kThreshold; ++steps) {
        const CompileOutcome outcome = service.submitOutcome(
            {backend, makeIsing(24, steps), {}, {}, {}}).get();
        ASSERT_TRUE(outcome.ok()) << steps;
        EXPECT_FALSE(outcome.value().deltaResumed) << steps;
    }

    CompileService::CacheStats stats = service.cacheStats();
    EXPECT_TRUE(stats.deltaQuarantined);
    EXPECT_EQ(stats.deltaQuarantines, 1u);
    EXPECT_EQ(stats.deltaFallbacks,
              static_cast<std::uint64_t>(kThreshold));
    EXPECT_EQ(stats.deltaResumes, 0u);
    EXPECT_EQ(stats.snapshotCount, 0u); // tier cleared
    EXPECT_EQ(stats.snapshotBytes, 0u);
    const std::uint64_t probes_at_quarantine =
        stats.snapshotHits + stats.snapshotMisses;

    // Jobs after quarantine skip the tier entirely, still succeed, and
    // stay bit-identical to a direct fault-free compile.
    const Circuit later = makeIsing(24, 41 + kThreshold);
    const CompileOutcome after =
        service.submitOutcome({backend, later, {}, {}, {}}).get();
    ASSERT_TRUE(after.ok());
    EXPECT_EQ(fingerprint(after.value()),
              fingerprint(backend->compile(later)));

    stats = service.cacheStats();
    EXPECT_EQ(stats.snapshotHits + stats.snapshotMisses,
              probes_at_quarantine); // no probe against a quarantined tier
    EXPECT_EQ(stats.deltaQuarantines, 1u); // quarantine fired exactly once
}

TEST(FaultService, ShutdownDrainsQueuedJobsAsCancelled)
{
    CompileServiceConfig config;
    config.numThreads = 1;
    CompileService service(config);
    const auto backend = makeMusstiBackend();

    std::vector<std::future<CompileOutcome>> futures;
    for (int i = 0; i < 16; ++i)
        futures.push_back(service.submitOutcome(
            {backend, makeBenchmark("qft", 36), {}, {}, {}}));
    service.shutdown();

    // Every promise resolves — either a completed compile or a clean
    // Cancelled drain; nothing deadlocks, nothing leaks.
    int cancelled = 0;
    for (auto &future : futures) {
        CompileOutcome outcome = future.get();
        if (outcome.ok())
            continue;
        EXPECT_EQ(outcome.errorInfo().category(),
                  ErrorCategory::Cancelled);
        ++cancelled;
    }
    EXPECT_GT(cancelled, 0); // 16 qft-36 compiles vs an immediate stop
    EXPECT_EQ(service.cacheStats().jobsCancelled,
              static_cast<std::uint64_t>(cancelled));

    // Shutdown is idempotent and submissions now resolve instantly.
    service.shutdown();
    CompileOutcome late =
        service.submitOutcome({backend, makeGhz(8), {}, {}, {}}).get();
    ASSERT_FALSE(late.ok());
    EXPECT_EQ(late.errorInfo().category(), ErrorCategory::Cancelled);
}

TEST(FaultService, SoakSurvivesScriptedFaultStorm)
{
    // The tentpole soak: a single service, a mixed workload (delta
    // pairs, grid jobs, invalid and pre-cancelled requests), and
    // probabilistic faults at every site plus explicit triggers. The
    // oracle: every future resolves; every failure is taxonomy-classed
    // (never Internal); every survivor is bit-identical to the
    // fault-free reference; and after disarming, failed requests
    // resubmitted to the SAME service compile fresh and match the
    // reference — the caches were never poisoned.
    const ScopedFatalSilence quiet(/*silence_warns=*/true);

    struct SoakJob
    {
        CompileRequest request;       ///< consumed by the faulted run
        CompileRequest again;         ///< copy for resubmission
        std::uint64_t reference = 0;  ///< fault-free fingerprint
        bool reference_ok = false;
    };

    const auto delta = deltaBackend();
    const auto plain = makeMusstiBackend();
    const auto grid = makeGridBackend("murali", GridConfig{2, 2, 16});
    const auto overflow = makeGridBackend("murali", GridConfig{2, 2, 4});
    const auto cancelled_token =
        std::make_shared<std::atomic<bool>>(true);

    auto makeJob = [](std::shared_ptr<const ICompilerBackend> backend,
                      Circuit circuit,
                      std::shared_ptr<const std::atomic<bool>> cancel =
                          nullptr) {
        CompileRequest request{backend, circuit, {}, {}, cancel};
        CompileRequest again{std::move(backend), std::move(circuit), {},
                             {}, std::move(cancel)};
        return SoakJob{std::move(request), std::move(again), 0, false};
    };

    std::vector<SoakJob> jobs;
    const int total = soakJobs(48);
    for (int i = 0; static_cast<int>(jobs.size()) < total; ++i) {
        // A delta pair (base + extension) exercises snapshot capture
        // and resume; the rest covers plain, grid, invalid, and
        // pre-cancelled shapes.
        jobs.push_back(makeJob(delta, makeIsing(24, 40 + (i % 3))));
        jobs.push_back(makeJob(delta, makeIsing(24, 41 + (i % 3))));
        jobs.push_back(makeJob(plain, makeBenchmark("ghz", 28 + i % 5)));
        jobs.push_back(makeJob(grid, makeBenchmark("adder", 30 + i % 3)));
        jobs.push_back(makeJob(overflow, makeGhz(32)));      // invalid
        jobs.push_back(makeJob(plain, makeGhz(16), cancelled_token));
    }
    while (static_cast<int>(jobs.size()) > total)
        jobs.pop_back();

    // Fault-free reference service (same config, no injection).
    CompileServiceConfig config;
    config.numThreads = 1;
    {
        CompileService reference(config);
        for (SoakJob &job : jobs) {
            CompileRequest copy = job.again;
            CompileOutcome outcome =
                reference.submitOutcome(std::move(copy)).get();
            job.reference_ok = outcome.ok();
            if (outcome.ok())
                job.reference = fingerprint(outcome.value());
        }
    }

    // The faulted run: all five sites probabilistic plus exact-replay
    // triggers, single-threaded so the visit sequence is deterministic.
    CompileService service(config);
    FaultScript script;
    script.probability = 0.05;
    script.seed = 0xf00dULL;
    script.probabilisticSites = {
        FaultSite::PassBoundary, FaultSite::SnapshotCapture,
        FaultSite::SnapshotResume, FaultSite::CacheStore,
        FaultSite::WorkerDequeue,
    };
    script.triggers.push_back({FaultSite::WorkerDequeue, 3,
                               ErrorCategory::ResourceExhausted,
                               "fault.oom"});
    script.triggers.push_back({FaultSite::PassBoundary, 10,
                               ErrorCategory::Transient,
                               "fault.injected"});
    std::vector<CompileOutcome> outcomes;
    {
        const ScopedFaultScript armed(script);
        std::vector<std::future<CompileOutcome>> futures;
        futures.reserve(jobs.size());
        for (SoakJob &job : jobs)
            futures.push_back(
                service.submitOutcome(std::move(job.request)));
        for (auto &future : futures)
            outcomes.push_back(future.get()); // resolves: no deadlock,
                                              // no leaked promise

        // Coverage: the storm actually exercised the instrumented sites.
        EXPECT_GT(FaultInjector::visitCount(FaultSite::WorkerDequeue), 0u);
        EXPECT_GT(FaultInjector::visitCount(FaultSite::PassBoundary), 0u);
        EXPECT_GT(FaultInjector::visitCount(FaultSite::CacheStore), 0u);
        EXPECT_GT(FaultInjector::visitCount(FaultSite::SnapshotCapture),
                  0u);
        EXPECT_GT(FaultInjector::visitCount(FaultSite::SnapshotResume),
                  0u);
    }

    int failed = 0;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        const CompileOutcome &outcome = outcomes[i];
        if (outcome.ok()) {
            // Survivors are bit-identical to the fault-free reference
            // — degraded paths (dropped captures, sabotaged resumes,
            // skipped stores) may cost time, never correctness.
            ASSERT_TRUE(jobs[i].reference_ok) << "job " << i;
            EXPECT_EQ(fingerprint(outcome.value()), jobs[i].reference)
                << "job " << i;
            continue;
        }
        ++failed;
        // Failures carry the taxonomy; an Internal here means a fault
        // corrupted an invariant instead of failing cleanly.
        EXPECT_NE(outcome.errorInfo().category(),
                  ErrorCategory::Internal)
            << "job " << i << ": " << outcome.errorInfo().message();
        if (!jobs[i].reference_ok) {
            // Structurally bad requests fail with or without faults.
            continue;
        }
    }
    EXPECT_GT(failed, 0); // the storm actually felled some jobs

    // Accounting: every failed outcome was booked in exactly one
    // failure counter.
    const CompileService::CacheStats stats = service.cacheStats();
    EXPECT_EQ(stats.jobsFailed + stats.jobsTimedOut + stats.jobsCancelled,
              static_cast<std::uint64_t>(failed));

    // Disarmed resubmission of every faulted-out job to the SAME
    // service: the caches hold nothing poisoned, so each one compiles
    // to the exact reference result.
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        if (outcomes[i].ok() || !jobs[i].reference_ok)
            continue;
        CompileOutcome retried =
            service.submitOutcome(std::move(jobs[i].again)).get();
        ASSERT_TRUE(retried.ok()) << "job " << i;
        EXPECT_EQ(fingerprint(retried.value()), jobs[i].reference)
            << "job " << i;
    }
}

} // namespace
} // namespace mussti
