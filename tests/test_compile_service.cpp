/**
 * @file
 * Tests for the batch CompileService: N-thread batches bit-identical to
 * serial execution, deterministic per-job seeding independent of thread
 * count, result-cache behaviour, and error propagation through every
 * delivery flavour (future, outcome future, callback).
 */
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <optional>
#include <vector>

#include "baselines/backend_factory.h"
#include "common/error.h"
#include "common/logging.h"
#include "core/compile_service.h"
#include "core/compiler.h"
#include "workloads/workloads.h"

namespace mussti {
namespace {

void
expectIdentical(const CompileResult &a, const CompileResult &b)
{
    EXPECT_EQ(a.schedule.ops.size(), b.schedule.ops.size());
    EXPECT_EQ(a.metrics.shuttleCount, b.metrics.shuttleCount);
    EXPECT_EQ(a.metrics.ionSwapCount, b.metrics.ionSwapCount);
    EXPECT_EQ(a.metrics.gate1qCount, b.metrics.gate1qCount);
    EXPECT_EQ(a.metrics.gate2qCount, b.metrics.gate2qCount);
    EXPECT_EQ(a.metrics.fiberGateCount, b.metrics.fiberGateCount);
    EXPECT_EQ(a.metrics.executionTimeUs, b.metrics.executionTimeUs);
    EXPECT_EQ(a.metrics.lnFidelity, b.metrics.lnFidelity);
    EXPECT_EQ(a.swapInsertions, b.swapInsertions);
    EXPECT_EQ(a.evictions, b.evictions);
    EXPECT_EQ(a.finalChains, b.finalChains);
}

/** A mixed batch over every stock backend: >= 8 jobs. */
std::vector<CompileRequest>
mixedBatch()
{
    const GridConfig grid{2, 2, 16};
    std::vector<CompileRequest> requests;
    for (const char *family : {"adder", "ghz", "qft"}) {
        requests.push_back(
            {makeMusstiBackend(), makeBenchmark(family, 30), {}, {}, {}});
    }
    for (const auto &name : gridBackendNames()) {
        requests.push_back({makeGridBackend(name, grid),
                            makeBenchmark("adder", 32), {}, {}, {}});
    }
    requests.push_back(
        {makeMusstiBackend(), makeBenchmark("bv", 64), {}, {}, {}});
    requests.push_back(
        {makeMusstiBackend(), makeBenchmark("sqrt", 45), {}, {}, {}});
    return requests;
}

TEST(CompileService, FourThreadBatchIdenticalToSerial)
{
    auto requests = mixedBatch();
    ASSERT_GE(requests.size(), 8u);

    // Serial reference: direct backend calls, no service involved.
    std::vector<CompileResult> serial;
    for (const auto &request : requests)
        serial.push_back(request.backend->compile(request.circuit));

    CompileServiceConfig config;
    config.numThreads = 4;
    CompileService service(config);
    EXPECT_EQ(service.numThreads(), 4);

    const auto parallel = service.compileAllOutcomes(std::move(requests));
    ASSERT_EQ(parallel.size(), serial.size());
    for (std::size_t i = 0; i < serial.size(); ++i)
        expectIdentical(parallel[i].value(), serial[i]);
}

TEST(CompileService, SeededBatchIndependentOfThreadCount)
{
    // Stochastic backend: the replacement policy consumes the RNG, so
    // wrong seed plumbing would change the metrics.
    MusstiConfig config;
    config.replacement = ReplacementPolicy::Random;
    const auto backend = makeMusstiBackend(config);
    const std::uint64_t base = 42;

    // A sweep: request i seeded explicitly with deriveJobSeed(base, i).
    auto makeRequests = [&] {
        std::vector<CompileRequest> requests;
        for (std::size_t i = 0; i < 8; ++i) {
            requests.push_back({backend, makeBenchmark("ran", 40),
                                CompileService::deriveJobSeed(base, i), {},
                                {}});
        }
        return requests;
    };

    CompileServiceConfig one_thread;
    one_thread.numThreads = 1;
    one_thread.cacheCapacity = 0; // force real recompilation
    CompileServiceConfig four_threads;
    four_threads.numThreads = 4;
    four_threads.cacheCapacity = 0;

    CompileService serial(one_thread);
    CompileService parallel(four_threads);
    const auto a = serial.compileAllOutcomes(makeRequests());
    const auto b = parallel.compileAllOutcomes(makeRequests());
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i)
        expectIdentical(a[i].value(), b[i].value());
    EXPECT_EQ(serial.jobsExecuted(), 8u);
    EXPECT_EQ(parallel.jobsExecuted(), 8u);

    // Job i of the batch equals a single submission under its seed.
    const auto single =
        serial.submit({backend, makeBenchmark("ran", 40),
                       CompileService::deriveJobSeed(base, 2), {}, {}})
            .get();
    expectIdentical(a[2].value(), single);
}

TEST(CompileService, DeriveJobSeedDeterministicAndDistinct)
{
    EXPECT_EQ(CompileService::deriveJobSeed(7, 3),
              CompileService::deriveJobSeed(7, 3));
    EXPECT_NE(CompileService::deriveJobSeed(7, 3),
              CompileService::deriveJobSeed(7, 4));
    EXPECT_NE(CompileService::deriveJobSeed(7, 3),
              CompileService::deriveJobSeed(8, 3));
}

TEST(CompileService, CacheServesRepeatedJobs)
{
    CompileServiceConfig config;
    config.numThreads = 2;
    CompileService service(config);
    const auto backend = makeMusstiBackend();
    const Circuit qc = makeBenchmark("adder", 30);

    const auto first = service.submit(backend, qc).get();
    EXPECT_EQ(service.jobsExecuted(), 1u);
    EXPECT_EQ(service.cacheHits(), 0u);

    const auto second = service.submit(backend, qc).get();
    EXPECT_EQ(service.jobsExecuted(), 1u);
    EXPECT_EQ(service.cacheHits(), 1u);
    expectIdentical(first, second);
}

TEST(CompileService, CachedScheduleHoldsSixteenBytesPerOp)
{
    // The largest paper program: a cached result holds its ops packed
    // (48 bytes each before the cost table) plus a table of a few pairs.
    CompileServiceConfig config;
    config.numThreads = 1;
    CompileService service(config);
    const auto backend = makeMusstiBackend();
    const Circuit qc = makeBenchmark("qft", 288);
    ASSERT_TRUE(service.submitOutcome({backend, qc, {}, {}, {}}).get().ok());
    const CompileOutcome hit =
        service.submitOutcome({backend, qc, {}, {}, {}}).get();
    ASSERT_TRUE(hit.ok());
    EXPECT_EQ(service.cacheHits(), 1u);

    const OpStream &ops = hit.result->schedule.ops;
    ASSERT_GT(ops.size(), 100000u);
    EXPECT_LE(ops.costs().size(), 16u);
    EXPECT_LE(ops.bytes(), ops.size() * 16 + 1024);
}

TEST(CompileService, CacheKeysDistinguishConfigAndCircuit)
{
    CompileServiceConfig service_config;
    service_config.numThreads = 1;
    CompileService service(service_config);

    MusstiConfig trivial;
    trivial.mapping = MappingKind::Trivial;
    const Circuit qc = makeBenchmark("ghz", 30);

    (void)service.submit(makeMusstiBackend(), qc).get();
    (void)service.submit(makeMusstiBackend(trivial), qc).get();
    (void)service.submit(makeMusstiBackend(),
                         makeBenchmark("ghz", 31)).get();
    EXPECT_EQ(service.jobsExecuted(), 3u);
    EXPECT_EQ(service.cacheHits(), 0u);
}

TEST(CompileService, SeedIsPartOfTheCacheKey)
{
    CompileServiceConfig service_config;
    service_config.numThreads = 1;
    CompileService service(service_config);
    MusstiConfig config;
    config.replacement = ReplacementPolicy::Random;
    const auto backend = makeMusstiBackend(config);
    const Circuit qc = makeBenchmark("ran", 36);

    (void)service.submit({backend, qc, 1, {}, {}}).get();
    (void)service.submit({backend, qc, 2, {}, {}}).get();
    (void)service.submit({backend, qc, 1, {}, {}}).get();
    EXPECT_EQ(service.jobsExecuted(), 2u);
    EXPECT_EQ(service.cacheHits(), 1u);
}

TEST(CompileService, CompileErrorsPropagateThroughFutures)
{
    CompileServiceConfig service_config;
    service_config.numThreads = 2;
    CompileService service(service_config);
    // 32 qubits cannot fit a 2x2 grid with capacity 4 (16 slots).
    const auto backend =
        makeGridBackend("murali", GridConfig{2, 2, 4});
    auto future = service.submit(backend, makeGhz(32));
    EXPECT_THROW(future.get(), std::runtime_error);
}

TEST(CompileService, ErrorCategoryRoundTripsThroughFutures)
{
    const ScopedFatalSilence quiet;
    CompileServiceConfig service_config;
    service_config.numThreads = 1;
    CompileService service(service_config);
    const auto backend = makeGridBackend("murali", GridConfig{2, 2, 4});

    // Result future: the thrown exception carries the full taxonomy.
    auto future = service.submit(backend, makeGhz(32));
    try {
        (void)future.get();
        FAIL() << "expected a structured failure";
    } catch (const MusstiError &err) {
        EXPECT_EQ(err.category(), ErrorCategory::InvalidInput);
        EXPECT_EQ(err.code(), "input.require");
    }

    // Tolerant future: the same taxonomy, as a value.
    CompileOutcome outcome =
        service.submitOutcome({backend, makeGhz(32), {}, {}, {}}).get();
    ASSERT_FALSE(outcome.ok());
    EXPECT_EQ(outcome.errorInfo().category(),
              ErrorCategory::InvalidInput);
    EXPECT_EQ(outcome.errorInfo().code(), "input.require");
    EXPECT_THROW((void)outcome.value(), std::runtime_error);
    EXPECT_EQ(service.cacheStats().jobsFailed, 2u);
}

TEST(CompileService, OutcomeBatchKeepsSurvivorsInSubmissionOrder)
{
    // One bad circuit in a batch costs one outcome, not the batch —
    // and the pattern plus the survivors are identical at 1 and 4
    // threads.
    const ScopedFatalSilence quiet;
    const auto good = makeMusstiBackend();
    const auto bad = makeGridBackend("murali", GridConfig{2, 2, 4});

    auto makeRequests = [&] {
        std::vector<CompileRequest> requests;
        requests.push_back({good, makeBenchmark("ghz", 30), {}, {}, {}});
        requests.push_back({bad, makeGhz(32), {}, {}, {}});
        requests.push_back({good, makeBenchmark("adder", 30), {}, {}, {}});
        requests.push_back({bad, makeGhz(40), {}, {}, {}});
        requests.push_back({good, makeBenchmark("qft", 24), {}, {}, {}});
        requests.push_back({good, makeBenchmark("bv", 40), {}, {}, {}});
        return requests;
    };

    CompileServiceConfig one_thread;
    one_thread.numThreads = 1;
    one_thread.cacheCapacity = 0;
    CompileServiceConfig four_threads;
    four_threads.numThreads = 4;
    four_threads.cacheCapacity = 0;

    CompileService serial(one_thread);
    CompileService parallel(four_threads);
    const auto a = serial.compileAllOutcomes(makeRequests());
    const auto b = parallel.compileAllOutcomes(makeRequests());
    ASSERT_EQ(a.size(), 6u);
    ASSERT_EQ(b.size(), a.size());

    const bool expect_ok[] = {true, false, true, false, true, true};
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].ok(), expect_ok[i]) << "job " << i;
        EXPECT_EQ(b[i].ok(), expect_ok[i]) << "job " << i;
        if (expect_ok[i]) {
            expectIdentical(a[i].value(), b[i].value());
        } else {
            EXPECT_EQ(a[i].errorInfo().category(),
                      ErrorCategory::InvalidInput);
            EXPECT_EQ(a[i].errorInfo().code(), b[i].errorInfo().code());
        }
    }
    EXPECT_EQ(serial.cacheStats().jobsFailed, 2u);
    EXPECT_EQ(parallel.cacheStats().jobsFailed, 2u);

    // An explicitly seeded sweep keeps the same survivors.
    auto seeded = makeRequests();
    for (std::size_t i = 0; i < seeded.size(); ++i)
        seeded[i].seed = CompileService::deriveJobSeed(7, i);
    const auto swept = serial.compileAllOutcomes(std::move(seeded));
    ASSERT_EQ(swept.size(), 6u);
    for (std::size_t i = 0; i < swept.size(); ++i)
        EXPECT_EQ(swept[i].ok(), expect_ok[i]) << "job " << i;
}

TEST(CompileService, SubmitAfterShutdownResolvesCancelled)
{
    CompileServiceConfig service_config;
    service_config.numThreads = 1;
    CompileService service(service_config);
    const auto backend = makeMusstiBackend();
    service.shutdown();

    // Tolerant path: a ready Cancelled outcome, no race with teardown.
    auto outcome_future =
        service.submitOutcome({backend, makeGhz(8), {}, {}, {}});
    ASSERT_EQ(outcome_future.wait_for(std::chrono::seconds(0)),
              std::future_status::ready);
    CompileOutcome outcome = outcome_future.get();
    ASSERT_FALSE(outcome.ok());
    EXPECT_EQ(outcome.errorInfo().category(), ErrorCategory::Cancelled);
    EXPECT_EQ(outcome.errorInfo().code(), "job.cancelled");

    // Result future: it throws the same structured error.
    auto future = service.submit(backend, makeGhz(8));
    ASSERT_EQ(future.wait_for(std::chrono::seconds(0)),
              std::future_status::ready);
    try {
        (void)future.get();
        FAIL() << "expected Cancelled";
    } catch (const MusstiError &err) {
        EXPECT_EQ(err.category(), ErrorCategory::Cancelled);
    }

    // Callback path: the same outcome, delivered exactly once on the
    // submitting thread.
    int calls = 0;
    std::optional<CompileOutcome> delivered;
    service.submitWithCallback({backend, makeGhz(8), {}, {}, {}},
                               [&](CompileOutcome done) {
                                   ++calls;
                                   delivered = std::move(done);
                               });
    EXPECT_EQ(calls, 1);
    ASSERT_TRUE(delivered.has_value());
    ASSERT_FALSE(delivered->ok());
    EXPECT_EQ(delivered->errorInfo().category(), ErrorCategory::Cancelled);
    EXPECT_EQ(delivered->errorInfo().code(), "job.cancelled");
    EXPECT_EQ(service.cacheStats().jobsCancelled, 3u);
}

TEST(CompileService, NullBackendFailsOnEveryDeliveryFlavour)
{
    const ScopedFatalSilence quiet;
    CompileServiceConfig service_config;
    service_config.numThreads = 1;
    CompileService service(service_config);

    // Future path: raised at the call, nothing enqueued or booked.
    try {
        (void)service.submit({nullptr, makeGhz(8), {}, {}, {}});
        FAIL() << "expected InvalidInput";
    } catch (const MusstiError &err) {
        EXPECT_EQ(err.category(), ErrorCategory::InvalidInput);
    }

    // Outcome path: a ready input.no-backend outcome.
    auto outcome_future =
        service.submitOutcome({nullptr, makeGhz(8), {}, {}, {}});
    ASSERT_EQ(outcome_future.wait_for(std::chrono::seconds(0)),
              std::future_status::ready);
    const CompileOutcome outcome = outcome_future.get();
    ASSERT_FALSE(outcome.ok());
    EXPECT_EQ(outcome.errorInfo().category(), ErrorCategory::InvalidInput);
    EXPECT_EQ(outcome.errorInfo().code(), "input.no-backend");

    // Callback path: the same outcome, delivered exactly once.
    int calls = 0;
    std::optional<CompileOutcome> delivered;
    service.submitWithCallback({nullptr, makeGhz(8), {}, {}, {}},
                               [&](CompileOutcome done) {
                                   ++calls;
                                   delivered = std::move(done);
                               });
    EXPECT_EQ(calls, 1);
    ASSERT_TRUE(delivered.has_value());
    ASSERT_FALSE(delivered->ok());
    EXPECT_EQ(delivered->errorInfo().code(), "input.no-backend");

    EXPECT_EQ(service.jobsExecuted(), 0u);
    EXPECT_EQ(service.cacheStats().jobsFailed, 2u);
}

TEST(CompileService, PreSetCancelTokenResolvesCancelled)
{
    CompileServiceConfig service_config;
    service_config.numThreads = 1;
    CompileService service(service_config);
    const auto token = std::make_shared<std::atomic<bool>>(true);

    CompileOutcome outcome = service.submitOutcome(
        {makeMusstiBackend(), makeGhz(16), {}, {}, token}).get();
    ASSERT_FALSE(outcome.ok());
    EXPECT_EQ(outcome.errorInfo().category(), ErrorCategory::Cancelled);
    EXPECT_EQ(outcome.errorInfo().code(), "job.cancelled");
    EXPECT_EQ(service.jobsExecuted(), 0u); // never started compiling
    EXPECT_EQ(service.cacheStats().jobsCancelled, 1u);
}

TEST(CompileService, ExpiredDeadlineResolvesTimeout)
{
    CompileServiceConfig service_config;
    service_config.numThreads = 1;
    CompileService service(service_config);

    CompileRequest request{makeMusstiBackend(), makeGhz(16), {}, {}, {}};
    request.deadline = std::chrono::steady_clock::now() -
                       std::chrono::milliseconds(1);
    CompileOutcome outcome =
        service.submitOutcome(std::move(request)).get();
    ASSERT_FALSE(outcome.ok());
    EXPECT_EQ(outcome.errorInfo().category(), ErrorCategory::Timeout);
    EXPECT_EQ(outcome.errorInfo().code(), "job.deadline-exceeded");
    EXPECT_EQ(outcome.attempts, 1); // Timeout never retries
    EXPECT_EQ(service.jobsExecuted(), 0u);
    EXPECT_EQ(service.cacheStats().jobsTimedOut, 1u);
}

TEST(CompileService, JobControlUnwindsTheCompilePipeline)
{
    // Drive each backend's compile entry point directly with a control:
    // the checkpoint chain (pass boundaries, and the routing loop where
    // the backend has one) must unwind a real compile with the right
    // quiet category, on MUSS-TI and on every grid baseline.
    std::vector<std::shared_ptr<const ICompilerBackend>> backends = {
        makeMusstiBackend()};
    for (const auto &name : gridBackendNames())
        backends.push_back(makeGridBackend(name, GridConfig{2, 2, 16}));
    ASSERT_EQ(backends.size(), 4u);

    for (const auto &backend : backends) {
        SCOPED_TRACE(backend->name());
        const Circuit qc = makeBenchmark("ghz", 24);

        JobControl timed_out;
        timed_out.deadline = std::chrono::steady_clock::now() -
                             std::chrono::milliseconds(1);
        DeltaCompileIO delta;
        try {
            (void)backend->compile(qc, {.delta = &delta,
                                        .control = &timed_out});
            FAIL() << "expected Timeout";
        } catch (const MusstiError &err) {
            EXPECT_EQ(err.category(), ErrorCategory::Timeout);
        }

        const std::atomic<bool> fired{true};
        JobControl cancelled;
        cancelled.cancel = &fired;
        DeltaCompileIO delta2;
        try {
            (void)backend->compile(qc, {.delta = &delta2,
                                        .control = &cancelled});
            FAIL() << "expected Cancelled";
        } catch (const MusstiError &err) {
            EXPECT_EQ(err.category(), ErrorCategory::Cancelled);
        }

        // A null control compiles exactly like the plain path.
        DeltaCompileIO delta3;
        const CompileResult controlled =
            backend->compile(qc, {.delta = &delta3, .control = nullptr});
        expectIdentical(controlled, backend->compile(qc));
        EXPECT_TRUE(delta3.captured.empty());
        EXPECT_FALSE(delta3.resumed);
    }
}

TEST(CompileService, CacheEvictsLeastRecentlyUsed)
{
    CompileServiceConfig service_config;
    service_config.numThreads = 1;
    service_config.cacheCapacity = 2;
    CompileService service(service_config);
    const auto backend = makeMusstiBackend();

    const Circuit a = makeBenchmark("ghz", 30);
    const Circuit b = makeBenchmark("ghz", 31);
    const Circuit c = makeBenchmark("ghz", 33);

    (void)service.submit(backend, a).get(); // cache: a
    (void)service.submit(backend, b).get(); // cache: b a
    (void)service.submit(backend, a).get(); // hit -> a b
    (void)service.submit(backend, c).get(); // evicts b -> c a
    (void)service.submit(backend, b).get(); // miss again
    EXPECT_EQ(service.jobsExecuted(), 4u);
    EXPECT_EQ(service.cacheHits(), 1u);
}

TEST(CompileService, EvictedJobIsCachedAgainOnResubmit)
{
    // After a capacity eviction, re-submitting the evicted job must
    // recompile once, re-enter the cache, and then hit.
    CompileServiceConfig service_config;
    service_config.numThreads = 1;
    service_config.cacheCapacity = 2;
    CompileService service(service_config);
    const auto backend = makeMusstiBackend();

    const Circuit a = makeBenchmark("ghz", 30);
    const Circuit b = makeBenchmark("ghz", 31);
    const Circuit c = makeBenchmark("ghz", 33);

    const auto first_a = service.submit(backend, a).get();
    (void)service.submit(backend, b).get();
    (void)service.submit(backend, c).get(); // cache full: evicts a
    EXPECT_EQ(service.jobsExecuted(), 3u);

    const auto second_a = service.submit(backend, a).get(); // miss
    EXPECT_EQ(service.jobsExecuted(), 4u);
    const auto third_a = service.submit(backend, a).get(); // hit again
    EXPECT_EQ(service.jobsExecuted(), 4u);
    EXPECT_EQ(service.cacheHits(), 1u);
    expectIdentical(first_a, second_a);
    expectIdentical(second_a, third_a);
}

TEST(CompileService, CacheStatsTrackBothTiers)
{
    // One base compile seeds both tiers; a repeat hits the result
    // cache (no snapshot probe); an extended circuit misses the result
    // cache, hits the snapshot tier, and delta-resumes. Every counter
    // of the accessor must reflect exactly that history.
    CompileServiceConfig service_config;
    service_config.numThreads = 1;
    service_config.cacheCapacity = 2;
    service_config.snapshotCacheCapacity = 8;
    CompileService service(service_config);

    MusstiConfig config;
    config.deltaCompile = true;
    config.deltaCheckpointGates = 16;
    const auto backend = makeMusstiBackend(config);

    // Deep enough that the appended layer sits beyond the scheduler's
    // 64-layer look-ahead horizon — shallower circuits always fall
    // back cold and would leave the resume counters untested.
    const Circuit base = makeIsing(24, 40);
    const Circuit longer = makeIsing(24, 41);

    (void)service.submit(backend, base).get();
    (void)service.submit(backend, base).get();
    const CompileResult extended =
        service.submit(backend, longer).get();
    EXPECT_TRUE(extended.deltaResumed);

    const CompileService::CacheStats stats = service.cacheStats();
    EXPECT_EQ(stats.resultHits, 1u);
    EXPECT_EQ(stats.resultMisses, 2u);
    EXPECT_EQ(stats.resultEvictions, 0u);
    EXPECT_EQ(stats.snapshotHits, 1u);
    EXPECT_EQ(stats.snapshotMisses, 1u);
    EXPECT_EQ(stats.deltaResumes, 1u);
    EXPECT_EQ(stats.deltaFallbacks, 0u);
    EXPECT_GT(stats.snapshotCount, 0u);
    EXPECT_GT(stats.snapshotBytes, 0u);

    // A fault-free run books nothing on the failure paths.
    EXPECT_EQ(stats.jobsFailed, 0u);
    EXPECT_EQ(stats.jobsTimedOut, 0u);
    EXPECT_EQ(stats.jobsCancelled, 0u);
    EXPECT_EQ(stats.jobsRetried, 0u);
    EXPECT_EQ(stats.deltaQuarantines, 0u);
    EXPECT_FALSE(stats.deltaQuarantined);
}

TEST(CompileService, SnapshotTierEvictsPastItsCapacity)
{
    // The same base-then-extension history at capacity 64 and at
    // capacity 2: the small tier holds exactly two snapshots, every
    // capture it dropped is counted as an eviction, and the two it
    // kept (the most recently used) still resume the extension.
    MusstiConfig config;
    config.deltaCompile = true;
    config.deltaCheckpointGates = 16;
    const auto backend = makeMusstiBackend(config);

    auto run = [&backend](std::size_t capacity) {
        CompileServiceConfig service_config;
        service_config.numThreads = 1;
        service_config.snapshotCacheCapacity = capacity;
        CompileService service(service_config);
        (void)service.submit(backend, makeIsing(24, 40)).get();
        const CompileResult extended =
            service.submit(backend, makeIsing(24, 41)).get();
        EXPECT_TRUE(extended.deltaResumed) << "capacity " << capacity;
        return service.cacheStats();
    };

    const CompileService::CacheStats roomy = run(64);
    EXPECT_EQ(roomy.snapshotEvictions, 0u);
    const CompileService::CacheStats tight = run(2);
    EXPECT_EQ(tight.snapshotCount, 2u);
    EXPECT_EQ(tight.snapshotCount + tight.snapshotEvictions,
              roomy.snapshotCount);
}

TEST(CompileService, ParseThreadCountValidatesInput)
{
    // Auto (hardware concurrency) cases.
    EXPECT_EQ(CompileService::parseThreadCount(nullptr), 0);
    EXPECT_EQ(CompileService::parseThreadCount(""), 0);

    // Well-formed values pass through.
    EXPECT_EQ(CompileService::parseThreadCount("1"), 1);
    EXPECT_EQ(CompileService::parseThreadCount("16"), 16);

    // Garbage and non-positive values fall back to auto (std::atoi
    // silently turned these into 0 or accepted them).
    EXPECT_EQ(CompileService::parseThreadCount("lots"), 0);
    EXPECT_EQ(CompileService::parseThreadCount("4x"), 0);
    EXPECT_EQ(CompileService::parseThreadCount("0"), 0);
    EXPECT_EQ(CompileService::parseThreadCount("-3"), 0);

    // Absurd values clamp.
    EXPECT_EQ(CompileService::parseThreadCount("99999"),
              CompileService::kMaxThreads);
}

} // namespace
} // namespace mussti
