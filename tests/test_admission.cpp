/**
 * @file
 * Tests for the deficit-round-robin admission layer (core/admission.h):
 * pinned dispatch interleavings, the per-client in-flight budget,
 * shutdown/drain semantics, and the determinism contract — a compile's
 * result is identical through admission, at any interleaving, to a
 * direct service batch.
 *
 * The interleaving tests pin the DRR schedule by parking a blocker
 * compile on a single-worker service: while the worker chews on it,
 * admission dispatch decisions (which are synchronous with submit) land
 * in a deterministic order, and queued-side effects release in service
 * FIFO order afterwards — so completion order is dispatch order.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <mutex>
#include <string>
#include <vector>

#include "baselines/backend_factory.h"
#include "core/admission.h"
#include "core/compile_service.h"
#include "core/pipeline.h"
#include "workloads/workloads.h"

namespace mussti {
namespace {

std::shared_ptr<const ICompilerBackend>
backend()
{
    static const std::shared_ptr<const ICompilerBackend> shared =
        makeMusstiBackend();
    return shared;
}

CompileRequest
requestFor(const Circuit &circuit, std::uint64_t seed)
{
    CompileRequest request{backend(), circuit, seed, {}, {}};
    return request;
}

/** A compile big enough to park a worker for a while (>= 100 ms). */
Circuit
blockerCircuit()
{
    return makeBenchmark("qv", 64);
}

TEST(Admission, CompletionOrderPinsTheDrrInterleaving)
{
    CompileServiceConfig service_config;
    service_config.numThreads = 1;
    service_config.cacheCapacity = 0;
    CompileService service(service_config);

    FairAdmissionConfig policy;
    policy.quantum = 1u << 20; // credit never the limiter here
    policy.maxInFlightPerClient = 2;
    FairAdmission admission(service, policy);

    // Park the single worker so every admission decision below is made
    // while nothing completes.
    std::future<CompileResult> blocker =
        service.submit(backend(), blockerCircuit());

    const Circuit small = makeBenchmark("ghz", 8);
    std::mutex order_mutex;
    std::vector<std::string> order;
    const auto sink = [&](const std::string &client) {
        return [&, client](CompileOutcome outcome) {
            EXPECT_TRUE(outcome.ok());
            std::lock_guard<std::mutex> lock(order_mutex);
            order.push_back(client);
        };
    };
    // A floods four; B two; C one. Budget 2 caps A and B at two
    // dispatches; A's remaining two release one per A-completion.
    admission.submit("A", requestFor(small, 1), sink("A"));
    admission.submit("A", requestFor(small, 2), sink("A"));
    admission.submit("A", requestFor(small, 3), sink("A"));
    admission.submit("A", requestFor(small, 4), sink("A"));
    admission.submit("B", requestFor(small, 5), sink("B"));
    admission.submit("B", requestFor(small, 6), sink("B"));
    admission.submit("C", requestFor(small, 7), sink("C"));

    blocker.get();
    admission.drain();

    const std::vector<std::string> expected = {"A", "A", "B", "B", "C",
                                              "A", "A"};
    EXPECT_EQ(order, expected);

    const AdmissionStats stats = admission.stats();
    EXPECT_EQ(stats.submitted, 7u);
    EXPECT_EQ(stats.dispatched, 7u);
    EXPECT_EQ(stats.completed, 7u);
    EXPECT_EQ(stats.queuedJobs, 0u);
    EXPECT_EQ(stats.inFlightJobs, 0u);
}

TEST(Admission, InFlightBudgetHoldsABurstBack)
{
    CompileServiceConfig service_config;
    service_config.numThreads = 1;
    service_config.cacheCapacity = 0;
    CompileService service(service_config);

    FairAdmissionConfig policy;
    policy.maxInFlightPerClient = 2;
    FairAdmission admission(service, policy);

    std::future<CompileResult> blocker =
        service.submit(backend(), blockerCircuit());

    const Circuit small = makeBenchmark("ghz", 8);
    std::atomic<int> done{0};
    for (int i = 0; i < 5; ++i)
        admission.submit("burst", requestFor(small, 10 + i),
                         [&done](CompileOutcome outcome) {
                             EXPECT_TRUE(outcome.ok());
                             ++done;
                         });

    // While the blocker parks the worker, only the budget's worth may
    // have been dispatched.
    const AdmissionStats mid = admission.stats();
    EXPECT_EQ(mid.inFlightJobs, 2u);
    EXPECT_EQ(mid.queuedJobs, 3u);
    EXPECT_EQ(mid.activeClients, 1u);

    blocker.get();
    admission.drain();
    EXPECT_EQ(done.load(), 5);
    EXPECT_EQ(admission.stats().dispatched, 5u);
}

TEST(Admission, QuantumMakesCostCountNotJobCount)
{
    // One-gate jobs vs the quantum: with quantum 1, a client banks one
    // credit per rotation and a ghz-8 job costs its gate count, so a
    // competing client's cheap jobs interleave ahead — the DRR serves
    // WORK, not job slots. We only pin the aggregate here (the exact
    // interleave is pinned by CompletionOrderPinsTheDrrInterleaving).
    CompileServiceConfig service_config;
    service_config.numThreads = 2;
    service_config.cacheCapacity = 0;
    CompileService service(service_config);

    FairAdmissionConfig policy;
    policy.quantum = 1;
    policy.maxInFlightPerClient = 0;
    FairAdmission admission(service, policy);

    const Circuit small = makeBenchmark("ghz", 8);
    std::atomic<int> done{0};
    for (int i = 0; i < 3; ++i)
        admission.submit("x", requestFor(small, 20 + i),
                         [&done](CompileOutcome outcome) {
                             EXPECT_TRUE(outcome.ok());
                             ++done;
                         });
    admission.drain();
    EXPECT_EQ(done.load(), 3);
}

TEST(Admission, ShutdownCancelsQueuedAndDeliversEverything)
{
    CompileServiceConfig service_config;
    service_config.numThreads = 1;
    service_config.cacheCapacity = 0;
    CompileService service(service_config);

    FairAdmissionConfig policy;
    policy.maxInFlightPerClient = 1;
    FairAdmission admission(service, policy);

    std::future<CompileResult> blocker =
        service.submit(backend(), blockerCircuit());

    const Circuit small = makeBenchmark("ghz", 8);
    std::atomic<int> ok{0};
    std::atomic<int> cancelled{0};
    for (int i = 0; i < 4; ++i)
        admission.submit("c", requestFor(small, 30 + i),
                         [&ok, &cancelled](CompileOutcome outcome) {
                             if (outcome.ok()) {
                                 ++ok;
                             } else {
                                 EXPECT_EQ(outcome.errorInfo().code(),
                                           "job.cancelled");
                                 ++cancelled;
                             }
                         });

    admission.shutdown(); // one dispatched, three still queued
    blocker.get();

    EXPECT_EQ(ok.load() + cancelled.load(), 4);
    EXPECT_EQ(cancelled.load(), 3);
    EXPECT_EQ(admission.stats().cancelledQueued, 3u);

    // Post-shutdown submissions resolve Cancelled inline.
    bool rejected = false;
    admission.submit("c", requestFor(small, 99),
                     [&rejected](CompileOutcome outcome) {
                         EXPECT_FALSE(outcome.ok());
                         EXPECT_EQ(outcome.errorInfo().category(),
                                   ErrorCategory::Cancelled);
                         rejected = true;
                     });
    EXPECT_TRUE(rejected);
}

/**
 * A client with nothing queued or in flight leaves the rotation, and on
 * its return re-enters at the tail, behind the clients that stayed
 * active. Shutdown cancels queued jobs in rotation order, which shows
 * the order directly.
 */
TEST(Admission, ReturningClientReentersAtTheTail)
{
    CompileServiceConfig service_config;
    service_config.numThreads = 1;
    service_config.cacheCapacity = 0;
    CompileService service(service_config);

    FairAdmissionConfig policy;
    policy.maxInFlightPerClient = 1;
    FairAdmission admission(service, policy);

    // A is active first, then idle: it leaves the rotation.
    const Circuit small = makeBenchmark("ghz", 8);
    admission.submit("A", requestFor(small, 1), [](CompileOutcome outcome) {
        EXPECT_TRUE(outcome.ok());
    });
    admission.drain();
    EXPECT_EQ(admission.stats().activeClients, 0u);

    // Park the single worker until both queued jobs are cancelled: the
    // gate job's callback runs on the worker and waits for the release.
    std::promise<void> release;
    const std::shared_future<void> gate = release.get_future().share();
    service.submitWithCallback(requestFor(small, 2),
                               [gate](CompileOutcome) { gate.wait(); });

    std::mutex cancelled_mutex;
    std::vector<std::string> cancelled;
    const auto sink = [&](const std::string &client) {
        return [&, client](CompileOutcome outcome) {
            if (outcome.ok())
                return;
            std::lock_guard<std::mutex> lock(cancelled_mutex);
            cancelled.push_back(client);
            if (cancelled.size() == 2)
                release.set_value();
        };
    };
    // B becomes active before A returns. Each dispatches one job (the
    // in-flight budget) and queues one.
    admission.submit("B", requestFor(small, 3), sink("B"));
    admission.submit("B", requestFor(small, 4), sink("B"));
    admission.submit("A", requestFor(small, 5), sink("A"));
    admission.submit("A", requestFor(small, 6), sink("A"));
    EXPECT_EQ(admission.stats().queuedJobs, 2u);

    admission.shutdown();
    const std::vector<std::string> expected = {"B", "A"};
    EXPECT_EQ(cancelled, expected);
    EXPECT_EQ(admission.stats().cancelledQueued, 2u);
}

TEST(Admission, DrainOnIdleReturnsImmediately)
{
    CompileService service{CompileServiceConfig{}};
    FairAdmission admission(service);
    admission.drain();
    EXPECT_EQ(admission.stats().submitted, 0u);
}

TEST(Admission, ResultsAreBitIdenticalToADirectBatch)
{
    // The layering contract: admission reorders dispatch, never what a
    // job compiles to. Two clients interleaving through a multi-thread
    // pool must fingerprint identically to a direct batch compile.
    const std::vector<std::string> families = {"ghz", "bv", "qft",
                                               "adder"};
    std::vector<CompileRequest> direct;
    for (std::size_t i = 0; i < families.size(); ++i)
        direct.push_back(requestFor(
            makeBenchmark(families[i], 16),
            CompileService::deriveJobSeed(7, i)));

    std::vector<std::uint64_t> want;
    {
        CompileService service{CompileServiceConfig{}};
        for (const CompileOutcome &outcome :
             service.compileAllOutcomes(std::move(direct)))
            want.push_back(resultFingerprint(outcome.value()));
    }

    CompileServiceConfig service_config;
    service_config.numThreads = 4;
    CompileService service(service_config);
    FairAdmissionConfig policy;
    policy.maxInFlightPerClient = 1; // force queueing + re-pumps
    FairAdmission admission(service, policy);

    std::vector<std::uint64_t> got(families.size());
    std::atomic<int> done{0};
    for (std::size_t i = 0; i < families.size(); ++i) {
        admission.submit(i % 2 == 0 ? "even" : "odd",
                         requestFor(makeBenchmark(families[i], 16),
                                    CompileService::deriveJobSeed(7, i)),
                         [&got, &done, i](CompileOutcome outcome) {
                             ASSERT_TRUE(outcome.ok());
                             got[i] = resultFingerprint(*outcome.result);
                             ++done;
                         });
    }
    admission.drain();
    ASSERT_EQ(done.load(), static_cast<int>(families.size()));
    EXPECT_EQ(want, got);
}

} // namespace
} // namespace mussti
