#include "core/compile_service.h"

#include <algorithm>
#include <optional>
#include <string>
#include <utility>

#include "common/fault_injection.h"
#include "common/logging.h"
#include "common/string_util.h"

namespace mussti {

namespace {

/** Total attempts per job for Transient failures. */
constexpr int kMaxAttempts = 3;

/**
 * Backoff before retry k is kRetryBackoffBaseUs * 2^(k-1) microseconds,
 * capped at kRetryBackoffMaxUs: deterministic, no jitter, so a scripted
 * fault sequence replays identically.
 */
constexpr long long kRetryBackoffBaseUs = 200;
constexpr long long kRetryBackoffMaxUs = 20000;

} // namespace

const CompileResult &
CompileOutcome::value() const
{
    if (!result.has_value())
        errorInfo().raise();
    return *result;
}

CompileResult
CompileOutcome::take()
{
    if (!result.has_value())
        errorInfo().raise();
    return std::move(*result);
}

const MusstiError &
CompileOutcome::errorInfo() const
{
    MUSSTI_ASSERT(error.has_value(),
                  "CompileOutcome carries neither result nor error");
    return *error;
}

CompileOutcome
CompileOutcome::cancelled(const std::string &message)
{
    CompileOutcome outcome;
    outcome.error = MusstiError(ErrorCategory::Cancelled, "job.cancelled",
                                message);
    return outcome;
}

CompileService::CompileService(const CompileServiceConfig &config)
    : config_(config), memory_(config.cacheCapacity),
      snapshots_(config.snapshotCacheCapacity)
{
    if (!config.diskCachePath.empty())
        disk_ = std::make_unique<DiskResultCache>(config.diskCachePath,
                                                  config.diskCacheCapacity);

    int threads = config.numThreads;
    if (threads <= 0) {
        threads = static_cast<int>(std::thread::hardware_concurrency());
        threads = std::max(threads, 1);
    }
    workers_.reserve(static_cast<std::size_t>(threads));
    for (int i = 0; i < threads; ++i)
        workers_.emplace_back([this] { workerLoop(); });
}

CompileService::~CompileService()
{
    shutdown();
}

void
CompileService::shutdown()
{
    std::deque<Job> orphaned;
    {
        std::lock_guard<std::mutex> lock(queueMutex_);
        if (stopping_) {
            // Already shut down (or shutting down on another thread
            // that owns the join below); nothing left to drain.
            return;
        }
        stopping_ = true;
        shutdownFlag_.store(true, std::memory_order_relaxed);
        orphaned.swap(queue_);
    }
    queueCv_.notify_all();
    for (std::thread &worker : workers_)
        worker.join();
    workers_.clear();

    // Queued-but-never-started jobs resolve Cancelled — a shutdown must
    // not leave a callback uncalled (a waiter would deadlock on a
    // broken_promise-free future) nor silently run work nobody awaits.
    for (Job &job : orphaned)
        deliver(std::move(job),
                CompileOutcome::cancelled("compile service shut down "
                                          "before the job started"));
}

std::uint64_t
CompileService::deriveJobSeed(std::uint64_t base_seed,
                              std::size_t job_index)
{
    // SplitMix64 over (base, index): statistically independent streams
    // per job, identical across runs and thread counts.
    std::uint64_t x = base_seed + 0x9E3779B97F4A7C15ull *
        (static_cast<std::uint64_t>(job_index) + 1);
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
    return x ^ (x >> 31);
}

int
CompileService::parseThreadCount(const char *text)
{
    return parseEnvThreadCount("MUSSTI_BENCH_THREADS", text, kMaxThreads);
}

std::future<CompileResult>
CompileService::submit(CompileRequest request)
{
    MUSSTI_REQUIRE(request.backend != nullptr,
                   "compile request without a backend");
    auto promise = std::make_shared<std::promise<CompileResult>>();
    std::future<CompileResult> future = promise->get_future();
    submitWithCallback(std::move(request), [promise](CompileOutcome outcome) {
        if (outcome.ok())
            promise->set_value(outcome.take());
        else
            promise->set_exception(outcome.errorInfo().toExceptionPtr());
    });
    return future;
}

std::future<CompileOutcome>
CompileService::submitOutcome(CompileRequest request)
{
    auto promise = std::make_shared<std::promise<CompileOutcome>>();
    std::future<CompileOutcome> future = promise->get_future();
    submitWithCallback(std::move(request), [promise](CompileOutcome outcome) {
        promise->set_value(std::move(outcome));
    });
    return future;
}

void
CompileService::submitWithCallback(CompileRequest request,
                                   std::function<void(CompileOutcome)> done)
{
    MUSSTI_REQUIRE(done != nullptr,
                   "submitWithCallback without a callback");
    Job job{std::move(request), std::move(done)};
    if (job.request.backend == nullptr) {
        CompileOutcome outcome;
        outcome.error = MusstiError(ErrorCategory::InvalidInput,
                                    "input.no-backend",
                                    "compile request without a backend");
        deliver(std::move(job), std::move(outcome));
        return;
    }
    enqueueOrCancel(std::move(job));
}

void
CompileService::enqueueOrCancel(Job job)
{
    {
        std::lock_guard<std::mutex> lock(queueMutex_);
        if (!stopping_) {
            queue_.push_back(std::move(job));
            queueCv_.notify_one();
            return;
        }
    }
    // Submit after shutdown: resolve immediately instead of racing the
    // worker teardown — the caller gets a ready Cancelled outcome (or
    // a future that throws it, through submit()).
    deliver(std::move(job),
            CompileOutcome::cancelled(
                "submit after compile service shutdown"));
}

std::vector<CompileOutcome>
CompileService::compileAllOutcomes(std::vector<CompileRequest> requests)
{
    std::vector<std::future<CompileOutcome>> futures;
    futures.reserve(requests.size());
    for (CompileRequest &request : requests)
        futures.push_back(submitOutcome(std::move(request)));

    std::vector<CompileOutcome> outcomes;
    outcomes.reserve(futures.size());
    for (std::future<CompileOutcome> &future : futures)
        outcomes.push_back(future.get());
    return outcomes;
}

void
CompileService::workerLoop()
{
    for (;;) {
        std::optional<Job> job;
        {
            std::unique_lock<std::mutex> lock(queueMutex_);
            queueCv_.wait(lock, [this] {
                return stopping_ || !queue_.empty();
            });
            if (stopping_)
                return; // shutdown() drains what is left of the queue
            job.emplace(std::move(queue_.front()));
            queue_.pop_front();
        }
        execute(std::move(*job));
    }
}

void
CompileService::execute(Job job)
{
    CompileOutcome outcome = runJob(job.request);
    deliver(std::move(job), std::move(outcome));
}

CompileOutcome
CompileService::runJob(CompileRequest &request)
{
    CompileOutcome outcome;
    for (int attempt = 1;; ++attempt) {
        outcome.attempts = attempt;
        try {
            JobControl control;
            control.deadline = request.deadline;
            control.cancel = request.cancel.get();
            control.shutdown = &shutdownFlag_;
            // A job whose deadline already passed (or whose token fired
            // while queued) resolves without compiling anything.
            control.checkpoint();
            FaultInjector::maybeThrow(FaultSite::WorkerDequeue);

            // The key is only read by the result and snapshot tiers;
            // with both off, hashing the whole circuit buys nothing. A
            // quarantined snapshot tier never comes back, so compileOnce
            // cannot see the tier on once it was off here.
            ResultCacheKey key;
            if (resultCacheOn() || snapshots_.enabled()) {
                key.circuitHash = request.circuit.contentHash();
                key.configDigest = request.backend->configDigest();
                key.hasSeed = request.seed.has_value();
                key.seed = request.seed.value_or(0);
            }

            if (resultCacheOn()) {
                if (auto cached = cacheLookup(key)) {
                    cacheHits_.fetch_add(1);
                    outcome.result = std::move(*cached);
                    outcome.error.reset();
                    return outcome;
                }
            }

            // Retries need the circuit again, so only the last allowed
            // attempt may consume it.
            Circuit circuit = attempt < kMaxAttempts
                                  ? request.circuit
                                  : std::move(request.circuit);
            CompileResult result = compileOnce(request, std::move(circuit),
                                               key, control);
            jobsExecuted_.fetch_add(1);

            // A failed job never reaches this store — the result tiers
            // only ever hold compiles that completed.
            if (resultCacheOn() &&
                !FaultInjector::fires(FaultSite::CacheStore))
                cacheStore(key, result);
            outcome.result = std::move(result);
            outcome.error.reset();
            return outcome;
        } catch (...) {
            outcome.result.reset();
            outcome.error = describeCurrentException();
            if (outcome.error->category() != ErrorCategory::Transient ||
                attempt >= kMaxAttempts)
                return outcome;
            if (!backoffBeforeRetry(request, attempt))
                return outcome;
        }
    }
}

CompileResult
CompileService::compileOnce(
    const CompileRequest &request, Circuit circuit,
    const ResultCacheKey &key, const JobControl &control)
{
    DeltaCompileIO delta;
    const bool tier_on = snapshots_.enabled();
    if (tier_on)
        delta.candidates = snapshots_.probe(key, circuit);
    const bool had_candidates = !delta.candidates.empty();

    CompileResult compiled = request.backend->compile(
        std::move(circuit), {.seed = request.seed,
                             .delta = tier_on ? &delta : nullptr,
                             .control = &control});

    if (tier_on) {
        if (delta.resumed)
            snapshots_.noteResume();
        else if (had_candidates)
            snapshots_.noteFallback();
        // Snapshots are only banked here, after the compile finished:
        // a job that failed mid-run contributes nothing to the tier.
        // Re-read the quarantine flag — if THIS job's fallback tripped
        // it, its captures must not repopulate the tier just cleared
        // (store() re-checks under the tier's lock for concurrent ones).
        if (snapshots_.enabled() &&
            !FaultInjector::fires(FaultSite::CacheStore))
            snapshots_.store(key, std::move(delta.captured));
    }
    return compiled;
}

bool
CompileService::backoffBeforeRetry(const CompileRequest &request,
                                   int attempt) const
{
    if (shutdownFlag_.load(std::memory_order_relaxed))
        return false;
    if (request.cancel != nullptr &&
        request.cancel->load(std::memory_order_relaxed))
        return false;

    long long us = kRetryBackoffBaseUs;
    for (int i = 1; i < attempt && us < kRetryBackoffMaxUs; ++i)
        us *= 2;
    us = std::min(us, kRetryBackoffMaxUs);

    if (request.deadline.has_value()) {
        const auto wake = std::chrono::steady_clock::now() +
                          std::chrono::microseconds(us);
        if (wake >= *request.deadline)
            return false; // The retry would start already timed out.
    }
    std::this_thread::sleep_for(std::chrono::microseconds(us));
    return true;
}

void
CompileService::deliver(Job job, CompileOutcome outcome)
{
    if (outcome.attempts > 1)
        jobsRetried_.fetch_add(
            static_cast<std::uint64_t>(outcome.attempts - 1));
    if (!outcome.ok() && outcome.error.has_value()) {
        switch (outcome.error->category()) {
          case ErrorCategory::Timeout:
            jobsTimedOut_.fetch_add(1);
            break;
          case ErrorCategory::Cancelled:
            jobsCancelled_.fetch_add(1);
            break;
          default:
            jobsFailed_.fetch_add(1);
            break;
        }
    }

    job.done(std::move(outcome));
}

std::optional<CompileResult>
CompileService::cacheLookup(const ResultCacheKey &key)
{
    if (auto hit = memory_.lookup(key))
        return hit;
    if (disk_ == nullptr)
        return std::nullopt;
    auto hit = disk_->lookup(key);
    // Promote, so a disk hit after a restart is memory-speed from now on.
    if (hit)
        memory_.store(key, *hit);
    return hit;
}

void
CompileService::cacheStore(const ResultCacheKey &key,
                           const CompileResult &result)
{
    memory_.store(key, result);
    if (disk_ != nullptr)
        disk_->store(key, result);
}

CompileService::CacheStats
CompileService::cacheStats() const
{
    CacheStats stats;
    stats.resultHits = cacheHits_.load();
    stats.resultMisses = jobsExecuted_.load();
    stats.memoryTier = memory_.stats();
    if (disk_ != nullptr)
        stats.diskTier = disk_->stats();
    stats.resultEvictions = stats.memoryTier.evictions;
    const SnapshotTierStats snap = snapshots_.stats();
    stats.snapshotHits = snap.hits;
    stats.snapshotMisses = snap.misses;
    stats.snapshotEvictions = snap.evictions;
    stats.deltaResumes = snap.resumes;
    stats.deltaFallbacks = snap.fallbacks;
    stats.snapshotCount = snap.count;
    stats.snapshotBytes = snap.bytes;
    stats.jobsFailed = jobsFailed_.load();
    stats.jobsTimedOut = jobsTimedOut_.load();
    stats.jobsCancelled = jobsCancelled_.load();
    stats.jobsRetried = jobsRetried_.load();
    stats.deltaQuarantines = snap.quarantines;
    stats.deltaQuarantined = snap.quarantined;
    return stats;
}

std::vector<std::pair<std::string, long long>>
CompileService::counters() const
{
    const CacheStats s = cacheStats();
    std::vector<std::pair<std::string, long long>> list;
    auto put = [&list](const char *name, auto value) {
        list.emplace_back(name, static_cast<long long>(value));
    };
    put("jobs_executed", s.resultMisses);
    put("cache_hits", s.resultHits);
    put("cache_mem_hits", s.memoryTier.hits);
    put("cache_mem_misses", s.memoryTier.misses);
    put("cache_mem_evictions", s.memoryTier.evictions);
    put("cache_disk_hits", s.diskTier.hits);
    put("cache_disk_misses", s.diskTier.misses);
    put("cache_disk_evictions", s.diskTier.evictions);
    put("cache_disk_corrupt", s.diskTier.corrupt);
    put("jobs_failed", s.jobsFailed);
    put("jobs_timed_out", s.jobsTimedOut);
    put("jobs_cancelled", s.jobsCancelled);
    put("jobs_retried", s.jobsRetried);
    put("snapshot_hits", s.snapshotHits);
    put("snapshot_misses", s.snapshotMisses);
    put("snapshot_evictions", s.snapshotEvictions);
    put("snapshot_count", s.snapshotCount);
    put("snapshot_bytes", s.snapshotBytes);
    put("delta_resumes", s.deltaResumes);
    put("delta_fallbacks", s.deltaFallbacks);
    put("delta_quarantines", s.deltaQuarantines);
    put("delta_quarantined", s.deltaQuarantined);
    return list;
}

} // namespace mussti
