/**
 * @file
 * Thread-pooled batch compilation service.
 *
 * Jobs pair a shared ICompilerBackend with a circuit (and an optional
 * per-job RNG seed) and run on a fixed worker pool. Every job compiles
 * in a private CompileContext, so results are bit-identical to serial
 * execution regardless of thread count or completion order. Results are
 * memoised in a bounded LRU cache keyed by (circuit content hash,
 * backend config digest, seed), which collapses the repeated
 * compilations the bench sweeps perform.
 *
 * A second LRU tier (SnapshotCache, core/result_cache.h) caches
 * delta-compile checkpoints keyed by (input PREFIX hash, config
 * digest, seed): when a submitted circuit shares a prefix with an
 * earlier compile, the matching snapshots ride into the backend's
 * compile call as resume candidates, so the recompile costs time
 * proportional to the edited suffix instead of the whole circuit —
 * with a bit-identical result either way.
 *
 * Failure is a first-class outcome (see "Failure semantics" in
 * src/core/README.md): every job resolves to a CompileOutcome carrying
 * either a result or a structured MusstiError; requests may carry a
 * deadline and a cancellation token (checked cooperatively at pass
 * boundaries and inside the scheduler's routing loop); Transient
 * failures are retried with bounded deterministic backoff; and neither
 * cache tier is ever populated by a failed job. Shutdown drains queued
 * jobs with Cancelled outcomes instead of abandoning their promises.
 */
#ifndef MUSSTI_CORE_COMPILE_SERVICE_H
#define MUSSTI_CORE_COMPILE_SERVICE_H

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/error.h"
#include "core/backend.h"
#include "core/result_cache.h"

namespace mussti {

/**
 * Pool and cache-tier sizing. The failure policy is fixed (see "Failure
 * semantics" in src/core/README.md): a Transient failure is retried up
 * to three attempts in all, with a deterministic backoff of 200 us
 * doubling to at most 20 ms, and the snapshot tier quarantines itself
 * after SnapshotCache::kQuarantineThreshold consecutive resume
 * fallbacks.
 */
struct CompileServiceConfig
{
    /** Worker threads; <= 0 selects the hardware concurrency. */
    int numThreads = 0;

    /**
     * Results kept in the in-memory LRU tier; 0 disables that tier.
     * Lookups try memory first, then — when diskCachePath is set — the
     * persistent disk tier (core/result_cache.h); a disk hit serves the
     * job and is promoted into memory.
     */
    std::size_t cacheCapacity = 128;

    /**
     * Directory of the disk-backed persistent result tier; empty
     * disables it. Identical compiles from different processes (or a
     * restarted server) sharing this directory never recompile: the
     * cache key discipline — circuit content hash x backend config
     * digest x seed — makes a disk hit bit-identical to recompiling.
     * Corrupt or truncated entries degrade to misses and are
     * quarantined, never surfaced as results or errors.
     */
    std::string diskCachePath;

    /** Disk-tier entry bound (oldest evicted past it; 0 = unbounded). */
    std::size_t diskCacheCapacity = 512;

    /**
     * Delta-compile checkpoints kept (LRU evicted); 0 disables the
     * snapshot tier entirely — jobs then run through the plain
     * compile path. With the tier on, every job's compile carries a
     * delta exchange (CompileOptions::delta):
     * snapshots captured by past compiles are offered as resume
     * candidates to future jobs that share an input prefix (same
     * config digest and seed), turning an append-or-reparameterize
     * recompile into work proportional to the edited suffix. Results
     * stay bit-identical by contract; backends without a delta path
     * are unaffected.
     */
    std::size_t snapshotCacheCapacity = 64;
};

/** One unit of work for the service. */
struct CompileRequest
{
    std::shared_ptr<const ICompilerBackend> backend;
    Circuit circuit;

    /**
     * RNG seed for the backend's stochastic passes; unset runs under
     * the backend's own configured seed (identical to a direct
     * backend->compile() call).
     */
    std::optional<std::uint64_t> seed;

    /**
     * Absolute deadline. Checked before the job starts, at every pass
     * boundary, and every JobControl::kCheckEveryGates routing steps;
     * past it the job resolves with a Timeout error.
     */
    std::optional<std::chrono::steady_clock::time_point> deadline;

    /**
     * Cancellation token (may be null). Set it to true at any time —
     * the job resolves Cancelled at its next cooperative checkpoint,
     * or immediately if still queued when checked. One token may be
     * shared by many requests to cancel them as a group.
     */
    std::shared_ptr<const std::atomic<bool>> cancel;
};

/**
 * How one job ended: exactly one of `result` (success) or `error`
 * (structured failure) is set. The batch-tolerant APIs return these in
 * submission order, so one bad circuit in a sweep costs one outcome,
 * not the batch.
 */
struct CompileOutcome
{
    std::optional<CompileResult> result;
    std::optional<MusstiError> error;

    /** Compile attempts consumed (> 1 means Transient retries). */
    int attempts = 1;

    bool ok() const { return result.has_value(); }

    /** The result; raises the structured error if the job failed. */
    const CompileResult &value() const;

    /** Move the result out; raises the structured error on failure. */
    CompileResult take();

    /** The error; panics if the job succeeded. */
    const MusstiError &errorInfo() const;

    /** A Cancelled outcome ("job.cancelled") carrying `message`. */
    static CompileOutcome cancelled(const std::string &message);
};

/** Fixed-size worker pool compiling jobs with result memoisation. */
class CompileService
{
  public:
    explicit CompileService(const CompileServiceConfig &config = {});
    ~CompileService();

    CompileService(const CompileService &) = delete;
    CompileService &operator=(const CompileService &) = delete;

    /**
     * Enqueue one job; the future yields the result (or throws the
     * structured error — a MusstiFault/MusstiPanic). A request without
     * a backend raises InvalidInput here, at the call. After shutdown()
     * the future is immediately ready with a Cancelled error (it does
     * not race worker teardown).
     */
    std::future<CompileResult> submit(CompileRequest request);

    std::future<CompileResult>
    submit(std::shared_ptr<const ICompilerBackend> backend,
           Circuit circuit)
    {
        return submit({std::move(backend), std::move(circuit), {}, {}, {}});
    }

    /**
     * Enqueue one job on the error-tolerant path: the future always
     * yields a CompileOutcome and never throws — failures (including
     * submit-after-shutdown, which resolves Cancelled immediately)
     * arrive as the outcome's structured error.
     */
    std::future<CompileOutcome> submitOutcome(CompileRequest request);

    /**
     * Enqueue one job with a completion callback: `done` is invoked
     * exactly once with the job's outcome, from whichever thread
     * resolves it (a worker, or the submitting thread for immediate
     * rejections such as a missing backend or a stopped service). This
     * is the submission core — submit() and submitOutcome() are
     * promise-fulfilling wrappers over it — and the hook the admission
     * layer and the compile server stream results through. The callback
     * must not block for long and must not re-enter shutdown().
     */
    void submitWithCallback(CompileRequest request,
                            std::function<void(CompileOutcome)> done);

    /**
     * Error-tolerant batch: outcomes in submission order, one per
     * request, never throws. One malformed circuit in a 1000-job batch
     * yields 999 results plus one structured error; the surviving
     * results are bit-identical to the batch without the bad job, at
     * any thread count.
     */
    std::vector<CompileOutcome>
    compileAllOutcomes(std::vector<CompileRequest> requests);

    /**
     * Stop the pool: reject new submissions (ready Cancelled outcomes),
     * resolve every still-queued job with a Cancelled outcome, signal
     * in-flight jobs through their cooperative shutdown checkpoint, and
     * join the workers. Idempotent; the destructor calls it.
     */
    void shutdown();

    /**
     * Deterministic per-job seed derivation (SplitMix64 over the base
     * seed and job index) — independent of thread count and completion
     * order. A sweep sets request i's seed to deriveJobSeed(base, i)
     * before compileAllOutcomes, so it replays exactly.
     */
    static std::uint64_t deriveJobSeed(std::uint64_t base_seed,
                                       std::size_t job_index);

    /** Upper bound accepted for an explicit worker-thread count. */
    static constexpr int kMaxThreads = 512;

    /**
     * Parse a thread-count override (the MUSSTI_BENCH_THREADS
     * environment variable): parseEnvThreadCount from
     * common/string_util.h bound to that variable name and kMaxThreads.
     * Returns 0 — "auto", i.e. hardware concurrency — for null/empty
     * input, and the parsed value for a well-formed positive integer,
     * clamped with a warning naming the variable. Garbage or
     * non-positive values fall back to auto with a logged warning.
     */
    static int parseThreadCount(const char *text);

    int numThreads() const { return static_cast<int>(workers_.size()); }

    /** Jobs that actually compiled (cache misses). */
    std::uint64_t jobsExecuted() const { return jobsExecuted_.load(); }

    /** Jobs served from the result cache. */
    std::uint64_t cacheHits() const { return cacheHits_.load(); }

    /** Counters over both cache tiers and the failure paths. */
    struct CacheStats
    {
        std::uint64_t resultHits = 0;   ///< Jobs served from the result cache.
        std::uint64_t resultMisses = 0; ///< Jobs that actually compiled.
        std::uint64_t resultEvictions = 0; ///< Results dropped by the LRU bound.
        std::uint64_t snapshotHits = 0; ///< Probes finding >=1 resume candidate.
        std::uint64_t snapshotMisses = 0;  ///< Probes finding none.
        std::uint64_t snapshotEvictions = 0; ///< Snapshots dropped by the bound.
        std::uint64_t deltaResumes = 0; ///< Compiles resumed from a snapshot.
        std::uint64_t deltaFallbacks = 0; ///< Candidate-backed compiles that
                                          ///< still scheduled cold.
        std::size_t snapshotCount = 0;  ///< Snapshots currently cached.
        std::size_t snapshotBytes = 0;  ///< Their approximate footprint.

        // ---- failure-path counters (jobsRetried counts extra
        // attempts, so a job that succeeded on attempt 3 adds 2) ------
        std::uint64_t jobsFailed = 0;    ///< Non-timeout/cancel failures.
        std::uint64_t jobsTimedOut = 0;  ///< Jobs resolved Timeout.
        std::uint64_t jobsCancelled = 0; ///< Jobs resolved Cancelled.
        std::uint64_t jobsRetried = 0;   ///< Transient retry attempts.
        std::uint64_t deltaQuarantines = 0; ///< Tier quarantine events.
        bool deltaQuarantined = false;   ///< Tier currently quarantined.

        /**
         * Per-tier result-cache counters (core/result_cache.h). The
         * aggregate resultHits above counts jobs served by ANY tier;
         * these break it down: memoryTier for the in-memory LRU,
         * diskTier for the persistent tier (all-zero when the tier is
         * not configured). diskTier.corrupt counts entries that failed
         * validation and were quarantined as misses.
         */
        ResultTierStats memoryTier;
        ResultTierStats diskTier;
    };

    /**
     * Point-in-time cache-effectiveness counters across the result tier
     * and the delta-compile snapshot tier. Monotonic over the service's
     * lifetime except snapshotCount/snapshotBytes/deltaQuarantined,
     * which track current state.
     */
    CacheStats cacheStats() const;

    /**
     * Every cacheStats() field as a (wire name, value) pair, in a fixed
     * order — the counter list the compile server's stats endpoint and
     * the bench JSON records carry. The thirteen result-tier and
     * failure-path counters come first, then the snapshot tier's.
     */
    std::vector<std::pair<std::string, long long>> counters() const;

  private:
    /**
     * A queued request and its one delivery path: submit() and
     * submitOutcome() fulfil a promise from this callback.
     */
    struct Job
    {
        CompileRequest request;
        std::function<void(CompileOutcome)> done;
    };

    void workerLoop();
    void execute(Job job);

    /** Push the job, or deliver it Cancelled if the service stopped. */
    void enqueueOrCancel(Job job);

    /** Run one job to an outcome: cache, retry loop, delta exchange. */
    CompileOutcome runJob(CompileRequest &request);

    /** One compile attempt, with the delta exchange and control. */
    CompileResult
    compileOnce(const CompileRequest &request, Circuit circuit,
                const ResultCacheKey &key, const JobControl &control);

    /**
     * Book the failure/retry counters and hand the outcome to the job's
     * callback — the single accounting point every delivery funnels
     * through.
     */
    void deliver(Job job, CompileOutcome outcome);

    /**
     * Sleep the deterministic backoff before retry `attempt + 1`.
     * False when the retry is pointless (deadline would expire inside
     * the backoff, token/shutdown already set) — the caller then keeps
     * the Transient error as the outcome.
     */
    bool backoffBeforeRetry(const CompileRequest &request,
                            int attempt) const;

    /**
     * Memory first, then disk; a disk hit is promoted into memory.
     * nullopt = miss in both.
     */
    std::optional<CompileResult> cacheLookup(const ResultCacheKey &key);

    /** Store a finished result into both result tiers. */
    void cacheStore(const ResultCacheKey &key, const CompileResult &result);

    /** Either result tier configured: the job path consults them. */
    bool resultCacheOn() const { return config_.cacheCapacity > 0 || disk_; }

    CompileServiceConfig config_;
    std::vector<std::thread> workers_;

    std::mutex queueMutex_;
    std::condition_variable queueCv_;
    std::deque<Job> queue_;
    bool stopping_ = false;

    /**
     * Cooperative shutdown signal wired into every in-flight job's
     * JobControl, so a long compile notices teardown at its next
     * checkpoint instead of holding the join.
     */
    std::atomic<bool> shutdownFlag_{false};

    /**
     * The three caches; each synchronises itself. disk_ is null when
     * diskCachePath is empty.
     */
    MemoryResultCache memory_;
    std::unique_ptr<DiskResultCache> disk_;
    SnapshotCache snapshots_;

    std::atomic<std::uint64_t> jobsExecuted_{0};
    std::atomic<std::uint64_t> cacheHits_{0}; ///< Hits in either tier.
    std::atomic<std::uint64_t> jobsFailed_{0};
    std::atomic<std::uint64_t> jobsTimedOut_{0};
    std::atomic<std::uint64_t> jobsCancelled_{0};
    std::atomic<std::uint64_t> jobsRetried_{0};
};

} // namespace mussti

#endif // MUSSTI_CORE_COMPILE_SERVICE_H
