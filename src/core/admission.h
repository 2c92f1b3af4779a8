/**
 * @file
 * Multi-tenant fair admission in front of the compile service.
 *
 * The CompileService's queue is a plain FIFO: a client that dumps a
 * 4096-job sweep ahead of an interactive compile starves it. This layer
 * puts a per-client queue in front of the pool and dispatches by
 * deficit round robin (DRR): active clients take turns in the order
 * they became active; each turn banks a fixed quantum of "gate credit" and
 * dispatches queued jobs while the credit covers their cost (a job's
 * cost is its gate count, so credit models compile work, not job
 * count). A bounded per-client in-flight budget keeps any one client
 * from occupying every worker even when the queues of others are
 * momentarily empty.
 *
 * Jobs reach the pool through CompileService::submitWithCallback, so
 * deadlines, cancellation, Transient retry, caching, and shutdown-drain
 * semantics carry over unchanged — admission reorders dispatch, it
 * never touches execution. Schedules therefore stay bit-identical to a
 * direct batch compile at any interleaving: WHAT a job compiles to is
 * pinned by (circuit, config, seed); admission only decides WHEN it
 * starts.
 *
 * A client is active while it has a job queued or in flight. Once it
 * has neither it leaves the rotation, and its next submit re-enters it
 * at the tail (the standard DRR active list), so the admission state is
 * bounded by the active clients, not by every id ever seen.
 *
 * Within one client, jobs dispatch in submission order (per-client
 * FIFO). Across clients, the dispatch order is a deterministic function
 * of the submission sequence: selection happens under one lock by one
 * pump at a time.
 */
#ifndef MUSSTI_CORE_ADMISSION_H
#define MUSSTI_CORE_ADMISSION_H

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/compile_service.h"

namespace mussti {

/** Fairness policy knobs. */
struct FairAdmissionConfig
{
    /**
     * Gate credit a client banks per DRR turn. Larger quanta lower
     * switching granularity (a client may burst more per turn);
     * smaller quanta interleave finer. Any positive value preserves
     * long-run proportional fairness.
     */
    std::uint64_t quantum = 256;

    /**
     * Per-client in-flight bound: jobs a single client may have
     * occupying workers at once; 0 = unbounded. The lever that keeps a
     * sweep from filling every worker the moment it is alone, which
     * would still delay the next interactive arrival by a full compile.
     */
    std::size_t maxInFlightPerClient = 4;
};

/** Point-in-time admission counters. */
struct AdmissionStats
{
    std::uint64_t submitted = 0;   ///< Jobs accepted into a queue.
    std::uint64_t dispatched = 0;  ///< Jobs handed to the service.
    std::uint64_t completed = 0;   ///< Outcomes delivered to callers.
    std::uint64_t cancelledQueued = 0; ///< Queued jobs cancelled by shutdown.
    std::size_t queuedJobs = 0;    ///< Currently waiting for dispatch.
    std::size_t inFlightJobs = 0;  ///< Currently at the service.
    std::size_t activeClients = 0; ///< Clients with queued or in-flight work.
};

/** Deficit-round-robin scheduler over per-client FIFO queues. */
class FairAdmission
{
  public:
    /** The service outlives this object; its pool does the work. */
    explicit FairAdmission(CompileService &service,
                           const FairAdmissionConfig &config = {});
    ~FairAdmission();

    FairAdmission(const FairAdmission &) = delete;
    FairAdmission &operator=(const FairAdmission &) = delete;

    /**
     * Queue one job for `client`; `done` fires exactly once with the
     * outcome (from a worker thread, or inline for immediate
     * rejections — including submit-after-shutdown, which resolves
     * Cancelled). Never throws; never blocks on compile work.
     */
    void submit(const std::string &client, CompileRequest request,
                std::function<void(CompileOutcome)> done);

    /**
     * Stop admitting: resolve every still-queued job Cancelled, then
     * wait for in-flight jobs to deliver. Idempotent; the destructor
     * calls it. (Jobs already at the service finish or are cut short
     * by the service's own shutdown — graceful drain runs this before
     * CompileService::shutdown.)
     */
    void shutdown();

    /** Block until no job is queued or in flight. */
    void drain();

    AdmissionStats stats() const;

  private:
    struct Pending
    {
        CompileRequest request;
        std::function<void(CompileOutcome)> done;
        std::uint64_t cost = 1;
    };

    struct ClientState
    {
        std::deque<Pending> queue;
        std::uint64_t deficit = 0;  ///< Banked gate credit.
        std::size_t inFlight = 0;
    };

    struct Dispatch
    {
        std::string client;
        Pending job;
    };

    /**
     * Run DRR selection and dispatch until nothing is dispatchable.
     * Only one pump runs at a time (pumping_); concurrent callers mark
     * repump_ and leave, and the running pump loops again — dispatching
     * happens outside the lock, so a completion callback re-entering
     * pump() can never deadlock.
     */
    void pump();

    /** One full DRR rotation; selected jobs, booked as in-flight. */
    std::vector<Dispatch> selectLocked();

    /** Hand one selected job to the service. */
    void dispatch(Dispatch item);

    /**
     * Drop `client` from the rotation if it has nothing queued or in
     * flight, keeping the cursor on the client it pointed at.
     */
    void retireIfIdleLocked(const std::string &client);

    CompileService &service_;
    const FairAdmissionConfig config_;

    mutable std::mutex mutex_;
    std::condition_variable idleCv_; ///< Signalled when work drains.
    std::unordered_map<std::string, ClientState> clients_;
    std::vector<std::string> ring_;  ///< Active clients, rotation order.
    std::size_t cursor_ = 0;         ///< Next ring position to serve.
    bool stopping_ = false;
    bool pumping_ = false;
    bool repump_ = false;

    /**
     * Completion hooks currently executing past their bookkeeping
     * (inside the callback or the re-pump). drain() waits for zero so
     * no callback thread still touches this object once the owner may
     * destroy it.
     */
    std::size_t activeHooks_ = 0;

    std::uint64_t submitted_ = 0;
    std::uint64_t dispatched_ = 0;
    std::uint64_t completed_ = 0;
    std::uint64_t cancelledQueued_ = 0;
};

} // namespace mussti

#endif // MUSSTI_CORE_ADMISSION_H
