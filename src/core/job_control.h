/**
 * @file
 * Cooperative deadline/cancellation control for one compile job.
 *
 * A JobControl is owned by whoever runs the job (the CompileService
 * worker, or a caller driving a backend directly) and threaded by
 * pointer through the pipeline into the scheduler's routing loop. The
 * flags it watches are plain atomics owned elsewhere — checking them is
 * a relaxed load, and the deadline check is one steady_clock read — so
 * a checkpoint allocates nothing unless it actually fires, preserving
 * the scheduler's zero-steady-state-allocation invariant. The pipeline
 * checkpoints at every pass boundary; the scheduler every
 * `kCheckEveryGates` routing steps.
 *
 * A fired checkpoint raises a quiet structured error (Cancelled or
 * Timeout, common/error.h) that unwinds the compile; the service turns
 * it into the job's CompileOutcome.
 */
#ifndef MUSSTI_CORE_JOB_CONTROL_H
#define MUSSTI_CORE_JOB_CONTROL_H

#include <atomic>
#include <chrono>
#include <optional>

#include "common/error.h"
#include "common/logging.h"

namespace mussti {

struct JobControl
{
    /** Absolute deadline; past it the job resolves Timeout. */
    std::optional<std::chrono::steady_clock::time_point> deadline;

    /** Caller's cancellation token (may be null). Set → Cancelled. */
    const std::atomic<bool> *cancel = nullptr;

    /** Service-shutdown flag (may be null). Set → Cancelled. */
    const std::atomic<bool> *shutdown = nullptr;

    /** Scheduler checkpoint cadence, in routing steps. */
    static constexpr int kCheckEveryGates = 128;

    bool cancelRequested() const
    {
        return (cancel != nullptr &&
                cancel->load(std::memory_order_relaxed)) ||
               (shutdown != nullptr &&
                shutdown->load(std::memory_order_relaxed));
    }

    bool deadlineExpired() const
    {
        return deadline.has_value() &&
               std::chrono::steady_clock::now() >= *deadline;
    }

    /** Raise Cancelled/Timeout if either condition holds. */
    void checkpoint() const
    {
        if (cancelRequested())
            raiseError(ErrorCategory::Cancelled, "job.cancelled",
                       "compile job cancelled");
        if (deadlineExpired())
            raiseError(ErrorCategory::Timeout, "job.deadline-exceeded",
                       "compile job deadline exceeded");
    }
};

} // namespace mussti

#endif // MUSSTI_CORE_JOB_CONTROL_H
