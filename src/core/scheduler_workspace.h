/**
 * @file
 * The per-job scheduler arena.
 *
 * One SchedulerWorkspace carries every growable buffer the MUSS-TI
 * scheduling hot path needs: the anticipated-usage snapshot, the
 * frontier worklist's round buffers, and the DependencyDag's window
 * scratch. A SABRE compile runs the scheduler three times (forward,
 * reverse, refined forward) against one workspace, and the
 * CompileService keeps one workspace per worker thread, so after the
 * first compilation of a given scale every buffer is warm and the
 * scheduling loop performs zero heap allocations (the property
 * micro_scheduler_bench's allocation counter pins).
 *
 * Purely an allocation cache: every consumer fully re-initialises the
 * ranges it reads, results are bit-identical with or without a
 * workspace (tests/test_scheduler_workspace.cpp), and a
 * default-constructed instance is always valid. Nothing in here may
 * carry information between runs — only capacity.
 */
#ifndef MUSSTI_CORE_SCHEDULER_WORKSPACE_H
#define MUSSTI_CORE_SCHEDULER_WORKSPACE_H

#include <cstddef>
#include <cstdint>
#include <vector>

#include "dag/dag.h"

namespace mussti {

/**
 * Reusable buffers for MusstiScheduler::run — see the file comment for
 * the reuse contract (allocation cache only, never information).
 */
struct SchedulerWorkspace
{
    /** Recycled storage for the per-pass nextUse snapshot. */
    std::vector<int> nextUseScratch;

    /** Op count of the largest run so far; seeds Schedule::ops reserve. */
    std::size_t opReserveHint = 0;

    /** Frontier-worklist round buffers (current round / next round). */
    std::vector<int> worklistCur;
    std::vector<int> worklistNext;

    /** Per-DAG-node worklist membership state. */
    std::vector<std::uint8_t> worklistState;

    /** Donated DependencyDag arrays. */
    DagScratch dag;

    /**
     * Retirement-order recording buffer of the delta-compile capture
     * path (unused — empty — when deltaCompile is off). Reserved to the
     * DAG size before the hot loop so recording a retirement is a plain
     * push into warm storage.
     */
    std::vector<int> retiredOrderScratch;

    /**
     * Recycled per-qubit depth buffer for the resume-candidate
     * selection sweep (scheduler.cpp, suffixWindowClean).
     */
    std::vector<int> sweepScratch;
};

} // namespace mussti

#endif // MUSSTI_CORE_SCHEDULER_WORKSPACE_H
