/**
 * @file
 * The MUSS-TI multi-level scheduler main loop (paper section 3.2,
 * Fig 3): gate selection, qubit routing, conflict handling, and the
 * SWAP-insertion hook, driven to a full schedule over the dependency
 * DAG.
 */
#ifndef MUSSTI_CORE_SCHEDULER_H
#define MUSSTI_CORE_SCHEDULER_H

#include <cstddef>
#include <cstdint>
#include <vector>

#include "arch/eml_device.h"
#include "arch/placement.h"
#include "circuit/circuit.h"
#include "common/logging.h"
#include "core/config.h"
#include "core/job_control.h"
#include "core/schedule_snapshot.h"
#include "dag/dag.h"
#include "sim/params.h"
#include "sim/schedule.h"

namespace mussti {

/**
 * One snapshot the scheduler may resume from, paired with the
 * lowered-gate count the caller has VERIFIED (by prefix-hash lookup)
 * the incoming circuit shares with the snapshot's source circuit. The
 * scheduler trusts the count for gate content but still proves, on the
 * DAG built at the snapshot's watermark, that nothing at or beyond it
 * is retired or leaks into the look-ahead window before the resume
 * point (see scheduler.cpp, chainHeadsFit and windowClean) — the
 * condition that makes a resume bit-identical to a cold compile of the
 * new circuit.
 */
struct ResumeCandidate
{
    const ScheduleSnapshot *snapshot = nullptr;
    std::size_t sharedLoweredGates = 0;
};

/** Delta-compilation request accompanying one scheduling pass. */
struct DeltaRequest
{
    /**
     * Snapshots to try resuming from, ascending by covered prefix
     * (they normally come from one source run). The scheduler checks
     * them longest first against the new circuit alone — no DAG — and
     * builds the run's one DAG at the watermark of the first that
     * passes; when none does, or the built window shows the check
     * over-promised, the pass falls back to a cold compile of the whole
     * circuit.
     */
    std::vector<ResumeCandidate> candidates;

    /**
     * Capture a ScheduleSnapshot every this many retired two-qubit
     * gates (0 = never capture). A run keeps at most 16: past that,
     * every other one is dropped and the cadence doubles.
     */
    int checkpointEvery = 0;
};

/** One full scheduling pass over a circuit. */
class MusstiScheduler
{
  public:
    /** Result of a pass: the op stream plus the end-of-run placement. */
    struct RunOutput
    {
        Schedule schedule;
        Placement finalPlacement;
        int swapInsertions = 0; ///< schedule.insertedSwapGates.
        int evictions = 0;

        /** Phase-2 iterations (routed gates) of this run. */
        int routingSteps = 0;

        /**
         * DAG relaxation-wave visits of this run
         * (DependencyDag::windowVisits). A resumed run counts only its
         * own work from the watermark on, not the cold run's.
         */
        std::uint64_t windowVisits = 0;

        /**
         * Heap allocations observed inside the scheduling loop — after
         * the pass state (DAG build, placement copy, scratch adoption)
         * is fully constructed, up to the last emitted op — as counted
         * by AllocCounter. Per-run setup allocations are deliberately
         * OUTSIDE the window: the gate proves the per-step hot path is
         * allocation-free, not the run prologue. Zero in every binary
         * that does not instrument operator new; in
         * micro_scheduler_bench it proves the hot path's steady state
         * allocates nothing.
         */
        std::uint64_t loopHeapAllocs = 0;

        /**
         * Checkpoints captured during the run (DeltaRequest with
         * checkpointEvery > 0). inputPrefixGates / prefixHash are left
         * for the compile pass to stamp — the scheduler only sees the
         * lowered circuit.
         */
        std::vector<ScheduleSnapshot> snapshots;

        /** The candidate snapshot the run resumed from, or null. */
        const ScheduleSnapshot *resumedFrom = nullptr;

        RunOutput(Placement placement)
            : finalPlacement(std::move(placement)) {}
    };

    /**
     * Every window consumer must stay inside the DAG's horizon: the
     * weight table reads depths below lookAhead, so a deeper look-ahead
     * is an input error (InvalidInput, `input.require`). So is one
     * below a layer, which would silently switch SWAP insertion off.
     */
    MusstiScheduler(const EmlDevice &device, const PhysicalParams &params,
                    const MusstiConfig &config)
        : device_(device), params_(params), config_(config)
    {
        MUSSTI_REQUIRE(config.lookAhead >= 1,
                       "lookAhead must be >= 1, got " << config.lookAhead);
        constexpr int horizon = DependencyDag::kDefaultWindowHorizon;
        MUSSTI_REQUIRE(config.lookAhead <= horizon,
                       "the weight-table lookAhead " << config.lookAhead
                       << " exceeds the DAG window horizon " << horizon
                       << ", the depth of the window it reads");
    }

    /**
     * Schedule `lowered` (SWAPs already decomposed) starting from
     * `initial` placement. The initial placement must place all qubits.
     * Buffers come from an arena the scheduler keeps per thread, so
     * repeated runs start warm; output is identical either way (see
     * scheduler.cpp). `delta`, when given, may request snapshot capture
     * and/or a resume from a prior run's snapshot — a successful resume
     * produces the bit-identical schedule in time proportional to the
     * unshared suffix. `control`, when given, is checkpointed every
     * JobControl::kCheckEveryGates routing steps — a relaxed atomic load
     * (plus a clock read when a deadline is set), never an allocation,
     * so the zero-steady-state-alloc invariant holds with control on.
     */
    RunOutput run(const Circuit &lowered, const Placement &initial,
                  const DeltaRequest *delta = nullptr,
                  const JobControl *control = nullptr) const;

  private:
    const EmlDevice &device_;
    const PhysicalParams &params_;
    const MusstiConfig &config_;
};

} // namespace mussti

#endif // MUSSTI_CORE_SCHEDULER_H
