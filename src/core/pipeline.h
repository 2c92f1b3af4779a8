/**
 * @file
 * The pass-based compilation pipeline.
 *
 * A compilation is an ordered sequence of CompilerPass objects run over
 * one CompileContext. The context carries everything the stages exchange:
 * the input and lowered circuits, the target device, the working and
 * final placements, the op schedule, counters, and the evaluated metrics.
 * PassPipeline owns the sequence, times each stage, enforces the
 * end-of-pipeline invariants (a lowering pass ran, an evaluation pass
 * ran), and assembles the CompileResult.
 *
 * Every compiler in the library — MUSS-TI and the grid baselines — is a
 * pass sequence behind the ICompilerBackend interface (core/backend.h);
 * adding a compilation stage means adding a pass, not editing a monolith.
 */
#ifndef MUSSTI_CORE_PIPELINE_H
#define MUSSTI_CORE_PIPELINE_H

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "arch/placement.h"
#include "arch/target_device.h"
#include "circuit/circuit.h"
#include "core/job_control.h"
#include "core/schedule_snapshot.h"
#include "sim/evaluator.h"
#include "sim/params.h"
#include "sim/schedule.h"

namespace mussti {

class EmlDevice;  // arch/eml_device.h
class GridDevice; // arch/grid_device.h

/** Wall-clock record of one executed pass. */
struct PassTiming
{
    std::string pass;
    double seconds = 0.0;
};

/**
 * Delta-compilation exchange of one compile call (core/
 * schedule_snapshot.h). The caller (normally the CompileService's
 * snapshot tier) supplies checkpoints whose input-prefix hashes it has
 * matched against the incoming circuit; the pipeline's scheduling pass
 * tries to resume from the longest provably safe one and reports the
 * checkpoints it captured for future reuse. Only consulted when the
 * backend's configuration enables delta compilation
 * (MusstiConfig::deltaCompile); other backends ignore it. A compile
 * without one (CompileOptions::delta == nullptr) neither captures nor
 * resumes: the service passes none when its snapshot tier is off or
 * quarantined, so cold compiles don't pay capture cost for snapshots
 * nobody will store.
 */
struct DeltaCompileIO
{
    /**
     * Resume candidates, ascending by inputPrefixGates. Each must
     * carry a prefixHash the caller verified equals the incoming
     * circuit's prefixHash(inputPrefixGates).
     */
    std::vector<std::shared_ptr<const ScheduleSnapshot>> candidates;

    /**
     * Checkpoints captured during this compile, stamped with the input
     * prefix they cover — ready to key into a snapshot cache.
     */
    std::vector<ScheduleSnapshot> captured;

    /** The compile resumed from one of the candidates. */
    bool resumed = false;
};

/** Everything a compilation produces. */
struct CompileResult
{
    Circuit lowered;          ///< Input with SWAPs decomposed to 3 CX;
                              ///< the circuit the schedule implements.
    Schedule schedule;        ///< The physical op stream.
    Metrics metrics;          ///< Evaluated under the compiler's params.
    double compileTimeSec = 0.0; ///< Wall-clock of the full pipeline.
    int swapInsertions = 0;   ///< Logical SWAPs added (section 3.3).
    int evictions = 0;        ///< Conflict-handling relocations.
    std::vector<std::vector<int>> finalChains; ///< End-of-run placement.
    std::vector<PassTiming> passTrace; ///< Per-pass wall-clock breakdown.

    /**
     * Scheduler-loop perf counters, summed over every scheduler run of
     * the compilation (all three SABRE legs, whichever candidate won):
     * phase-2 routing steps, DAG relaxation-wave visits
     * (DependencyDag::windowVisits, a deterministic work counter), and
     * heap allocations observed inside the scheduling loops by
     * common/alloc_counter.h (always zero unless the binary instruments
     * operator new — micro_scheduler_bench does, and gates on
     * allocations/step staying zero once warm).
     */
    int routingSteps = 0;
    std::uint64_t windowVisits = 0;
    std::uint64_t schedulerHeapAllocs = 0;

    /**
     * The schedule was produced by resuming from a delta-compile
     * checkpoint rather than scheduling the whole circuit (bit-
     * identical either way; see MusstiConfig::deltaCompile).
     */
    bool deltaResumed = false;

    explicit CompileResult(Circuit c) : lowered(std::move(c)) {}
};

/**
 * Platform-stable FNV-1a digest over everything that makes a result's
 * SCHEDULE what it is: every op field, initial and final chains, the
 * shuttle/swap/eviction counters, and the headline metrics. Two results
 * fingerprint equally iff the compiles were bit-identical — the
 * determinism pin used by the golden backend tests, printed by
 * compile_cli, and carried in every compile-server response so a client
 * can assert server == local without shipping the schedule back.
 * (Timing fields — compileTimeSec, passTrace — are excluded; they vary
 * run to run by construction.)
 */
std::uint64_t resultFingerprint(const CompileResult &result);

/**
 * Shared state of one compilation, created per job and owned by the
 * pipeline run — nothing in it is shared across concurrent compiles.
 */
struct CompileContext
{
    CompileContext(Circuit input_circuit, const PhysicalParams &physical,
                   std::uint64_t rng_seed)
        : input(std::move(input_circuit)), params(physical),
          seed(rng_seed), lowered(1)
    {}

    // ---- inputs -------------------------------------------------------
    Circuit input;            ///< The circuit as submitted.
    PhysicalParams params;    ///< Physics the schedule is costed under.
    std::uint64_t seed;       ///< Per-job RNG seed for stochastic passes.

    // ---- produced by passes ------------------------------------------
    Circuit lowered;          ///< Valid once loweredReady (LowerSwapsPass).
    bool loweredReady = false;

    /**
     * THE target device — every compilation has exactly one, set by the
     * backend's target pass (created through the DeviceRegistry) and
     * shared immutably, so concurrent jobs may alias one device.
     */
    std::shared_ptr<const TargetDevice> device;

    std::optional<Placement> placement;      ///< Initial/working mapping.
    std::optional<Placement> finalPlacement; ///< End-of-run mapping.

    Schedule schedule;
    int swapInsertions = 0;
    int evictions = 0;
    int routingSteps = 0;      ///< Accumulated by the scheduling passes.
    std::uint64_t windowVisits = 0; ///< Ditto (see CompileResult).
    std::uint64_t schedulerHeapAllocs = 0; ///< Ditto (see CompileResult).

    Metrics metrics;
    bool metricsValid = false; ///< Set by whichever pass evaluated last.

    /**
     * Delta-compilation exchange (may be null): candidates in,
     * captured checkpoints and the resume verdict out. Owned by the
     * compile() caller; the scheduling pass is the only reader/writer.
     */
    DeltaCompileIO *delta = nullptr;

    /**
     * Deadline/cancellation control for this job (may be null). The
     * pipeline checkpoints it at every pass boundary; the scheduling
     * passes thread it into the routing loop.
     */
    const JobControl *control = nullptr;

    std::vector<PassTiming> trace; ///< Filled by PassPipeline.

    // ---- invariant helpers (passes call these on entry) --------------
    /** The target device; panics if no target pass ran yet. */
    const TargetDevice &requireDevice() const;

    /** Zone descriptors of the target device. */
    const std::vector<ZoneInfo> &zoneInfos() const;

    /** The lowered circuit; panics if no lowering pass ran yet. */
    const Circuit &requireLowered() const;

    /** The working placement; panics if no mapping pass ran yet. */
    const Placement &requirePlacement() const;

    /**
     * Typed downcast for EML-only passes; panics if the target is
     * missing or not an EML device.
     */
    const EmlDevice &requireEmlDevice() const;

    /** Typed downcast for grid-only passes. */
    const GridDevice &requireGridDevice() const;
};

/** One stage of a compilation pipeline. */
class CompilerPass
{
  public:
    virtual ~CompilerPass() = default;

    /** Stable identifier used in pass traces and diagnostics. */
    virtual const char *name() const = 0;

    /** Execute the stage, reading and extending the context. */
    virtual void run(CompileContext &ctx) const = 0;
};

/**
 * An ordered, immutable-after-construction sequence of passes.
 *
 * compile() is const and re-entrant: each invocation builds a private
 * CompileContext, so one pipeline instance may serve concurrent jobs.
 */
class PassPipeline
{
  public:
    PassPipeline() = default;
    PassPipeline(PassPipeline &&) = default;
    PassPipeline &operator=(PassPipeline &&) = default;

    /** Append a pass; returns *this for chaining. */
    PassPipeline &add(std::unique_ptr<CompilerPass> pass);

    /** Names of the registered passes, in execution order. */
    std::vector<std::string> passNames() const;

    std::size_t size() const { return passes_.size(); }

    /**
     * Run every pass over a fresh context and assemble the result.
     * Panics unless a lowering pass and an evaluation pass both ran.
     * `delta`, when given, is wired into the context for the scheduling
     * pass (resume candidates in, captured checkpoints out). `control`,
     * when given, is checkpointed before every pass (and inside the
     * scheduler's routing loop) so deadlines and cancellation take
     * effect at pass granularity or finer.
     */
    CompileResult
    compile(Circuit circuit, const PhysicalParams &params,
            std::uint64_t seed, DeltaCompileIO *delta = nullptr,
            const JobControl *control = nullptr) const;

  private:
    std::vector<std::unique_ptr<CompilerPass>> passes_;
};

/** Lowering: decompose SWAP gates into 3 CX (native trapped-ion form). */
class LowerSwapsPass : public CompilerPass
{
  public:
    const char *name() const override { return "lower-swaps"; }
    void run(CompileContext &ctx) const override;
};

} // namespace mussti

#endif // MUSSTI_CORE_PIPELINE_H
