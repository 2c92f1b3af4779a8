/**
 * @file
 * Shared machinery of the baseline compilers that target monolithic
 * QCCD grids: initial row-major placement, hop-counted relocations with
 * LRU spill handling, executable-gate draining, and evaluation, so each
 * baseline only contributes its shuttle *strategy*.
 *
 * Every grid baseline is an ICompilerBackend whose compile() runs the
 * shared pass pipeline:
 *
 *   lower-swaps -> grid-target -> grid-placement -> grid-schedule
 *               -> evaluate
 *
 * where grid-schedule drives the subclass's scheduleStep() strategy.
 */
#ifndef MUSSTI_BASELINES_GRID_COMPILER_BASE_H
#define MUSSTI_BASELINES_GRID_COMPILER_BASE_H

#include <memory>
#include <string>
#include <vector>

#include "arch/grid_device.h"
#include "arch/placement.h"
#include "core/backend.h"
#include "core/compiler.h"
#include "core/lru.h"
#include "dag/dag.h"
#include "sim/params.h"
#include "sim/schedule.h"
#include "sim/shuttle_emitter.h"

namespace mussti {

/**
 * Base class for grid-QCCD baseline compilers. Subclasses implement
 * scheduleStep(), which must make progress on the FCFS frontier gate.
 */
class GridCompilerBase : public ICompilerBackend
{
  public:
    GridCompilerBase(std::string name, const GridConfig &grid,
                     const PhysicalParams &params);

    /**
     * Compile a circuit and evaluate it on the grid device. The grid
     * strategies are deterministic and have no delta path: the seed is
     * ignored, a delta exchange is left with nothing captured, and the
     * control is checked at every pass boundary of the pipeline.
     */
    CompileResult compile(Circuit circuit,
                          const CompileOptions &options = {}) const override;

    const std::string &name() const override { return name_; }

    std::uint64_t configDigest() const override;

    /**
     * The pass sequence compile() runs (exposed for tests/tools). The
     * strategy passes reference this backend, so the pipeline must not
     * outlive the compiler that built it.
     */
    PassPipeline makePipeline() const;

    const GridDevice &device() const { return *device_; }

  protected:
    std::string name_;
    /** Registry-created, immutable; shared with every job's context. */
    std::shared_ptr<const GridDevice> device_;
    PhysicalParams params_;

    /** Per-run working state visible to strategies. */
    struct Pass
    {
        Placement placement;
        Schedule schedule;
        LruTracker lru;
        ShuttleEmitter emitter;
        DependencyDag dag;
        std::vector<int> remainingDegree; ///< Future 2q gates per qubit.

        Pass(const GridDevice &device, const PhysicalParams &params,
             const Circuit &lowered, const Placement &initial);
    };

    /**
     * One strategy step: the pass's frontier is non-empty and contains
     * no executable gate; bring the FCFS gate's qubits together.
     */
    virtual void scheduleStep(Pass &pass) const = 0;

    /** True if both operands share a trap the strategy may gate in. */
    bool executable(const Pass &pass, const Gate &gate) const;

    /**
     * Strategy hook: whether a gate may execute in the given trap.
     * Default allows any trap (standard QCCD); the MQT-like baseline
     * restricts execution to its processing trap.
     */
    virtual bool gateAllowedIn(int trap) const { (void)trap; return true; }

    /** Strategy hook: fold strategy-specific tunables into the digest. */
    virtual void hashConfigExtra(class Fnv1a &hash) const;

    /**
     * Relocate a qubit to a target trap: spills LRU victims from the
     * target to the nearest trap with space, then emits one relocation
     * triple booking hop-count shuttles.
     */
    void relocate(Pass &pass, int qubit, int target_trap,
                  const std::vector<int> &protect) const;

    /** Row-major initial fill. */
    Placement initialPlacement(int num_qubits) const;

    /** Execute every currently executable frontier gate. */
    void drainExecutable(Pass &pass) const;

    /** Execute one ready node (gate + leading 1q costing). */
    void executeNode(Pass &pass, DagNodeId id) const;

    /** Nearest trap with a free slot, by hop distance from `from`. */
    int nearestTrapWithSpace(const Pass &pass, int from,
                             int exclude) const;

  private:
    /** The strategy-driving pipeline stages (defined in the .cpp). */
    class PlacementPass;
    class SchedulePass;
};

} // namespace mussti

#endif // MUSSTI_BASELINES_GRID_COMPILER_BASE_H
