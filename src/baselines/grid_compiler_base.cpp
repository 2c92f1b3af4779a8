#include "baselines/grid_compiler_base.h"

#include <algorithm>
#include <limits>
#include <memory>
#include <string>
#include <utility>

#include "arch/device_registry.h"
#include "common/hash.h"
#include "common/logging.h"
#include "sim/evaluation_pass.h"

namespace mussti {

GridCompilerBase::GridCompilerBase(std::string name, const GridConfig &grid,
                                   const PhysicalParams &params)
    : name_(std::move(name)), device_(DeviceRegistry::createGrid(grid)),
      params_(params)
{}

GridCompilerBase::Pass::Pass(const GridDevice &device,
                             const PhysicalParams &params,
                             const Circuit &lowered,
                             const Placement &initial,
                             int window_horizon)
    : placement(initial),
      lru(lowered.numQubits()),
      emitter(device.zoneInfos(), params, placement, schedule),
      dag(lowered, window_horizon),
      worklist(dag),
      remainingDegree(lowered.twoQubitDegrees())
{
    schedule.initialChains = Schedule::snapshotChains(initial);
}

/** Share the backend's immutable grid device with the context. */
class GridTargetPass : public CompilerPass
{
  public:
    explicit GridTargetPass(std::shared_ptr<const GridDevice> device)
        : device_(std::move(device))
    {}

    const char *name() const override { return "grid-target"; }

    void
    run(CompileContext &ctx) const override
    {
        ctx.device = device_;
    }

  private:
    std::shared_ptr<const GridDevice> device_;
};

/**
 * Row-major initial fill over the context's grid device, after
 * rejecting a grid the strategies cannot shuttle on.
 */
class GridCompilerBase::PlacementPass : public CompilerPass
{
  public:
    explicit PlacementPass(const GridCompilerBase &strategy)
        : strategy_(strategy)
    {}

    const char *name() const override { return "grid-placement"; }

    void
    run(CompileContext &ctx) const override
    {
        const GridDevice &grid = ctx.requireGridDevice();
        const int qubits = ctx.input.numQubits();
        ctx.placement = strategy_.initialPlacement(qubits);

        // A two-qubit gate needs two ions in one trap, and once more
        // than one trap exists, bringing them together may spill a
        // resident, which needs a free slot somewhere. Without either,
        // the strategy would dead-lock mid-schedule.
        const int capacity = grid.config().trapCapacity;
        const bool no_pair = capacity < 2;
        const bool no_spill = grid.numTraps() > 1 &&
                              qubits == grid.slotCount();
        if ((!no_pair && !no_spill) ||
            ctx.requireLowered().twoQubitCount() == 0)
            return;
        fatalCoded("input.grid-infeasible",
                   grid.spec() + " cannot run two-qubit gates: " +
                   (no_pair ? "trap capacity " + std::to_string(capacity) +
                                  " holds no ion pair"
                            : std::to_string(qubits) + " qubits fill all " +
                                  std::to_string(grid.slotCount()) +
                                  " slots, leaving no room to spill"));
    }

  private:
    const GridCompilerBase &strategy_;
};

/** Drive the strategy's scheduleStep() loop to a full schedule. */
class GridCompilerBase::SchedulePass : public CompilerPass
{
  public:
    explicit SchedulePass(const GridCompilerBase &strategy)
        : strategy_(strategy)
    {}

    const char *name() const override { return "grid-schedule"; }

    void
    run(CompileContext &ctx) const override
    {
        Pass pass(ctx.requireGridDevice(), ctx.params,
                  ctx.requireLowered(), ctx.requirePlacement(),
                  strategy_.windowHorizon());

        int steps = 0;
        while (!pass.dag.empty()) {
            strategy_.drainExecutable(pass);
            if (pass.dag.empty())
                break;
            strategy_.scheduleStep(pass);
            ++steps;
        }
        ctx.routingSteps += steps;
        ctx.windowVisits += pass.dag.windowVisits();

        // Trailing single-qubit gates.
        for (const Gate &g1 : pass.dag.trailing1q()) {
            if (!isSingleQubit(g1.kind))
                continue;
            ScheduledOp op;
            op.kind = OpKind::Gate1Q;
            op.q0 = g1.q0;
            op.zoneFrom = pass.placement.zoneOf(g1.q0);
            op.zoneTo = op.zoneFrom;
            op.durationUs = ctx.params.gate1qTimeUs;
            pass.schedule.push(op);
        }

        ctx.schedule = std::move(pass.schedule);
        ctx.finalPlacement = std::move(pass.placement);
    }

  private:
    const GridCompilerBase &strategy_;
};

Placement
GridCompilerBase::initialPlacement(int num_qubits) const
{
    MUSSTI_REQUIRE(num_qubits <= device_->slotCount(),
                   "circuit does not fit on the grid: " << num_qubits
                   << " qubits vs " << device_->slotCount() << " slots");
    Placement placement(num_qubits, device_->numTraps());
    int next = 0;
    for (int t = 0; t < device_->numTraps() && next < num_qubits; ++t) {
        for (int slot = 0; slot < device_->config().trapCapacity &&
             next < num_qubits; ++slot) {
            placement.insert(next, t, ChainEnd::Back);
            ++next;
        }
    }
    return placement;
}

bool
GridCompilerBase::executable(const Pass &pass, const Gate &gate) const
{
    const int ta = pass.placement.zoneOf(gate.q0);
    return ta >= 0 && ta == pass.placement.zoneOf(gate.q1) &&
           gateAllowedIn(ta);
}

int
GridCompilerBase::nearestTrapWithSpace(const Pass &pass, int from,
                                       int exclude) const
{
    int best = -1;
    int best_dist = std::numeric_limits<int>::max();
    for (int t = 0; t < device_->numTraps(); ++t) {
        if (t == exclude)
            continue;
        if (pass.placement.sizeOf(t) >= device_->config().trapCapacity)
            continue;
        const int dist = device_->hopDistance(from, t);
        if (dist < best_dist) {
            best_dist = dist;
            best = t;
        }
    }
    return best;
}

void
GridCompilerBase::relocate(Pass &pass, int qubit, int target_trap,
                           int keep0, int keep1) const
{
    const int from = pass.placement.zoneOf(qubit);
    MUSSTI_ASSERT(from >= 0, "grid relocate of unplaced qubit");
    if (from == target_trap)
        return;

    // Spill until the target has a slot. The mover itself sits in
    // `from`, so it is never among the target's candidates.
    while (pass.placement.sizeOf(target_trap) >=
           device_->config().trapCapacity) {
        const int victim = pass.lru.victim(pass.placement.chain(target_trap),
                                           keep0, keep1);
        // victim() returns -1 when every resident is kept — a capacity
        // dead-lock (trap smaller than the gate's working set), which
        // must fail loudly instead of indexing with -1.
        if (victim < 0) {
            panic("grid spill dead-lock in trap " +
                  std::to_string(target_trap) + ": all " +
                  std::to_string(pass.placement.sizeOf(target_trap)) +
                  " residents are the gate's operands (" +
                  std::to_string(keep0) + ", " + std::to_string(keep1) +
                  "); trap capacity too small for the gate's working set");
        }
        const int spill_to = nearestTrapWithSpace(pass, target_trap,
                                                  target_trap);
        MUSSTI_ASSERT(spill_to >= 0, "grid completely full");
        const int hops = device_->hopDistance(target_trap, spill_to);
        pass.emitter.relocate(victim, spill_to,
                              hops * device_->config().pitchUm);
        pass.schedule.addExtraShuttles(hops - 1);
        pass.worklist.onQubitMoved(victim);
    }

    const int hops = device_->hopDistance(from, target_trap);
    pass.emitter.relocate(qubit, target_trap,
                          hops * device_->config().pitchUm);
    pass.schedule.addExtraShuttles(hops - 1);
    pass.worklist.onQubitMoved(qubit);
}

void
GridCompilerBase::executeNode(Pass &pass, DagNodeId id) const
{
    const DagNode &node = pass.dag.node(id);
    const Gate &gate = node.gate;
    MUSSTI_ASSERT(executable(pass, gate),
                  "executeNode on split operands");

    for (const Gate &g1 : pass.dag.leading1q(id)) {
        if (!isSingleQubit(g1.kind))
            continue;
        ScheduledOp op;
        op.kind = OpKind::Gate1Q;
        op.q0 = g1.q0;
        op.zoneFrom = pass.placement.zoneOf(g1.q0);
        op.zoneTo = op.zoneFrom;
        op.durationUs = params_.gate1qTimeUs;
        pass.schedule.push(op);
    }

    const int trap = pass.placement.zoneOf(gate.q0);
    ScheduledOp op;
    op.kind = OpKind::Gate2Q;
    op.q0 = gate.q0;
    op.q1 = gate.q1;
    op.zoneFrom = trap;
    op.zoneTo = trap;
    op.durationUs = params_.gate2qTimeUs;
    op.circuitGate = node.circuitIndex;
    pass.schedule.push(op);

    pass.lru.touch(gate.q0);
    pass.lru.touch(gate.q1);
    --pass.remainingDegree[gate.q0];
    --pass.remainingDegree[gate.q1];
    pass.dag.complete(id);
    pass.worklist.noteCompleted(id);
}

void
GridCompilerBase::drainExecutable(Pass &pass) const
{
    pass.worklist.drain([&](DagNodeId id) {
        if (executable(pass, pass.dag.node(id).gate))
            executeNode(pass, id);
    });
}

PassPipeline
GridCompilerBase::makePipeline() const
{
    PassPipeline pipeline;
    pipeline.add(std::make_unique<LowerSwapsPass>())
        .add(std::make_unique<GridTargetPass>(device_))
        .add(std::make_unique<PlacementPass>(*this))
        .add(std::make_unique<SchedulePass>(*this))
        .add(std::make_unique<EvaluationPass>());
    return pipeline;
}

CompileResult
GridCompilerBase::compile(const Circuit &circuit,
                          const CompileOptions &options) const
{
    if (options.delta != nullptr) {
        options.delta->captured.clear();
        options.delta->resumed = false;
    }
    // The seed is unused but a value must flow to the context.
    return makePipeline().compile(circuit, params_, 0, nullptr,
                                  options.control);
}

void
GridCompilerBase::hashConfigExtra(Fnv1a &hash) const
{
    (void)hash;
}

std::uint64_t
GridCompilerBase::configDigest() const
{
    Fnv1a hash;
    hash.update(name_);
    // The device folds in through its canonical registry spec (one
    // digest convention across every backend family).
    hash.update(DeviceRegistry::specOf(device_->config()).digest());
    hash.update(paramsDigest(params_));
    hashConfigExtra(hash);
    return hash.digest();
}

} // namespace mussti
