#include "baselines/grid_compiler_base.h"

#include <algorithm>
#include <limits>
#include <memory>
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
                             const Placement &initial)
    : placement(initial),
      lru(lowered.numQubits()),
      emitter(device.zoneInfos(), params, placement, schedule),
      dag(lowered),
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

/** Row-major initial fill over the context's grid device. */
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
        ctx.requireGridDevice();
        ctx.placement =
            strategy_.initialPlacement(ctx.input.numQubits());
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
                  ctx.requireLowered(), ctx.requirePlacement());

        while (!pass.dag.empty()) {
            strategy_.drainExecutable(pass);
            if (pass.dag.empty())
                break;
            strategy_.scheduleStep(pass);
        }

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
                           const std::vector<int> &protect) const
{
    const int from = pass.placement.zoneOf(qubit);
    MUSSTI_ASSERT(from >= 0, "grid relocate of unplaced qubit");
    if (from == target_trap)
        return;

    // Spill until the target has a slot.
    std::vector<int> guarded = protect;
    guarded.push_back(qubit);
    while (pass.placement.sizeOf(target_trap) >=
           device_->config().trapCapacity) {
        const int victim = pass.lru.victim(pass.placement.chain(target_trap),
                                           guarded);
        // victim() returns -1 when every resident is protected — a
        // capacity dead-lock (trap smaller than the protected working
        // set), which must fail loudly instead of indexing with -1.
        if (victim < 0) {
            panic("grid spill dead-lock in trap " +
                  std::to_string(target_trap) + ": all " +
                  std::to_string(pass.placement.sizeOf(target_trap)) +
                  " residents are protected (" +
                  std::to_string(guarded.size()) + " protected qubits); "
                  "trap capacity too small for the gate's working set");
        }
        const int spill_to = nearestTrapWithSpace(pass, target_trap,
                                                  target_trap);
        MUSSTI_ASSERT(spill_to >= 0, "grid completely full");
        const int hops = device_->hopDistance(target_trap, spill_to);
        pass.emitter.relocate(victim, spill_to,
                              hops * device_->config().pitchUm);
        pass.schedule.addExtraShuttles(hops - 1);
    }

    const int hops = device_->hopDistance(from, target_trap);
    pass.emitter.relocate(qubit, target_trap,
                          hops * device_->config().pitchUm);
    pass.schedule.addExtraShuttles(hops - 1);
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
}

void
GridCompilerBase::drainExecutable(Pass &pass) const
{
    bool progressed = true;
    while (progressed) {
        progressed = false;
        const std::vector<DagNodeId> snapshot = pass.dag.frontier();
        for (DagNodeId id : snapshot) {
            if (pass.dag.isReady(id) &&
                executable(pass, pass.dag.node(id).gate)) {
                executeNode(pass, id);
                progressed = true;
            }
        }
    }
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
GridCompilerBase::compile(Circuit circuit,
                          const CompileOptions &options) const
{
    if (options.delta != nullptr) {
        options.delta->captured.clear();
        options.delta->resumed = false;
    }
    // The seed is unused but a value must flow to the context.
    return makePipeline().compile(std::move(circuit), params_, 0, nullptr,
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
