#include "core/scheduler.h"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "common/alloc_counter.h"
#include "common/fault_injection.h"
#include "common/logging.h"
#include "core/frontier_worklist.h"
#include "core/lru.h"
#include "core/router.h"
#include "core/swap_inserter.h"
#include "dag/dag.h"

namespace mussti {

namespace {

/** Snapshots one run keeps (see DeltaRequest::checkpointEvery). */
constexpr int kMaxSnapshots = 16;

/**
 * The scheduler's per-thread arena (run() keeps one per thread): every
 * growable buffer of the hot path, recycled across the SABRE legs and
 * across compiles on the same thread, so a warm scheduling loop makes
 * zero heap allocations. Capacity only, never information: consumers
 * re-initialise whatever they read, so a warm thread's results equal a
 * cold one's (tests/test_scheduler_workspace.cpp).
 */
struct SchedulerWorkspace
{
    std::vector<int> nextUseScratch; ///< The per-pass nextUse snapshot.

    /** Op count of the largest run so far; seeds Schedule::ops reserve. */
    std::size_t opReserveHint = 0;

    WorklistScratch worklist; ///< Frontier-worklist buffers.

    DagScratch dag; ///< Donated DependencyDag arrays.

    /** Per-qubit counters of the resume guards (chainHeadsFit,
        suffixWindowClean). */
    std::vector<int> sweepScratch;
};

/** Shared mutable state of one scheduling pass. */
struct PassState
{
    const EmlDevice &device;
    const PhysicalParams &params;
    Placement placement;
    Schedule schedule;
    LruTracker lru;
    Router router;
    SwapInserter inserter;
    DependencyDag dag;
    FrontierWorklist worklist; ///< Phase-1 drain candidates.

    std::vector<int> nextUse;
    bool nextUseSynced = false; ///< First snapshot copies the table.

    /** `chain_heads`, when given, is the DAG's starting watermark (a
        resume; see DependencyDag's constructor). */
    PassState(const EmlDevice &dev, const PhysicalParams &par,
              const MusstiConfig &cfg, const Circuit &circuit,
              const Placement &initial, SchedulerWorkspace &ws,
              const std::vector<int> *chain_heads)
        : device(dev), params(par), placement(initial),
          lru(circuit.numQubits()),
          router(dev, par, placement, schedule, lru, cfg.replacement,
                 cfg.seed),
          inserter(dev, par, cfg, placement, schedule, router, lru),
          dag(circuit, DependencyDag::kDefaultWindowHorizon, &ws.dag,
              chain_heads),
          worklist(dag, &ws.worklist),
          nextUse(std::move(ws.nextUseScratch))
    {
        nextUse.assign(circuit.numQubits(), 0);
        schedule.initialChains = Schedule::snapshotChains(initial);
        schedule.ops.reserve(ws.opReserveHint);
        router.setNextUse(&nextUse);
        dag.trackNextUse();
        router.setMoveListener(&worklist);
        // Chains never outgrow their trap capacity, so one reserve here
        // makes every later push/pop allocation-free.
        placement.reserveChains(dev.zoneInfos());
    }

    /**
     * Snapshot the anticipated-usage table the DAG maintains
     * incrementally: nextUse[q] = window depth of qubit q's next gate,
     * or the horizon sentinel when q is idle throughout the window.
     * This is the "anticipated qubit usage" the paper's replacement
     * scheduler combines with LRU history. Taken once per routing step
     * so eviction decisions between snapshots see a stable table,
     * exactly as the full recomputation did — but synced by the DAG's
     * change log, so a step pays for the chain heads that moved, not
     * for an O(qubits) copy.
     */
    void
    snapshotNextUse()
    {
        dag.syncNextUse(nextUse, !nextUseSynced);
        nextUseSynced = true;
    }
};

/** Emit a costed single-qubit gate (Measure/Barrier are free markers). */
void
emit1q(PassState &st, const Gate &gate)
{
    if (!isSingleQubit(gate.kind))
        return;
    ScheduledOp op;
    op.kind = OpKind::Gate1Q;
    op.q0 = gate.q0;
    op.zoneFrom = st.placement.zoneOf(gate.q0);
    op.zoneTo = op.zoneFrom;
    op.durationUs = st.params.gate1qTimeUs;
    st.schedule.push(op);
}

/** True if the gate can execute with the current placement. */
bool
executable(const PassState &st, const Gate &gate)
{
    const int zone_a = st.placement.zoneOf(gate.q0);
    const int zone_b = st.placement.zoneOf(gate.q1);
    const ZoneInfo &info_a = st.device.zone(zone_a);
    const ZoneInfo &info_b = st.device.zone(zone_b);
    if (zone_a == zone_b)
        return info_a.gateCapable();
    return info_a.kind == ZoneKind::Optical &&
           info_b.kind == ZoneKind::Optical &&
           info_a.module != info_b.module;
}

/** Execute a frontier node that satisfies executable(). */
void
executeGate(PassState &st, const MusstiConfig &config, DagNodeId id)
{
    const DagNode &node = st.dag.node(id);
    const Gate &gate = node.gate;
    MUSSTI_ASSERT(executable(st, gate),
                  "executeGate on non-executable node " << id);

    for (const Gate &g1 : st.dag.leading1q(id))
        emit1q(st, g1);

    const int zone_a = st.placement.zoneOf(gate.q0);
    const int zone_b = st.placement.zoneOf(gate.q1);
    const bool fiber = zone_a != zone_b;

    ScheduledOp op;
    op.q0 = gate.q0;
    op.q1 = gate.q1;
    op.circuitGate = node.circuitIndex;
    if (fiber) {
        op.kind = OpKind::FiberGate;
        op.zoneFrom = zone_a;
        op.zoneTo = zone_b;
        op.durationUs = st.params.fiberGateTimeUs;
    } else {
        op.kind = OpKind::Gate2Q;
        op.zoneFrom = zone_a;
        op.zoneTo = zone_a;
        op.durationUs = st.params.gate2qTimeUs;
    }
    st.schedule.push(op);

    st.lru.touch(gate.q0);
    st.lru.touch(gate.q1);
    st.dag.complete(id);
    st.worklist.noteCompleted(id);

    if (fiber && config.enableSwapInsertion)
        st.inserter.maybeInsert(st.dag, gate.q0, gate.q1);
}

// ---- delta compilation: capture and resume ----------------------------
//
// ## Why a checkpoint is resumable bit for bit
//
// Snapshots are captured at one precise point of the loop: after the
// phase-1 drain has concluded (every frontier gate checked, none
// executable, nothing queued) and before phase 2 routes a gate. At that
// point the pass state is closed over (placement, schedule, LRU,
// router, the stale nextUse copy) plus the DAG, which is a pure
// function of (lowered circuit, retired set). The scheduler retires
// only frontier gates, each the head of both its qubits' chains, so the
// retired set is exactly the per-qubit chain-head watermark the
// snapshot records. Building the DAG at that watermark and restoring
// the explicit state verbatim therefore reconstructs the captured state
// exactly; the loop then continues as the cold run would have. Only
// the syncNextUse change log is not restored: the resumed run's first
// sync copies the whole table, which a patched sync equals anyway.
//
// ## Why a resume equals a cold compile of the NEW circuit
//
// The suffix beyond the shared prefix may differ arbitrarily, so the
// resumed run is only bit-identical to a cold compile of the new
// circuit if that cold compile would have made the very same decisions
// up to the checkpoint. Every decision input is either (a) a retired
// node, (b) a node inside the look-ahead window (depth < horizon:
// frontier membership, the nextUse table, the SWAP-insertion weight
// table — which reads depths < lookAhead <= horizon, as the constructor
// requires), or (c) nothing. Window depths only DECREASE as nodes
// retire, so if a suffix node's depth is >= horizon after the full
// retired set, it was >= horizon — invisible — at every earlier step.
// windowClean() checks exactly that on the new DAG; a candidate that
// fails falls back to the cold path, never to a wrong schedule. Prefix
// nodes' depths depend only on their (prefix) predecessors, hence agree
// between the old and new DAGs.

/** Highest circuit index among the unfinished nodes inside the
    look-ahead window, or -1 when the window is empty. */
int
windowMaxCircuitIndex(const DependencyDag &dag)
{
    int max_index = -1;
    dag.forEachWindowNode([&](DagNodeId id) {
        max_index = std::max(max_index, dag.node(id).circuitIndex);
    });
    return max_index;
}

/** No unfinished node at or beyond the shared prefix is visible inside
    the look-ahead window. */
bool
windowClean(const DependencyDag &dag, std::size_t shared_gates)
{
    return static_cast<std::size_t>(windowMaxCircuitIndex(dag) + 1) <=
        shared_gates;
}

/** Shape guards a snapshot must pass before anything reads it. */
bool
resumeShapeOk(const Circuit &lowered,
              const std::vector<std::vector<int>> &initial_chains,
              const ResumeCandidate &cand)
{
    const ScheduleSnapshot &snap = *cand.snapshot;
    const auto qubits = static_cast<std::size_t>(lowered.numQubits());
    return snap.loweredPrefixGates <= cand.sharedLoweredGates &&
           cand.sharedLoweredGates <= lowered.size() &&
           snap.chainHeads.size() == qubits &&
           snap.lruStamps.size() == qubits &&
           snap.router.arrival.size() == qubits &&
           snap.nextUse.size() == qubits &&
           snap.chainTailDepth.size() == qubits &&
           snap.chains.size() <= initial_chains.size() &&
           snap.schedule.initialChains == initial_chains;
}

/**
 * The watermark `heads` is one the new circuit can hold, checked on
 * the lowered gates alone: every head lies within its chain, every
 * two-qubit gate is retired on both operand chains or on neither (the
 * DAG build asserts both), and no retired gate sits at or beyond the
 * verified shared prefix. `pos` is per-qubit scratch.
 */
bool
chainHeadsFit(const Circuit &lowered, const std::vector<int> &heads,
              std::size_t shared_gates, std::vector<int> &pos)
{
    pos.assign(heads.size(), 0);
    for (std::size_t i = 0; i < shared_gates; ++i) {
        const Gate &g = lowered[i];
        if (!g.twoQubit())
            continue;
        const bool retired_a = pos[g.q0]++ < heads[g.q0];
        const bool retired_b = pos[g.q1]++ < heads[g.q1];
        if (retired_a != retired_b)
            return false;
    }
    // pos[q] now counts q's chain inside the shared prefix, so a head
    // beyond it would retire a gate at or past shared_gates.
    for (std::size_t q = 0; q < heads.size(); ++q) {
        if (heads[q] < 0 || heads[q] > pos[q])
            return false;
    }
    return true;
}

/**
 * Decide windowClean(shared_gates) for a candidate without building a
 * DAG. At the resume point, the depth of every prefix node
 * (circuitIndex < the snapshot's covered prefix P) is what it was at
 * capture — depths only read predecessors, all inside the prefix — and
 * each qubit's deepest live prefix depth is frozen in the snapshot's
 * chainTailDepth. Every later node's depth then follows the
 * longest-path recurrence along its operands' dependency chains, so
 * one forward sweep over lowered[P..) reproduces exactly the depths
 * the resumed DAG would report (clamping at the horizon commutes with
 * the recurrence). Fails the moment a node at or beyond shared_gates
 * lands inside the window; succeeds early once every chain tail has
 * sunk to the horizon, since depths only grow along a sweep.
 */
bool
suffixWindowClean(const Circuit &lowered, const ScheduleSnapshot &snap,
                  std::size_t shared_gates, std::vector<int> &cur)
{
    constexpr int horizon = DependencyDag::kDefaultWindowHorizon;
    cur.assign(snap.chainTailDepth.begin(), snap.chainTailDepth.end());
    int shallow = 0; // Qubits whose next gate could enter the window
                     // (-1, "next gate would be frontier", included).
    for (const int d : cur)
        shallow += d < horizon;
    for (std::size_t i = snap.loweredPrefixGates;
         i < lowered.size() && shallow > 0; ++i) {
        const Gate &g = lowered[i];
        if (!g.twoQubit())
            continue;
        const int da = cur[g.q0];
        const int db = cur[g.q1];
        const int m = std::max(da, db);
        const int d = m < 0 ? 0 : std::min(m + 1, horizon);
        if (d < horizon && i >= shared_gates)
            return false;
        shallow -= (da < horizon) + (db < horizon) - 2 * (d < horizon);
        cur[g.q0] = d;
        cur[g.q1] = d;
    }
    return true;
}

/**
 * Pick the longest candidate whose watermark fits the new circuit
 * (chainHeadsFit) and whose resume point the selection sweep proves
 * invisible to the new suffix (suffixWindowClean), or null when none
 * does. Builds no DAG: the chosen watermark seeds the one DAG of the
 * run.
 */
const ResumeCandidate *
pickCandidate(const Circuit &lowered, const Placement &initial,
              const DeltaRequest &delta, std::vector<int> &scratch)
{
    const std::vector<std::vector<int>> initial_chains =
        Schedule::snapshotChains(initial);
    for (auto it = delta.candidates.rbegin();
         it != delta.candidates.rend(); ++it) {
        if (it->snapshot != nullptr &&
            resumeShapeOk(lowered, initial_chains, *it) &&
            suffixWindowClean(lowered, *it->snapshot,
                              it->sharedLoweredGates, scratch) &&
            chainHeadsFit(lowered, it->snapshot->chainHeads,
                          it->sharedLoweredGates, scratch))
            return &*it;
    }
    return nullptr;
}

/**
 * Restore the captured pass state verbatim over a pass state built at
 * the snapshot's watermark. The frontier worklist needs nothing: built
 * on the watermark DAG it already queues the whole frontier, which the
 * capture point proved non-executable with nothing queued, so the
 * resumed run's first drain round executes nothing (same placement,
 * same DAG, same verdicts) and lands in the captured worklist state.
 */
void
resumeFromSnapshot(PassState &st, const ScheduleSnapshot &snap,
                   int &routing_steps)
{
    st.placement.restoreChains(snap.chains);
    st.schedule.ops = snap.schedule.ops;
    st.schedule.shuttleCount = snap.schedule.shuttleCount;
    st.schedule.ionSwapCount = snap.schedule.ionSwapCount;
    st.schedule.insertedSwapGates = snap.schedule.insertedSwapGates;
    st.lru.restore(snap.lruStamps, snap.lruClock);
    st.router.restoreCheckpoint(snap.router);
    st.nextUse.assign(snap.nextUse.begin(), snap.nextUse.end());
    routing_steps = snap.routingSteps;
}

/**
 * Capture the current pass state as a resumable checkpoint. Returns
 * false — capturing nothing — once the look-ahead window has reached
 * the circuit's last gate (`last_node_index`): from there on a
 * checkpoint's watermark covers the whole circuit, so it could only
 * ever resume an EXACT recompile, which the service's result cache
 * already serves without scheduling at all. The window only moves
 * forward, so the caller should stop capturing for the rest of the run.
 */
bool
captureSnapshot(const PassState &st, int last_node_index,
                int routing_steps, std::vector<ScheduleSnapshot> &out)
{
    ScheduleSnapshot snap;

    // Lowered-prefix watermark: everything this run has observed so far
    // is either retired or inside the look-ahead window (see the proof
    // comment above), so any circuit agreeing on gates [0, watermark)
    // can resume here. The retired gates are each chain's entries below
    // its head, in circuit order, so the last of them bounds the chain.
    const std::size_t qubits = st.nextUse.size();
    snap.chainHeads.resize(qubits);
    int max_index = windowMaxCircuitIndex(st.dag);
    for (std::size_t q = 0; q < qubits; ++q) {
        const int head = st.dag.qubitChainHead(static_cast<int>(q));
        snap.chainHeads[q] = head;
        if (head > 0) {
            const DagNodeId last =
                st.dag.qubitChain(static_cast<int>(q))[head - 1];
            max_index = std::max(max_index,
                                 st.dag.node(last).circuitIndex);
        }
    }
    if (max_index >= last_node_index)
        return false;
    snap.loweredPrefixGates = static_cast<std::size_t>(max_index + 1);

    // Seed of the selection sweep (suffixWindowClean): for each qubit,
    // the clamped depth of its deepest unfinished gate inside the
    // covered prefix. Chain entries are circuit-ordered and the
    // unfinished ones form the suffix from the chain head, so the
    // deepest live prefix gate is the last entry with circuitIndex
    // <= max_index — found by binary search — provided it is at or
    // past the head.
    const int horizon = st.dag.windowHorizon();
    snap.chainTailDepth.assign(qubits, -1);
    for (std::size_t q = 0; q < qubits; ++q) {
        const QubitChainView chain =
            st.dag.qubitChain(static_cast<int>(q));
        int lo = 0, hi = chain.size(); // First entry beyond max_index.
        while (lo < hi) {
            const int mid = lo + (hi - lo) / 2;
            if (st.dag.node(chain[mid]).circuitIndex <= max_index)
                lo = mid + 1;
            else
                hi = mid;
        }
        if (lo > snap.chainHeads[q])
            snap.chainTailDepth[q] =
                std::min(st.dag.windowDepth(chain[lo - 1]), horizon);
    }

    snap.schedule = st.schedule;
    snap.chains = Schedule::snapshotChains(st.placement);
    snap.lruStamps = st.lru.stamps();
    snap.lruClock = st.lru.now();
    st.router.saveCheckpoint(snap.router);
    snap.nextUse = st.nextUse;
    snap.routingSteps = routing_steps;
    out.push_back(std::move(snap));
    return true;
}

} // namespace

MusstiScheduler::RunOutput
MusstiScheduler::run(const Circuit &lowered, const Placement &initial,
                     const DeltaRequest *delta,
                     const JobControl *control) const
{
    MUSSTI_REQUIRE(initial.allPlaced(),
                   "initial mapping leaves qubits unplaced");

    thread_local SchedulerWorkspace ws;

    bool resumable = delta != nullptr && !delta->candidates.empty();
    // An injected resume fault degrades, never corrupts: the run falls
    // back to a cold compile of the whole circuit (bit-identical by the
    // delta contract). Consulted only when a resume was actually on the
    // table, so the site's visit counter tracks real resume attempts.
    if (resumable && FaultInjector::fires(FaultSite::SnapshotResume))
        resumable = false;
    const bool capture = delta != nullptr && delta->checkpointEvery > 0;

    const ResumeCandidate *resume =
        resumable ? pickCandidate(lowered, initial, *delta, ws.sweepScratch)
                  : nullptr;

    // Heap-held (not optional-held) so the cold fallback is a plain
    // reset, and because GCC's flow analysis mis-flags optional payload
    // reads here. The allocation sits outside the measured loop window.
    auto st = std::make_unique<PassState>(
        device_, params_, config_, lowered, initial, ws,
        resume != nullptr ? &resume->snapshot->chainHeads : nullptr);
    int routing_steps = 0;

    const ScheduleSnapshot *resumed = nullptr;
    if (resume != nullptr) {
        // The sweep selects; windowClean() on the real window state
        // remains the authoritative guard.
        if (windowClean(st->dag, resume->sharedLoweredGates)) {
            resumeFromSnapshot(*st, *resume->snapshot, routing_steps);
            resumed = resume->snapshot;
        } else {
            // The sweep over-promised: schedule from scratch.
            st.reset(); // Returns the scratch before the re-adopt.
            st = std::make_unique<PassState>(device_, params_, config_,
                                             lowered, initial, ws,
                                             nullptr);
        }
    }

    // A resumed run captures nothing: the resume itself proves the
    // snapshot store already covers the shared prefix, so new
    // checkpoints would either duplicate existing keys (the prefix
    // region) or sit inside the end-of-circuit window (exact-recompile
    // only — the result cache's job). Skipping also keeps the resumed
    // hot path allocation-free, the property the delta bench gates on.
    const bool capture_active = capture && resumed == nullptr;
    std::vector<ScheduleSnapshot> snapshots;
    int checkpoint_every = capture_active
                               ? std::max(1, delta->checkpointEvery)
                               : 0;
    std::uint64_t capture_allocs = 0;
    int next_capture_at = checkpoint_every;
    int last_node_index = -1;
    bool capture_open = capture_active;
    if (capture_active) {
        for (DagNodeId id = 0; id < st->dag.size(); ++id)
            last_node_index = std::max(last_node_index,
                                       st->dag.node(id).circuitIndex);
    }

    // Everything beyond this point is the steady-state hot path; the
    // delta of the (bench-instrumented) allocation counter proves it
    // performs no heap allocation once the arena is warm. Snapshot
    // capture inside the loop books its own allocations separately —
    // it copies state by design — so the counter still pins the
    // scheduling work itself.
    const std::uint64_t allocs_at_start = AllocCounter::now();

    // Cooperative deadline/cancellation: a countdown re-armed every
    // JobControl::kCheckEveryGates routing steps. The checkpoint itself
    // is relaxed atomic loads plus (deadline only) one clock read — it
    // allocates nothing unless it fires, so the loop stays steady-state
    // allocation-free under control.
    const int control_every =
        control != nullptr ? JobControl::kCheckEveryGates : 0;
    int control_countdown = control_every;

    while (!st->dag.empty()) {
        // Gate selection, phase 1: drain every immediately executable
        // frontier gate ("prioritize executable gates"). The worklist
        // (core/frontier_worklist.h) visits exactly the candidates whose
        // executability may have changed, in the historical re-scan
        // order.
        st->worklist.drain([&](DagNodeId id) {
            if (executable(*st, st->dag.node(id).gate))
                executeGate(*st, config_, id);
        });
        if (st->dag.empty())
            break;

        if (control_every > 0 && --control_countdown <= 0) {
            control_countdown = control_every;
            control->checkpoint();
        }

        // Between the drain and phase 2 is the one point a checkpoint
        // is resumable from: the worklist is empty and every frontier
        // gate is proven non-executable, so a resumed run's first drain
        // round is a bit-identical no-op.
        if (capture_open) {
            const int retired_count = st->dag.size() -
                                      st->dag.remaining();
            if (retired_count >= next_capture_at) {
                const std::uint64_t before = AllocCounter::now();
                if (FaultInjector::fires(FaultSite::SnapshotCapture)) {
                    // An injected capture fault drops every checkpoint
                    // of this run and stops capturing: the job itself
                    // still succeeds, the snapshot tier just learns
                    // nothing from it.
                    snapshots.clear();
                    capture_open = false;
                } else
                if (captureSnapshot(*st, last_node_index, routing_steps,
                                    snapshots)) {
                    if (static_cast<int>(snapshots.size()) >
                        kMaxSnapshots) {
                        // Thin: drop every other checkpoint and double
                        // the cadence, keeping an even spread at
                        // bounded count.
                        std::size_t kept = 0;
                        for (std::size_t i = 1; i < snapshots.size();
                             i += 2)
                            snapshots[kept++] = std::move(snapshots[i]);
                        snapshots.resize(kept);
                        checkpoint_every *= 2;
                    }
                    next_capture_at = retired_count + checkpoint_every;
                } else {
                    capture_open = false; // Window reached the end.
                }
                capture_allocs += AllocCounter::now() - before;
            }
        }

        // Phase 2: first-come-first-served on the frontier; route its
        // operands, then execute. Eviction decisions see the current
        // look-ahead window.
        const DagNodeId chosen = st->dag.frontier().front();
        const Gate &gate = st->dag.node(chosen).gate;
        st->snapshotNextUse();
        st->router.routeForGate(gate.q0, gate.q1);
        executeGate(*st, config_, chosen);
        ++routing_steps;
    }

    for (const Gate &g1 : st->dag.trailing1q())
        emit1q(*st, g1);

    const std::uint64_t loop_allocs =
        AllocCounter::now() - allocs_at_start - capture_allocs;

    // Hand the reusable buffers back so the next run on this thread
    // (the SABRE reverse/refine legs, the next compile) starts pre-sized.
    ws.opReserveHint = std::max(ws.opReserveHint, st->schedule.ops.size());
    ws.nextUseScratch = std::move(st->nextUse);

    RunOutput out(std::move(st->placement));
    out.schedule = std::move(st->schedule);
    out.swapInsertions = out.schedule.insertedSwapGates;
    out.evictions = st->router.evictionCount();
    out.routingSteps = routing_steps;
    out.windowVisits = st->dag.windowVisits();
    out.loopHeapAllocs = loop_allocs;
    out.snapshots = std::move(snapshots);
    out.resumedFrom = resumed;
    return out;
}

} // namespace mussti
