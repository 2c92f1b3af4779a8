#include "lint/corrupt.h"

#include <utility>

#include "arch/target_device.h"
#include "common/logging.h"
#include "lint/schedule_linter.h"

namespace mussti {

namespace {

/**
 * The chains after a VALID schedule's last op, as the linter's own
 * replay exports them. The appending corruptions build on this so their
 * planted ops are legal right up to the intended violation.
 */
ScheduleLintState
finalState(const Schedule &schedule, const Circuit &circuit,
           const TargetDevice &device)
{
    const LintMark end{schedule.ops.size(), circuit.size()};
    return std::move(ScheduleLinter(device)
                         .lintFrom(schedule, circuit, nullptr, {end})
                         .states[0]);
}

ScheduledOp
makeOp(OpKind kind, int q0, int zone_from, int zone_to)
{
    ScheduledOp op;
    op.kind = kind;
    op.q0 = q0;
    op.zoneFrom = zone_from;
    op.zoneTo = zone_to;
    op.durationUs = 1.0;
    return op;
}

/** Append a full Split/Move/Merge relocation of q (legal on its own). */
void
appendRelocation(Schedule &schedule, int q, int from, int to)
{
    schedule.push(makeOp(OpKind::Split, q, from, -1));
    schedule.push(makeOp(OpKind::Move, q, from, to));
    schedule.push(makeOp(OpKind::Merge, q, -1, to));
}

/**
 * sch.dep-order — swap two stream-adjacent, dependent gate ops. Being
 * adjacent, no placement state changes between them, so the swap is
 * invisible to every walk except the DAG-order analysis.
 */
bool
corruptDepOrder(Schedule &schedule)
{
    for (std::size_t i = 0; i + 1 < schedule.ops.size(); ++i) {
        const ScheduledOp x = schedule.ops[i];
        const ScheduledOp y = schedule.ops[i + 1];
        if (x.isGate() && y.isGate() && !x.inserted && !y.inserted &&
            x.kind != OpKind::Gate1Q && y.kind != OpKind::Gate1Q &&
            (y.q0 == x.q0 || y.q0 == x.q1 || y.q1 == x.q0 ||
             y.q1 == x.q1)) {
            schedule.ops.set(i, y);
            schedule.ops.set(i + 1, x);
            return true;
        }
    }
    return false;
}

/** sch.coverage — duplicate a circuit gate op immediately after itself. */
bool
corruptCoverage(Schedule &schedule)
{
    for (std::size_t i = 0; i < schedule.ops.size(); ++i) {
        const ScheduledOp op = schedule.ops[i];
        if (op.isGate() && !op.inserted && op.kind != OpKind::Gate1Q) {
            schedule.ops.insert(i, op);
            return true;
        }
    }
    return false;
}

/**
 * sch.capacity — append legal relocations that pack ions into one zone
 * until a merge overflows its trap. Each donor splits off the back edge
 * of its chain; every planted op is individually well-formed, and only
 * the final merge breaks an invariant.
 */
bool
corruptCapacity(Schedule &schedule, const Circuit &circuit,
                const TargetDevice &device)
{
    const ScheduleLintState st = finalState(schedule, circuit, device);
    for (int target = 0; target < device.numZones(); ++target) {
        const std::size_t need = device.zone(target).capacity + 1 -
                                 st.chains[target].size();
        std::vector<std::pair<int, int>> donors; // (qubit, zone)
        for (int z = 0; z < device.numZones(); ++z) {
            if (z == target || device.hopDistance(z, target) < 0)
                continue;
            for (auto it = st.chains[z].rbegin();
                 it != st.chains[z].rend() && donors.size() < need; ++it)
                donors.emplace_back(*it, z);
        }
        if (donors.size() < need)
            continue;
        for (const auto &[q, from] : donors)
            appendRelocation(schedule, q, from, target);
        return true;
    }
    return false;
}

/**
 * sch.shuttle — interleave two shuttle windows of chain-edge ions.
 * Each ion merges back into the edge it left (a zero-hop relocation),
 * so nothing else changes: the only violation is the second split
 * inside an open window.
 */
bool
corruptShuttle(Schedule &schedule, const Circuit &circuit,
               const TargetDevice &device)
{
    struct Edge
    {
        int qubit, zone;
        bool front;
    };
    const ScheduleLintState st = finalState(schedule, circuit, device);
    std::vector<Edge> edges;
    for (int z = 0; z < device.numZones() && edges.size() < 2; ++z) {
        const std::vector<int> &chain = st.chains[z];
        if (!chain.empty())
            edges.push_back({chain.front(), z, true});
        if (chain.size() >= 2)
            edges.push_back({chain.back(), z, false});
    }
    if (edges.size() < 2)
        return false;
    const auto merge = [](const Edge &e) {
        ScheduledOp op = makeOp(OpKind::Merge, e.qubit, -1, e.zone);
        op.enterFront = e.front;
        return op;
    };
    const Edge &a = edges[0], &b = edges[1];
    schedule.push(makeOp(OpKind::Split, a.qubit, a.zone, -1));
    schedule.push(makeOp(OpKind::Split, b.qubit, b.zone, -1));
    schedule.push(makeOp(OpKind::Move, a.qubit, a.zone, a.zone));
    schedule.push(merge(a));
    schedule.push(makeOp(OpKind::Move, b.qubit, b.zone, b.zone));
    schedule.push(merge(b));
    return true;
}

/**
 * sch.placement — also list an already-placed qubit in a second zone's
 * initial chain. The duplicate is appended to a LATER zone with spare
 * capacity, so the linter's first-seen-wins recovery keeps every
 * count and residence exactly as the valid schedule had them.
 */
bool
corruptPlacement(Schedule &schedule, const TargetDevice &device)
{
    for (std::size_t z = 0; z < schedule.initialChains.size(); ++z) {
        if (schedule.initialChains[z].empty())
            continue;
        const int q = schedule.initialChains[z].front();
        for (std::size_t t = z + 1; t < schedule.initialChains.size();
             ++t) {
            if (static_cast<int>(schedule.initialChains[t].size()) <
                device.zone(static_cast<int>(t)).capacity) {
                schedule.initialChains[t].push_back(q);
                return true;
            }
        }
    }
    return false;
}

/**
 * sch.zone — rewrite one gate op's zone field to somewhere the qubits
 * are not. Residency itself stays legal, so only the check that a
 * gate claims the zone its qubits are resident in fires.
 */
bool
corruptZone(Schedule &schedule, const TargetDevice &device)
{
    for (std::size_t i = 0; i < schedule.ops.size(); ++i) {
        ScheduledOp op = schedule.ops[i];
        if (op.kind != OpKind::Gate2Q)
            continue;
        // Prefer a gate-incapable zone (the paper's storage traps);
        // any zone other than the true one exposes the mismatch.
        int replacement = -1;
        for (int z = 0; z < device.numZones(); ++z) {
            if (z == op.zoneFrom)
                continue;
            if (!device.gateCapable(z)) {
                replacement = z;
                break;
            }
            if (replacement < 0)
                replacement = z;
        }
        if (replacement < 0)
            return false;
        op.zoneFrom = replacement;
        schedule.ops.set(i, op);
        return true;
    }
    return false;
}

/**
 * sch.swap-triple — append two inserted SWAP gates on a co-resident
 * pair and end the schedule there: a run cut off before its third
 * gate. The gates themselves are legally placed, so nothing else
 * fires.
 */
bool
corruptSwapTriple(Schedule &schedule, const Circuit &circuit,
                  const TargetDevice &device)
{
    const ScheduleLintState st = finalState(schedule, circuit, device);
    for (int z = 0; z < device.numZones(); ++z) {
        const std::vector<int> &chain = st.chains[z];
        if (!device.gateCapable(z) || chain.size() < 2)
            continue;
        for (int k = 0; k < 2; ++k) {
            ScheduledOp op = makeOp(OpKind::Gate2Q, chain[0], z, -1);
            op.q1 = chain[1];
            op.inserted = true;
            schedule.push(op);
        }
        return true;
    }
    return false;
}

} // namespace

std::vector<std::string>
corruptibleRules()
{
    return {lint_rules::kDepOrder, lint_rules::kCoverage,
            lint_rules::kCapacity, lint_rules::kZone,
            lint_rules::kShuttle,  lint_rules::kPlacement,
            lint_rules::kSwapTriple};
}

bool
corruptSchedule(Schedule &schedule, const Circuit &circuit,
                const TargetDevice &device, const std::string &rule)
{
    if (rule == lint_rules::kDepOrder)
        return corruptDepOrder(schedule);
    if (rule == lint_rules::kCoverage)
        return corruptCoverage(schedule);
    if (rule == lint_rules::kCapacity)
        return corruptCapacity(schedule, circuit, device);
    if (rule == lint_rules::kShuttle)
        return corruptShuttle(schedule, circuit, device);
    if (rule == lint_rules::kPlacement)
        return corruptPlacement(schedule, device);
    if (rule == lint_rules::kZone)
        return corruptZone(schedule, device);
    if (rule == lint_rules::kSwapTriple)
        return corruptSwapTriple(schedule, circuit, device);
    panic("unknown corruption rule: " + rule);
    return false;
}

} // namespace mussti
