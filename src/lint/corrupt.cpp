#include "lint/corrupt.h"

#include <algorithm>
#include <utility>

#include "arch/target_device.h"
#include "common/logging.h"
#include "lint/schedule_linter.h"

namespace mussti {

namespace {

/**
 * Zone membership after replaying a VALID schedule to its end: where
 * every qubit rests, and how many ions each zone holds. The appending
 * corruptions build on this so their planted ops are legal right up to
 * the intended violation.
 */
struct FinalState
{
    std::vector<int> zoneOf;    ///< Per qubit; -1 never happens (valid).
    std::vector<int> zoneCount; ///< Per zone.
};

FinalState
replayToEnd(const Schedule &schedule, const Circuit &circuit,
            const TargetDevice &device)
{
    FinalState st;
    st.zoneOf.assign(circuit.numQubits(), -1);
    st.zoneCount.assign(device.numZones(), 0);
    for (std::size_t z = 0; z < schedule.initialChains.size(); ++z) {
        for (int q : schedule.initialChains[z]) {
            st.zoneOf[q] = static_cast<int>(z);
            ++st.zoneCount[z];
        }
    }
    int run = 0, a = -1, b = -1;
    for (const ScheduledOp &op : schedule.ops) {
        if (op.isGate() && op.inserted) {
            if (run == 0) {
                a = std::min(op.q0, op.q1);
                b = std::max(op.q0, op.q1);
            }
            if (++run == 3) {
                std::swap(st.zoneOf[a], st.zoneOf[b]);
                run = 0;
            }
            continue;
        }
        if (op.kind == OpKind::Split) {
            --st.zoneCount[st.zoneOf[op.q0]];
            st.zoneOf[op.q0] = -1;
        } else if (op.kind == OpKind::Merge) {
            st.zoneOf[op.q0] = op.zoneTo;
            ++st.zoneCount[op.zoneTo];
        }
    }
    return st;
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
 * until a merge overflows its trap. Every planted op is individually
 * well-formed; only the final merge breaks an invariant.
 */
bool
corruptCapacity(Schedule &schedule, const Circuit &circuit,
                const TargetDevice &device)
{
    FinalState st = replayToEnd(schedule, circuit, device);
    for (int target = 0; target < device.numZones(); ++target) {
        int need = device.zone(target).capacity + 1 -
                   st.zoneCount[target];
        if (need < 1)
            continue;
        std::vector<int> donors;
        for (int q = 0; q < circuit.numQubits(); ++q) {
            const int from = st.zoneOf[q];
            if (from != target && device.hopDistance(from, target) >= 0)
                donors.push_back(q);
        }
        if (static_cast<int>(donors.size()) < need)
            continue;
        for (int k = 0; k < need; ++k)
            appendRelocation(schedule, donors[k], st.zoneOf[donors[k]],
                             target);
        return true;
    }
    return false;
}

/**
 * sch.shuttle — interleave two shuttle windows. Each ion merges back
 * into its own zone (a zero-hop relocation), so nothing else changes:
 * the only violation is the second split inside an open window.
 */
bool
corruptShuttle(Schedule &schedule, const Circuit &circuit,
               const TargetDevice &device)
{
    if (circuit.numQubits() < 2)
        return false;
    const FinalState st = replayToEnd(schedule, circuit, device);
    const int qa = 0, qb = 1;
    const int za = st.zoneOf[qa], zb = st.zoneOf[qb];
    schedule.push(makeOp(OpKind::Split, qa, za, -1));
    schedule.push(makeOp(OpKind::Split, qb, zb, -1));
    schedule.push(makeOp(OpKind::Move, qa, za, za));
    schedule.push(makeOp(OpKind::Merge, qa, -1, za));
    schedule.push(makeOp(OpKind::Move, qb, zb, zb));
    schedule.push(makeOp(OpKind::Merge, qb, -1, zb));
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
 * are not. Residency itself stays legal, so only the field-mismatch
 * check (the validator's "zone field mismatch") fires.
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
    const FinalState st = replayToEnd(schedule, circuit, device);
    for (int z = 0; z < device.numZones(); ++z) {
        if (!device.gateCapable(z) || st.zoneCount[z] < 2)
            continue;
        int qa = -1, qb = -1;
        for (int q = 0; q < circuit.numQubits(); ++q) {
            if (st.zoneOf[q] != z)
                continue;
            if (qa < 0)
                qa = q;
            else {
                qb = q;
                break;
            }
        }
        if (qb < 0)
            continue;
        for (int k = 0; k < 2; ++k) {
            ScheduledOp op = makeOp(OpKind::Gate2Q, qa, z, -1);
            op.q1 = qb;
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
