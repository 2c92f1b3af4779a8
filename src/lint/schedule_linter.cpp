#include "lint/schedule_linter.h"

#include <algorithm>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "arch/target_device.h"
#include "common/hash.h"
#include "common/logging.h"

namespace mussti {

namespace {

/**
 * Report collector with a per-rule finding cap: a thoroughly corrupt
 * artifact reports its first kMaxFindingsPerRule violations per rule
 * plus one truncation note, never unbounded output.
 */
class RuleSink
{
  public:
    void
    add(const char *rule, const std::string &location,
        const std::string &message,
        LintSeverity severity = LintSeverity::Error)
    {
        const int count = ++counts_[rule];
        if (count <= ScheduleLinter::kMaxFindingsPerRule)
            report_.add(rule, severity, location, message);
    }

    LintReport
    take()
    {
        for (const auto &[rule, count] : counts_) {
            if (count > ScheduleLinter::kMaxFindingsPerRule)
                report_.add("lint.truncated", LintSeverity::Info, "",
                            std::to_string(count -
                                           ScheduleLinter::
                                               kMaxFindingsPerRule) +
                                " further finding(s) of rule " + rule +
                                " suppressed");
        }
        return std::move(report_);
    }

  private:
    LintReport report_;
    std::map<std::string, int> counts_;
};

std::string
opLocation(std::size_t index, const ScheduledOp &op)
{
    std::ostringstream out;
    out << "op " << index << " (" << op.describe() << ")";
    return out.str();
}

/** Message builder shorthand. */
std::string
msg(const std::ostringstream &out)
{
    return out.str();
}

/** Where a mark's finding is reported. */
std::string
markLocation(const LintMark &mark)
{
    return "checkpoint at op " + std::to_string(mark.ops);
}

/** The digest ScheduleLintState::initialChainsDigest holds. */
std::uint64_t
chainsDigest(const std::vector<std::vector<int>> &chains)
{
    Fnv1a hash;
    for (const auto &chain : chains) {
        hash.update(static_cast<std::uint64_t>(chain.size()));
        for (const int q : chain)
            hash.update(q);
    }
    return hash.digest();
}

/**
 * Per-op operand validity of ops [begin, end): ids the op's kind reads
 * must be in range. Ops failing this are reported once (sch.placement)
 * and excluded from the stateful walks, which index by these ids.
 * Entry i - begin describes op i.
 */
std::vector<char>
checkFieldSanity(const Schedule &schedule, std::size_t begin,
                 int num_qubits, int num_zones, RuleSink &sink)
{
    std::vector<char> valid(schedule.ops.size() - begin, 1);
    const auto qubit_ok = [&](int q) { return q >= 0 && q < num_qubits; };
    const auto zone_ok = [&](int z) { return z >= 0 && z < num_zones; };

    for (std::size_t i = begin; i < schedule.ops.size(); ++i) {
        const ScheduledOp &op = schedule.ops[i];
        bool ok = qubit_ok(op.q0);
        switch (op.kind) {
          case OpKind::Split:
            ok = ok && zone_ok(op.zoneFrom);
            break;
          case OpKind::Move:
            ok = ok && zone_ok(op.zoneFrom) && zone_ok(op.zoneTo);
            break;
          case OpKind::Merge:
            ok = ok && zone_ok(op.zoneTo);
            break;
          case OpKind::IonSwap:
            ok = ok && qubit_ok(op.q1);
            break;
          case OpKind::Gate1Q:
            break;
          case OpKind::Gate2Q:
            ok = ok && qubit_ok(op.q1) && zone_ok(op.zoneFrom);
            break;
          case OpKind::FiberGate:
            ok = ok && qubit_ok(op.q1) && zone_ok(op.zoneFrom) &&
                 zone_ok(op.zoneTo);
            break;
        }
        if (!ok) {
            valid[i - begin] = 0;
            std::ostringstream out;
            out << "op references a qubit or zone outside the device "
                << "(" << num_qubits << " qubits, " << num_zones
                << " zones)";
            sink.add(lint_rules::kPlacement, opLocation(i, op), msg(out));
        }
    }
    return valid;
}

/**
 * Walk 1 — shuttle exclusivity. A relocation is the contiguous window
 * Split -> Move -> Merge of one ion; windows on the shuttle fabric are
 * serialized, so a second Split (or any gate/ion-swap) inside an open
 * window overlaps two windows. Tracking tolerates multiple open
 * windows after a violation so one overlap reports once, not per
 * continuation op. Walks ops [begin, end), with no window open at
 * `begin` and none allowed at a mark.
 */
void
lintShuttleDiscipline(const Schedule &schedule, std::size_t begin,
                      const std::vector<char> &valid,
                      const std::vector<LintMark> &marks,
                      const TargetDevice &device, RuleSink &sink)
{
    enum class Stage { Split, Moved };
    struct Window
    {
        int qubit;
        Stage stage;
        int moveTarget = -1;
    };
    std::vector<Window> open;
    const auto find = [&](int q) {
        return std::find_if(open.begin(), open.end(),
                            [q](const Window &w) { return w.qubit == q; });
    };

    std::size_t mark = 0;
    for (std::size_t i = begin;; ++i) {
        for (; mark < marks.size() && marks[mark].ops == i; ++mark) {
            if (!open.empty()) {
                std::ostringstream out;
                out << "checkpoint inside the open shuttle window of q"
                    << open.front().qubit;
                sink.add(lint_rules::kShuttle, markLocation(marks[mark]),
                         msg(out));
            }
        }
        if (i == schedule.ops.size())
            break;
        if (!valid[i - begin])
            continue;
        const ScheduledOp &op = schedule.ops[i];
        switch (op.kind) {
          case OpKind::Split: {
            if (find(op.q0) != open.end()) {
                std::ostringstream out;
                out << "second split of q" << op.q0
                    << " inside its own open shuttle window";
                sink.add(lint_rules::kShuttle, opLocation(i, op),
                         msg(out));
            } else {
                if (!open.empty()) {
                    std::ostringstream out;
                    out << "split of q" << op.q0
                        << " while the shuttle window of q"
                        << open.front().qubit
                        << " is still open — overlapping shuttles";
                    sink.add(lint_rules::kShuttle, opLocation(i, op),
                             msg(out));
                }
                open.push_back({op.q0, Stage::Split, -1});
            }
            break;
          }
          case OpKind::Move: {
            const auto it = find(op.q0);
            if (it == open.end() || it->stage != Stage::Split) {
                std::ostringstream out;
                out << "move of q" << op.q0
                    << " without a preceding split";
                sink.add(lint_rules::kShuttle, opLocation(i, op),
                         msg(out));
            } else {
                it->stage = Stage::Moved;
                it->moveTarget = op.zoneTo;
            }
            if (device.hopDistance(op.zoneFrom, op.zoneTo) < 0) {
                std::ostringstream out;
                out << "no shuttle path connects z" << op.zoneFrom
                    << " and z" << op.zoneTo
                    << " (cross-module relocation?)";
                sink.add(lint_rules::kShuttle, opLocation(i, op),
                         msg(out));
            }
            break;
          }
          case OpKind::Merge: {
            const auto it = find(op.q0);
            if (it == open.end() || it->stage != Stage::Moved) {
                std::ostringstream out;
                out << "merge of q" << op.q0
                    << " without a matching move";
                sink.add(lint_rules::kShuttle, opLocation(i, op),
                         msg(out));
                if (it != open.end())
                    open.erase(it);
            } else {
                if (it->moveTarget != op.zoneTo) {
                    std::ostringstream out;
                    out << "merge lands in z" << op.zoneTo
                        << " but the move targeted z" << it->moveTarget;
                    sink.add(lint_rules::kShuttle, opLocation(i, op),
                             msg(out));
                }
                open.erase(it);
            }
            break;
          }
          case OpKind::IonSwap:
          case OpKind::Gate1Q:
          case OpKind::Gate2Q:
          case OpKind::FiberGate: {
            if (!open.empty()) {
                std::ostringstream out;
                out << opKindName(op.kind)
                    << " interleaved into the open shuttle window of q"
                    << open.front().qubit;
                sink.add(lint_rules::kShuttle, opLocation(i, op),
                         msg(out));
            }
            break;
          }
        }
    }

    for (const Window &w : open) {
        std::ostringstream out;
        out << "schedule ends with q" << w.qubit << " still in flight";
        sink.add(lint_rules::kShuttle, "end of schedule", msg(out));
    }
}

/**
 * Walk 2 — placement, capacity, and gate-zone legality, by replaying
 * zone membership (an occupancy set per zone, not the ordered chain:
 * chain-order legality is the validator's P1; the linter's placement
 * rule is "no qubit in two places / ops act where the ion is").
 *
 * Every violation applies a local recovery (trust the op over the
 * derived state) so one corruption does not cascade into findings of
 * unrelated rules downstream.
 *
 * Walks ops [begin, end): from the initial chains when `from` is null,
 * else from the membership `from` carries, whose initial chains the
 * schedule's must be. Exports membership at every mark, where no
 * inserted-SWAP triple may be half done.
 */
void
lintPlacementReplay(const Schedule &schedule, std::size_t begin,
                    const std::vector<char> &valid, const Circuit &circuit,
                    const TargetDevice &device,
                    const ScheduleLintState *from,
                    const std::vector<LintMark> &marks,
                    std::vector<ScheduleLintState> &states, RuleSink &sink)
{
    const int num_qubits = circuit.numQubits();
    std::vector<int> zone_of(num_qubits, -1);
    std::vector<int> zone_count(device.numZones(), 0);

    if (from != nullptr) {
        if (from->initialChainsDigest !=
            chainsDigest(schedule.initialChains))
            sink.add(lint_rules::kPlacement, "initial placement",
                     "the schedule's initial placement is not the one "
                     "its checkpoint was linted under");
        // Recovery: trust the checkpoint's membership.
        if (from->zoneOf.size() == zone_of.size() &&
            from->zoneCount.size() == zone_count.size()) {
            zone_of = from->zoneOf;
            zone_count = from->zoneCount;
        } else {
            sink.add(lint_rules::kPlacement, "initial placement",
                     "checkpoint state is for a different qubit or zone "
                     "count");
        }
    }

    // Initial placement: each qubit exactly once, within capacity.
    for (std::size_t z = 0;
         from == nullptr && z < schedule.initialChains.size(); ++z) {
        const int zi = static_cast<int>(z);
        for (int q : schedule.initialChains[z]) {
            if (q < 0 || q >= num_qubits) {
                std::ostringstream out;
                out << "initial chain of z" << zi
                    << " names qubit " << q << " outside the circuit's "
                    << num_qubits << " qubits";
                sink.add(lint_rules::kPlacement, "initial placement",
                         msg(out));
                continue;
            }
            if (zone_of[q] >= 0) {
                std::ostringstream out;
                out << "q" << q << " placed in both z" << zone_of[q]
                    << " and z" << zi
                    << " — a qubit cannot be in two places at once";
                sink.add(lint_rules::kPlacement, "initial placement",
                         msg(out));
                continue; // Keep the first residence.
            }
            zone_of[q] = zi;
            ++zone_count[zi];
        }
        if (zone_count[zi] > device.zone(zi).capacity) {
            std::ostringstream out;
            out << "initial chain holds " << zone_count[zi]
                << " ions but z" << zi << " has capacity "
                << device.zone(zi).capacity;
            sink.add(lint_rules::kCapacity, "initial placement",
                     msg(out));
        }
    }
    for (int q = 0; from == nullptr && q < num_qubits; ++q) {
        if (zone_of[q] < 0) {
            std::ostringstream out;
            out << "q" << q << " is never placed on the device";
            sink.add(lint_rules::kPlacement, "initial placement",
                     msg(out));
        }
    }

    // Inserted-SWAP run tracking (validator P5): after a clean triple
    // the two logical qubits exchange physical positions.
    int inserted_run = 0;
    int inserted_a = -1, inserted_b = -1;

    std::size_t mark = 0;
    for (std::size_t i = begin;; ++i) {
        for (; mark < marks.size() && marks[mark].ops == i; ++mark) {
            if (inserted_run != 0)
                sink.add(lint_rules::kSwapTriple, markLocation(marks[mark]),
                         "checkpoint inside an inserted-SWAP triple");
            states[mark].zoneOf = zone_of;
            states[mark].zoneCount = zone_count;
        }
        if (i == schedule.ops.size())
            break;
        if (!valid[i - begin])
            continue;
        const ScheduledOp &op = schedule.ops[i];
        // Deferred: formatting every op's location costs more than the
        // whole replay on a clean schedule; build it only on a finding.
        const auto where = [&] { return opLocation(i, op); };

        if (op.isGate() && op.inserted) {
            const int lo = std::min(op.q0, op.q1);
            const int hi = std::max(op.q0, op.q1);
            if (inserted_run == 0) {
                inserted_a = lo;
                inserted_b = hi;
            } else if (lo != inserted_a || hi != inserted_b) {
                sink.add(lint_rules::kSwapTriple, where(),
                         "inserted SWAP gates interleaved across qubit "
                         "pairs");
                inserted_a = lo;
                inserted_b = hi;
                inserted_run = 0;
            }
            ++inserted_run;
        } else if (op.isGate() && inserted_run != 0) {
            sink.add(lint_rules::kSwapTriple, where(),
                     "inserted SWAP run interrupted before its 3rd "
                     "gate");
            inserted_run = 0;
        }

        switch (op.kind) {
          case OpKind::Split: {
            if (zone_of[op.q0] < 0) {
                std::ostringstream out;
                out << "split of q" << op.q0
                    << ", which is not resident anywhere";
                sink.add(lint_rules::kPlacement, where(), msg(out));
                break;
            }
            if (zone_of[op.q0] != op.zoneFrom) {
                std::ostringstream out;
                out << "q" << op.q0 << " is resident in z"
                    << zone_of[op.q0] << " but the split claims z"
                    << op.zoneFrom;
                sink.add(lint_rules::kPlacement, where(), msg(out));
            }
            --zone_count[zone_of[op.q0]];
            zone_of[op.q0] = -1;
            break;
          }
          case OpKind::Move:
            break; // In flight; walk 1 owns the discipline.
          case OpKind::Merge: {
            if (zone_of[op.q0] >= 0) {
                std::ostringstream out;
                out << "merge of q" << op.q0
                    << " which is already resident in z"
                    << zone_of[op.q0]
                    << " — a qubit cannot be in two places at once";
                sink.add(lint_rules::kPlacement, where(), msg(out));
                --zone_count[zone_of[op.q0]];
            }
            if (zone_count[op.zoneTo] + 1 >
                device.zone(op.zoneTo).capacity) {
                std::ostringstream out;
                out << "merge overfills z" << op.zoneTo << ": "
                    << zone_count[op.zoneTo] + 1
                    << " ions against capacity "
                    << device.zone(op.zoneTo).capacity;
                sink.add(lint_rules::kCapacity, where(), msg(out));
            }
            zone_of[op.q0] = op.zoneTo;
            ++zone_count[op.zoneTo];
            break;
          }
          case OpKind::IonSwap: {
            if (zone_of[op.q0] < 0 ||
                zone_of[op.q0] != zone_of[op.q1]) {
                std::ostringstream out;
                out << "ion swap of q" << op.q0 << " and q" << op.q1
                    << ", which are not co-resident";
                sink.add(lint_rules::kPlacement, where(), msg(out));
            }
            break; // Membership is order-free; nothing changes.
          }
          case OpKind::Gate1Q: {
            if (zone_of[op.q0] < 0) {
                std::ostringstream out;
                out << "1q gate on q" << op.q0
                    << ", which is not resident anywhere";
                sink.add(lint_rules::kZone, where(), msg(out));
            }
            break;
          }
          case OpKind::Gate2Q: {
            const int za = zone_of[op.q0];
            const int zb = zone_of[op.q1];
            if (za < 0 || zb < 0) {
                std::ostringstream out;
                out << "2q gate on unplaced qubit q"
                    << (za < 0 ? op.q0 : op.q1);
                sink.add(lint_rules::kZone, where(), msg(out));
                break;
            }
            if (za != zb) {
                std::ostringstream out;
                out << "2q gate needs co-resident qubits, but q" << op.q0
                    << " is in z" << za << " and q" << op.q1 << " in z"
                    << zb;
                sink.add(lint_rules::kZone, where(), msg(out));
                break;
            }
            if (!device.gateCapable(za)) {
                std::ostringstream out;
                out << "2q gate fired in z" << za << " ("
                    << zoneKindName(device.kindOf(za))
                    << "), which cannot execute gates";
                sink.add(lint_rules::kZone, where(), msg(out));
            }
            if (op.zoneFrom != za) {
                std::ostringstream out;
                out << "2q gate claims z" << op.zoneFrom
                    << " but both qubits are resident in z" << za;
                sink.add(lint_rules::kZone, where(), msg(out));
            }
            break;
          }
          case OpKind::FiberGate: {
            const int za = zone_of[op.q0];
            const int zb = zone_of[op.q1];
            if (za < 0 || zb < 0) {
                std::ostringstream out;
                out << "fiber gate on unplaced qubit q"
                    << (za < 0 ? op.q0 : op.q1);
                sink.add(lint_rules::kZone, where(), msg(out));
                break;
            }
            if (device.kindOf(za) != ZoneKind::Optical ||
                device.kindOf(zb) != ZoneKind::Optical ||
                device.moduleOf(za) == device.moduleOf(zb)) {
                std::ostringstream out;
                out << "fiber gate must couple optical zones of "
                    << "distinct modules, got z" << za << " ("
                    << zoneKindName(device.kindOf(za)) << ", m"
                    << device.moduleOf(za) << ") and z" << zb << " ("
                    << zoneKindName(device.kindOf(zb)) << ", m"
                    << device.moduleOf(zb) << ")";
                sink.add(lint_rules::kZone, where(), msg(out));
            } else if (op.zoneFrom != za || op.zoneTo != zb) {
                std::ostringstream out;
                out << "fiber gate claims z" << op.zoneFrom << "->z"
                    << op.zoneTo << " but the qubits are resident in z"
                    << za << " and z" << zb;
                sink.add(lint_rules::kZone, where(), msg(out));
            }
            break;
          }
        }

        // A completed triple exchanges the two logical qubits'
        // physical positions (occupancy counts are unchanged).
        if (inserted_run == 3) {
            std::swap(zone_of[inserted_a], zone_of[inserted_b]);
            inserted_run = 0;
            inserted_a = inserted_b = -1;
        }
    }

    if (inserted_run != 0)
        sink.add(lint_rules::kSwapTriple, "end of schedule",
                 "schedule ends mid inserted-SWAP triple");
}

/**
 * Walk 3 — dependency order and coverage, against the circuit's
 * dependency DAG: a node is a two-qubit gate of the circuit, and its
 * predecessors are the previous two-qubit gate on each operand.
 * Position-based (no destructive DAG replay): a gate op violates
 * dep-order iff some predecessor's op appears LATER in the stream; a
 * predecessor with no op at all is a coverage hole, not a dep
 * violation — so each corruption class fires exactly its own rule.
 *
 * Resumed from `from`, the nodes are its pending gates plus every
 * two-qubit gate from its watermark on, and a gate below the watermark
 * that is not pending was executed before `begin`: the walk reads only
 * the circuit's suffix and the ops from `begin`.
 */
void
lintDagOrder(const Schedule &schedule, std::size_t begin,
             const std::vector<char> &valid, const Circuit &circuit,
             const ScheduleLintState *from,
             const std::vector<LintMark> &marks,
             std::vector<ScheduleLintState> &states, RuleSink &sink)
{
    const std::size_t watermark = from != nullptr ? from->circuitGates : 0;
    std::vector<LintDepGate> nodes;
    std::vector<int> last_on(static_cast<std::size_t>(circuit.numQubits()),
                             -1);
    if (from != nullptr) {
        nodes = from->pending;
        if (from->lastTwoQubit.size() == last_on.size())
            last_on = from->lastTwoQubit;
        else
            sink.add(lint_rules::kCoverage, "whole schedule",
                     "checkpoint state is for a different qubit count");
    }
    // Node id by circuit index, from the first gate not executed before
    // `begin` on; a gate below it, or a retired one above it, has none.
    const std::size_t low =
        nodes.empty() ? watermark
                      : static_cast<std::size_t>(nodes.front().circuitIndex);
    std::vector<int> by_circuit_index(circuit.size() - low, -1);
    for (std::size_t id = 0; id < nodes.size(); ++id) {
        const auto gate = static_cast<std::size_t>(nodes[id].circuitIndex);
        MUSSTI_ASSERT(gate >= low && gate < watermark &&
                          (id == 0 || nodes[id - 1].circuitIndex <
                                          nodes[id].circuitIndex),
                      "lint checkpoint's pending gates are not ascending "
                      "below its watermark");
        by_circuit_index[gate - low] = static_cast<int>(id);
    }
    nodes.reserve(nodes.size() + (circuit.size() - watermark));
    const auto nodeOf = [&](int gate) {
        return static_cast<std::size_t>(gate) < low
                   ? -1
                   : by_circuit_index[static_cast<std::size_t>(gate) - low];
    };

    // One pass with a per-qubit "last two-qubit gate" builds the edges
    // without a DependencyDag: the linter runs inline on every
    // delta-resumed schedule.
    std::size_t mark = 0;
    for (std::size_t i = watermark;; ++i) {
        for (; mark < marks.size() && marks[mark].circuitGates == i; ++mark)
            states[mark].lastTwoQubit = last_on;
        if (i == circuit.size())
            break;
        const Gate &g = circuit[i];
        if (g.kind == GateKind::Barrier || !g.twoQubit())
            continue;
        LintDepGate node;
        node.circuitIndex = static_cast<int>(i);
        node.pred[0] = last_on[g.q0];
        if (last_on[g.q1] != node.pred[0])
            node.pred[1] = last_on[g.q1];
        by_circuit_index[i - low] = static_cast<int>(nodes.size());
        last_on[g.q0] = last_on[g.q1] = static_cast<int>(i);
        nodes.push_back(node);
    }

    constexpr std::size_t kUnseen = static_cast<std::size_t>(-1);
    std::vector<std::size_t> first_op(nodes.size(), kUnseen);
    int max_executed = -1;
    std::size_t done = 0; // Every node below it has executed.

    mark = 0;
    for (std::size_t i = begin;; ++i) {
        for (; mark < marks.size() && marks[mark].ops == i; ++mark) {
            const LintMark &at = marks[mark];
            if (max_executed >= static_cast<int>(at.circuitGates)) {
                std::ostringstream out;
                out << "circuit gate " << max_executed
                    << " executed before the checkpoint lies past its "
                    << "watermark " << at.circuitGates;
                sink.add(lint_rules::kCoverage, markLocation(at),
                         msg(out));
            }
            while (done < nodes.size() && first_op[done] != kUnseen)
                ++done;
            std::vector<LintDepGate> &out = states[mark].pending;
            for (std::size_t k = done;
                 k < nodes.size() &&
                 static_cast<std::size_t>(nodes[k].circuitIndex) <
                     at.circuitGates;
                 ++k) {
                if (first_op[k] == kUnseen)
                    out.push_back(nodes[k]);
            }
        }
        if (i == schedule.ops.size())
            break;
        if (!valid[i - begin])
            continue;
        const ScheduledOp &op = schedule.ops[i];
        if ((op.kind != OpKind::Gate2Q &&
             op.kind != OpKind::FiberGate) || op.inserted)
            continue;
        const auto where = [&] { return opLocation(i, op); };

        const bool known =
            op.circuitGate >= 0 &&
            static_cast<std::size_t>(op.circuitGate) < circuit.size() &&
            circuit[static_cast<std::size_t>(op.circuitGate)].kind !=
                GateKind::Barrier &&
            circuit[static_cast<std::size_t>(op.circuitGate)].twoQubit();
        if (!known) {
            std::ostringstream out;
            out << "gate op references circuit gate " << op.circuitGate
                << ", which is not a 2q gate of the circuit";
            sink.add(lint_rules::kCoverage, where(), msg(out));
            continue;
        }
        const Gate &g = circuit[static_cast<std::size_t>(op.circuitGate)];
        const bool operands_match =
            (g.q0 == op.q0 && g.q1 == op.q1) ||
            (g.q0 == op.q1 && g.q1 == op.q0);
        if (!operands_match) {
            std::ostringstream out;
            out << "op operands disagree with circuit gate "
                << op.circuitGate << " (q" << g.q0 << ",q" << g.q1
                << ")";
            sink.add(lint_rules::kCoverage, where(), msg(out));
            continue;
        }
        const int node = nodeOf(op.circuitGate);
        if (node < 0 || first_op[static_cast<std::size_t>(node)] != kUnseen) {
            std::ostringstream out;
            out << "circuit gate " << op.circuitGate
                << " already executed at op ";
            if (node < 0)
                out << "< " << begin;
            else
                out << first_op[static_cast<std::size_t>(node)];
            out << " — every gate must appear exactly once";
            sink.add(lint_rules::kCoverage, where(), msg(out));
            continue;
        }
        first_op[static_cast<std::size_t>(node)] = i;
        max_executed = std::max(max_executed, op.circuitGate);
    }

    for (std::size_t id = 0; id < nodes.size(); ++id) {
        const std::size_t mine = first_op[id];
        const LintDepGate &node = nodes[id];
        if (mine == kUnseen) {
            const Gate &g =
                circuit[static_cast<std::size_t>(node.circuitIndex)];
            std::ostringstream out;
            out << "circuit gate " << node.circuitIndex << " (q" << g.q0
                << ",q" << g.q1 << ") never appears in the schedule";
            sink.add(lint_rules::kCoverage, "whole schedule", msg(out));
            continue;
        }
        for (const int pred : node.pred) {
            const int pred_node = pred < 0 ? -1 : nodeOf(pred);
            if (pred_node < 0)
                continue; // None, or executed before the checkpoint.
            const std::size_t pred_op =
                first_op[static_cast<std::size_t>(pred_node)];
            if (pred_op != kUnseen && pred_op > mine) {
                std::ostringstream out;
                out << "circuit gate " << node.circuitIndex
                    << " executes at op " << mine
                    << " before its dependency, circuit gate " << pred
                    << " at op " << pred_op;
                sink.add(lint_rules::kDepOrder,
                         opLocation(mine, schedule.ops[mine]), msg(out));
            }
        }
    }
}

} // namespace

LintReport
ScheduleLinter::lint(const Schedule &schedule,
                     const Circuit &circuit) const
{
    return lintFrom(schedule, circuit, nullptr).report;
}

ScheduleLinter::SuffixLint
ScheduleLinter::lintFrom(const Schedule &schedule, const Circuit &circuit,
                         const ScheduleLintState *from,
                         const std::vector<LintMark> &marks) const
{
    const std::size_t begin = from != nullptr ? from->ops : 0;
    const std::size_t watermark = from != nullptr ? from->circuitGates : 0;
    MUSSTI_REQUIRE(begin <= schedule.ops.size() &&
                       watermark <= circuit.size(),
                   "lint checkpoint past the schedule or circuit end");
    LintMark floor{begin, watermark};
    for (const LintMark &mark : marks) {
        MUSSTI_REQUIRE(mark.ops >= floor.ops &&
                           mark.circuitGates >= floor.circuitGates &&
                           mark.ops <= schedule.ops.size() &&
                           mark.circuitGates <= circuit.size(),
                       "lint marks must ascend from the checkpoint "
                       "within the schedule and circuit");
        floor = mark;
    }

    RuleSink sink;
    SuffixLint out;
    out.opsWalked = schedule.ops.size() - begin;
    out.states.resize(marks.size());
    const std::uint64_t chains = chainsDigest(schedule.initialChains);
    for (std::size_t m = 0; m < marks.size(); ++m) {
        out.states[m].ops = marks[m].ops;
        out.states[m].circuitGates = marks[m].circuitGates;
        out.states[m].initialChainsDigest = chains;
    }

    if (schedule.initialChains.size() !=
        static_cast<std::size_t>(device_.numZones())) {
        std::ostringstream out_msg;
        out_msg << "schedule snapshots " << schedule.initialChains.size()
                << " zones but the device has " << device_.numZones()
                << " — wrong device for this schedule?";
        sink.add(lint_rules::kPlacement, "initial placement",
                 msg(out_msg));
        // Zone-indexed replays would index out of the descriptor set;
        // the DAG walk is device-free and still runs.
        std::vector<char> valid(schedule.ops.size() - begin, 1);
        lintDagOrder(schedule, begin, valid, circuit, from, marks,
                     out.states, sink);
        out.report = sink.take();
        return out;
    }

    const std::vector<char> valid = checkFieldSanity(
        schedule, begin, circuit.numQubits(), device_.numZones(), sink);
    lintShuttleDiscipline(schedule, begin, valid, marks, device_, sink);
    lintPlacementReplay(schedule, begin, valid, circuit, device_, from,
                        marks, out.states, sink);
    lintDagOrder(schedule, begin, valid, circuit, from, marks, out.states,
                 sink);
    out.report = sink.take();
    return out;
}

LintReport
lintSchedule(const Schedule &schedule, const Circuit &circuit,
             const TargetDevice &device)
{
    return ScheduleLinter(device).lint(schedule, circuit);
}

} // namespace mussti
