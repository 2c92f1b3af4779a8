/**
 * @file
 * Reference replay of the schedule invariants P1-P5 (sim/validator.h):
 * it replays ordered trap chains op by op and stops at the first
 * violation. Production validates through the schedule linter; tests
 * hold the linter against this independent replay, which shares no
 * code with it (the corruption corpus, the lint fuzz, and the
 * validator mutation tests).
 */
#ifndef MUSSTI_TESTS_VALIDATOR_REFERENCE_H
#define MUSSTI_TESTS_VALIDATOR_REFERENCE_H

#include <algorithm>
#include <cstdlib>
#include <deque>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "arch/target_device.h"
#include "circuit/circuit.h"
#include "dag/dag.h"
#include "sim/schedule.h"
#include "sim/validator.h"

namespace mussti {

namespace reference_detail {

/** Replayed trap state. */
struct ReplayState
{
    std::vector<std::deque<int>> chains;
    std::vector<int> qubitZone;
    int inFlightQubit = -1;
    int inFlightTarget = -1;
    OpKind lastKind = OpKind::Merge;
};

inline std::string
describeError(const std::string &what, std::size_t op_index,
              const ScheduledOp &op)
{
    std::ostringstream out;
    out << "op " << op_index << " (" << op.describe() << "): " << what;
    return out.str();
}

} // namespace reference_detail

/**
 * Replay `schedule` against invariants P1-P5 of sim/validator.h on
 * `device`'s zones; stops at the first violation.
 */
inline ValidationReport
referenceValidate(const Schedule &schedule, const Circuit &circuit,
                  const TargetDevice &device)
{
    using namespace reference_detail;
    const std::vector<ZoneInfo> &zones = device.zoneInfos();
    ValidationReport report;
    auto fail = [&](const std::string &message) {
        report.valid = false;
        if (report.firstError.empty())
            report.firstError = message;
    };

    if (schedule.initialChains.size() != zones.size()) {
        fail("schedule zone count does not match device");
        return report;
    }

    // --- Replay setup.
    ReplayState st;
    st.chains.resize(schedule.initialChains.size());
    for (std::size_t z = 0; z < schedule.initialChains.size(); ++z)
        st.chains[z].assign(schedule.initialChains[z].begin(),
                            schedule.initialChains[z].end());
    st.qubitZone.assign(circuit.numQubits(), -1);
    for (std::size_t z = 0; z < st.chains.size(); ++z) {
        if (static_cast<int>(st.chains[z].size()) > zones[z].capacity) {
            fail("initial chain exceeds capacity in zone " +
                 std::to_string(z));
            return report;
        }
        for (int q : st.chains[z]) {
            if (q < 0 || q >= circuit.numQubits()) {
                fail("initial chain has invalid qubit");
                return report;
            }
            if (st.qubitZone[q] >= 0) {
                fail("qubit " + std::to_string(q) + " placed twice");
                return report;
            }
            st.qubitZone[q] = static_cast<int>(z);
        }
    }
    for (int q = 0; q < circuit.numQubits(); ++q) {
        if (st.qubitZone[q] < 0) {
            fail("qubit " + std::to_string(q) + " not initially placed");
            return report;
        }
    }

    // --- DAG coverage bookkeeping (P4).
    DependencyDag dag(circuit);
    std::map<int, DagNodeId> by_circuit_index;
    for (DagNodeId id = 0; id < dag.size(); ++id)
        by_circuit_index[dag.node(id).circuitIndex] = id;

    // --- Inserted-SWAP bookkeeping (P5).
    int inserted_run = 0;
    int inserted_a = -1, inserted_b = -1;

    auto at_edge = [&](int zone, int q) {
        const auto &ch = st.chains[zone];
        return !ch.empty() && (ch.front() == q || ch.back() == q);
    };

    for (std::size_t i = 0; i < schedule.ops.size(); ++i) {
        if (!report.valid)
            break;
        const ScheduledOp &op = schedule.ops[i];

        // In-flight discipline: a Split must be immediately followed by
        // the Move and Merge of the same ion.
        if (st.inFlightQubit >= 0) {
            const bool continues =
                (st.lastKind == OpKind::Split && op.kind == OpKind::Move &&
                 op.q0 == st.inFlightQubit) ||
                (st.lastKind == OpKind::Move && op.kind == OpKind::Merge &&
                 op.q0 == st.inFlightQubit);
            if (!continues) {
                fail(describeError("expected move/merge of in-flight ion",
                                   i, op));
                break;
            }
        }

        // Inserted-gate run tracking.
        if (op.isGate() && op.inserted) {
            const int lo = std::min(op.q0, op.q1);
            const int hi = std::max(op.q0, op.q1);
            if (inserted_run == 0) {
                inserted_a = lo;
                inserted_b = hi;
            } else if (lo != inserted_a || hi != inserted_b) {
                fail(describeError("inserted SWAP gates interleaved across "
                                   "pairs", i, op));
                break;
            }
            ++inserted_run;
        } else if (op.isGate() && inserted_run != 0) {
            fail(describeError("inserted SWAP run interrupted before 3 "
                               "gates", i, op));
            break;
        }

        switch (op.kind) {
          case OpKind::Split: {
            const int zone = st.qubitZone[op.q0];
            if (zone < 0) {
                fail(describeError("split of unplaced qubit", i, op));
                break;
            }
            if (zone != op.zoneFrom) {
                fail(describeError("split zoneFrom mismatch", i, op));
                break;
            }
            if (!at_edge(zone, op.q0)) {
                fail(describeError("split of non-edge ion (P1)", i, op));
                break;
            }
            auto &ch = st.chains[zone];
            if (ch.front() == op.q0)
                ch.pop_front();
            else
                ch.pop_back();
            st.qubitZone[op.q0] = -1;
            st.inFlightQubit = op.q0;
            st.inFlightTarget = -1;
            break;
          }

          case OpKind::Move: {
            if (st.inFlightQubit != op.q0) {
                fail(describeError("move of non-in-flight ion (P1)",
                                   i, op));
                break;
            }
            st.inFlightTarget = op.zoneTo;
            break;
          }

          case OpKind::Merge: {
            if (st.inFlightQubit != op.q0 ||
                st.inFlightTarget != op.zoneTo) {
                fail(describeError("merge without matching move (P1)",
                                   i, op));
                break;
            }
            auto &ch = st.chains[op.zoneTo];
            if (static_cast<int>(ch.size()) >=
                zones[op.zoneTo].capacity) {
                fail(describeError("merge into full zone (P2)", i, op));
                break;
            }
            if (op.enterFront)
                ch.push_front(op.q0);
            else
                ch.push_back(op.q0);
            st.qubitZone[op.q0] = op.zoneTo;
            st.inFlightQubit = -1;
            st.inFlightTarget = -1;
            break;
          }

          case OpKind::IonSwap: {
            const int zone = st.qubitZone[op.q0];
            if (zone < 0 || zone != st.qubitZone[op.q1]) {
                fail(describeError("ion swap across zones (P1)", i, op));
                break;
            }
            auto &ch = st.chains[zone];
            const auto it0 = std::find(ch.begin(), ch.end(), op.q0);
            const auto it1 = std::find(ch.begin(), ch.end(), op.q1);
            if (it0 == ch.end() || it1 == ch.end() ||
                std::abs(static_cast<int>(it0 - ch.begin()) -
                         static_cast<int>(it1 - ch.begin())) != 1) {
                fail(describeError("ion swap of non-adjacent ions (P1)",
                                   i, op));
                break;
            }
            std::iter_swap(it0, it1);
            break;
          }

          case OpKind::Gate1Q: {
            if (op.q0 < 0 || st.qubitZone[op.q0] < 0) {
                fail(describeError("1q gate on unplaced qubit (P3)",
                                   i, op));
                break;
            }
            break;
          }

          case OpKind::Gate2Q: {
            const int za = st.qubitZone[op.q0];
            const int zb = st.qubitZone[op.q1];
            if (za < 0 || za != zb) {
                fail(describeError("2q gate on non-co-located qubits "
                                   "(P3)", i, op));
                break;
            }
            if (!zones[za].gateCapable()) {
                fail(describeError("2q gate in a storage zone (P3)",
                                   i, op));
                break;
            }
            if (op.zoneFrom != za) {
                fail(describeError("2q gate zone field mismatch", i, op));
                break;
            }
            break;
          }

          case OpKind::FiberGate: {
            const int za = st.qubitZone[op.q0];
            const int zb = st.qubitZone[op.q1];
            if (za < 0 || zb < 0) {
                fail(describeError("fiber gate on unplaced qubit", i, op));
                break;
            }
            if (zones[za].kind != ZoneKind::Optical ||
                zones[zb].kind != ZoneKind::Optical ||
                zones[za].module == zones[zb].module) {
                fail(describeError("fiber gate outside optical zones of "
                                   "distinct modules (P3)", i, op));
                break;
            }
            if (op.zoneFrom != za || op.zoneTo != zb) {
                fail(describeError("fiber gate zone fields mismatch",
                                   i, op));
                break;
            }
            break;
          }
        }
        if (!report.valid)
            break;

        // P4: circuit coverage in dependency order.
        if ((op.kind == OpKind::Gate2Q || op.kind == OpKind::FiberGate) &&
            !op.inserted) {
            const auto found = by_circuit_index.find(op.circuitGate);
            if (found == by_circuit_index.end()) {
                fail(describeError("gate op does not reference a circuit "
                                   "2q gate (P4)", i, op));
                break;
            }
            const DagNodeId node = found->second;
            const Gate &g = dag.node(node).gate;
            const bool operands_match =
                (g.q0 == op.q0 && g.q1 == op.q1) ||
                (g.q0 == op.q1 && g.q1 == op.q0);
            if (!operands_match) {
                fail(describeError("gate operands disagree with circuit "
                                   "(P4)", i, op));
                break;
            }
            if (!dag.isReady(node)) {
                fail(describeError("gate executed before its dependencies "
                                   "(P4)", i, op));
                break;
            }
            dag.complete(node);
        }

        // P5: a completed triple performs the logical exchange.
        if (inserted_run == 3) {
            std::swap(st.qubitZone[inserted_a], st.qubitZone[inserted_b]);
            auto &chain_a = st.chains[st.qubitZone[inserted_b]];
            auto &chain_b = st.chains[st.qubitZone[inserted_a]];
            // After the zone swap above, inserted_a sits where b's chain
            // entry still says b, and vice versa; patch chain entries.
            std::replace(chain_a.begin(), chain_a.end(), inserted_a,
                         -1000000);
            std::replace(chain_b.begin(), chain_b.end(), inserted_b,
                         inserted_a);
            std::replace(chain_a.begin(), chain_a.end(), -1000000,
                         inserted_b);
            inserted_run = 0;
            inserted_a = inserted_b = -1;
        }

        st.lastKind = op.kind;
    }

    if (report.valid && st.inFlightQubit >= 0)
        fail("schedule ends with an ion in flight");
    if (report.valid && inserted_run != 0)
        fail("schedule ends mid inserted-SWAP triple");
    if (report.valid && !dag.empty())
        fail("schedule does not cover all circuit 2q gates (P4): " +
             std::to_string(dag.remaining()) + " remaining");

    return report;
}

} // namespace mussti

#endif // MUSSTI_TESTS_VALIDATOR_REFERENCE_H
