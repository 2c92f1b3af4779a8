#include "circuit/circuit.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/hash.h"
#include "common/logging.h"

namespace mussti {

Circuit::Circuit(int num_qubits, std::string name)
    : numQubits_(num_qubits), name_(std::move(name))
{
    MUSSTI_REQUIRE(num_qubits > 0, "circuit needs at least one qubit");
    MUSSTI_REQUIRE(num_qubits <= kMaxQubits,
                   "circuit of " << num_qubits << " qubits exceeds the "
                   << kMaxQubits << "-qubit limit");
}

void
Circuit::add(const Gate &gate)
{
    const int arity = gateArity(gate.kind);
    if (arity >= 1) {
        MUSSTI_ASSERT(gate.q0 >= 0 && gate.q0 < numQubits_,
                      "gate operand q0=" << gate.q0 << " out of range for "
                      << numQubits_ << " qubits");
    }
    if (arity == 2) {
        MUSSTI_ASSERT(gate.q1 >= 0 && gate.q1 < numQubits_,
                      "gate operand q1=" << gate.q1 << " out of range");
        MUSSTI_ASSERT(gate.q0 != gate.q1,
                      "two-qubit gate with identical operands q=" << gate.q0);
    }
    gates_.push_back(gate);
}

int
Circuit::twoQubitCount() const
{
    return static_cast<int>(std::count_if(
        gates_.begin(), gates_.end(),
        [](const Gate &g) { return g.twoQubit(); }));
}

int
Circuit::singleQubitCount() const
{
    return static_cast<int>(std::count_if(
        gates_.begin(), gates_.end(),
        [](const Gate &g) { return isSingleQubit(g.kind); }));
}

Circuit
Circuit::reversed() const
{
    Circuit out(numQubits_, name_ + "_rev");
    out.gates_.assign(gates_.rbegin(), gates_.rend());
    return out;
}

Circuit
Circuit::withSwapsDecomposed() const
{
    Circuit out(numQubits_, name_);
    const auto swaps = std::count_if(
        gates_.begin(), gates_.end(),
        [](const Gate &g) { return g.kind == GateKind::Swap; });
    out.gates_.reserve(gates_.size() + 2 * static_cast<std::size_t>(swaps));
    // Every gate here already passed add()'s operand checks.
    for (const Gate &g : gates_) {
        if (g.kind == GateKind::Swap) {
            out.gates_.emplace_back(GateKind::Cx, g.q0, g.q1);
            out.gates_.emplace_back(GateKind::Cx, g.q1, g.q0);
            out.gates_.emplace_back(GateKind::Cx, g.q0, g.q1);
        } else {
            out.gates_.push_back(g);
        }
    }
    return out;
}

CircuitStats
Circuit::stats() const
{
    CircuitStats s;
    s.numQubits = numQubits_;
    s.totalGates = static_cast<int>(gates_.size());
    s.twoQubitGates = twoQubitCount();
    s.singleQubitGates = singleQubitCount();
    s.measurements = static_cast<int>(std::count_if(
        gates_.begin(), gates_.end(),
        [](const Gate &g) { return g.kind == GateKind::Measure; }));

    // Two-qubit depth: longest chain of dependent 2q gates.
    std::vector<int> qubit_depth(numQubits_, 0);
    double dist_sum = 0.0;
    for (const Gate &g : gates_) {
        if (!g.twoQubit())
            continue;
        const int d = std::max(qubit_depth[g.q0], qubit_depth[g.q1]) + 1;
        qubit_depth[g.q0] = d;
        qubit_depth[g.q1] = d;
        s.depth = std::max(s.depth, d);
        dist_sum += std::abs(g.q0 - g.q1);
    }
    if (s.twoQubitGates > 0)
        s.avgInteractionDistance = dist_sum / s.twoQubitGates;
    return s;
}

std::vector<int>
Circuit::twoQubitDegrees() const
{
    std::vector<int> degree(numQubits_, 0);
    for (const Gate &g : gates_) {
        if (!g.twoQubit())
            continue;
        ++degree[g.q0];
        ++degree[g.q1];
    }
    return degree;
}

std::uint64_t
Circuit::prefixHash(std::size_t num_gates) const
{
    MUSSTI_REQUIRE(num_gates <= gates_.size(),
                   "prefixHash over " << num_gates << " gates of a "
                   << gates_.size() << "-gate circuit");
    if (prefixHashes_.empty()) {
        // Link 0: the chain seed over everything that precedes the gate
        // stream.
        Fnv1a seed;
        seed.update(numQubits_);
        seed.update(name_);
        prefixHashes_.reserve(gates_.size() + 1);
        prefixHashes_.push_back(seed.digest());
    }
    std::uint64_t hash = prefixHashes_.back();
    for (std::size_t i = prefixHashes_.size() - 1; i < num_gates; ++i) {
        const Gate &g = gates_[i];
        // Operands are -1 (absent) up to numQubits_ - 1, so q + 1 fits
        // 28 bits; the mask (and the unsigned add) only matter for the
        // unchecked operand slots of gates that do not use them.
        const auto field = [](int q) {
            constexpr std::uint64_t kMask = (1ull << 28) - 1;
            return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(q)) +
                    1) & kMask;
        };
        const std::uint64_t word0 = static_cast<std::uint64_t>(g.kind) << 56 |
                                    field(g.q0) << 28 | field(g.q1);
        std::uint64_t word1 = 0;
        std::memcpy(&word1, &g.param, sizeof(word1));
        // The gate's own mix does not depend on the chain, so only one
        // splitMix64 per gate sits on the chain's critical path.
        hash = splitMix64(hash ^ (splitMix64(word0) ^ word1));
        prefixHashes_.push_back(hash);
    }
    return prefixHashes_[num_gates];
}

} // namespace mussti
