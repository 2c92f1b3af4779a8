/**
 * @file
 * Circuit container: an ordered gate list over n qubits, plus the
 * derived views the compiler needs (two-qubit gate extraction, reversal
 * for SABRE's two-fold search, interaction statistics).
 */
#ifndef MUSSTI_CIRCUIT_CIRCUIT_H
#define MUSSTI_CIRCUIT_CIRCUIT_H

#include <cstdint>
#include <string>
#include <vector>

#include "circuit/gate.h"

namespace mussti {

/** Aggregate shape statistics for a circuit. */
struct CircuitStats
{
    int numQubits = 0;
    int totalGates = 0;
    int twoQubitGates = 0;
    int singleQubitGates = 0;
    int measurements = 0;
    int depth = 0;              ///< Two-qubit-gate depth (layers).
    double avgInteractionDistance = 0.0; ///< Mean |q0-q1| over 2q gates.
};

/**
 * An ordered quantum circuit.
 *
 * Qubits are integer indices [0, numQubits). Gates execute in list order
 * subject only to commutation through disjoint supports (the DAG module
 * recovers the partial order).
 */
class Circuit
{
  public:
    /** An empty circuit over a fixed qubit count. */
    explicit Circuit(int num_qubits, std::string name = "circuit");

    /**
     * Largest qubit count: every operand + 1 must fit a 28-bit field of
     * a prefix-hash word.
     */
    static constexpr int kMaxQubits = (1 << 28) - 1;

    /** Number of qubits the circuit addresses. */
    int numQubits() const { return numQubits_; }

    /** Human-readable identifier, e.g. "Adder_n32". */
    const std::string &name() const { return name_; }

    void
    setName(std::string name)
    {
        name_ = std::move(name);
        prefixHashes_.clear(); // The name seeds the prefix-hash chain.
    }

    /** Append a gate; operands are validated against numQubits(). */
    void add(const Gate &gate);

    /** Convenience appenders. */
    void h(int q) { add(Gate(GateKind::H, q)); }
    void x(int q) { add(Gate(GateKind::X, q)); }
    void z(int q) { add(Gate(GateKind::Z, q)); }
    void t(int q) { add(Gate(GateKind::T, q)); }
    void tdg(int q) { add(Gate(GateKind::Tdg, q)); }
    void rx(int q, double a) { add(Gate(GateKind::Rx, q, a)); }
    void rz(int q, double a) { add(Gate(GateKind::Rz, q, a)); }
    void ms(int a, int b) { add(Gate(GateKind::Ms, a, b)); }
    void cx(int a, int b) { add(Gate(GateKind::Cx, a, b)); }
    void cz(int a, int b) { add(Gate(GateKind::Cz, a, b)); }
    void swap(int a, int b) { add(Gate(GateKind::Swap, a, b)); }
    void measure(int q) { add(Gate(GateKind::Measure, q)); }

    /** Gate list access. */
    const std::vector<Gate> &gates() const { return gates_; }
    std::size_t size() const { return gates_.size(); }
    const Gate &operator[](std::size_t i) const { return gates_[i]; }

    /** Count of entangling (two-qubit) gates. */
    int twoQubitCount() const;

    /** Count of single-qubit gates (measure/barrier excluded). */
    int singleQubitCount() const;

    /**
     * The circuit with the gate order reversed (SABRE reverse pass).
     * Gate parameters are kept; this is a scheduling mirror, not an
     * algebraic inverse.
     */
    Circuit reversed() const;

    /**
     * The same circuit with SWAP gates lowered to 3 alternating-direction
     * CX (MS) gates, the native trapped-ion decomposition.
     */
    Circuit withSwapsDecomposed() const;

    /** Shape statistics (depth counts two-qubit layers). */
    CircuitStats stats() const;

    /** Per-qubit count of two-qubit gates touching each qubit. */
    std::vector<int> twoQubitDegrees() const;

    /**
     * Platform-stable digest of the circuit's full content (qubit count,
     * name, every gate). Equal circuits hash equally; used as the
     * circuit component of the compile-service cache key. Identical to
     * prefixHash(size()) — the full hash is the last link of the
     * prefix-hash chain.
     */
    std::uint64_t contentHash() const { return prefixHash(size()); }

    /**
     * Digest of the first `num_gates` gates (plus qubit count and name):
     * the rolling prefix-hash chain behind delta compilation.
     * prefixHash(p) of circuit A equals prefixHash(p) of circuit B iff
     * they agree on qubit count, name, and gates [0, p) — so the longest
     * prefix shared with a cached artifact is found by hash lookup, not
     * by diffing gate lists. The chain is cached lazily and extends
     * incrementally: after the first call, hashing an appended gate (or
     * any longer prefix) costs O(1) per gate, never a rescan.
     *
     * Each link folds one gate as two 64-bit words through splitMix64:
     * the kind packed with q0 + 1 and q1 + 1 (kMaxQubits keeps them in
     * their 28-bit fields), mixed and combined with the bit pattern of
     * `param`, then mixed into the chain. The digests are therefore not
     * those of the byte-wise FNV-1a chain older builds used, and cache
     * entries keyed by it never match.
     *
     * The cache is not synchronised: the first call on a Circuit shared
     * across threads races. Every compile path hands each job its own
     * Circuit (CompileRequest owns its circuit), so this only matters
     * for callers that deliberately share one instance.
     */
    std::uint64_t prefixHash(std::size_t num_gates) const;

    bool
    operator==(const Circuit &other) const
    {
        // The lazy prefix-hash cache is derived state, not content.
        return numQubits_ == other.numQubits_ && name_ == other.name_ &&
               gates_ == other.gates_;
    }

  private:
    int numQubits_;
    std::string name_;
    std::vector<Gate> gates_;

    /**
     * Lazy rolling chain: prefixHashes_[i] is the digest of (numQubits,
     * name, gates [0, i)). Empty until the first hash query; extended
     * on demand, so appends never invalidate it.
     */
    mutable std::vector<std::uint64_t> prefixHashes_;
};

} // namespace mussti

#endif // MUSSTI_CIRCUIT_CIRCUIT_H
