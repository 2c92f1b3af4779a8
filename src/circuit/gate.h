/**
 * @file
 * Gate representation for trapped-ion circuits.
 *
 * The scheduler cares about two things only: which qubits a gate touches
 * and whether it is a two-qubit (entangling) operation. Trapped-ion
 * hardware implements all two-qubit interactions as Molmer-Sorensen (MS)
 * gates; other two-qubit names (cx, cz, swap) are retained for provenance
 * and QASM round-tripping but are costed identically (SWAP as 3 MS).
 */
#ifndef MUSSTI_CIRCUIT_GATE_H
#define MUSSTI_CIRCUIT_GATE_H

#include <string>

namespace mussti {

/** The gate alphabet understood by the compiler. */
enum class GateKind {
    // One-qubit gates.
    X, Y, Z, H, S, Sdg, T, Tdg, Rx, Ry, Rz, U,
    // Two-qubit gates (all compiled to MS interactions).
    Ms, Cx, Cz, Swap,
    // Markers: no duration, no fidelity cost, kept for round-tripping.
    Measure, Barrier,
};

/**
 * Number of qubit operands for a gate kind (0 for barrier). Inline:
 * the scheduler, evaluator and linter ask it once per gate or op.
 */
constexpr int
gateArity(GateKind kind)
{
    switch (kind) {
      case GateKind::Ms:
      case GateKind::Cx:
      case GateKind::Cz:
      case GateKind::Swap:
        return 2;
      case GateKind::Barrier:
        return 0;
      default:
        return 1;
    }
}

/** True for entangling two-qubit kinds (Ms, Cx, Cz, Swap). */
constexpr bool
isTwoQubit(GateKind kind)
{
    return gateArity(kind) == 2;
}

/** True for the single-qubit rotation/Clifford kinds. */
bool isSingleQubit(GateKind kind);

/** Lower-case OpenQASM-style mnemonic ("cx", "ms", "rz", ...). */
const char *gateName(GateKind kind);

/** Inverse of gateName(); fatal() on unknown mnemonics. */
GateKind gateKindFromName(const std::string &name);

/**
 * One gate instance in a circuit.
 *
 * q1 is -1 for single-qubit gates and measure. The angle parameter is
 * carried only for round-tripping; it does not affect scheduling cost.
 */
struct Gate
{
    GateKind kind = GateKind::X;
    int q0 = -1;
    int q1 = -1;
    double param = 0.0;

    Gate() = default;
    Gate(GateKind k, int a) : kind(k), q0(a) {}
    Gate(GateKind k, int a, int b) : kind(k), q0(a), q1(b) {}
    Gate(GateKind k, int a, double p) : kind(k), q0(a), param(p) {}
    Gate(GateKind k, int a, int b, double p)
        : kind(k), q0(a), q1(b), param(p) {}

    /** True if this gate entangles two qubits. */
    bool twoQubit() const { return isTwoQubit(kind); }

    /** True if the gate acts on the given qubit. */
    bool touches(int q) const { return q0 == q || q1 == q; }

    /** The operand that is not `q`; q must be an operand. */
    int partnerOf(int q) const { return q0 == q ? q1 : q0; }

    bool operator==(const Gate &other) const = default;
};

} // namespace mussti

#endif // MUSSTI_CIRCUIT_GATE_H
