/**
 * @file
 * The physical operation alphabet a compiled schedule is made of.
 *
 * A shuttle relocation is the triple Split -> Move -> Merge, preceded by
 * zero or more IonSwap ops that walk the ion to a chain edge (Fig 2c).
 * Gates execute inside one zone (Gate1Q, Gate2Q) or across a fiber link
 * between two optical zones (FiberGate).
 */
#ifndef MUSSTI_SIM_OP_H
#define MUSSTI_SIM_OP_H

#include <string>

namespace mussti {

/** Kind of one scheduled physical operation. */
enum class OpKind {
    Split,     ///< Detach an edge ion from a chain (starts a shuttle).
    Move,      ///< Transport a detached ion between zones.
    Merge,     ///< Attach an ion to a chain edge (ends a shuttle).
    IonSwap,   ///< Exchange two adjacent ions inside a chain.
    Gate1Q,    ///< Single-qubit gate in place.
    Gate2Q,    ///< Local two-qubit MS gate inside one gate-capable zone.
    FiberGate, ///< Remote two-qubit gate between two optical zones.
};

/** Readable op name for traces and error messages. */
const char *opKindName(OpKind kind);

/** One scheduled physical operation. */
struct ScheduledOp
{
    OpKind kind = OpKind::Gate1Q;
    int q0 = -1;          ///< Primary qubit.
    int q1 = -1;          ///< Partner qubit (2q/fiber/ion-swap) or -1.
    int zoneFrom = -1;    ///< Source zone (Split/Move), gate zone, or the
                          ///< zone of q0 for FiberGate.
    int zoneTo = -1;      ///< Target zone (Move/Merge) or zone of q1 for
                          ///< FiberGate.
    double durationUs = 0.0;
    double nbar = 0.0;    ///< Motional quanta deposited.
    int circuitGate = -1; ///< Source-circuit gate index for gates, or -1.
    bool inserted = false;///< True for SWAP-insertion gates not present
                          ///< in the input circuit.
    bool enterFront = true; ///< Merge only: which chain edge the ion
                             ///< joins (replay determinism).

    /** True for Split/Move/Merge/IonSwap. */
    bool
    isShuttlePrimitive() const
    {
        return kind == OpKind::Split || kind == OpKind::Move ||
               kind == OpKind::Merge || kind == OpKind::IonSwap;
    }

    /** True for Gate1Q/Gate2Q/FiberGate. */
    bool isGate() const { return !isShuttlePrimitive(); }

    /** One-line trace rendering. */
    std::string describe() const;
};

} // namespace mussti

#endif // MUSSTI_SIM_OP_H
