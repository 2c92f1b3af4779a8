/**
 * @file
 * Zone taxonomy of the EML-QCCD architecture (paper section 2.2, Fig 2).
 *
 * Each trap in a module is dedicated to one role:
 *  - Storage (level 0): holds idle ions; no laser access, no gates.
 *  - Operation (level 1): integrated waveguides; local MS gates among the
 *    fully-connected ions in the trap.
 *  - Optical (level 2): fiber-coupled; local MS gates plus remote
 *    entangling gates with optical zones of other modules.
 *
 * The level ordering mirrors the multi-level memory hierarchy the
 * scheduler is modelled on (storage = external storage, operation =
 * memory, optical = CPU).
 */
#ifndef MUSSTI_ARCH_ZONE_H
#define MUSSTI_ARCH_ZONE_H

namespace mussti {

/** Functional role of a trap. */
enum class ZoneKind { Storage, Operation, Optical };

/** Memory-hierarchy level of a zone kind: 0, 1, 2. */
int zoneLevel(ZoneKind kind);

/** True if local two-qubit gates may execute in this zone kind. */
bool isGateCapable(ZoneKind kind);

/** Human-readable name ("storage", "operation", "optical"). */
const char *zoneKindName(ZoneKind kind);

/**
 * Static description of one trap/zone. Produced by device models and
 * consumed by the scheduler, evaluator, and schedule linter.
 */
struct ZoneInfo
{
    ZoneKind kind = ZoneKind::Storage;
    int module = 0;          ///< Owning QCCD module.
    int capacity = 0;        ///< Maximum resident ions.
    double positionUm = 0.0; ///< 1D coordinate within the module.

    /** Hierarchy level shorthand. */
    int level() const { return zoneLevel(kind); }

    /** Local-gate capability shorthand. */
    bool gateCapable() const { return isGateCapable(kind); }
};

} // namespace mussti

#endif // MUSSTI_ARCH_ZONE_H
