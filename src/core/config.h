/**
 * @file
 * MUSS-TI compiler configuration (paper sections 3.2-3.4 defaults).
 */
#ifndef MUSSTI_CORE_CONFIG_H
#define MUSSTI_CORE_CONFIG_H

#include <cstdint>

#include "arch/eml_device.h"

namespace mussti {

/** Initial-mapping strategy (paper section 3.4). */
enum class MappingKind {
    Trivial, ///< Level-ordered sequential placement.
    Sabre,   ///< Two-fold forward/reverse pre-run (SABRE-style).
};

/**
 * Conflict-handling victim policy (paper section 3.2 uses an LRU
 * enhanced with anticipated usage; the alternatives exist for the
 * replacement-policy ablation study).
 */
enum class ReplacementPolicy {
    AnticipatoryLru, ///< Farthest next use, then extraction cost, then
                     ///< LRU age (the MUSS-TI default).
    Lru,             ///< Pure least-recently-used.
    Fifo,            ///< Evict the longest-resident ion.
    Random,          ///< Uniform random victim (deterministic seed).
};

/** Human-readable policy name for benches and traces. */
const char *replacementPolicyName(ReplacementPolicy policy);

/** All tunables of the MUSS-TI compiler. */
struct MusstiConfig
{
    /** Weight-table look-ahead depth k (paper uses 8; Fig 9 sweeps it). */
    int lookAhead = 8;

    /**
     * SWAP-insertion threshold T: future-gate count that must justify the
     * 3-gate cost of a logical SWAP (paper uses 4; >= 3 required).
     */
    int swapThreshold = 4;

    /** Enable the section-3.3 SWAP insertion pass. */
    bool enableSwapInsertion = true;

    /**
     * Layers of the incrementally maintained DAG window the replacement
     * scheduler consults for anticipated qubit usage (section 3.4). Also
     * the "idle" sentinel: a qubit with no gate within the horizon
     * reports this value. Larger horizons approximate Belady better but
     * widen the window the DAG maintains per retirement. Bounds the
     * weight table's reach too: lookAhead <= nextUseHorizon, or the
     * scheduler rejects the config as InvalidInput.
     */
    int nextUseHorizon = 64;

    /** Initial mapping strategy. */
    MappingKind mapping = MappingKind::Sabre;

    /** Conflict-handling victim policy. */
    ReplacementPolicy replacement = ReplacementPolicy::AnticipatoryLru;

    /** Seed for ReplacementPolicy::Random (deterministic runs). */
    std::uint64_t seed = 2025;

    /**
     * Prefix-reuse delta compilation. When on, the forward scheduling
     * leg captures ScheduleSnapshots at gate-count checkpoints
     * (core/schedule_snapshot.h) and, handed a snapshot whose input
     * prefix matches, resumes from it instead of replaying the shared
     * prefix — bit-identical to the cold path by construction, with the
     * cold path kept as the cross-check oracle
     * (tests/test_delta_compile.cpp). Off by default so the stock
     * pipelines, golden fingerprints, and configDigest() values are
     * untouched; when on it is folded into configDigest(), so a
     * delta-produced result is never served to a non-delta request.
     */
    bool deltaCompile = false;

    /**
     * Snapshot-capture cadence of the delta path: a checkpoint is
     * captured every this many retired two-qubit gates (the scheduler
     * thins the set to a bounded count as the run grows). Only read
     * when deltaCompile is on.
     */
    int deltaCheckpointGates = 64;

    /**
     * Post-compile static analysis (src/lint/): 0 = off (the default —
     * the linter never sits on the hot path uninvited), 1 = lint the
     * final schedule and warn() on findings, 2 = strict: fatal() when
     * the lint report carries errors. Folded into configDigest() so a
     * cached result is never served across lint-discipline changes.
     */
    int lintLevel = 0;

    /** Device construction parameters. */
    EmlConfig device;
};

} // namespace mussti

#endif // MUSSTI_CORE_CONFIG_H
