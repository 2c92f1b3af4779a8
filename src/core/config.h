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
    /**
     * Weight-table look-ahead depth k (paper uses 8; Fig 9 sweeps it).
     * The weight table reads the scheduler's DAG window, which is
     * DependencyDag::kDefaultWindowHorizon (64) layers deep, so
     * 1 <= lookAhead <= 64 or the scheduler rejects the config as
     * InvalidInput.
     */
    int lookAhead = 8;

    /**
     * SWAP-insertion threshold T: future-gate count that must justify the
     * 3-gate cost of a logical SWAP (paper uses 4; >= 3 required).
     */
    int swapThreshold = 4;

    /** Enable the section-3.3 SWAP insertion pass. */
    bool enableSwapInsertion = true;

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

    /** Device construction parameters. */
    EmlConfig device;
};

} // namespace mussti

#endif // MUSSTI_CORE_CONFIG_H
