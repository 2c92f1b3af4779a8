/**
 * @file
 * Static schedule analyzer: proves MUSS-TI invariants over a compiled
 * op stream WITHOUT executing it, and names each violation by rule.
 *
 * The sim/ ScheduleValidator answers "is this schedule legal?" with the
 * first violated invariant; this linter answers "which named invariants
 * does it violate, everywhere?" — the shape a fuzzing oracle, a CI
 * gate, and a corruption corpus need. The two are cross-checked on the
 * same corpus (tests/test_lint.cpp): a schedule is validator-legal iff
 * it lints with zero errors.
 *
 * Rule catalog (full rationale in src/lint/README.md):
 *   sch.dep-order    every gate op runs after its DAG predecessors
 *   sch.coverage     every circuit 2q gate appears exactly once
 *   sch.capacity     no zone ever holds more ions than its trap capacity
 *   sch.zone         gates only fire where the architecture allows
 *   sch.shuttle      shuttle windows never overlap (strict split/move/
 *                    merge triples, one ion in flight, real paths)
 *   sch.placement    no qubit is in two places at once; ops act on ions
 *                    where they actually are
 *   sch.swap-triple  inserted SWAP gates come in clean 3-gate runs
 *
 * The linter reports every violation (unlike the validator's
 * first-error stop), capped per rule so a totally corrupt artifact
 * cannot produce unbounded output. Checks run as three independent
 * walks (shuttle discipline, placement replay, DAG order/coverage) so
 * one corruption class fires its own rule without cascading into the
 * others — the property the corruption-corpus tests pin.
 *
 * The walks are resumable: a lint can export their state at chosen
 * points of the op stream (ScheduleLintState) and a later lint can
 * start from such a state, walking only the ops after it. The delta
 * compiler's safety net lints a resumed schedule that way, from the
 * state a linted walk of the snapshot's op prefix exported.
 */
#ifndef MUSSTI_LINT_SCHEDULE_LINTER_H
#define MUSSTI_LINT_SCHEDULE_LINTER_H

#include <cstddef>
#include <cstdint>
#include <vector>

#include "circuit/circuit.h"
#include "lint/lint.h"
#include "sim/schedule.h"

namespace mussti {

class TargetDevice; // arch/target_device.h

/** Stable schedule-lint rule ids (shared by tests, corpus, CI greps). */
namespace lint_rules {
inline constexpr const char *kDepOrder = "sch.dep-order";
inline constexpr const char *kCoverage = "sch.coverage";
inline constexpr const char *kCapacity = "sch.capacity";
inline constexpr const char *kZone = "sch.zone";
inline constexpr const char *kShuttle = "sch.shuttle";
inline constexpr const char *kPlacement = "sch.placement";
inline constexpr const char *kSwapTriple = "sch.swap-triple";
} // namespace lint_rules

/** A two-qubit circuit gate and its dependencies, by circuit index. */
struct LintDepGate
{
    int circuitIndex = 0;
    /** The previous two-qubit gate on each operand (-1 for none;
        pred[1] is -1 when it repeats pred[0]). */
    int pred[2] = {-1, -1};
};

/**
 * The linter's walk state after the first `ops` ops of a schedule, at a
 * point with no shuttle window open and no inserted-SWAP triple half
 * done. The dependency walk has read the circuit's first `circuitGates`
 * gates (the watermark): every two-qubit gate below it was executed by
 * those ops except the `pending` ones, and none above it was.
 */
struct ScheduleLintState
{
    std::size_t ops = 0;
    std::size_t circuitGates = 0;

    /** Digest of the initial chains the walk started from. */
    std::uint64_t initialChainsDigest = 0;

    std::vector<int> zoneOf;    ///< Per qubit: resident zone, -1 none.
    std::vector<int> zoneCount; ///< Per zone: resident ions.

    /** Per qubit: its last two-qubit gate below the watermark, -1 none. */
    std::vector<int> lastTwoQubit;

    /** Two-qubit gates below the watermark not executed yet, ascending. */
    std::vector<LintDepGate> pending;

    /** Approximate heap footprint. */
    std::size_t
    approxBytes() const
    {
        return sizeof(*this) +
               (zoneOf.capacity() + zoneCount.capacity() +
                lastTwoQubit.capacity()) * sizeof(int) +
               pending.capacity() * sizeof(LintDepGate);
    }
};

/** Where a lint exports its walk state: after `ops` ops, with the
    dependency walk's watermark at `circuitGates`. */
struct LintMark
{
    std::size_t ops = 0;
    std::size_t circuitGates = 0;
};

/**
 * Static analyzer bound to one target device. Stateless across lint()
 * calls; safe to share across threads (the device must outlive it).
 */
class ScheduleLinter
{
  public:
    /** Findings reported per rule before truncation kicks in. */
    static constexpr int kMaxFindingsPerRule = 16;

    explicit ScheduleLinter(const TargetDevice &device)
        : device_(device)
    {}

    /**
     * Lint a schedule against its LOWERED source circuit (the circuit
     * the schedule implements — CompileResult::lowered, same contract
     * as ScheduleValidator::validate).
     */
    LintReport lint(const Schedule &schedule,
                    const Circuit &circuit) const;

    /** What lintFrom() found and exported. */
    struct SuffixLint
    {
        LintReport report;
        std::vector<ScheduleLintState> states; ///< One per mark.
        std::size_t opsWalked = 0; ///< Schedule ops the walks visited.
    };

    /**
     * Lint ops [from->ops, end) of `schedule`, starting from `from`:
     * the state a lint of a schedule with the same first from->ops ops
     * and initial chains, over a circuit with the same first
     * from->circuitGates gates, exported. A null `from` lints the
     * whole schedule, as lint() does. The findings equal lint()'s on
     * the whole schedule whenever the prefix linted clean. At each of
     * `marks` (ascending, none before `from`) the walk state is
     * exported into `states`; a mark inside a shuttle window or an
     * inserted-SWAP triple, or below a gate the ops before it
     * executed, is a finding.
     */
    SuffixLint lintFrom(const Schedule &schedule, const Circuit &circuit,
                        const ScheduleLintState *from,
                        const std::vector<LintMark> &marks = {}) const;

  private:
    const TargetDevice &device_;
};

/** One-shot convenience: the library oracle the fuzz/soak paths call. */
LintReport lintSchedule(const Schedule &schedule, const Circuit &circuit,
                        const TargetDevice &device);

} // namespace mussti

#endif // MUSSTI_LINT_SCHEDULE_LINTER_H
