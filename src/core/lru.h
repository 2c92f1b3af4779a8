/**
 * @file
 * Least-recently-used tracking for qubit replacement (paper section 3.2,
 * "Qubit replacement scheduler"). The qubit idle longest is, by locality,
 * the least likely to be needed soon, so it is the eviction victim when a
 * zone must make room.
 */
#ifndef MUSSTI_CORE_LRU_H
#define MUSSTI_CORE_LRU_H

#include <cstdint>
#include <vector>

#include "arch/placement.h"

namespace mussti {

/** Monotonic use-stamp tracker over a fixed qubit population. */
class LruTracker
{
  public:
    explicit LruTracker(int num_qubits);

    /** Record a use of the qubit (gate execution). */
    void touch(int qubit);

    /** The stamp of the qubit's last use (0 = never used). */
    std::int64_t stampOf(int qubit) const;

    /**
     * Least-recently-used qubit among `candidates` other than `keep0`
     * and `keep1` (a gate's operands); -1 if no other candidate is
     * left. Ties (e.g. two never-used qubits) break toward the earlier
     * candidate, which for chain containers means ions nearer the front
     * edge.
     */
    int victim(const ZoneChain &candidates, int keep0, int keep1) const;

    /** Current clock value (tests). */
    std::int64_t now() const { return clock_; }

    /** Full stamp table (delta-compile checkpoint capture). */
    const std::vector<std::int64_t> &stamps() const { return stamps_; }

    /**
     * Restore stamps and clock from a checkpoint, so every later
     * victim() comparison replays exactly as in the captured run.
     */
    void
    restore(const std::vector<std::int64_t> &stamps, std::int64_t clock)
    {
        MUSSTI_ASSERT(stamps.size() == stamps_.size(),
                      "LRU restore across qubit counts: " << stamps.size()
                      << " vs " << stamps_.size());
        stamps_ = stamps;
        clock_ = clock;
    }

  private:
    std::vector<std::int64_t> stamps_;
    std::int64_t clock_ = 0;
};

} // namespace mussti

#endif // MUSSTI_CORE_LRU_H
