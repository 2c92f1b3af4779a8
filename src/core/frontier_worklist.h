/**
 * @file
 * The incrementally maintained executable-ready worklist behind both
 * frontier drains: the MUSS-TI scheduler's phase-1 drain
 * (core/scheduler.cpp) and the grid baselines' drain
 * (baselines/grid_compiler_base.cpp).
 *
 * The historical drain re-snapshotted the whole frontier and re-scanned
 * it until fixpoint — O(frontier²) work per routing step, almost all of
 * it re-checking gates whose operands had not moved. The worklist keeps
 * exactly the gates whose executability may have changed:
 *
 *  - every gate that just became ready (its last predecessor retired:
 *    noteCompleted());
 *  - every ready gate with a relocated operand (onQubitMoved(): the
 *    only frontier gate a move of qubit q can affect is q's chain head,
 *    an O(1) lookup).
 *
 * Order is pinned to the historical drain: a round visits its
 * candidates in ascending node-id (= FCFS) order, exactly the order the
 * full re-scan visited them. A gate dirtied mid-round re-enters the
 * CURRENT round when its id is still ahead of the cursor (the re-scan
 * would reach it this pass, after the move) and the NEXT round
 * otherwise (the re-scan would catch it on the following pass). Gates
 * that merely became ready mid-round always wait for the next round —
 * they were absent from the re-scan's snapshot. Skipped gates are
 * exactly those whose operands sat still since their last check, for
 * which the re-scan's answer could not have changed; the executed gate
 * sequence is therefore bit-identical (pinned by the golden
 * fingerprints of tests/test_scheduler.cpp and by two re-scan oracles:
 * FrontierWorklist.MatchesFullRescanUnderMidRoundMoves in
 * tests/test_scheduler.cpp, GridBase.WorklistDrainMatchesFullRescan in
 * tests/test_baselines.cpp).
 *
 * Executability must be a pure function of the operands' zones (both
 * drains' is), and every placement change must be reported through
 * onQubitMoved(). A grid drain never moves a qubit — only the
 * strategy step between drains does — so each of its rounds visits
 * exactly the gates the re-scan could execute.
 */
#ifndef MUSSTI_CORE_FRONTIER_WORKLIST_H
#define MUSSTI_CORE_FRONTIER_WORKLIST_H

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "dag/dag.h"

namespace mussti {

/**
 * Observer of qubit relocations. The frontier worklist is one, so that
 * every placement change (shuttle, spill or logical SWAP) re-queues
 * the affected frontier gate for an executability check — the hook
 * that lets the drain loop skip re-scanning untouched gates.
 */
class QubitMoveListener
{
  public:
    virtual ~QubitMoveListener() = default;

    /** The qubit's zone just changed. */
    virtual void onQubitMoved(int qubit) = 0;
};

/**
 * Recycled FrontierWorklist buffers: capacity only, never information.
 * The MUSS-TI scheduler keeps one in its per-thread arena so warm
 * rounds allocate nothing.
 */
struct WorklistScratch
{
    std::vector<DagNodeId> cur;       ///< Current-round buffer.
    std::vector<DagNodeId> next;      ///< Next-round buffer.
    std::vector<std::uint8_t> queued; ///< Per-node membership flags.
};

/** Executable-ready worklist over one DependencyDag (see the file). */
class FrontierWorklist : public QubitMoveListener
{
  public:
    /**
     * Seed with the DAG's whole frontier. `scratch`, when given,
     * donates warm buffers and gets them back on destruction.
     */
    explicit FrontierWorklist(const DependencyDag &dag,
                              WorklistScratch *scratch = nullptr)
        : dag_(dag), donor_(scratch)
    {
        trade();
        queued_.assign(static_cast<std::size_t>(dag.size()), 0);
        for (DagNodeId id : dag.frontier())
            noteReady(id);
    }

    ~FrontierWorklist() override { trade(); }

    FrontierWorklist(const FrontierWorklist &) = delete;
    FrontierWorklist &operator=(const FrontierWorklist &) = delete;

    /**
     * Run rounds until nothing is queued, calling visit(id) for every
     * ready candidate in the historical re-scan order. The visitor
     * checks executability and executes; completions and moves it
     * reports feed the rounds that follow.
     */
    template <typename Visit>
    void
    drain(Visit &&visit)
    {
        while (beginRound()) {
            DagNodeId id;
            while ((id = take()) >= 0) {
                if (dag_.isReady(id))
                    visit(id);
            }
        }
    }

    /** A node's last predecessor retired; queue its first check. */
    void
    noteReady(DagNodeId id)
    {
        if (queued_[id])
            return;
        queued_[id] = 1;
        next_.push_back(id);
    }

    /** `id` just completed: queue every successor it made ready. */
    void
    noteCompleted(DagNodeId id)
    {
        for (DagNodeId succ : dag_.successors(id)) {
            if (dag_.isReady(succ))
                noteReady(succ);
        }
    }

    void
    onQubitMoved(int qubit) override
    {
        // The only frontier gate a move of `qubit` can affect is the
        // head of its dependency chain; anything later depends on it.
        const DagNodeId head = dag_.qubitChainHeadNode(qubit);
        if (head < 0 || !dag_.isReady(head) || queued_[head])
            return;
        queued_[head] = 1;
        if (inRound_ && head > cursorId_) {
            // Ahead of the cursor: the historical re-scan would check
            // this gate later in the current pass — keep that order.
            const auto it = std::lower_bound(
                cur_.begin() + static_cast<std::ptrdiff_t>(cursor_),
                cur_.end(), head);
            cur_.insert(it, head);
        } else {
            next_.push_back(head);
        }
    }

  private:
    /**
     * Start the next round: the queued candidates become the round's
     * visit list (ascending id). False when nothing is queued — every
     * ready gate is known non-executable and the drain is done.
     */
    bool
    beginRound()
    {
        if (next_.empty())
            return false;
        cur_.swap(next_);
        next_.clear();
        std::sort(cur_.begin(), cur_.end());
        cursor_ = 0;
        cursorId_ = -1;
        inRound_ = true;
        return true;
    }

    /** Next candidate of the round, or -1 when the round is exhausted. */
    DagNodeId
    take()
    {
        if (cursor_ >= cur_.size()) {
            inRound_ = false;
            return -1;
        }
        const DagNodeId id = cur_[cursor_++];
        queued_[id] = 0;
        cursorId_ = id;
        return id;
    }

    /** Swap the buffers with the donor's, emptied (no-op without). */
    void
    trade()
    {
        if (donor_ != nullptr) {
            cur_.swap(donor_->cur);
            next_.swap(donor_->next);
            queued_.swap(donor_->queued);
        }
        cur_.clear();
        next_.clear();
    }

    const DependencyDag &dag_;
    WorklistScratch *donor_;
    std::vector<DagNodeId> cur_;  ///< Current round, ascending ids.
    std::vector<DagNodeId> next_; ///< Accumulating next round.
    std::vector<std::uint8_t> queued_; ///< Node is in cur_ or next_.
    std::size_t cursor_ = 0;
    DagNodeId cursorId_ = -1;
    bool inRound_ = false;
};

} // namespace mussti

#endif // MUSSTI_CORE_FRONTIER_WORKLIST_H
