/**
 * @file
 * Gate dependency graph (section 3.1 of the paper).
 *
 * Nodes are the two-qubit gates of a circuit; single-qubit gates are
 * recorded as satellite lists attached to the following two-qubit node
 * (or to a terminal list) so they can be costed without participating in
 * scheduling, exactly the simplification the paper applies. An edge
 * (g_i, g_j) means g_j shares a qubit with g_i and appears later; the
 * frontier is the set of nodes with zero unresolved predecessors.
 *
 * The structure is consumed destructively by schedulers: complete(node)
 * retires a frontier node and unlocks its successors.
 *
 * ## The incremental front window
 *
 * The replacement scheduler needs, at every routing step, the DAG layer
 * of each qubit's next two-qubit gate within a `windowHorizon`-layer
 * look-ahead (the paper's "anticipated qubit usage", section 3.4). Layer
 * membership is the longest-path depth over the *remaining* (non-retired)
 * nodes: a node's layer is 0 when every predecessor is done, otherwise
 * 1 + the maximum layer among its unfinished predecessors — exactly the
 * layers a peel of the current frontier would produce.
 *
 * Instead of re-peeling the graph per step (O(gates) scratch and walk),
 * the DAG maintains this state persistently:
 *
 *  - `windowDepth(node)`: the node's layer, clamped to the horizon,
 *    set during construction and updated after complete() by a
 *    decrease-only wave over the affected cone (depths never increase
 *    as nodes retire);
 *  - `nextUse()`: per qubit, the layer of its first unfinished gate (the
 *    head of its dependency chain), or the horizon sentinel when the
 *    qubit is idle throughout the window. Because the gates touching a
 *    qubit form a chain in the DAG, the chain head always carries the
 *    minimum depth, so this is an O(1)-per-qubit read. Only the
 *    MUSS-TI scheduler reads it, so the table is opt-in
 *    (trackNextUse()); the grid baselines' DAGs keep depths alone.
 *
 * The relaxation wave is the DAG's hottest loop (tens of depth
 * decrements per node per scheduling run), so it reads only compact
 * per-node arrays — a DagLinks record, a `done` byte, the depth — and
 * never a DagNode. A node heads qubit q's chain exactly when its
 * predecessor on q is absent or done: that is how the wave knows which
 * nextUse entries a depth decrease moves. complete() sets a retired
 * node's depth to -1, so a predecessor's depth alone tells both. No
 * per-layer node sets are kept; forEachWindowNode() walks the qubit
 * chains on demand (only delta capture needs it, not the scheduling
 * loop).
 *
 * ### Band settles
 *
 * Two kinds of reader settle the window. The full readers —
 * windowDepth(), nextUse(), syncNextUse(), forEachWindowNode() — run the
 * wave to its fixpoint: every depth exact, every tracked nextUse entry
 * current.
 * The scheduler takes one of those per routing step. The threshold
 * reader withinLayers(id, k) only asks whether a depth is below k (the
 * SWAP-insertion weight table asks it with k = lookAhead, 8 by default,
 * on every check after a fiber gate), so it settles no deeper than the
 * answer needs. Let r count the retirements since every depth was last
 * exact. Then:
 *
 *  - the read answers from the stored depth s alone when s < k or
 *    s - r >= k, since the true depth t obeys s - r <= t <= s;
 *  - otherwise it runs a band settle: the wave visits only entries whose
 *    stored depth is at most the band B = k - 1 + r, and parks deeper
 *    ones, unvisited, in per-depth buckets. A later band settle pulls
 *    back the buckets at or below its own band; the next full settle
 *    drains them all. A parked node that retires in between is dropped
 *    when its bucket is drained (its own retirement seeded its
 *    successors).
 *
 * Why both answers are exact:
 *
 *  - Stored depths are upper bounds on the true ones. They start exact,
 *    a retirement only lowers true depths, and the wave sets a depth to
 *    one past its predecessors' stored depths, themselves upper bounds.
 *  - One retirement lowers any true depth by at most 1 (a longest path
 *    loses at most its first node). So t is at least the node's depth
 *    when the window was last exact, minus r; and s, which only
 *    decreases, is at most that old exact depth. Hence s - r <= t <= s.
 *  - Every unfinished node that is neither on the wave nor parked is
 *    locally consistent: its stored depth is one past its deepest
 *    unfinished predecessor's (clamped). After a band settle the wave is
 *    empty and every parked node's stored depth is above B.
 *  - Take an unfinished node with t < k. Then s <= t + r <= B, so it is
 *    not parked and is locally consistent. By induction on t its
 *    unfinished predecessors (true depth < t) are exact, so it is exact.
 *    A node with t >= k has s >= t >= k. Either way, s < k exactly when
 *    t < k.
 *
 * When a settle leaves nothing parked, every depth is exact again and r
 * restarts at 0.
 *
 * No reader looks past the horizon: the weight table's look-ahead is
 * at most the horizon (the scheduler rejects a deeper one), and Dai
 * builds its DAG with horizon = its look-ahead. The non-destructive
 * layer peel the window replaced survives only as the tests' reference
 * (tests/dag_reference.h), built on the public API.
 *
 * ## Allocation discipline
 *
 * The scheduler's hot loop (drain, route, complete) must perform zero
 * heap allocations in steady state. Everything that grows during that
 * loop — the frontier, the relaxation worklist and parking buckets, the
 * retirement queue — is reserved to its proven bound at construction,
 * and the dirty-qubit queue by trackNextUse(). Every array — nodes,
 * links, flags, depths, the nextUse table and its log, chains, queues
 * and buckets (the DagScratch fields) — can come from a DagScratch (the
 * scheduler's per-thread arena, core/scheduler.cpp) and goes back to it
 * on destruction, so each rebuild reuses the previous run's capacity.
 * Per-qubit chains are CSR (one flat array + offsets).
 */
#ifndef MUSSTI_DAG_DAG_H
#define MUSSTI_DAG_DAG_H

#include <cstdint>
#include <limits>
#include <vector>

#include "circuit/circuit.h"
#include "common/logging.h"

namespace mussti {

/** Node id inside a DependencyDag (index into its node array). */
using DagNodeId = int;

/**
 * Inline edge list of a DAG node. A node has at most two edges per
 * direction — its qubits each contribute one previous and one next gate
 * (deduplicated when both operands share the neighbour) — so edges live
 * inside the node, sparing two heap allocations per gate and a pointer
 * chase per traversal. Unused slots hold -1 and trail the used ones.
 */
class DagEdgeList
{
  public:
    void
    push_back(DagNodeId id)
    {
        MUSSTI_ASSERT(ids_[1] < 0, "a DAG node has at most 2 edges per "
                      "direction (one per operand qubit)");
        ids_[ids_[0] < 0 ? 0 : 1] = id;
    }

    const DagNodeId *begin() const { return ids_; }
    const DagNodeId *end() const { return ids_ + size(); }
    std::size_t size() const { return (ids_[0] >= 0) + (ids_[1] >= 0); }
    bool empty() const { return ids_[0] < 0; }

  private:
    DagNodeId ids_[2] = {-1, -1};
};

/** One two-qubit gate node. */
struct DagNode
{
    Gate gate;                       ///< The two-qubit gate.
    int circuitIndex = -1;           ///< Position in the source circuit
                                     ///< (FCFS tie-breaking key).
    int pendingPreds = 0;            ///< Unresolved predecessor count.
    int lead1qOffset = 0;            ///< Slice of the DAG's flat leading-
    int lead1qCount = 0;             ///< 1q gate store (leading1q(id)).
};

/** A node's 24-byte record for the window relaxation wave. */
struct DagLinks
{
    DagNodeId pred[2] = {-1, -1}; ///< Previous gate on qubit[k]'s chain
                                  ///< or -1 (may name one node twice).
    DagEdgeList succs;            ///< Dependent nodes.
    int qubit[2] = {-1, -1};      ///< Operands (gate.q0, gate.q1).
};

/** Read-only slice of the DAG's flat single-qubit gate store. */
struct GateSpan
{
    const Gate *data = nullptr;
    int count = 0;

    const Gate *begin() const { return data; }
    const Gate *end() const { return data + count; }
    int size() const { return count; }
};

/**
 * Recycled storage for every DependencyDag array. The MUSS-TI scheduler
 * rebuilds the DAG for every run (three per SABRE compile); donating
 * these buffers lets each rebuild reuse the previous run's capacity
 * instead of re-growing from empty, and keeps the window-maintenance
 * wave (flushWindow) allocation-free once warm. Moved into the DAG at
 * construction and handed back on destruction; contents are opaque
 * capacity, never information — a DAG built with a used scratch is
 * identical to one built without.
 */
struct DagScratch
{
    std::vector<DagNode> nodes;      ///< Node storage.
    std::vector<DagLinks> links;     ///< Per-node wave record.
    std::vector<std::uint8_t> done;  ///< Per-node retired flag.
    std::vector<Gate> lead1qGates;   ///< Flat leading-1q store.
    std::vector<Gate> trailing1q;    ///< Trailing-1q list.
    std::vector<int> depth;          ///< Per-node clamped window layer.
    std::vector<int> nextUse;        ///< Per-qubit chain-head depth.
    std::vector<int> nextUseLog;     ///< syncNextUse change log.
    std::vector<int> chainOffsets;   ///< CSR offsets of the qubit chains.
    std::vector<DagNodeId> chainNodes; ///< CSR payload of the chains.
    std::vector<int> chainHead;      ///< Per-qubit first-unfinished index.
    std::vector<DagNodeId> frontier; ///< Ready-node list (sorted by id).
    std::vector<DagNodeId> worklist; ///< Depth-relaxation wave stack.
    std::vector<std::uint8_t> inWave; ///< Wave-membership dedup flags.
    std::vector<DagNodeId> parkHead; ///< Per-depth parked-bucket heads.
    std::vector<DagNodeId> parkNext; ///< Per-node parked-bucket links.
    std::vector<DagNodeId> pendingRetired; ///< Retirements pre-flush.
    std::vector<int> dirtyQubits;    ///< Qubits whose chain head moved.
};

/**
 * Read-only view of one qubit's dependency chain (CSR slice). Nodes
 * appear in circuit order; the unfinished suffix starts at
 * DependencyDag::qubitChainHead.
 */
struct QubitChainView
{
    const DagNodeId *data = nullptr;
    int count = 0;

    const DagNodeId *begin() const { return data; }
    const DagNodeId *end() const { return data + count; }
    int size() const { return count; }

    DagNodeId
    operator[](int i) const
    {
        MUSSTI_ASSERT(i >= 0 && i < count,
                      "chain view index " << i << " outside " << count);
        return data[i];
    }
};

/**
 * Dependency DAG over the two-qubit gates of a circuit.
 */
class DependencyDag
{
  public:
    /** Default look-ahead horizon of the incremental window (layers). */
    static constexpr int kDefaultWindowHorizon = 64;

    /**
     * Build from a circuit in O(g). `window_horizon` bounds the
     * incremental look-ahead window: depths and nextUse() values are
     * clamped to it, and it doubles as nextUse()'s idle sentinel.
     * `scratch`, when given, donates warm buffers for the window state
     * (returned when the DAG is destroyed); output is identical either
     * way.
     *
     * `chain_heads`, when given, builds the DAG at that retirement
     * watermark: one entry per qubit, and the first chain_heads[q]
     * nodes of qubit q's chain are born retired. complete() only ever
     * retires a node that heads both its chains, so any retired set is
     * such a per-chain prefix, and the build lands on exactly the state
     * — frontier, remaining(), depths, chain heads — that completing
     * those nodes leaves once the window is settled. Each head must lie
     * within its chain and cover every node on both operand chains or
     * on neither (asserted).
     */
    explicit DependencyDag(const Circuit &circuit,
                           int window_horizon = kDefaultWindowHorizon,
                           DagScratch *scratch = nullptr,
                           const std::vector<int> *chain_heads = nullptr);

    ~DependencyDag();

    DependencyDag(const DependencyDag &) = delete;
    DependencyDag &operator=(const DependencyDag &) = delete;

    /** Total number of two-qubit nodes. */
    int size() const { return static_cast<int>(nodes_.size()); }

    /** Number of not-yet-completed nodes. */
    int remaining() const { return remaining_; }

    /** True when every node has been completed. */
    bool empty() const { return remaining_ == 0; }

    /** Node access. */
    const DagNode &node(DagNodeId id) const { return nodes_[id]; }

    /**
     * Single-qubit gates costed just before this node executes. Stored
     * flat across the DAG (one array, not one vector per node) so
     * 1q-heavy circuits build without thousands of small allocations.
     */
    GateSpan
    leading1q(DagNodeId id) const
    {
        const DagNode &n = nodes_[id];
        return {lead1qGates_.data() + n.lead1qOffset, n.lead1qCount};
    }

    /**
     * Current frontier in ascending circuitIndex order (the paper's
     * first-come-first-served order).
     */
    const std::vector<DagNodeId> &frontier() const { return frontier_; }

    /**
     * Retire a frontier node; its successors whose predecessors are all
     * done join the frontier, and the incremental window (depths and,
     * when tracked, nextUse) is updated in place. Panics if the node is
     * not in the frontier.
     */
    void complete(DagNodeId id);

    /** The window horizon this DAG was built with. */
    int windowHorizon() const { return horizon_; }

    /**
     * Call visit(id) once for every unfinished node inside the window
     * (window depth < windowHorizon()), in no particular order. One walk
     * over the qubit chains: an unfinished chain's depths increase from
     * its head, so each chain's window nodes are a prefix of it, and a
     * node is visited from the chain of its first operand. O(qubits +
     * window nodes); allocation-free.
     */
    template <typename Visit>
    void
    forEachWindowNode(Visit &&visit) const
    {
        flushWindow();
        const int qubits = static_cast<int>(chainHead_.size());
        for (int q = 0; q < qubits; ++q) {
            const int end = chainOffsets_[q + 1];
            for (int i = chainOffsets_[q] + chainHead_[q]; i < end; ++i) {
                const DagNodeId id = chainNodes_[i];
                if (depth_[id] >= horizon_)
                    break;
                if (links_[id].qubit[0] == q)
                    visit(id);
            }
        }
    }

    /**
     * Layer of a node within the window, clamped to windowHorizon():
     * 0 for frontier nodes, horizon for nodes at or beyond it, -1 for
     * retired nodes.
     */
    int
    windowDepth(DagNodeId id) const
    {
        flushWindow();
        return depth_[id];
    }

    /**
     * Threshold read: true when the unfinished node `id` lies in the
     * first `k` window layers (windowDepth(id) < k), for
     * 1 <= k <= windowHorizon().
     * Settles only the band the answer depends on (see "Band settles"
     * above), so it is cheap to ask right after a burst of retirements.
     */
    bool
    withinLayers(DagNodeId id, int k) const
    {
        // The stored depth s bounds the true one t from both sides,
        // s - r <= t <= s, so settle only when the bounds straddle k.
        const int stored = depth_[id];
        if (stored < k)
            return true;
        if (stored - retiredSinceExact_ >= k)
            return false;
        const int band = k - 1 + retiredSinceExact_;
        if (!pendingRetired_.empty() || parkedMin_ <= band)
            settle(band);
        return depth_[id] < k;
    }

    /**
     * Relaxation-wave visits so far: nodes the wave re-evaluated against
     * their predecessors, over every settle of this DAG. A deterministic
     * work counter — the same circuit and the same read sequence always
     * give the same count.
     */
    std::uint64_t windowVisits() const { return windowVisits_; }

    /**
     * Anticipated-usage table, maintained incrementally: nextUse()[q] is
     * the window depth of qubit q's first unfinished two-qubit gate, or
     * windowHorizon() when q has none within the window. Sized to the
     * circuit's qubit count. Requires trackNextUse().
     *
     * Retirements are batched: complete() only queues the update, and
     * the first read after a burst settles the window in one
     * output-sensitive wave (see flushWindow), so draining a run of
     * executable gates costs nothing per gate.
     */
    const std::vector<int> &
    nextUse() const
    {
        MUSSTI_ASSERT(nextUseTracked_, "nextUse() without trackNextUse()");
        flushWindow();
        return nextUse_;
    }

    /**
     * Start maintaining the nextUse() table (filled here from the chain
     * heads) and logging its changes for syncNextUse(). Off by default:
     * the grid baselines never read the table, so their retirements
     * skip every nextUse write.
     */
    void trackNextUse();

    /**
     * Bring `copy` up to date with nextUse(). With `full` (the first
     * snapshot of a run) the whole table is copied; afterwards only the
     * qubits whose value changed since the previous sync are patched —
     * a routing step touches a handful of chain heads, not the whole
     * qubit population. Requires trackNextUse(). The result is always
     * exactly nextUse(); the log is an optimisation, not a source of
     * truth.
     */
    void
    syncNextUse(std::vector<int> &copy, bool full) const
    {
        MUSSTI_ASSERT(nextUseTracked_,
                      "syncNextUse() without trackNextUse()");
        flushWindow();
        if (full || copy.size() != nextUse_.size()) {
            copy = nextUse_;
        } else {
            for (int q : nextUseLog_)
                copy[q] = nextUse_[q];
        }
        nextUseLog_.clear();
    }

    /**
     * All nodes touching qubit q, in circuit order. The unfinished ones
     * form the suffix starting at qubitChainHead(q), and their window
     * depths are non-decreasing along the chain (each gate depends on
     * the previous gate on the same qubit), so the nodes of q inside a
     * k-layer window are a prefix of that suffix.
     */
    QubitChainView
    qubitChain(int q) const
    {
        return {chainNodes_.data() + chainOffsets_[q],
                chainOffsets_[q + 1] - chainOffsets_[q]};
    }

    /** Index into qubitChain(q) of q's first unfinished node. */
    int qubitChainHead(int q) const { return chainHead_[q]; }

    /**
     * The first unfinished node on qubit q's chain, or -1 when the
     * qubit has no work left. This is the only node of q that can sit
     * on the frontier (later chain nodes depend on it), which makes it
     * the pivot of the scheduler's relocation dirtying: moving q can
     * only change the executability of this node.
     */
    DagNodeId
    qubitChainHeadNode(int q) const
    {
        const int begin = chainOffsets_[q] + chainHead_[q];
        return begin < chainOffsets_[q + 1] ? chainNodes_[begin] : -1;
    }

    /**
     * Trailing single-qubit gates (after the last 2q gate on their qubit)
     * — costed at the end of a schedule.
     */
    const std::vector<Gate> &trailing1q() const { return trailing1q_; }

    /** Dependent nodes of `id` (at most two, deduplicated). */
    const DagEdgeList &successors(DagNodeId id) const
    {
        return links_[id].succs;
    }

    /**
     * True when `id` is unfinished and every predecessor has retired —
     * the readiness test of the scheduler's phase-1 drain and frontier
     * worklist and the grid baselines.
     */
    bool
    isReady(DagNodeId id) const
    {
        return !done_[id] && nodes_[id].pendingPreds == 0;
    }

  private:
    std::vector<DagNode> nodes_;
    std::vector<DagLinks> links_;      ///< Per-node wave record.
    std::vector<std::uint8_t> done_;   ///< Per-node retired flag.
    std::vector<Gate> lead1qGates_; ///< Flat leading-1q store (see
                                    ///< leading1q()).
    std::vector<DagNodeId> frontier_;
    std::vector<Gate> trailing1q_;
    int remaining_ = 0;
    int horizon_ = kDefaultWindowHorizon;
    DagScratch *donor_ = nullptr; ///< Buffers return here on destruction.

    // ---- incremental window state ------------------------------------
    // Depths are a pure function of the retired set, so maintenance is
    // lazy: complete() queues the retirement and the next read settles
    // every queued one in a single decrease-only wave. Mutable where the
    // flush writes: it happens under const readers.
    mutable std::vector<int> depth_;   ///< Clamped remaining-graph layer.
    mutable std::vector<int> nextUse_; ///< Per-qubit chain-head depth
                                       ///< (or horizon); tracked only.
    mutable std::vector<int> nextUseLog_; ///< Qubits written since the
                                       ///< last sync (may repeat).
    bool nextUseTracked_ = false;      ///< See trackNextUse().
    std::vector<int> chainOffsets_;    ///< CSR offsets (numQubits + 1).
    std::vector<DagNodeId> chainNodes_; ///< CSR payload: nodes touching
                                        ///< q, in circuit order.
    std::vector<int> chainHead_; ///< Index of q's first unfinished node.
    mutable std::vector<DagNodeId> worklist_; ///< Wave stack (sized
                                 ///< to the node count).
    mutable std::vector<std::uint8_t> inWave_; ///< Node on the wave or
                                 ///< parked (dedup).
    mutable std::vector<DagNodeId> pendingRetired_; ///< Retirements not
                                 ///< yet folded into depths/nextUse.
    mutable std::vector<int> dirtyQubits_; ///< Tracked qubits whose chain
                                 ///< head advanced since the last flush.
    mutable std::vector<DagNodeId> parkHead_; ///< First parked node of
                                 ///< stored depth d, or -1.
    mutable std::vector<DagNodeId> parkNext_; ///< Next parked node in the
                                 ///< same bucket, or -1.
    /** parkedMin_ while every bucket is empty: above any band. */
    static constexpr int kNoneParked = std::numeric_limits<int>::max();
    mutable int parkedMin_ = kNoneParked; ///< No bucket below this is
                                 ///< occupied.
    mutable int parkedMax_ = -1; ///< Nor any above this one (-1: all
                                 ///< buckets are empty).
    mutable int retiredSinceExact_ = 0; ///< r: retirements since every
                                 ///< depth was last exact.
    mutable std::uint64_t windowVisits_ = 0; ///< See windowVisits().

    void insertSortedFrontier(DagNodeId id);

    /** Refresh nextUse_[q] from q's chain head. */
    void refreshQubitNextUse(int q) const;

    /** Fold every queued retirement into depths and tracked nextUse. */
    void flushWindow() const;

    /**
     * Run the wave, parking entries whose stored depth exceeds `band`
     * (none when band >= horizon); see "Band settles".
     */
    void settle(int band) const;

    /** Swap every array with the donor's (no-op without one). */
    void tradeScratch();
};

} // namespace mussti

#endif // MUSSTI_DAG_DAG_H
