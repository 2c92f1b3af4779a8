#include "dag/dag.h"

#include <algorithm>

#include "common/logging.h"

namespace mussti {

void
DependencyDag::tradeScratch()
{
    if (donor_ == nullptr)
        return;
    // Swap-and-clear serves both directions: at construction the DAG
    // takes the donor's warm buffers (emptied, capacity kept); on
    // destruction they go back and the DAG keeps the empty ones.
    DagScratch &s = *donor_;
    const auto trade = [](auto &mine, auto &theirs) {
        mine.swap(theirs);
        mine.clear();
    };
    trade(nodes_, s.nodes);
    trade(links_, s.links);
    trade(done_, s.done);
    trade(lead1qGates_, s.lead1qGates);
    trade(trailing1q_, s.trailing1q);
    trade(depth_, s.depth);
    trade(nextUse_, s.nextUse);
    trade(nextUseLog_, s.nextUseLog);
    trade(chainOffsets_, s.chainOffsets);
    trade(chainNodes_, s.chainNodes);
    trade(chainHead_, s.chainHead);
    trade(frontier_, s.frontier);
    trade(worklist_, s.worklist);
    trade(inWave_, s.inWave);
    trade(parkHead_, s.parkHead);
    trade(parkNext_, s.parkNext);
    trade(pendingRetired_, s.pendingRetired);
    trade(dirtyQubits_, s.dirtyQubits);
}

DependencyDag::~DependencyDag()
{
    tradeScratch();
}

DependencyDag::DependencyDag(const Circuit &circuit, int window_horizon,
                             DagScratch *scratch,
                             const std::vector<int> *chain_heads)
    : horizon_(window_horizon), donor_(scratch)
{
    MUSSTI_REQUIRE(window_horizon >= 1,
                   "DAG window horizon must be >= 1, got "
                   << window_horizon);
    tradeScratch();

    const int n = circuit.numQubits();
    MUSSTI_ASSERT(chain_heads == nullptr ||
                      static_cast<int>(chain_heads->size()) == n,
                  "watermark has " << chain_heads->size()
                  << " chain heads for " << n << " qubits");
    // Pending 1q gates per qubit, attached to the next 2q node on that
    // qubit (or to trailing1q_ if none follows). Inner vectors keep
    // their capacity across clears, so churn is bounded by the qubit
    // count, not the gate count.
    std::vector<std::vector<Gate>> pending_1q(n);

    // Counting pass: sizes the node stores (DagNode growth would
    // otherwise re-copy the node array log(gates) times) and the
    // per-qubit dependency chains, which are CSR — one flat array plus
    // offsets, no per-qubit vectors.
    std::size_t two_qubit = 0;
    std::size_t single_qubit = 0;
    chainOffsets_.assign(n + 1, 0);
    for (std::size_t i = 0; i < circuit.size(); ++i) {
        const Gate &g = circuit[i];
        if (!g.twoQubit()) {
            ++single_qubit;
            continue;
        }
        ++two_qubit;
        ++chainOffsets_[g.q0 + 1];
        ++chainOffsets_[g.q1 + 1];
    }
    for (int q = 0; q < n; ++q)
        chainOffsets_[q + 1] += chainOffsets_[q];
    nodes_.reserve(two_qubit);
    links_.reserve(two_qubit);
    done_.reserve(two_qubit);
    depth_.reserve(two_qubit);
    lead1qGates_.reserve(single_qubit);
    chainNodes_.resize(chainOffsets_[n]);
    // Chain fill cursor; reset to the chain heads (0) below. The last
    // entry written on q's chain is q's previous two-qubit gate.
    chainHead_.assign(n, 0);
    // Frontier capacity bound: frontier nodes are chain heads of their
    // operand qubits, and each qubit has at most one chain head, so the
    // frontier never exceeds floor(n / 2) nodes. Reserving it here keeps
    // insertSortedFrontier allocation-free for the whole run.
    frontier_.reserve(static_cast<std::size_t>(n) / 2 + 1);

    for (std::size_t i = 0; i < circuit.size(); ++i) {
        const Gate &g = circuit[i];
        if (g.kind == GateKind::Barrier)
            continue;
        if (!g.twoQubit()) {
            if (g.q0 >= 0)
                pending_1q[g.q0].push_back(g);
            continue;
        }

        DagNode node;
        node.gate = g;
        node.circuitIndex = static_cast<int>(i);
        node.lead1qOffset = static_cast<int>(lead1qGates_.size());
        for (int q : {g.q0, g.q1}) {
            lead1qGates_.insert(lead1qGates_.end(), pending_1q[q].begin(),
                                pending_1q[q].end());
            pending_1q[q].clear();
        }
        node.lead1qCount = static_cast<int>(lead1qGates_.size()) -
            node.lead1qOffset;

        const DagNodeId id = static_cast<DagNodeId>(nodes_.size());
        DagLinks link;
        int deepest = -1; // Deepest predecessor's window depth.
        bool below_head[2] = {false, false}; // Under the watermark.
        for (int k = 0; k < 2; ++k) {
            const int q = k == 0 ? g.q0 : g.q1;
            below_head[k] = chain_heads != nullptr &&
                chainHead_[q] < (*chain_heads)[q];
            const int slot = chainOffsets_[q] + chainHead_[q]++;
            const DagNodeId prev = slot > chainOffsets_[q]
                ? chainNodes_[slot - 1]
                : -1;
            chainNodes_[slot] = id;
            link.pred[k] = prev;
            link.qubit[k] = q;
            // Avoid duplicate edges when both operands share the same
            // predecessor. A retired predecessor reads depth -1 and
            // resolves nothing.
            if (prev >= 0 && (k == 0 || prev != link.pred[0])) {
                links_[prev].succs.push_back(id);
                node.pendingPreds += !done_[prev];
                deepest = std::max(deepest, depth_[prev]);
            }
        }
        MUSSTI_ASSERT(below_head[0] == below_head[1],
                      "watermark splits node " << id
                      << " between its operand chains");
        const bool retired = below_head[0];
        nodes_.push_back(node);
        links_.push_back(link);
        done_.push_back(retired);
        // Ids are in topological order, so every predecessor's window
        // depth is final: one past the deepest, clamped to the horizon.
        depth_.push_back(retired ? -1 : std::min(horizon_, deepest + 1));
        // Ids are also in circuit order, so the frontier built here is
        // already FCFS-sorted.
        if (!retired && node.pendingPreds == 0)
            frontier_.push_back(id);
        remaining_ += !retired;
    }

    for (auto &rest : pending_1q) {
        trailing1q_.insert(trailing1q_.end(), rest.begin(), rest.end());
    }

    if (chain_heads == nullptr) {
        std::fill(chainHead_.begin(), chainHead_.end(), 0);
    } else {
        for (int q = 0; q < n; ++q) {
            MUSSTI_ASSERT((*chain_heads)[q] >= 0 &&
                              (*chain_heads)[q] <= chainHead_[q],
                          "watermark head " << (*chain_heads)[q]
                          << " outside qubit " << q << "'s chain of "
                          << chainHead_[q]);
        }
        chainHead_ = *chain_heads;
    }

    // Wave and retirement queues: bounded by the node count (inWave_
    // keeps a node on the wave or in a bucket at most once). The parking
    // buckets are intrusive lists, a head per depth and a link per node:
    // a stored depth exceeds neither the horizon nor the node count.
    worklist_.resize(nodes_.size() + 1);
    inWave_.assign(nodes_.size(), 0);
    pendingRetired_.reserve(nodes_.size() + 1);
    parkHead_.assign(std::min<std::size_t>(horizon_, nodes_.size()) + 1, -1);
    parkNext_.assign(nodes_.size(), -1);
}

void
DependencyDag::insertSortedFrontier(DagNodeId id)
{
    // Frontier stays sorted by circuitIndex == node id order.
    auto it = std::lower_bound(frontier_.begin(), frontier_.end(), id);
    frontier_.insert(it, id);
}

void
DependencyDag::trackNextUse()
{
    flushWindow(); // The fill reads settled depths.
    // The nodes touching a qubit are totally ordered through it, so the
    // first unfinished one always carries the qubit's minimum window
    // depth. The fill is not logged: a caller's first sync copies the
    // whole table.
    const int qubits = static_cast<int>(chainHead_.size());
    nextUse_.resize(qubits);
    for (int q = 0; q < qubits; ++q)
        refreshQubitNextUse(q);
    dirtyQubits_.reserve(2 * nodes_.size() + 2);
    nextUseTracked_ = true;
}

void
DependencyDag::refreshQubitNextUse(int q) const
{
    const QubitChainView chain = qubitChain(q);
    const int head = chainHead_[q];
    nextUse_[q] = head < chain.size() ? depth_[chain[head]] : horizon_;
    if (nextUseTracked_)
        nextUseLog_.push_back(q);
}

void
DependencyDag::flushWindow() const
{
    if (!pendingRetired_.empty() || parkedMax_ >= 0)
        settle(horizon_); // Nothing is deeper than the horizon.
    for (int q : dirtyQubits_)
        refreshQubitNextUse(q);
    dirtyQubits_.clear();
}

void
DependencyDag::settle(int band) const
{
    // Decrease-only worklist over the cone affected by every queued
    // retirement at once. Depths are a pure function of the retired
    // set, so one batched wave lands on the same fixpoint as per-
    // retirement propagation; clamping to the horizon stops changes
    // beyond the window immediately. A phase-1 drain of n executable
    // gates therefore costs one wave, not n.
    // A node may be reachable through both operand chains and through
    // several retirements of one burst; the inWave_ flag queues it once
    // per wave. Deduping is sound because the visit reads the live
    // pred depths at pop time: one visit after the duplicate pushes
    // lands on the same value, and any later pred decrease re-queues
    // the node (the push below fires on every actual decrease).
    // An entry whose stored depth is above `band` is parked instead of
    // pushed (see "Band settles" in dag.h). It keeps its inWave_ flag,
    // and its bucket stays right: a stored depth changes only on a visit.
    // Successors of an unfinished node are unfinished, so only the
    // seeds (successors of this burst's retirements) and parked entries
    // (which may have retired since) need a done check.
    //
    // The loop works on raw pointers and local copies: its byte-sized
    // flag stores may alias any member, which would otherwise force a
    // reload of every vector's data pointer after each of them.
    const DagLinks *links = links_.data();
    const std::uint8_t *done = done_.data();
    std::uint8_t *in_wave = inWave_.data();
    int *depth = depth_.data();
    int *next_use = nextUse_.data();
    DagNodeId *stack = worklist_.data();
    DagNodeId *park_head = parkHead_.data();
    DagNodeId *park_next = parkNext_.data();
    const int horizon = horizon_;
    const bool track_next_use = nextUseTracked_;
    int top = 0;
    int lo = parkedMin_;
    int hi = parkedMax_;

    // Unpark the buckets the band now covers, deepest first, so the
    // LIFO wave reaches the deep entries after the cone above them.
    for (int d = std::min(band, hi); d >= lo; --d) {
        for (DagNodeId n = park_head[d]; n >= 0; n = park_next[n]) {
            if (done[n])
                in_wave[n] = 0;
            else
                stack[top++] = n;
        }
        park_head[d] = -1;
    }
    if (hi <= band) {
        lo = kNoneParked;
        hi = -1;
    } else {
        lo = std::max(lo, band + 1);
    }

    const auto enqueue = [&](DagNodeId id) {
        if (in_wave[id])
            return;
        in_wave[id] = 1;
        const int d = depth[id];
        if (d <= band) {
            stack[top++] = id;
            return;
        }
        park_next[id] = park_head[d];
        park_head[d] = id;
        lo = std::min(lo, d);
        hi = std::max(hi, d);
    };
    for (DagNodeId id : pendingRetired_) {
        for (DagNodeId succ : links[id].succs) {
            if (!done[succ])
                enqueue(succ);
        }
    }
    pendingRetired_.clear();

    std::uint64_t visits = 0;
    while (top > 0) {
        const DagNodeId n = stack[--top];
        in_wave[n] = 0;
        ++visits;
        // A retired node's depth reads -1, so one read per chain
        // predecessor yields both n's depth (one past its deepest
        // unfinished predecessor) and whether n heads that qubit's chain
        // (predecessor absent or retired).
        const DagLinks &link = links[n];
        int deepest = -1;
        bool heads[2] = {false, false};
        for (int k = 0; k < 2; ++k) {
            const DagNodeId pred = link.pred[k];
            const int pred_depth = pred < 0 ? -1 : depth[pred];
            heads[k] = pred_depth < 0;
            deepest = std::max(deepest, pred_depth);
        }
        const int fresh = std::min(horizon, deepest + 1);
        if (fresh >= depth[n])
            continue;
        depth[n] = fresh;
        for (int k = 0; k < 2 && track_next_use; ++k) {
            if (heads[k]) {
                next_use[link.qubit[k]] = fresh;
                nextUseLog_.push_back(link.qubit[k]);
            }
        }
        for (DagNodeId succ : link.succs)
            enqueue(succ);
    }
    windowVisits_ += visits;

    parkedMin_ = lo;
    parkedMax_ = hi;
    if (hi < 0)
        retiredSinceExact_ = 0; // Nothing parked: every depth is exact.
}

void
DependencyDag::complete(DagNodeId id)
{
    // The frontier is sorted by node id, so membership is a binary
    // search (complete() sits inside the drain loop).
    auto it = std::lower_bound(frontier_.begin(), frontier_.end(), id);
    MUSSTI_ASSERT(it != frontier_.end() && *it == id,
                  "complete() on non-frontier node " << id);
    frontier_.erase(it);
    MUSSTI_ASSERT(!done_[id], "double completion of node " << id);
    done_[id] = 1;
    depth_[id] = -1; // The wave's retired mark (see settle()).
    --remaining_;
    const DagLinks &link = links_[id];
    for (DagNodeId succ : link.succs) {
        if (--nodes_[succ].pendingPreds == 0)
            insertSortedFrontier(succ);
    }

    // Incremental window maintenance: the retired node was the chain
    // head of both its qubits (frontier nodes have no unfinished
    // ancestors), so advance their heads now (O(1)) and queue the depth
    // relaxation for the next window read (flushWindow).
    for (int q : link.qubit) {
        ++chainHead_[q];
        if (nextUseTracked_)
            dirtyQubits_.push_back(q);
    }
    pendingRetired_.push_back(id);
    ++retiredSinceExact_;
}

} // namespace mussti
