/**
 * @file
 * Tests for the dependency DAG: construction, frontier semantics,
 * completion, 1q satellite attachment, and the k-layer window.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "dag/dag.h"
#include "dag_reference.h"
#include "workloads/workloads.h"

namespace mussti {
namespace {

TEST(Dag, CountsOnlyTwoQubitGates)
{
    Circuit qc(3);
    qc.h(0);
    qc.cx(0, 1);
    qc.rz(1, 0.3);
    qc.cx(1, 2);
    const DependencyDag dag(qc);
    EXPECT_EQ(dag.size(), 2);
    EXPECT_EQ(dag.remaining(), 2);
}

TEST(Dag, FrontierIsIndependentGates)
{
    Circuit qc(4);
    qc.cx(0, 1);
    qc.cx(2, 3);
    qc.cx(1, 2); // depends on both
    DependencyDag dag(qc);
    EXPECT_EQ(dag.frontier().size(), 2u);
    EXPECT_TRUE(dag.isReady(0));
    EXPECT_TRUE(dag.isReady(1));
    EXPECT_FALSE(dag.isReady(2));
}

TEST(Dag, CompletionUnlocksSuccessors)
{
    Circuit qc(4);
    qc.cx(0, 1);
    qc.cx(2, 3);
    qc.cx(1, 2);
    DependencyDag dag(qc);
    dag.complete(0);
    EXPECT_FALSE(dag.isReady(2));
    dag.complete(1);
    EXPECT_TRUE(dag.isReady(2));
    dag.complete(2);
    EXPECT_TRUE(dag.empty());
}

TEST(Dag, CompletingNonFrontierPanics)
{
    Circuit qc(3);
    qc.cx(0, 1);
    qc.cx(1, 2);
    DependencyDag dag(qc);
    EXPECT_THROW(dag.complete(1), std::logic_error);
}

TEST(Dag, DoubleCompletionPanics)
{
    Circuit qc(2);
    qc.cx(0, 1);
    DependencyDag dag(qc);
    dag.complete(0);
    EXPECT_THROW(dag.complete(0), std::logic_error);
}

TEST(Dag, SharedPredecessorSingleEdge)
{
    // Both operands of the second gate come from the same predecessor;
    // the edge must be deduplicated so pendingPreds is 1. The edges are
    // exactly 0 -> 1 -> 2, each listed once. Qubit 2 stays idle.
    Circuit qc(3);
    qc.cx(0, 1);
    qc.cx(1, 0);
    qc.cx(0, 1);
    DependencyDag dag(qc);
    dag.trackNextUse();
    ASSERT_EQ(dag.successors(0).size(), 1u);
    EXPECT_EQ(*dag.successors(0).begin(), 1);
    ASSERT_EQ(dag.successors(1).size(), 1u);
    EXPECT_EQ(*dag.successors(1).begin(), 2);
    EXPECT_TRUE(dag.successors(2).empty());
    EXPECT_TRUE(dag.isReady(0));
    EXPECT_FALSE(dag.isReady(1));
    EXPECT_EQ(dag.windowDepth(2), 2);
    EXPECT_EQ(dag.nextUse(), (std::vector<int>{0, 0, 64}));
    dag.complete(0);
    EXPECT_TRUE(dag.isReady(1));
    EXPECT_EQ(dag.nextUse(), (std::vector<int>{0, 0, 64}));
    EXPECT_EQ(dag.windowDepth(2), 1);
}

TEST(Dag, LeadingOneQubitGatesAttach)
{
    Circuit qc(2);
    qc.h(0);
    qc.rz(1, 0.1);
    qc.cx(0, 1);
    qc.h(1);
    DependencyDag dag(qc);
    ASSERT_EQ(dag.size(), 1);
    EXPECT_EQ(dag.leading1q(0).size(), 2);
    EXPECT_EQ(dag.trailing1q().size(), 1u);
}

TEST(Dag, BarriersIgnored)
{
    Circuit qc(2);
    qc.add(Gate(GateKind::Barrier, -1));
    qc.cx(0, 1);
    const DependencyDag dag(qc);
    EXPECT_EQ(dag.size(), 1);
}

TEST(Dag, FrontierSortedByCircuitIndex)
{
    Circuit qc(6);
    qc.cx(4, 5);
    qc.cx(0, 1);
    qc.cx(2, 3);
    DependencyDag dag(qc);
    const auto &frontier = dag.frontier();
    ASSERT_EQ(frontier.size(), 3u);
    EXPECT_LT(dag.node(frontier[0]).circuitIndex,
              dag.node(frontier[1]).circuitIndex);
    EXPECT_LT(dag.node(frontier[1]).circuitIndex,
              dag.node(frontier[2]).circuitIndex);
}

TEST(Dag, FrontLayersRespectDependencies)
{
    Circuit qc(4);
    qc.cx(0, 1); // layer 0
    qc.cx(2, 3); // layer 0
    qc.cx(1, 2); // layer 1
    qc.cx(0, 1); // layer 2 (needs gate 0 and gate 2's completion? no:
                 // depends on gates 0 and 2 via qubits 0 and 1)
    const DependencyDag dag(qc);
    const auto layers = frontLayers(dag, 8);
    ASSERT_GE(layers.size(), 2u);
    EXPECT_EQ(layers[0].size(), 2u);
    EXPECT_EQ(layers[1].size(), 1u);
}

TEST(Dag, FrontLayersNonDestructive)
{
    const Circuit qc = makeGhz(8);
    DependencyDag dag(qc);
    const int before = dag.remaining();
    (void)frontLayers(dag, 4);
    EXPECT_EQ(dag.remaining(), before);
    EXPECT_EQ(dag.frontier().size(), 1u);
}

TEST(Dag, FrontLayersBoundedByK)
{
    const Circuit qc = makeGhz(32); // strictly serial chain
    const DependencyDag dag(qc);
    EXPECT_EQ(frontLayers(dag, 5).size(), 5u);
    EXPECT_EQ(frontLayers(dag, 0).size(), 0u);
}

TEST(Dag, GhzChainIsSerial)
{
    const Circuit qc = makeGhz(16);
    DependencyDag dag(qc);
    int retired = 0;
    while (!dag.empty()) {
        ASSERT_EQ(dag.frontier().size(), 1u);
        dag.complete(dag.frontier().front());
        ++retired;
    }
    EXPECT_EQ(retired, 15);
}

TEST(Dag, FullDrainOfWorkload)
{
    const Circuit qc = makeAdder(32);
    DependencyDag dag(qc);
    int retired = 0;
    while (!dag.empty()) {
        dag.complete(dag.frontier().front());
        ++retired;
    }
    EXPECT_EQ(retired, qc.twoQubitCount());
}

/**
 * Reference nextUse computation the incremental window must match: the
 * historical full recompute from a frontLayers peel.
 */
std::vector<int>
referenceNextUse(const DependencyDag &dag, int num_qubits, int horizon)
{
    std::vector<int> next_use(num_qubits, horizon);
    const auto layers = frontLayers(dag, horizon);
    for (int depth = static_cast<int>(layers.size()) - 1; depth >= 0;
         --depth) {
        for (DagNodeId id : layers[depth]) {
            next_use[dag.node(id).gate.q0] = depth;
            next_use[dag.node(id).gate.q1] = depth;
        }
    }
    return next_use;
}

TEST(Dag, IncrementalNextUseMatchesReferenceWhileDraining)
{
    // Drain random DAGs from varying frontier positions; after every
    // retirement the incrementally maintained table must equal the full
    // recompute. Also checked at a small horizon so clamping and the
    // idle sentinel are exercised.
    for (const int horizon : {DependencyDag::kDefaultWindowHorizon, 4}) {
        const Circuit qc = makeRandomCircuit(18, 160, 7);
        DependencyDag dag(qc, horizon);
        dag.trackNextUse();
        EXPECT_EQ(dag.windowHorizon(), horizon);
        EXPECT_EQ(dag.nextUse(),
                  referenceNextUse(dag, qc.numQubits(), horizon));
        std::size_t pick = 0;
        while (!dag.empty()) {
            const auto &frontier = dag.frontier();
            dag.complete(frontier[pick % frontier.size()]);
            pick += 3;
            ASSERT_EQ(dag.nextUse(),
                      referenceNextUse(dag, qc.numQubits(), horizon))
                << "divergence after " << pick / 3 << " retirements at "
                << "horizon " << horizon;
        }
        for (int v : dag.nextUse())
            EXPECT_EQ(v, horizon); // fully drained -> all idle
    }
}

TEST(Dag, IncrementalNextUseMatchesReferenceAfterBursts)
{
    // Same equivalence, but reading only every few retirements, so the
    // batched flush folds multi-retirement bursts in one wave.
    const Circuit qc = makeAdder(24);
    DependencyDag dag(qc);
    dag.trackNextUse();
    int retired = 0;
    while (!dag.empty()) {
        dag.complete(dag.frontier().front());
        if (++retired % 5 == 0) {
            ASSERT_EQ(dag.nextUse(),
                      referenceNextUse(dag, qc.numQubits(),
                                       dag.windowHorizon()));
        }
    }
}

TEST(Dag, WindowLayersMatchFrontLayersAsSets)
{
    // windowLayer(d) reads layer d of a peel off the window.
    const Circuit qc = makeRandomCircuit(16, 120, 5);
    DependencyDag dag(qc);
    std::size_t pick = 0;
    for (int step = 0; step < 40 && !dag.empty(); ++step) {
        const int k = 6;
        const auto layers = frontLayers(dag, k);
        for (int d = 0; d < k; ++d) {
            const std::vector<DagNodeId> expected =
                d < static_cast<int>(layers.size())
                    ? layers[d]
                    : std::vector<DagNodeId>{};
            ASSERT_EQ(windowLayer(dag, d), expected)
                << "layer " << d << " at step " << step;
        }
        const auto &frontier = dag.frontier();
        dag.complete(frontier[pick % frontier.size()]);
        ++pick;
    }
}

TEST(Dag, WindowDepthZeroIsTheFrontier)
{
    const Circuit qc = makeAdder(16);
    DependencyDag dag(qc);
    while (!dag.empty()) {
        for (DagNodeId id : dag.frontier())
            EXPECT_EQ(dag.windowDepth(id), 0);
        EXPECT_EQ(windowLayer(dag, 0), dag.frontier());
        dag.complete(dag.frontier().front());
    }
}

/**
 * Clamped layer of every node in a fresh frontLayers peel: its layer
 * index inside the first `horizon` layers, the horizon beyond them.
 * Retired nodes also read as the horizon; callers skip them.
 */
std::vector<int>
peelDepths(const DependencyDag &dag, int horizon)
{
    std::vector<int> depth(dag.size(), horizon);
    const auto layers = frontLayers(dag, horizon);
    for (int d = 0; d < static_cast<int>(layers.size()); ++d) {
        for (DagNodeId id : layers[d])
            depth[id] = d;
    }
    return depth;
}

/**
 * Check the whole incremental window against a fresh peel: every
 * unfinished node's depth, nextUse() and a syncNextUse()-patched copy,
 * and (when `check_layers`) every windowLayer(d) as a set.
 */
void
expectWindowMatchesPeel(const DependencyDag &dag,
                        const std::vector<bool> &retired, int num_qubits,
                        std::vector<int> &synced, bool check_layers)
{
    const int horizon = dag.windowHorizon();
    const std::vector<int> peel = peelDepths(dag, horizon);
    for (DagNodeId id = 0; id < dag.size(); ++id) {
        if (!retired[id]) {
            ASSERT_EQ(dag.windowDepth(id), peel[id]) << "node " << id;
        }
    }
    const std::vector<int> reference =
        referenceNextUse(dag, num_qubits, horizon);
    ASSERT_EQ(dag.nextUse(), reference);
    dag.syncNextUse(synced, false);
    ASSERT_EQ(synced, reference);
    if (!check_layers)
        return;
    const auto layers = frontLayers(dag, horizon);
    for (int d = 0; d < horizon; ++d) {
        const std::vector<DagNodeId> expected =
            d < static_cast<int>(layers.size())
                ? layers[d]
                : std::vector<DagNodeId>{};
        ASSERT_EQ(windowLayer(dag, d), expected) << "layer " << d;
    }
}

TEST(Dag, CompactWindowMatchesPeelAtEveryRetirementAndBurst)
{
    // The compact relaxation wave against the reference peel, at a
    // horizon that clamps almost everything (1), a small one (4) and the
    // default. Bursts of up to three retirements between reads exercise
    // the batched flush. The hand-built circuit has a node whose two
    // chain predecessors are the same gate (cx(1,0) after cx(0,1), and
    // again for the third gate) and idle qubits (4 and 5).
    Circuit twin(6);
    twin.cx(0, 1);
    twin.cx(1, 0);
    twin.cx(0, 1);
    twin.cx(2, 3);
    twin.cx(1, 2);
    twin.cx(3, 0);
    const Circuit circuits[] = {twin, makeRandomCircuit(14, 140, 3),
                                makeAdder(16)};
    for (const int horizon : {1, 4, DependencyDag::kDefaultWindowHorizon}) {
        for (const Circuit &qc : circuits) {
            for (const int burst : {1, 3}) {
                DependencyDag dag(qc, horizon);
                dag.trackNextUse();
                std::vector<int> synced;
                dag.syncNextUse(synced, true);
                std::vector<bool> retired(dag.size(), false);
                const bool check_layers = horizon <= 4 || burst == 3;
                SCOPED_TRACE(testing::Message()
                             << "horizon " << horizon << " burst "
                             << burst << " on " << qc.size()
                             << " gates");
                ASSERT_NO_FATAL_FAILURE(expectWindowMatchesPeel(
                    dag, retired, qc.numQubits(), synced, check_layers));
                std::size_t pick = 0;
                while (!dag.empty()) {
                    for (int b = 0; b < burst && !dag.empty(); ++b) {
                        const auto &frontier = dag.frontier();
                        const DagNodeId id =
                            frontier[pick % frontier.size()];
                        pick += 2;
                        retired[id] = true;
                        dag.complete(id);
                    }
                    ASSERT_NO_FATAL_FAILURE(expectWindowMatchesPeel(
                        dag, retired, qc.numQubits(), synced,
                        check_layers));
                }
            }
        }
    }
}

/** Window depths of every node. */
std::vector<int>
windowDepths(const DependencyDag &dag)
{
    std::vector<int> depths;
    for (DagNodeId id = 0; id < dag.size(); ++id)
        depths.push_back(dag.windowDepth(id));
    return depths;
}

/** Window depths of every node, then nextUse, as one vector. */
std::vector<int>
windowState(const DependencyDag &dag)
{
    std::vector<int> state = windowDepths(dag);
    const std::vector<int> &next_use = dag.nextUse();
    state.insert(state.end(), next_use.begin(), next_use.end());
    return state;
}

TEST(Dag, ScratchRoundTripKeepsCapacityAndChangesNothing)
{
    const Circuit big = makeRandomCircuit(24, 400, 9);
    DagScratch scratch;
    std::size_t nodes = 0;
    {
        DependencyDag dag(big, 8, &scratch);
        dag.trackNextUse();
        nodes = static_cast<std::size_t>(dag.size());
        while (!dag.empty()) {
            dag.complete(dag.frontier().front());
            (void)dag.nextUse();
        }
    }
    // Every per-node array the DAG adopted is back, still sized for it.
    EXPECT_GE(scratch.nodes.capacity(), nodes);
    EXPECT_GE(scratch.links.capacity(), nodes);
    EXPECT_GE(scratch.done.capacity(), nodes);
    EXPECT_GE(scratch.depth.capacity(), nodes);
    EXPECT_GE(scratch.inWave.capacity(), nodes);
    EXPECT_GE(scratch.worklist.capacity(), nodes);
    EXPECT_GE(scratch.parkNext.capacity(), nodes);
    EXPECT_GE(scratch.pendingRetired.capacity(), nodes);
    EXPECT_GE(scratch.chainNodes.capacity(), 2 * nodes);

    // A smaller DAG on the warm scratch matches a cold one step for
    // step, stale contents notwithstanding.
    const Circuit small = makeRandomCircuit(12, 150, 4);
    DependencyDag warm(small, 8, &scratch);
    DependencyDag cold(small, 8);
    warm.trackNextUse();
    cold.trackNextUse();
    ASSERT_EQ(warm.size(), cold.size());
    while (!cold.empty()) {
        ASSERT_EQ(warm.frontier(), cold.frontier());
        ASSERT_EQ(windowState(warm), windowState(cold));
        const DagNodeId id = cold.frontier().back();
        warm.complete(id);
        cold.complete(id);
    }
    EXPECT_EQ(windowState(warm), windowState(cold));
}

TEST(Dag, UntrackedDagKeepsTheSameDepthsWithoutNextUse)
{
    // The nextUse table is opt-in. An untracked DAG must relax the very
    // same depths with the very same wave visits as a tracked one, and
    // refuse nextUse reads. Tracking turned on mid-drain fills the table
    // from the current chain heads.
    const Circuit qc = makeRandomCircuit(16, 200, 13);
    DependencyDag tracked(qc, 8);
    DependencyDag untracked(qc, 8);
    DependencyDag late(qc, 8);
    tracked.trackNextUse();
    EXPECT_THROW((void)untracked.nextUse(), std::logic_error);
    std::vector<int> copy;
    EXPECT_THROW(untracked.syncNextUse(copy, true), std::logic_error);
    std::size_t pick = 0;
    while (!tracked.empty()) {
        const auto &frontier = tracked.frontier();
        const DagNodeId id = frontier[pick % frontier.size()];
        pick += 5;
        for (DependencyDag *dag : {&tracked, &untracked, &late})
            dag->complete(id);
        ASSERT_EQ(windowDepths(untracked), windowDepths(tracked));
        ASSERT_EQ(untracked.windowVisits(), tracked.windowVisits());
        if (pick == 100) {
            late.trackNextUse();
            ASSERT_EQ(late.nextUse(), tracked.nextUse());
        }
    }
    EXPECT_EQ(late.nextUse(), tracked.nextUse());
}

/**
 * Threshold reads against a fresh peel: withinLayers(id, k) for every
 * unfinished node, starting at a seeded position so the read that
 * band-settles is not always the lowest id.
 */
void
expectThresholdMatchesPeel(const DependencyDag &dag,
                           const std::vector<bool> &retired, int k,
                           Rng &rng)
{
    const std::vector<int> peel = peelDepths(dag, dag.windowHorizon());
    const int n = dag.size();
    const int start = rng.intIn(0, n - 1);
    for (int i = 0; i < n; ++i) {
        const DagNodeId id = (start + i) % n;
        if (!retired[id]) {
            ASSERT_EQ(dag.withinLayers(id, k), peel[id] < k)
                << "node " << id << " at k " << k;
        }
    }
}

TEST(Dag, BandSettledThresholdReadsMatchPeel)
{
    // Seeded random drains that interleave threshold reads (band
    // settles) with bursts of one to four retirements and, now and
    // then, a full read. Threshold reads dominate, so parked entries
    // pile up across several band settles before a full settle drains
    // them. Every threshold answer must match a fresh peel, and every
    // full read the whole reference: depths, nextUse() and a
    // syncNextUse() copy.
    const Circuit circuits[] = {makeRandomCircuit(14, 160, 11),
                                makeAdder(16), makeBenchmark("qft", 12)};
    for (const int horizon : {1, 4, DependencyDag::kDefaultWindowHorizon}) {
        std::vector<int> ks;
        for (const int k : {1, 8, horizon}) {
            if (k <= horizon &&
                std::find(ks.begin(), ks.end(), k) == ks.end())
                ks.push_back(k);
        }
        for (const Circuit &qc : circuits) {
            SCOPED_TRACE(testing::Message() << "horizon " << horizon
                                            << " on " << qc.name());
            Rng rng(0xBA5Eu + static_cast<unsigned>(horizon));
            DependencyDag dag(qc, horizon);
            dag.trackNextUse();
            std::vector<int> synced;
            dag.syncNextUse(synced, true);
            std::vector<bool> retired(dag.size(), false);
            while (!dag.empty()) {
                const int burst = rng.intIn(1, 4);
                for (int b = 0; b < burst && !dag.empty(); ++b) {
                    const auto &frontier = dag.frontier();
                    const DagNodeId id = frontier[rng.uniform(
                        static_cast<std::uint64_t>(frontier.size()))];
                    retired[id] = true;
                    dag.complete(id);
                }
                if (rng.uniform(4) != 0) {
                    const int k = ks[rng.uniform(ks.size())];
                    ASSERT_NO_FATAL_FAILURE(
                        expectThresholdMatchesPeel(dag, retired, k, rng));
                } else {
                    ASSERT_NO_FATAL_FAILURE(expectWindowMatchesPeel(
                        dag, retired, qc.numQubits(), synced, false));
                }
            }
            ASSERT_NO_FATAL_FAILURE(expectWindowMatchesPeel(
                dag, retired, qc.numQubits(), synced, false));
        }
    }
}

TEST(Dag, ParkedNodeRetiringBeforeTheFullSettleIsSkipped)
{
    // One chain, nodes 0..4 at depths 0..4. Retiring node 0 and asking
    // about node 1 at k = 1 band-settles with band 1: node 1 is visited
    // (depth 0), node 2 (stored 2) is parked unvisited. Nodes 1 and 2
    // then retire with no read in between, so node 2 reaches the
    // frontier and retires while parked. The next band settle must drop
    // it without a visit, and the full read must still be exact.
    Circuit qc(2);
    for (int i = 0; i < 5; ++i)
        qc.cx(0, 1);
    DependencyDag dag(qc);
    dag.trackNextUse();
    std::vector<int> synced;
    dag.syncNextUse(synced, true);
    std::vector<bool> retired(dag.size(), false);

    dag.complete(0);
    retired[0] = true;
    EXPECT_TRUE(dag.withinLayers(1, 1));
    EXPECT_EQ(dag.windowVisits(), 1u); // Node 2 parked, not visited.

    for (const DagNodeId id : {1, 2}) {
        dag.complete(id);
        retired[id] = true;
    }
    EXPECT_TRUE(dag.withinLayers(3, 1));
    EXPECT_FALSE(dag.withinLayers(4, 1));
    EXPECT_EQ(dag.windowVisits(), 2u); // Node 3 only; node 2 skipped.

    ASSERT_NO_FATAL_FAILURE(expectWindowMatchesPeel(
        dag, retired, qc.numQubits(), synced, true));
    EXPECT_EQ(dag.windowDepth(4), 1);
}

/** Every qubit's chain head: the retired set as a resume records it. */
std::vector<int>
chainHeads(const DependencyDag &dag, int qubits)
{
    std::vector<int> heads;
    for (int q = 0; q < qubits; ++q)
        heads.push_back(dag.qubitChainHead(q));
    return heads;
}

/** The unfinished nodes forEachWindowNode() visits, ascending. */
std::vector<DagNodeId>
windowNodes(const DependencyDag &dag)
{
    std::vector<DagNodeId> ids;
    dag.forEachWindowNode([&](DagNodeId id) { ids.push_back(id); });
    std::sort(ids.begin(), ids.end());
    return ids;
}

/** `built` and `drained` agree on every observable of the window. */
void
expectSameDag(const DependencyDag &built, const DependencyDag &drained,
              int qubits)
{
    ASSERT_EQ(built.frontier(), drained.frontier());
    ASSERT_EQ(built.remaining(), drained.remaining());
    ASSERT_EQ(chainHeads(built, qubits), chainHeads(drained, qubits));
    for (DagNodeId id = 0; id < drained.size(); ++id) {
        ASSERT_EQ(built.isReady(id), drained.isReady(id)) << "node " << id;
        ASSERT_EQ(built.windowDepth(id), drained.windowDepth(id))
            << "node " << id;
    }
    ASSERT_EQ(built.nextUse(), drained.nextUse());
    ASSERT_EQ(windowNodes(built), windowNodes(drained));
}

TEST(Dag, WatermarkBuildEqualsTheDrainedDag)
{
    // Seeded random drains; at random points a fresh DAG is built at
    // the drained one's chain heads, and from then on both retire the
    // same nodes in lockstep. Reads come at random steps, so the drained
    // DAG is sometimes several retirements behind its last settle.
    const Circuit circuits[] = {makeRandomCircuit(14, 160, 11),
                                makeAdder(16), makeBenchmark("qft", 12)};
    for (const int horizon : {1, 4, DependencyDag::kDefaultWindowHorizon}) {
        for (const Circuit &qc : circuits) {
            SCOPED_TRACE(testing::Message() << "horizon " << horizon
                                            << " on " << qc.name());
            const int qubits = qc.numQubits();
            Rng rng(0x3EADu + static_cast<unsigned>(horizon));
            DependencyDag drained(qc, horizon);
            drained.trackNextUse();
            std::unique_ptr<DependencyDag> built;
            int builds = 0;
            while (!drained.empty()) {
                const auto &frontier = drained.frontier();
                const DagNodeId id = frontier[rng.uniform(
                    static_cast<std::uint64_t>(frontier.size()))];
                drained.complete(id);
                if (built != nullptr)
                    built->complete(id);
                if (rng.uniform(6) == 0) {
                    const std::vector<int> heads =
                        chainHeads(drained, qubits);
                    built = std::make_unique<DependencyDag>(
                        qc, horizon, nullptr, &heads);
                    built->trackNextUse();
                    ++builds;
                    ASSERT_NO_FATAL_FAILURE(
                        expectSameDag(*built, drained, qubits));
                } else if (built != nullptr && rng.uniform(2) == 0) {
                    ASSERT_NO_FATAL_FAILURE(
                        expectSameDag(*built, drained, qubits));
                }
            }
            ASSERT_GT(builds, 0);
            ASSERT_NO_FATAL_FAILURE(expectSameDag(*built, drained, qubits));
            EXPECT_TRUE(built->empty());
        }
    }
}

TEST(Dag, WatermarkSplittingAGateOrOutsideAChainPanics)
{
    Circuit qc(3);
    qc.cx(0, 1);
    qc.cx(1, 2);
    const std::vector<int> split = {1, 0, 0};    // cx(0,1) half retired.
    const std::vector<int> too_deep = {1, 3, 1}; // Qubit 1 has 2 gates.
    const std::vector<int> negative = {0, -1, 0};
    const std::vector<int> short_list = {1, 1};
    for (const auto *heads : {&split, &too_deep, &negative, &short_list})
        EXPECT_THROW(DependencyDag(qc, 4, nullptr, heads),
                     std::logic_error);
    const std::vector<int> first = {1, 1, 0};
    const DependencyDag dag(qc, 4, nullptr, &first);
    EXPECT_EQ(dag.remaining(), 1);
    EXPECT_EQ(dag.frontier(), std::vector<DagNodeId>{1});
    EXPECT_EQ(dag.windowDepth(0), -1);
    EXPECT_EQ(dag.windowDepth(1), 0);
}

TEST(Dag, QubitChainsArePerQubitAndOrdered)
{
    Circuit qc(4);
    qc.cx(0, 1);
    qc.cx(1, 2);
    qc.cx(2, 3);
    qc.cx(0, 1);
    DependencyDag dag(qc);
    dag.trackNextUse();
    ASSERT_EQ(dag.qubitChain(1).size(), 3);
    const QubitChainView chain = dag.qubitChain(1);
    EXPECT_EQ(std::vector<DagNodeId>(chain.begin(), chain.end()),
              (std::vector<DagNodeId>{0, 1, 3}));
    EXPECT_EQ(dag.qubitChainHead(1), 0);
    dag.complete(0);
    EXPECT_EQ(dag.qubitChainHead(1), 1);
    // nextUse follows the chain head's depth.
    EXPECT_EQ(dag.nextUse()[1], dag.windowDepth(1));
}

TEST(Dag, RejectsNonPositiveHorizon)
{
    Circuit qc(2);
    qc.cx(0, 1);
    EXPECT_THROW(DependencyDag(qc, 0), std::runtime_error);
    EXPECT_THROW(DependencyDag(qc, -3), std::runtime_error);
}

TEST(Dag, TopologicalInvariantUnderRandomDrain)
{
    // Property: completing always-first-ready nodes never exposes a node
    // before all its predecessors retire. Exercised over a random
    // circuit by draining from varying frontier positions.
    const Circuit qc = makeRandomCircuit(16, 200, 5);
    DependencyDag dag(qc);
    std::vector<bool> done(dag.size(), false);
    std::size_t pick = 0;
    while (!dag.empty()) {
        const auto &frontier = dag.frontier();
        const DagNodeId id = frontier[pick % frontier.size()];
        ++pick;
        // Every predecessor of id must already be done: verify through
        // the succ lists of done nodes.
        done[id] = true;
        dag.complete(id);
    }
    for (DagNodeId id = 0; id < dag.size(); ++id) {
        for (DagNodeId succ : dag.successors(id))
            EXPECT_TRUE(done[succ]);
    }
}

} // namespace
} // namespace mussti
