/**
 * @file
 * Unit tests for the circuit IR: gate metadata, builders, reversal,
 * SWAP lowering, and statistics.
 */
#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "circuit/circuit.h"
#include "circuit/gate.h"
#include "common/rng.h"

namespace mussti {
namespace {

TEST(Gate, ArityTable)
{
    EXPECT_EQ(gateArity(GateKind::H), 1);
    EXPECT_EQ(gateArity(GateKind::Rz), 1);
    EXPECT_EQ(gateArity(GateKind::Cx), 2);
    EXPECT_EQ(gateArity(GateKind::Ms), 2);
    EXPECT_EQ(gateArity(GateKind::Swap), 2);
    EXPECT_EQ(gateArity(GateKind::Barrier), 0);
    EXPECT_EQ(gateArity(GateKind::Measure), 1);
}

TEST(Gate, TwoQubitClassification)
{
    EXPECT_TRUE(isTwoQubit(GateKind::Cx));
    EXPECT_TRUE(isTwoQubit(GateKind::Cz));
    EXPECT_FALSE(isTwoQubit(GateKind::H));
    EXPECT_FALSE(isTwoQubit(GateKind::Measure));
}

TEST(Gate, SingleQubitClassificationExcludesMeasure)
{
    EXPECT_TRUE(isSingleQubit(GateKind::H));
    EXPECT_TRUE(isSingleQubit(GateKind::Rz));
    EXPECT_FALSE(isSingleQubit(GateKind::Measure));
    EXPECT_FALSE(isSingleQubit(GateKind::Cx));
}

TEST(Gate, NameRoundTrip)
{
    for (GateKind k : {GateKind::X, GateKind::H, GateKind::Rz,
                       GateKind::Cx, GateKind::Swap, GateKind::Ms,
                       GateKind::Measure}) {
        EXPECT_EQ(gateKindFromName(gateName(k)), k);
    }
}

TEST(Gate, NameAliases)
{
    EXPECT_EQ(gateKindFromName("CNOT"), GateKind::Cx);
    EXPECT_EQ(gateKindFromName("rxx"), GateKind::Ms);
    EXPECT_EQ(gateKindFromName("u1"), GateKind::Rz);
}

TEST(Gate, UnknownNameIsFatal)
{
    EXPECT_THROW(gateKindFromName("frobnicate"), std::runtime_error);
}

TEST(Gate, PartnerOf)
{
    const Gate g(GateKind::Cx, 3, 7);
    EXPECT_EQ(g.partnerOf(3), 7);
    EXPECT_EQ(g.partnerOf(7), 3);
    EXPECT_TRUE(g.touches(3));
    EXPECT_FALSE(g.touches(4));
}

TEST(Circuit, BuildersAppendInOrder)
{
    Circuit qc(3, "t");
    qc.h(0);
    qc.cx(0, 1);
    qc.cz(1, 2);
    ASSERT_EQ(qc.size(), 3u);
    EXPECT_EQ(qc[0].kind, GateKind::H);
    EXPECT_EQ(qc[1].kind, GateKind::Cx);
    EXPECT_EQ(qc[2].q1, 2);
}

TEST(Circuit, RejectsOutOfRangeOperand)
{
    Circuit qc(2);
    EXPECT_THROW(qc.cx(0, 5), std::logic_error);
    EXPECT_THROW(qc.h(-1), std::logic_error);
}

TEST(Circuit, RejectsSelfInteraction)
{
    Circuit qc(2);
    EXPECT_THROW(qc.cx(1, 1), std::logic_error);
}

TEST(Circuit, Counts)
{
    Circuit qc(3);
    qc.h(0);
    qc.cx(0, 1);
    qc.cx(1, 2);
    qc.rz(2, 0.5);
    qc.measure(0);
    EXPECT_EQ(qc.twoQubitCount(), 2);
    EXPECT_EQ(qc.singleQubitCount(), 2);
}

TEST(Circuit, ReversedFlipsOrder)
{
    Circuit qc(2);
    qc.h(0);
    qc.cx(0, 1);
    const Circuit rev = qc.reversed();
    ASSERT_EQ(rev.size(), 2u);
    EXPECT_EQ(rev[0].kind, GateKind::Cx);
    EXPECT_EQ(rev[1].kind, GateKind::H);
}

TEST(Circuit, SwapLoweringProducesThreeCx)
{
    Circuit qc(2);
    qc.swap(0, 1);
    const Circuit lowered = qc.withSwapsDecomposed();
    ASSERT_EQ(lowered.size(), 3u);
    for (const Gate &g : lowered.gates())
        EXPECT_EQ(g.kind, GateKind::Cx);
    // Alternating direction: 01, 10, 01.
    EXPECT_EQ(lowered[0].q0, 0);
    EXPECT_EQ(lowered[1].q0, 1);
    EXPECT_EQ(lowered[2].q0, 0);
}

TEST(Circuit, SwapLoweringKeepsOtherGates)
{
    Circuit qc(3);
    qc.h(0);
    qc.swap(1, 2);
    qc.cx(0, 2);
    const Circuit lowered = qc.withSwapsDecomposed();
    EXPECT_EQ(lowered.size(), 5u);
    EXPECT_EQ(lowered.twoQubitCount(), 4);
}

TEST(Circuit, StatsDepthCountsTwoQubitLayers)
{
    Circuit qc(4);
    // Two parallel gates then one dependent gate: depth 2.
    qc.cx(0, 1);
    qc.cx(2, 3);
    qc.cx(1, 2);
    const CircuitStats s = qc.stats();
    EXPECT_EQ(s.depth, 2);
    EXPECT_EQ(s.twoQubitGates, 3);
    EXPECT_EQ(s.numQubits, 4);
}

TEST(Circuit, StatsInteractionDistance)
{
    Circuit qc(10);
    qc.cx(0, 9); // distance 9
    qc.cx(4, 5); // distance 1
    EXPECT_NEAR(qc.stats().avgInteractionDistance, 5.0, 1e-12);
}

TEST(Circuit, TwoQubitDegrees)
{
    Circuit qc(3);
    qc.cx(0, 1);
    qc.cx(0, 2);
    const auto deg = qc.twoQubitDegrees();
    EXPECT_EQ(deg[0], 2);
    EXPECT_EQ(deg[1], 1);
    EXPECT_EQ(deg[2], 1);
}

TEST(Circuit, NeedsPositiveQubits)
{
    EXPECT_THROW(Circuit(0), std::runtime_error);
}

// ---- prefix-hash chain (the delta-compile cache key) -----------------

TEST(Circuit, PrefixHashStableUnderAppend)
{
    // Appending gates must never disturb the hashes of prefixes
    // already in the chain — the property that lets a snapshot cache
    // key survive the circuit growing underneath it.
    Circuit qc(3, "chain");
    qc.h(0);
    qc.cx(0, 1);
    const std::uint64_t h0 = qc.prefixHash(0);
    const std::uint64_t h1 = qc.prefixHash(1);
    const std::uint64_t h2 = qc.prefixHash(2);
    qc.rz(2, 0.5);
    qc.cx(1, 2);
    qc.measure(0);
    EXPECT_EQ(qc.prefixHash(0), h0);
    EXPECT_EQ(qc.prefixHash(1), h1);
    EXPECT_EQ(qc.prefixHash(2), h2);
}

TEST(Circuit, ContentHashIsLastPrefixHash)
{
    Circuit qc(2, "full");
    qc.h(0);
    qc.cx(0, 1);
    qc.rz(1, 0.25);
    EXPECT_EQ(qc.contentHash(), qc.prefixHash(qc.size()));
}

TEST(Circuit, PrefixHashDivergesExactlyAtEdit)
{
    // Two circuits differing in one gate parameter (or operand) agree
    // on every prefix up to the edit and on none from it onward — the
    // chain localises the edit point exactly.
    Circuit a(3, "edit");
    a.h(0);
    a.cx(0, 1);
    a.rz(1, 0.50);
    a.cx(1, 2);

    // `param` changes only the rz angle, `operand` only its target.
    Circuit param(3, "edit");
    param.h(0);
    param.cx(0, 1);
    param.rz(1, 0.75);
    param.cx(1, 2);
    Circuit operand(3, "edit");
    operand.h(0);
    operand.cx(0, 1);
    operand.rz(2, 0.50);
    operand.cx(1, 2);

    for (const Circuit *edited : {&param, &operand}) {
        for (std::size_t p = 0; p <= 2; ++p)
            EXPECT_EQ(edited->prefixHash(p), a.prefixHash(p))
                << "shared prefix length " << p;
        for (std::size_t p = 3; p <= 4; ++p)
            EXPECT_NE(edited->prefixHash(p), a.prefixHash(p))
                << "post-edit prefix length " << p;
    }
}

/** A circuit with the given gates, named like every other here. */
Circuit
circuitOf(int qubits, const std::vector<Gate> &gates)
{
    Circuit qc(qubits, "hash");
    for (const Gate &g : gates)
        qc.add(g);
    return qc;
}

TEST(Circuit, ContentHashSeesEveryGateField)
{
    const std::vector<Gate> base = {
        Gate(GateKind::Rz, 0, 0.5), Gate(GateKind::Cx, 0, 1),
        Gate(GateKind::Rz, 1, -1.25), Gate(GateKind::Ms, 1, 2),
        Gate(GateKind::Rx, 2, 3.0)};
    const std::uint64_t h = circuitOf(3, base).contentHash();

    // Negating two angles flips only bit 63 of two parameter words: a
    // multiply-only fold keeps each flip in bit 63, where the second
    // cancels the first.
    std::vector<Gate> negated = base;
    negated[0].param = -negated[0].param;
    negated[2].param = -negated[2].param;
    EXPECT_NE(circuitOf(3, negated).contentHash(), h);

    // Swapping the operands of a two-qubit gate.
    std::vector<Gate> swapped = base;
    std::swap(swapped[1].q0, swapped[1].q1);
    EXPECT_NE(circuitOf(3, swapped).contentHash(), h);

    // Changing only the kind (same operands, same parameter).
    std::vector<Gate> rekinded = base;
    rekinded[3].kind = GateKind::Cz;
    EXPECT_NE(circuitOf(3, rekinded).contentHash(), h);
}

TEST(Circuit, ContentHashSeparatesSeededSingleFieldPerturbations)
{
    // Random circuits, each perturbed in exactly one field of one gate:
    // every variant (and the original) must hash differently.
    Rng rng(2024);
    const GateKind one_qubit[] = {GateKind::Rz, GateKind::Rx, GateKind::H};
    const GateKind two_qubit[] = {GateKind::Cx, GateKind::Ms, GateKind::Cz};
    for (int round = 0; round < 20; ++round) {
        std::vector<Gate> base;
        for (int i = 0; i < 24; ++i) {
            const int a = rng.intIn(0, 7);
            if (rng.uniform(2) == 0) {
                base.emplace_back(one_qubit[rng.uniform(3)], a,
                                  8.0 * rng.real() - 4.0);
            } else {
                const int b = (a + rng.intIn(1, 7)) % 8;
                base.emplace_back(two_qubit[rng.uniform(3)], a, b);
            }
        }
        std::set<std::uint64_t> seen = {circuitOf(8, base).contentHash()};
        for (std::size_t i = 0; i < base.size(); ++i) {
            std::vector<Gate> variants(4, base[i]);
            variants[0].param += 1e-9;
            variants[1].param = -variants[1].param - 1.0;
            variants[2].kind = variants[2].twoQubit() ? GateKind::Swap
                                                      : GateKind::Ry;
            variants[3].q0 = (variants[3].q0 + 1) % 8;
            if (variants[3].q0 == variants[3].q1)
                variants[3].q0 = (variants[3].q0 + 1) % 8;
            for (const Gate &variant : variants) {
                std::vector<Gate> perturbed = base;
                perturbed[i] = variant;
                EXPECT_TRUE(
                    seen.insert(circuitOf(8, perturbed).contentHash())
                        .second)
                    << "round " << round << " gate " << i;
            }
        }
    }
}

} // namespace
} // namespace mussti
