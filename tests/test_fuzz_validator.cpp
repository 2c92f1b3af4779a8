/**
 * @file
 * Mutation testing of the schedule validator: take a known-valid
 * compiled schedule and apply systematic corruptions; the validator
 * (the linter's first-error view) and the reference replay
 * (validator_reference.h) must each reject every mutant. This is the
 * adversarial counterpart of the positive tests — it proves both
 * oracles have teeth, so the green compiler suites mean something.
 */
#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/compiler.h"
#include "sim/validator.h"
#include "validator_reference.h"
#include "workloads/workloads.h"

namespace mussti {
namespace {

struct Compiled
{
    Circuit lowered;
    Schedule schedule;
    EmlDevice device;

    Compiled(const Circuit &qc, const MusstiConfig &config)
        : lowered(qc), device(config.device, qc.numQubits())
    {
        auto result = MusstiCompiler(config).compile(qc);
        lowered = result.lowered;
        schedule = std::move(result.schedule);
    }
};

Compiled
makeCompiled()
{
    MusstiConfig config;
    // QFT exercises every op kind including evictions and ion swaps.
    return Compiled(makeQft(48), config);
}

bool
isValid(const Compiled &c, const Schedule &mutant)
{
    return static_cast<bool>(
        ScheduleValidator(c.device).validate(mutant, c.lowered));
}

/** Both oracles reject `mutant`. */
void
expectRejected(const Compiled &c, const Schedule &mutant,
               const std::string &what)
{
    EXPECT_FALSE(isValid(c, mutant)) << "validator accepted " << what;
    EXPECT_FALSE(referenceValidate(mutant, c.lowered, c.device).valid)
        << "reference replay accepted " << what;
}

TEST(FuzzValidator, BaselineIsValid)
{
    const Compiled c = makeCompiled();
    EXPECT_TRUE(isValid(c, c.schedule));
    EXPECT_TRUE(referenceValidate(c.schedule, c.lowered, c.device).valid);
}

TEST(FuzzValidator, DroppingAnyGateOpIsRejected)
{
    const Compiled c = makeCompiled();
    Rng rng(3);
    int tried = 0;
    for (int attempt = 0; attempt < 2000 && tried < 25; ++attempt) {
        const std::size_t i = rng.uniform(c.schedule.ops.size());
        if (!c.schedule.ops[i].isGate() ||
            c.schedule.ops[i].kind == OpKind::Gate1Q ||
            c.schedule.ops[i].inserted)
            continue;
        Schedule mutant = c.schedule;
        mutant.ops.erase(i);
        expectRejected(c, mutant,
                       "dropped gate op " + std::to_string(i));
        ++tried;
    }
    EXPECT_GE(tried, 10);
}

TEST(FuzzValidator, DroppingAnyMergeIsRejected)
{
    const Compiled c = makeCompiled();
    int tried = 0;
    for (std::size_t i = 0; i < c.schedule.ops.size() && tried < 15;
         ++i) {
        if (c.schedule.ops[i].kind != OpKind::Merge)
            continue;
        Schedule mutant = c.schedule;
        mutant.ops.erase(i);
        expectRejected(c, mutant,
                       "dropped merge " + std::to_string(i));
        ++tried;
    }
    EXPECT_GE(tried, 5);
}

TEST(FuzzValidator, SwappingAdjacentDependentGatesIsRejected)
{
    const Compiled c = makeCompiled();
    int tried = 0;
    for (std::size_t i = 0; i + 1 < c.schedule.ops.size() && tried < 20;
         ++i) {
        const ScheduledOp a = c.schedule.ops[i];
        const ScheduledOp b = c.schedule.ops[i + 1];
        const bool both_real_gates =
            a.kind == OpKind::Gate2Q && b.kind == OpKind::Gate2Q &&
            !a.inserted && !b.inserted;
        if (!both_real_gates)
            continue;
        const bool dependent = b.q0 == a.q0 || b.q0 == a.q1 ||
                               b.q1 == a.q0 || b.q1 == a.q1;
        if (!dependent)
            continue;
        Schedule mutant = c.schedule;
        mutant.ops.set(i, b);
        mutant.ops.set(i + 1, a);
        expectRejected(c, mutant,
                       "swapped gates at " + std::to_string(i));
        ++tried;
    }
    EXPECT_GE(tried, 3);
}

TEST(FuzzValidator, RetargetingMovesIsRejected)
{
    const Compiled c = makeCompiled();
    int tried = 0;
    for (std::size_t i = 0; i < c.schedule.ops.size() && tried < 15;
         ++i) {
        if (c.schedule.ops[i].kind != OpKind::Move)
            continue;
        Schedule mutant = c.schedule;
        // Redirect the move to a different zone; the following merge's
        // zone no longer matches.
        ScheduledOp move = mutant.ops[i];
        move.zoneTo = (move.zoneTo + 1) % c.device.numZones();
        mutant.ops.set(i, move);
        expectRejected(c, mutant,
                       "retargeted move " + std::to_string(i));
        ++tried;
    }
    EXPECT_GE(tried, 5);
}

TEST(FuzzValidator, CorruptingGateOperandsIsRejected)
{
    const Compiled c = makeCompiled();
    Rng rng(11);
    int tried = 0;
    for (int attempt = 0; attempt < 2000 && tried < 25; ++attempt) {
        const std::size_t i = rng.uniform(c.schedule.ops.size());
        ScheduledOp op = c.schedule.ops[i];
        if (op.kind != OpKind::Gate2Q || op.inserted)
            continue;
        Schedule mutant = c.schedule;
        op.q1 = (op.q1 + 1 + static_cast<int>(rng.uniform(
                     c.lowered.numQubits() - 1))) % c.lowered.numQubits();
        if (op.q1 == op.q0)
            continue;
        mutant.ops.set(i, op);
        expectRejected(c, mutant,
                       "corrupted operands " + std::to_string(i));
        ++tried;
    }
    EXPECT_GE(tried, 10);
}

TEST(FuzzValidator, DuplicatingGatesIsRejected)
{
    const Compiled c = makeCompiled();
    int tried = 0;
    for (std::size_t i = 0; i < c.schedule.ops.size() && tried < 10;
         ++i) {
        if (c.schedule.ops[i].kind != OpKind::Gate2Q ||
            c.schedule.ops[i].inserted)
            continue;
        Schedule mutant = c.schedule;
        mutant.ops.insert(i, c.schedule.ops[i]);
        expectRejected(c, mutant,
                       "duplicated gate " + std::to_string(i));
        ++tried;
    }
    EXPECT_GE(tried, 5);
}

TEST(FuzzValidator, CorruptingInitialChainsIsRejected)
{
    const Compiled c = makeCompiled();
    // Duplicate a qubit placement.
    {
        Schedule mutant = c.schedule;
        mutant.initialChains[0].push_back(
            mutant.initialChains[0].empty()
                ? 0 : mutant.initialChains[0].front());
        expectRejected(c, mutant, "duplicated placement");
    }
    // Drop a qubit entirely.
    {
        Schedule mutant = c.schedule;
        for (auto &chain : mutant.initialChains) {
            if (!chain.empty()) {
                chain.pop_back();
                break;
            }
        }
        expectRejected(c, mutant, "dropped placement");
    }
}

TEST(FuzzValidator, MarkingRealGateAsInsertedIsRejected)
{
    const Compiled c = makeCompiled();
    Schedule mutant = c.schedule;
    for (std::size_t i = 0; i < mutant.ops.size(); ++i) {
        ScheduledOp op = mutant.ops[i];
        if (op.kind == OpKind::Gate2Q && !op.inserted) {
            op.inserted = true; // a lone "inserted" gate: broken triple
            mutant.ops.set(i, op);
            break;
        }
    }
    expectRejected(c, mutant, "lone inserted gate");
}

TEST(FuzzValidator, CrossModuleBaselineAlsoFuzzes)
{
    // Multi-module circuit with fiber gates and inserted SWAPs.
    MusstiConfig config;
    Compiled c(makeSqrt(117), config);
    ASSERT_TRUE(isValid(c, c.schedule));

    // Dropping a fiber gate breaks coverage.
    Schedule mutant = c.schedule;
    for (std::size_t i = 0; i < mutant.ops.size(); ++i) {
        if (mutant.ops[i].kind == OpKind::FiberGate &&
            !mutant.ops[i].inserted) {
            mutant.ops.erase(i);
            break;
        }
    }
    expectRejected(c, mutant, "dropped fiber gate");

    // Dropping one gate of an inserted triple breaks P5.
    Schedule mutant2 = c.schedule;
    for (std::size_t i = 0; i < mutant2.ops.size(); ++i) {
        if (mutant2.ops[i].inserted) {
            mutant2.ops.erase(i);
            break;
        }
    }
    expectRejected(c, mutant2, "broken inserted triple");
}

} // namespace
} // namespace mussti
