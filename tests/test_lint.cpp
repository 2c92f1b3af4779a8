/**
 * @file
 * The lint subsystem's contract tests.
 *
 *  1. Corruption corpus: every generator in src/lint/corrupt.h plants
 *     its violation into a valid schedule and the linter fires EXACTLY
 *     that rule id — no cascade into other rules. The reference replay
 *     (validator_reference.h) agrees every mutant is illegal (the two
 *     never disagree about validity, only about diagnostic detail).
 *     Linted from a checkpoint state exported before the corrupted op,
 *     every mutant fires the same rule. Chain-order mutants (an
 *     interior-ion split, a non-adjacent ion swap) fire sch.placement.
 *  2. Golden cleanliness: the exact artifacts test_backend_golden.cpp
 *     pins — all four backends — lint with zero findings.
 *  3. Report mechanics: per-rule truncation, renderers, fired-rule set.
 *  4. Spec/search/config linting: each spec.* / search.* / cfg.* rule
 *     has a positive and the defaults stay clean.
 */
#include <gtest/gtest.h>

#include <algorithm>

#include "arch/device_registry.h"
#include "baselines/backend_factory.h"
#include "core/compiler.h"
#include "dag/dag.h"
#include "lint/corrupt.h"
#include "lint/schedule_linter.h"
#include "lint/spec_linter.h"
#include "validator_reference.h"
#include "workloads/workloads.h"

namespace mussti {
namespace {

/** A compiled artifact plus the device it targets. */
struct Artifact
{
    Circuit lowered{1};
    Schedule schedule;
    std::shared_ptr<const TargetDevice> device;
};

Artifact
compileMussti(const std::string &family, int qubits)
{
    const MusstiConfig config;
    const Circuit qc = makeBenchmark(family, qubits);
    auto result = MusstiCompiler(config).compile(qc);
    Artifact a;
    a.lowered = std::move(result.lowered);
    a.schedule = std::move(result.schedule);
    a.device = DeviceRegistry::createEml(config.device, qc.numQubits());
    return a;
}

// ---------------------------------------------------------------------
// 1. Corruption corpus.
// ---------------------------------------------------------------------

/**
 * A checkpoint of a valid schedule at or before op `limit`: just after
 * a non-inserted two-qubit gate op (so no shuttle window is open and no
 * inserted triple is half done), with the watermark just above every
 * two-qubit gate the ops before it execute. Op 0 when there is none.
 */
LintMark
checkpointBefore(const Schedule &schedule, std::size_t limit)
{
    LintMark mark;
    int executed = -1;
    for (std::size_t i = 0; i < limit && i < schedule.ops.size(); ++i) {
        const ScheduledOp &op = schedule.ops[i];
        if (op.kind == OpKind::Gate1Q || !op.isGate() || op.inserted)
            continue;
        executed = std::max(executed, op.circuitGate);
        if (op.kind == OpKind::Gate2Q)
            mark = {i + 1, static_cast<std::size_t>(executed + 1)};
    }
    return mark;
}

/** Index of the first op where the two streams differ. */
std::size_t
firstDifference(const Schedule &a, const Schedule &b)
{
    const auto same = [](const ScheduledOp &x, const ScheduledOp &y) {
        return x.kind == y.kind && x.q0 == y.q0 && x.q1 == y.q1 &&
               x.zoneFrom == y.zoneFrom && x.zoneTo == y.zoneTo &&
               x.circuitGate == y.circuitGate && x.inserted == y.inserted;
    };
    std::size_t i = 0;
    while (i < a.ops.size() && i < b.ops.size() && same(a.ops[i], b.ops[i]))
        ++i;
    return i;
}

/** Lint `mutant` from the state a lint of `base` exported at `mark`. */
LintReport
lintFromCheckpoint(const Artifact &base, const Schedule &mutant,
                   const LintMark &mark)
{
    const ScheduleLinter linter(*base.device);
    const ScheduleLinter::SuffixLint prefix =
        linter.lintFrom(base.schedule, base.lowered, nullptr, {mark});
    EXPECT_TRUE(prefix.report.clean()) << prefix.report.renderText();
    const ScheduleLinter::SuffixLint suffix =
        linter.lintFrom(mutant, base.lowered, &prefix.states[0]);
    EXPECT_EQ(suffix.opsWalked, mutant.ops.size() - mark.ops);
    return suffix.report;
}

void
runCorpus(const Artifact &base, const char *label)
{
    // The uncorrupted artifact is the corpus baseline: clean by both
    // oracles.
    ASSERT_TRUE(
        lintSchedule(base.schedule, base.lowered, *base.device).clean())
        << label;
    ASSERT_TRUE(
        referenceValidate(base.schedule, base.lowered, *base.device).valid)
        << label;

    for (const std::string &rule : corruptibleRules()) {
        Schedule mutant = base.schedule;
        ASSERT_TRUE(corruptSchedule(mutant, base.lowered, *base.device,
                                    rule))
            << label << ": cannot stage " << rule;

        const LintReport report =
            lintSchedule(mutant, base.lowered, *base.device);
        EXPECT_EQ(report.firedRules(), std::vector<std::string>{rule})
            << label << " corruption " << rule << " fired:\n"
            << report.renderText();
        EXPECT_GT(report.errorCount(), 0) << label << " " << rule;

        const LintMark mark = checkpointBefore(
            base.schedule, firstDifference(base.schedule, mutant));
        EXPECT_EQ(lintFromCheckpoint(base, mutant, mark).firedRules(),
                  std::vector<std::string>{rule})
            << label << " corruption " << rule << " linted from op "
            << mark.ops;

        // Cross-oracle agreement: the reference replay also rejects
        // every mutant (it reports its own first error, which need not
        // be phrased the same way).
        EXPECT_FALSE(
            referenceValidate(mutant, base.lowered, *base.device).valid)
            << label << " reference replay accepted the " << rule
            << " mutant";
    }
}

TEST(LintCorpus, SingleModuleEveryCorruptionFiresExactlyItsRule)
{
    // QFT exercises every op kind including evictions and ion swaps.
    runCorpus(compileMussti("qft", 48), "qft:48");
}

TEST(LintCorpus, MultiModuleEveryCorruptionFiresExactlyItsRule)
{
    // 117 qubits -> 4 modules: fiber gates and inserted SWAP triples.
    runCorpus(compileMussti("sqrt", 117), "sqrt:117");
}

TEST(LintCorpus, CorruptionsAcrossTheCheckpointFireTheirRule)
{
    // Mid-stream, where the checkpoint holds retired and pending gates:
    // re-executing a gate retired before it, never executing one
    // pending at it, and reordering two dependent gates after it each
    // fire their rule from the checkpoint, as over the whole schedule.
    // So do two chain-order violations at it, which leave zone
    // membership legal: a complete split -> move -> merge of an
    // interior ion, and an ion swap of two ions with one between them.
    // The reference replay rejects every mutant.
    const Artifact a = compileMussti("qft", 48);
    LintMark mark = checkpointBefore(a.schedule, a.schedule.ops.size() / 2);
    // A watermark above the tight one, as the scheduler's covers its
    // look-ahead window: the gates between are pending.
    mark.circuitGates = std::min(a.lowered.size(), mark.circuitGates + 200);
    const ScheduleLinter::SuffixLint prefix =
        ScheduleLinter(*a.device)
            .lintFrom(a.schedule, a.lowered, nullptr, {mark});
    ASSERT_TRUE(prefix.report.clean());
    const ScheduleLintState &state = prefix.states[0];
    ASSERT_FALSE(state.pending.empty());
    const auto ops_at = [&](std::size_t i) {
        return a.schedule.ops.begin() + static_cast<std::ptrdiff_t>(i);
    };

    Schedule retired = a.schedule;
    retired.ops.insert(mark.ops, a.schedule.ops[mark.ops - 1]);

    Schedule pending = a.schedule;
    const auto executes = std::find_if(
        ops_at(mark.ops), a.schedule.ops.end(),
        [&](const ScheduledOp &op) {
            return op.isGate() && !op.inserted &&
                   op.circuitGate == state.pending.front().circuitIndex;
        });
    ASSERT_NE(executes, a.schedule.ops.end());
    pending.ops.erase(
        static_cast<std::size_t>(executes - a.schedule.ops.begin()));

    Schedule reordered = a.schedule;
    std::size_t i = mark.ops;
    for (; i + 1 < reordered.ops.size(); ++i) {
        const ScheduledOp x = reordered.ops[i];
        const ScheduledOp y = reordered.ops[i + 1];
        if (x.kind == OpKind::Gate2Q && y.kind == OpKind::Gate2Q &&
            !x.inserted && !y.inserted &&
            (y.q0 == x.q0 || y.q0 == x.q1 || y.q1 == x.q0 ||
             y.q1 == x.q1))
            break;
    }
    ASSERT_LT(i + 1, reordered.ops.size());
    const ScheduledOp first = reordered.ops[i];
    reordered.ops.set(i, reordered.ops[i + 1]);
    reordered.ops.set(i + 1, first);

    const auto deep = std::find_if(
        state.chains.begin(), state.chains.end(),
        [](const std::vector<int> &chain) { return chain.size() >= 3; });
    ASSERT_NE(deep, state.chains.end());
    ScheduledOp op;
    op.durationUs = 1.0;
    op.zoneFrom = op.zoneTo = static_cast<int>(deep - state.chains.begin());

    Schedule interior_split = a.schedule;
    op.q0 = (*deep)[1];
    const OpKind relocation[] = {OpKind::Split, OpKind::Move, OpKind::Merge};
    for (std::size_t k = 0; k < 3; ++k) {
        op.kind = relocation[k];
        interior_split.ops.insert(mark.ops + k, op);
    }

    Schedule far_swap = a.schedule;
    op.kind = OpKind::IonSwap;
    op.q0 = (*deep)[0];
    op.q1 = (*deep)[2];
    far_swap.ops.insert(mark.ops, op);

    const struct
    {
        const Schedule *mutant;
        const char *rule;
    } cases[] = {{&retired, lint_rules::kCoverage},
                 {&pending, lint_rules::kCoverage},
                 {&reordered, lint_rules::kDepOrder},
                 {&interior_split, lint_rules::kPlacement},
                 {&far_swap, lint_rules::kPlacement}};
    for (const auto &c : cases) {
        const std::vector<std::string> want{c.rule};
        EXPECT_EQ(lintSchedule(*c.mutant, a.lowered, *a.device).firedRules(),
                  want);
        EXPECT_EQ(lintFromCheckpoint(a, *c.mutant, mark).firedRules(), want);
        EXPECT_FALSE(referenceValidate(*c.mutant, a.lowered, *a.device).valid);
    }
}

// ---------------------------------------------------------------------
// 2. Golden artifacts lint clean, all four backends.
// ---------------------------------------------------------------------

TEST(LintGolden, MusstiGoldenSchedulesLintClean)
{
    const struct
    {
        const char *family;
        int qubits;
    } cases[] = {{"adder", 48}, {"qaoa", 48}, {"ghz", 64}, {"qft", 32}};
    for (const auto &c : cases) {
        const Artifact a = compileMussti(c.family, c.qubits);
        const LintReport report =
            lintSchedule(a.schedule, a.lowered, *a.device);
        EXPECT_TRUE(report.clean())
            << "mussti " << c.family << ":" << c.qubits << "\n"
            << report.renderText();
    }
}

TEST(LintGolden, GridBaselineGoldenSchedulesLintClean)
{
    const struct
    {
        const char *backend;
        const char *family;
        int qubits;
        GridConfig grid;
    } cases[] = {
        {"murali", "adder", 48, {4, 3, 16}},
        {"murali", "qft", 32, {2, 2, 16}},
        {"murali", "bv", 32, {3, 2, 8}},
        {"dai", "adder", 48, {4, 3, 16}},
        {"dai", "qft", 32, {2, 2, 16}},
        {"dai", "bv", 32, {3, 2, 8}},
        {"mqt", "adder", 48, {4, 3, 16}},
        {"mqt", "qft", 32, {2, 2, 16}},
        {"mqt", "bv", 32, {3, 2, 8}},
    };
    for (const auto &c : cases) {
        const auto backend = makeGridBackend(c.backend, c.grid);
        const auto result = backend->compile(
            makeBenchmark(c.family, c.qubits));
        const GridDevice device(c.grid);
        const LintReport report =
            lintSchedule(result.schedule, result.lowered, device);
        EXPECT_TRUE(report.clean())
            << c.backend << " " << c.family << ":" << c.qubits << "\n"
            << report.renderText();
    }
}

// ---------------------------------------------------------------------
// 3. Report mechanics.
// ---------------------------------------------------------------------

TEST(LintReportMechanics, PerRuleFindingsAreCappedWithTruncationNote)
{
    const Artifact a = compileMussti("qft", 32);
    Schedule mutant = a.schedule;
    int corrupted = 0;
    for (std::size_t i = 0; i < mutant.ops.size(); ++i) {
        ScheduledOp op = mutant.ops[i];
        if (op.kind == OpKind::Gate2Q) {
            op.zoneFrom = (op.zoneFrom + 1) % a.device->numZones();
            mutant.ops.set(i, op);
            ++corrupted;
        }
    }
    ASSERT_GT(corrupted, ScheduleLinter::kMaxFindingsPerRule * 2);

    const LintReport report =
        lintSchedule(mutant, a.lowered, *a.device);
    const auto zone_findings = std::count_if(
        report.findings.begin(), report.findings.end(),
        [](const LintFinding &f) {
            return f.rule == lint_rules::kZone;
        });
    EXPECT_EQ(zone_findings, ScheduleLinter::kMaxFindingsPerRule);
    EXPECT_TRUE(report.fired("lint.truncated"));
    EXPECT_EQ(report.errorCount(), ScheduleLinter::kMaxFindingsPerRule);
}

TEST(LintReportMechanics, Renderers)
{
    LintReport report;
    EXPECT_EQ(report.renderText(), "clean: no findings\n");
    EXPECT_NE(report.renderJson().find("\"findings\": []"),
              std::string::npos);

    report.add("sch.zone", LintSeverity::Error, "op 3",
               "a \"quoted\" message");
    report.add("sch.zone", LintSeverity::Warning, "", "second");
    EXPECT_EQ(report.errorCount(), 1);
    EXPECT_EQ(report.warningCount(), 1);
    EXPECT_FALSE(report.ok());
    EXPECT_EQ(report.firedRules(), std::vector<std::string>{"sch.zone"});

    const std::string text = report.renderText();
    EXPECT_NE(text.find("error[sch.zone] op 3: a \"quoted\" message"),
              std::string::npos);
    EXPECT_NE(text.find("1 error(s), 1 warning(s)"), std::string::npos);

    const std::string json = report.renderJson();
    EXPECT_NE(json.find("\\\"quoted\\\""), std::string::npos);
    EXPECT_NE(json.find("\"summary\": {\"errors\": 1, \"warnings\": 1}"),
              std::string::npos);
}

TEST(LintReportMechanics, WrongDeviceZoneCountIsOnePlacementFinding)
{
    const Artifact a = compileMussti("ghz", 16);
    Schedule mutant = a.schedule;
    mutant.initialChains.pop_back();
    const LintReport report =
        lintSchedule(mutant, a.lowered, *a.device);
    EXPECT_TRUE(report.fired(lint_rules::kPlacement));
    EXPECT_FALSE(report.ok());
}

// ---------------------------------------------------------------------
// 4. Spec / search / config linting.
// ---------------------------------------------------------------------

TEST(SpecLint, SearchRangeDiagnostics)
{
    // lo > hi: an error the parser would fatal() on.
    auto report = lintSpecSearchText("eml:modules=2..8,cap=16..12");
    EXPECT_TRUE(report.fired(lint_rules::kSearchDegenerateRange));
    EXPECT_FALSE(report.ok());

    // Degenerate lo == hi: legal but suspicious -> warning only.
    report = lintSpecSearchText("eml:cap=16..16");
    EXPECT_TRUE(report.fired(lint_rules::kSearchDegenerateRange));
    EXPECT_TRUE(report.ok());
    EXPECT_TRUE(report.fired(lint_rules::kSearchSingleton));

    // Step wider than the range: enumerates only lo.
    report = lintSpecSearchText("eml:cap=8..32:step=40");
    EXPECT_TRUE(report.fired(lint_rules::kSearchStepOvershoot));

    // A healthy search space is clean.
    report = lintSpecSearchText("eml:modules=2..4,cap=12..20:step=4");
    EXPECT_TRUE(report.clean()) << report.renderText();
    report = lintSpecSearchText("grid:4x3,cap=8..16:step=8");
    EXPECT_TRUE(report.clean()) << report.renderText();
}

TEST(SpecLint, TokenAndFamilyDiagnosticsSuggestNearMisses)
{
    auto report = lintSpecSearchText("eml:caps=16");
    ASSERT_TRUE(report.fired(lint_rules::kSpecToken));
    EXPECT_NE(report.findings.front().message.find("did you mean `cap`"),
              std::string::npos);

    report = lintSpecSearchText("elm:cap=16");
    ASSERT_TRUE(report.fired(lint_rules::kSpecFamily));
    EXPECT_NE(report.findings.front().message.find("did you mean `eml`"),
              std::string::npos);

    report = lintSpecSearchText("cap=16");
    EXPECT_TRUE(report.fired(lint_rules::kSpecFamily));
}

TEST(SpecLint, DeviceSpecRules)
{
    // Trap too small for any entangling gate.
    EmlConfig tiny;
    tiny.trapCapacity = 1;
    EXPECT_TRUE(lintDeviceSpec(DeviceRegistry::specOf(tiny))
                    .fired(lint_rules::kSpecCapacity));

    // A module with no gate-capable zone.
    EmlConfig storage_only;
    storage_only.numOperationZones = 0;
    storage_only.numOpticalZones = 0;
    auto report = lintDeviceSpec(DeviceRegistry::specOf(storage_only));
    EXPECT_TRUE(report.fired(lint_rules::kSpecGateZones));

    // Multi-module device without fiber endpoints.
    EmlConfig dark;
    dark.numOpticalZones = 0;
    dark.forcedNumModules = 2;
    EXPECT_TRUE(lintDeviceSpec(DeviceRegistry::specOf(dark))
                    .fired(lint_rules::kSpecOpticalLink));

    // Workload larger than the device.
    const DeviceSpec grid = DeviceRegistry::parse("grid:2x2,cap=2");
    EXPECT_TRUE(lintDeviceSpec(grid, 64)
                    .fired(lint_rules::kSpecWorkloadFit));
    EXPECT_TRUE(lintDeviceSpec(grid, 8).clean());

    // The paper's default device is clean for its workloads.
    EXPECT_TRUE(
        lintDeviceSpec(DeviceRegistry::specOf(EmlConfig{}), 64).clean());
}

TEST(SpecLint, ConfigKnobRules)
{
    MusstiConfig config;
    EXPECT_TRUE(lintMusstiConfig(config, 32).clean());

    config.swapThreshold = 2;
    EXPECT_TRUE(lintMusstiConfig(config).fired(
        lint_rules::kCfgSwapThreshold));
    config = MusstiConfig{};

    config.lookAhead = 0;
    EXPECT_TRUE(
        lintMusstiConfig(config).fired(lint_rules::kCfgLookahead));
    config = MusstiConfig{};

    config.lookAhead = 100; // past the 64-layer horizon
    auto report = lintMusstiConfig(config);
    EXPECT_TRUE(report.fired(lint_rules::kCfgHorizon));
    EXPECT_FALSE(report.ok())
        << "a look-ahead past the horizon is an error: the scheduler "
           "rejects it";
    config.lookAhead = DependencyDag::kDefaultWindowHorizon; // Deepest legal.
    EXPECT_FALSE(lintMusstiConfig(config).fired(lint_rules::kCfgHorizon));
}

} // namespace
} // namespace mussti
