/**
 * @file
 * Tests for the pass-based compilation pipeline: pass ordering of the
 * stock backends, context invariant enforcement, and equivalence of the
 * pipelined MUSS-TI compiler (including the Sabre two-fold search) with
 * the pre-refactor monolithic flow, re-implemented here verbatim as the
 * reference.
 */
#include <gtest/gtest.h>

#include <type_traits>

#include "baselines/murali.h"
#include "core/compiler.h"
#include "core/mapper.h"
#include "core/pipeline.h"
#include "core/scheduler.h"
#include "sim/evaluation_pass.h"
#include "sim/evaluator.h"
#include "workloads/workloads.h"

namespace mussti {
namespace {

// CompileResult must not be constructible by accident from a Circuit.
static_assert(!std::is_convertible_v<Circuit, CompileResult>,
              "CompileResult(Circuit) must be explicit");

/**
 * The pre-refactor MusstiCompiler::compile body (monolithic forward /
 * reverse / forward flow), kept as the behavioural reference for the
 * pipelined implementation.
 */
CompileResult
referenceCompile(const Circuit &circuit, const MusstiConfig &config,
                 const PhysicalParams &params)
{
    CompileResult result(circuit.withSwapsDecomposed());
    const EmlDevice device(config.device, circuit.numQubits());
    const MusstiScheduler scheduler(device, params, config);
    const Evaluator evaluator(params);

    const Placement trivial = trivialPlacement(device,
                                               circuit.numQubits());
    auto output = scheduler.run(result.lowered, trivial);
    Metrics metrics = evaluator.evaluate(output.schedule,
                                         device.zoneInfos());

    if (config.mapping == MappingKind::Sabre) {
        const Circuit reversed = result.lowered.reversed();
        auto backward = scheduler.run(reversed, output.finalPlacement);
        auto refined = scheduler.run(result.lowered,
                                     backward.finalPlacement);
        Metrics refined_metrics = evaluator.evaluate(
            refined.schedule, device.zoneInfos());
        if (refined_metrics.lnFidelity > metrics.lnFidelity) {
            output = std::move(refined);
            metrics = refined_metrics;
        }
    }

    result.schedule = std::move(output.schedule);
    result.swapInsertions = output.swapInsertions;
    result.evictions = output.evictions;
    result.finalChains = Schedule::snapshotChains(output.finalPlacement);
    result.metrics = metrics;
    return result;
}

void
expectEquivalent(const CompileResult &pipelined,
                 const CompileResult &reference)
{
    EXPECT_EQ(pipelined.schedule.ops.size(),
              reference.schedule.ops.size());
    EXPECT_EQ(pipelined.metrics.shuttleCount,
              reference.metrics.shuttleCount);
    EXPECT_EQ(pipelined.metrics.ionSwapCount,
              reference.metrics.ionSwapCount);
    EXPECT_EQ(pipelined.metrics.gate1qCount,
              reference.metrics.gate1qCount);
    EXPECT_EQ(pipelined.metrics.gate2qCount,
              reference.metrics.gate2qCount);
    EXPECT_EQ(pipelined.metrics.fiberGateCount,
              reference.metrics.fiberGateCount);
    EXPECT_EQ(pipelined.metrics.executionTimeUs,
              reference.metrics.executionTimeUs);
    EXPECT_EQ(pipelined.metrics.lnFidelity,
              reference.metrics.lnFidelity);
    EXPECT_EQ(pipelined.swapInsertions, reference.swapInsertions);
    EXPECT_EQ(pipelined.evictions, reference.evictions);
    EXPECT_EQ(pipelined.finalChains, reference.finalChains);
    EXPECT_EQ(pipelined.lowered.size(), reference.lowered.size());
}

TEST(Pipeline, MusstiPassOrdering)
{
    const MusstiCompiler compiler;
    const auto names = compiler.makePipeline().passNames();
    const std::vector<std::string> expected{
        "lower-swaps",      "eml-target", "trivial-placement",
        "mussti-schedule",  "sabre-two-fold", "evaluate"};
    EXPECT_EQ(names, expected);
}

TEST(Pipeline, GridPassOrdering)
{
    const MuraliCompiler compiler(GridConfig{2, 2, 16},
                                  PhysicalParams{});
    const auto names = compiler.makePipeline().passNames();
    const std::vector<std::string> expected{
        "lower-swaps", "grid-target", "grid-placement",
        "grid-schedule", "evaluate"};
    EXPECT_EQ(names, expected);
}

TEST(Pipeline, PassTraceRecordsEveryStageInOrder)
{
    const MusstiCompiler compiler;
    const auto result = compiler.compile(makeGhz(32));
    const auto names = compiler.makePipeline().passNames();
    ASSERT_EQ(result.passTrace.size(), names.size());
    for (std::size_t i = 0; i < names.size(); ++i) {
        EXPECT_EQ(result.passTrace[i].pass, names[i]);
        EXPECT_GE(result.passTrace[i].seconds, 0.0);
    }
}

TEST(Pipeline, RejectsPipelineWithoutLowering)
{
    PassPipeline pipeline;
    pipeline.add(std::make_unique<EvaluationPass>());
    // EvaluationPass itself panics first: no target device was set.
    EXPECT_THROW(pipeline.compile(makeGhz(8), PhysicalParams{}, 0),
                 std::logic_error);
}

TEST(Pipeline, RejectsPipelineWithoutEvaluation)
{
    PassPipeline pipeline;
    pipeline.add(std::make_unique<LowerSwapsPass>());
    EXPECT_THROW(pipeline.compile(makeGhz(8), PhysicalParams{}, 0),
                 std::logic_error);
}

TEST(Pipeline, ContextRequiresPanicWhenStagesMissing)
{
    const PhysicalParams params;
    CompileContext ctx(makeGhz(8), params, 0);
    EXPECT_THROW(ctx.requireLowered(), std::logic_error);
    EXPECT_THROW(ctx.requirePlacement(), std::logic_error);
    EXPECT_THROW(ctx.requireEmlDevice(), std::logic_error);
    EXPECT_THROW(ctx.requireGridDevice(), std::logic_error);
    EXPECT_THROW(ctx.zoneInfos(), std::logic_error);
}

TEST(Pipeline, LowerSwapsPassDecomposes)
{
    Circuit qc(4, "swapper");
    qc.swap(0, 3);
    const PhysicalParams params;
    CompileContext ctx(qc, params, 0);
    LowerSwapsPass pass;
    pass.run(ctx);
    EXPECT_TRUE(ctx.loweredReady);
    EXPECT_EQ(ctx.requireLowered().size(), 3u); // SWAP -> 3 CX
    EXPECT_EQ(ctx.requireLowered().twoQubitCount(), 3);
}

TEST(Pipeline, SabreTwoFoldMatchesPreRefactorResult)
{
    for (const char *family : {"adder", "qft", "bv"}) {
        const Circuit qc = makeBenchmark(family, 32);
        MusstiConfig config; // Sabre mapping is the default
        const PhysicalParams params;
        expectEquivalent(MusstiCompiler(config, params).compile(qc),
                         referenceCompile(qc, config, params));
    }
}

TEST(Pipeline, TrivialMappingMatchesPreRefactorResult)
{
    const Circuit qc = makeBenchmark("sqrt", 45);
    MusstiConfig config;
    config.mapping = MappingKind::Trivial;
    const PhysicalParams params;
    expectEquivalent(MusstiCompiler(config, params).compile(qc),
                     referenceCompile(qc, config, params));
}

TEST(Pipeline, RandomPolicyMatchesPreRefactorResult)
{
    const Circuit qc = makeBenchmark("adder", 64);
    MusstiConfig config;
    config.replacement = ReplacementPolicy::Random;
    config.seed = 99;
    const PhysicalParams params;
    expectEquivalent(MusstiCompiler(config, params).compile(qc),
                     referenceCompile(qc, config, params));
}

TEST(Pipeline, SeedOptionOverridesConfiguredSeed)
{
    const Circuit qc = makeBenchmark("ran", 48);
    MusstiConfig config;
    config.replacement = ReplacementPolicy::Random;
    config.seed = 1;
    MusstiConfig reseeded = config;
    reseeded.seed = 1234;

    const MusstiCompiler compiler(config);
    const auto via_seed_arg = compiler.compile(qc, {.seed = 1234});
    const auto via_config = MusstiCompiler(reseeded).compile(qc);
    EXPECT_EQ(via_seed_arg.metrics.lnFidelity,
              via_config.metrics.lnFidelity);
    EXPECT_EQ(via_seed_arg.metrics.shuttleCount,
              via_config.metrics.shuttleCount);
    EXPECT_EQ(via_seed_arg.schedule.ops.size(),
              via_config.schedule.ops.size());
}

TEST(Pipeline, BackendsShareOneInterface)
{
    // Every stock compiler is reachable through ICompilerBackend alone.
    const GridConfig grid{2, 2, 16};
    const PhysicalParams params;
    std::vector<std::shared_ptr<const ICompilerBackend>> backends;
    backends.push_back(std::make_shared<const MusstiCompiler>());
    backends.push_back(
        std::make_shared<const MuraliCompiler>(grid, params));
    const Circuit qc = makeGhz(24);
    for (const auto &backend : backends) {
        const CompileResult result = backend->compile(qc);
        EXPECT_FALSE(backend->name().empty());
        EXPECT_NE(backend->configDigest(), 0u);
        EXPECT_GT(result.schedule.ops.size(), 0u);
        EXPECT_LT(result.metrics.lnFidelity, 0.0);
    }
}

} // namespace
} // namespace mussti
