#include "core/compiler.h"

#include <memory>
#include <utility>

#include "arch/device_registry.h"
#include "common/hash.h"
#include "common/logging.h"
#include "core/mapper.h"
#include "core/scheduler.h"
#include "lint/schedule_linter.h"
#include "sim/evaluation_pass.h"
#include "sim/evaluator.h"

namespace mussti {

namespace {

/** Apply the context's per-job seed to a config copy. */
MusstiConfig
seededConfig(const MusstiConfig &config, std::uint64_t seed)
{
    MusstiConfig seeded = config;
    seeded.seed = seed;
    return seeded;
}

/** Minimal input-prefix length whose lowering covers `lowered_gates`. */
std::size_t
inputPrefixCovering(const Circuit &input, std::size_t lowered_gates)
{
    std::size_t lowered = 0;
    std::size_t prefix = 0;
    while (prefix < input.size() && lowered < lowered_gates) {
        lowered += input[prefix].kind == GateKind::Swap ? 3 : 1;
        ++prefix;
    }
    return prefix;
}

/** Build the EML device sized for the input circuit. */
class EmlTargetPass : public CompilerPass
{
  public:
    explicit EmlTargetPass(const EmlConfig &device) : device_(device) {}

    const char *name() const override { return "eml-target"; }

    void
    run(CompileContext &ctx) const override
    {
        ctx.device = DeviceRegistry::createEml(device_,
                                               ctx.input.numQubits());
    }

  private:
    EmlConfig device_;
};

/** Level-ordered sequential initial mapping (paper section 3.4). */
class TrivialPlacementPass : public CompilerPass
{
  public:
    const char *name() const override { return "trivial-placement"; }

    void
    run(CompileContext &ctx) const override
    {
        ctx.placement = trivialPlacement(ctx.requireEmlDevice(),
                                         ctx.input.numQubits());
    }
};

/**
 * Forward scheduling pass from the context's placement. Under
 * MappingKind::Trivial this produces the final schedule; under Sabre it
 * is the first leg of the two-fold search and a candidate result.
 */
class MusstiSchedulePass : public CompilerPass
{
  public:
    explicit MusstiSchedulePass(const MusstiConfig &config)
        : config_(config)
    {}

    const char *name() const override { return "mussti-schedule"; }

    void
    run(CompileContext &ctx) const override
    {
        const MusstiConfig config = seededConfig(config_, ctx.seed);
        const MusstiScheduler scheduler(ctx.requireEmlDevice(),
                                        ctx.params, config);

        // Delta compilation covers only this forward leg: under Sabre
        // the reverse/refined legs run over different circuits or
        // placements and always schedule cold. Candidates arrive with
        // their input-prefix hashes already verified by the caller;
        // translate each prefix into lowered-gate terms for the
        // scheduler's window-cleanliness proof: lowering rewrites each
        // SWAP into 3 CX and keeps every other gate 1:1
        // (Circuit::withSwapsDecomposed). Candidates ascend by prefix,
        // so one running SWAP count serves them all. Only a snapshot
        // whose capture was linted can seed the safety net below.
        DeltaRequest request;
        const DeltaRequest *delta = nullptr;
        if (config.deltaCompile && ctx.delta != nullptr) {
            request.checkpointEvery = config.deltaCheckpointGates;
            request.candidates.reserve(ctx.delta->candidates.size());
            std::size_t counted = 0, swaps = 0;
            for (const auto &snap : ctx.delta->candidates) {
                if (snap == nullptr || !snap->lint ||
                    snap->inputPrefixGates > ctx.input.size())
                    continue;
                if (snap->inputPrefixGates < counted)
                    counted = swaps = 0; // Out of order: count afresh.
                for (; counted < snap->inputPrefixGates; ++counted)
                    swaps += ctx.input[counted].kind == GateKind::Swap;
                request.candidates.push_back(
                    {snap.get(), snap->inputPrefixGates + 2 * swaps});
            }
            delta = &request;
        }

        auto output = scheduler.run(ctx.requireLowered(),
                                    ctx.requirePlacement(), delta,
                                    ctx.control);
        ctx.schedule = std::move(output.schedule);
        ctx.finalPlacement = std::move(output.finalPlacement);
        ctx.swapInsertions = output.swapInsertions;
        ctx.evictions = output.evictions;
        ctx.routingSteps += output.routingSteps;
        ctx.windowVisits += output.windowVisits;
        ctx.schedulerHeapAllocs += output.loopHeapAllocs;

        if (delta == nullptr)
            return;

        // Safety net: a resumed schedule must clear the lint oracle
        // before leaving the pass, so a resume bug can never ship a
        // broken schedule, and a schedule that banks checkpoints must
        // clear it too, since its lint exports the state each
        // checkpoint's future net starts from. A resumed schedule is
        // linted from the linter's own state at its snapshot — the ops
        // before it are that snapshot's, linted when it was captured —
        // so the net walks only the suffix. (Resumed runs capture
        // nothing, so the two cases never meet.)
        const ScheduleSnapshot *from = output.resumedFrom;
        if (from != nullptr || !output.snapshots.empty()) {
            std::vector<LintMark> marks;
            marks.reserve(output.snapshots.size());
            for (const ScheduleSnapshot &snap : output.snapshots)
                marks.push_back(
                    {snap.schedule.ops.size(), snap.loweredPrefixGates});
            ScheduleLinter::SuffixLint net =
                ScheduleLinter(ctx.requireDevice())
                    .lintFrom(ctx.schedule, ctx.requireLowered(),
                              from != nullptr ? &*from->lint : nullptr,
                              marks);
            MUSSTI_ASSERT(net.report.ok(),
                          "delta " << (from != nullptr ? "resumed"
                                                       : "capturing")
                                   << " schedule failed lint with "
                                   << net.report.errorCount()
                                   << " error(s)");
            ctx.delta->lintedOps = net.opsWalked;
            for (std::size_t i = 0; i < marks.size(); ++i)
                output.snapshots[i].lint = std::move(net.states[i]);
        }

        // Stamp each captured checkpoint with the input prefix it
        // covers so the caller can key it by Circuit::prefixHash.
        for (ScheduleSnapshot &snap : output.snapshots) {
            snap.inputPrefixGates =
                inputPrefixCovering(ctx.input, snap.loweredPrefixGates);
            snap.prefixHash = ctx.input.prefixHash(snap.inputPrefixGates);
        }
        ctx.delta->captured = std::move(output.snapshots);
        ctx.delta->resumed = from != nullptr;
    }

  private:
    MusstiConfig config_;
};

/**
 * SABRE two-fold search (paper section 3.4): a reverse pass seeded by
 * the forward pass's final placement, then a forward pass from the
 * reverse pass's final placement. The two executions yield two candidate
 * compilations; keep whichever scored better. No-op under
 * MappingKind::Trivial.
 */
class SabreTwoFoldPass : public CompilerPass
{
  public:
    explicit SabreTwoFoldPass(const MusstiConfig &config)
        : config_(config)
    {}

    const char *name() const override { return "sabre-two-fold"; }

    void
    run(CompileContext &ctx) const override
    {
        if (config_.mapping != MappingKind::Sabre)
            return;

        const MusstiConfig config = seededConfig(config_, ctx.seed);
        const EmlDevice &device = ctx.requireEmlDevice();
        const MusstiScheduler scheduler(device, ctx.params, config);
        const Evaluator evaluator(ctx.params);

        // Score the forward candidate the schedule pass left behind.
        ctx.metrics = evaluator.evaluate(ctx.schedule,
                                         device.zoneInfos());
        ctx.metricsValid = true;

        MUSSTI_ASSERT(ctx.finalPlacement.has_value(),
                      "sabre-two-fold needs the forward pass's final "
                      "placement");
        const Circuit reversed = ctx.requireLowered().reversed();
        auto backward = scheduler.run(reversed, *ctx.finalPlacement,
                                      nullptr, ctx.control);
        auto refined = scheduler.run(ctx.requireLowered(),
                                     backward.finalPlacement, nullptr,
                                     ctx.control);
        const Metrics refined_metrics = evaluator.evaluate(
            refined.schedule, device.zoneInfos());

        // Perf counters cover the whole compile — both extra legs —
        // regardless of which candidate wins below.
        ctx.routingSteps += backward.routingSteps + refined.routingSteps;
        ctx.windowVisits += backward.windowVisits + refined.windowVisits;
        ctx.schedulerHeapAllocs +=
            backward.loopHeapAllocs + refined.loopHeapAllocs;

        if (refined_metrics.lnFidelity > ctx.metrics.lnFidelity) {
            ctx.schedule = std::move(refined.schedule);
            ctx.finalPlacement = std::move(refined.finalPlacement);
            ctx.swapInsertions = refined.swapInsertions;
            ctx.evictions = refined.evictions;
            ctx.metrics = refined_metrics;
        }
    }

  private:
    MusstiConfig config_;
};

} // namespace

std::shared_ptr<const EmlDevice>
MusstiCompiler::deviceFor(const Circuit &circuit) const
{
    return DeviceRegistry::createEml(config_.device, circuit.numQubits());
}

PassPipeline
MusstiCompiler::makePipeline() const
{
    PassPipeline pipeline;
    pipeline.add(std::make_unique<LowerSwapsPass>())
        .add(std::make_unique<EmlTargetPass>(config_.device))
        .add(std::make_unique<TrivialPlacementPass>())
        .add(std::make_unique<MusstiSchedulePass>(config_))
        .add(std::make_unique<SabreTwoFoldPass>(config_))
        .add(std::make_unique<EvaluationPass>());
    return pipeline;
}

CompileResult
MusstiCompiler::compile(const Circuit &circuit,
                        const CompileOptions &options) const
{
    return makePipeline().compile(circuit, params_,
                                  options.seed.value_or(config_.seed),
                                  options.delta, options.control);
}

const std::string &
MusstiCompiler::name() const
{
    static const std::string kName = "mussti";
    return kName;
}

std::uint64_t
MusstiCompiler::configDigest() const
{
    Fnv1a hash;
    hash.update(name());
    hash.update(config_.lookAhead);
    hash.update(config_.swapThreshold);
    hash.update(config_.enableSwapInsertion);
    hash.update(static_cast<int>(config_.mapping));
    hash.update(static_cast<int>(config_.replacement));
    hash.update(config_.seed);
    // Delta compilation is bit-identical by contract, but snapshots key
    // on this digest and must never cross the knob; fold it in only
    // when enabled so every knob-off digest (and the golden-fingerprint
    // suite keyed on it) stays exactly as before.
    if (config_.deltaCompile) {
        hash.update(config_.deltaCompile);
        hash.update(config_.deltaCheckpointGates);
    }
    // The device folds in through its canonical registry spec, so
    // every topology knob — including heterogeneous module mixes —
    // keys the CompileService cache.
    hash.update(DeviceRegistry::specOf(config_.device).digest());
    hash.update(paramsDigest(params_));
    return hash.digest();
}

} // namespace mussti
