#include "core/pipeline.h"

#include <chrono>

#include "arch/eml_device.h"
#include "arch/grid_device.h"
#include "common/fault_injection.h"
#include "common/hash.h"
#include "common/logging.h"

namespace mussti {

const TargetDevice &
CompileContext::requireDevice() const
{
    MUSSTI_ASSERT(device != nullptr,
                  "pass needs a target device but no target pass ran");
    return *device;
}

const std::vector<ZoneInfo> &
CompileContext::zoneInfos() const
{
    return requireDevice().zoneInfos();
}

const Circuit &
CompileContext::requireLowered() const
{
    MUSSTI_ASSERT(loweredReady,
                  "pass needs the lowered circuit but no lowering pass ran");
    return lowered;
}

const Placement &
CompileContext::requirePlacement() const
{
    MUSSTI_ASSERT(placement.has_value(),
                  "pass needs a placement but no mapping pass ran");
    return *placement;
}

const EmlDevice &
CompileContext::requireEmlDevice() const
{
    const TargetDevice &target = requireDevice();
    MUSSTI_ASSERT(target.family() == DeviceFamily::Eml,
                  "EML-only pass ran against a `" << target.familyName()
                  << "` target device");
    return static_cast<const EmlDevice &>(target);
}

const GridDevice &
CompileContext::requireGridDevice() const
{
    const TargetDevice &target = requireDevice();
    MUSSTI_ASSERT(target.family() == DeviceFamily::Grid,
                  "grid-only pass ran against a `" << target.familyName()
                  << "` target device");
    return static_cast<const GridDevice &>(target);
}

PassPipeline &
PassPipeline::add(std::unique_ptr<CompilerPass> pass)
{
    MUSSTI_ASSERT(pass != nullptr, "null pass added to pipeline");
    passes_.push_back(std::move(pass));
    return *this;
}

std::vector<std::string>
PassPipeline::passNames() const
{
    std::vector<std::string> names;
    names.reserve(passes_.size());
    for (const auto &pass : passes_)
        names.emplace_back(pass->name());
    return names;
}

CompileResult
PassPipeline::compile(const Circuit &circuit, const PhysicalParams &params,
                      std::uint64_t seed, DeltaCompileIO *delta,
                      const JobControl *control) const
{
    const auto t0 = std::chrono::steady_clock::now();
    CompileContext ctx(circuit, params, seed);
    ctx.delta = delta;
    ctx.control = control;

    for (const auto &pass : passes_) {
        if (control != nullptr)
            control->checkpoint();
        FaultInjector::maybeThrow(FaultSite::PassBoundary);
        const auto p0 = std::chrono::steady_clock::now();
        pass->run(ctx);
        const auto p1 = std::chrono::steady_clock::now();
        ctx.trace.push_back(
            {pass->name(),
             std::chrono::duration<double>(p1 - p0).count()});
    }

    MUSSTI_ASSERT(ctx.loweredReady,
                  "pipeline finished without a lowering pass");
    MUSSTI_ASSERT(ctx.metricsValid,
                  "pipeline finished without an evaluation pass");

    const auto t1 = std::chrono::steady_clock::now();

    CompileResult result(std::move(ctx.lowered));
    result.schedule = std::move(ctx.schedule);
    // Schedulers reserve ops for the largest schedule their thread has
    // built; a result, which callers and caches keep, holds only what
    // it uses.
    result.schedule.ops.shrink_to_fit();
    result.metrics = ctx.metrics;
    result.swapInsertions = ctx.swapInsertions;
    result.evictions = ctx.evictions;
    result.routingSteps = ctx.routingSteps;
    result.windowVisits = ctx.windowVisits;
    result.schedulerHeapAllocs = ctx.schedulerHeapAllocs;
    result.deltaResumed = delta != nullptr && delta->resumed;
    if (ctx.finalPlacement)
        result.finalChains = Schedule::snapshotChains(*ctx.finalPlacement);
    result.compileTimeSec =
        std::chrono::duration<double>(t1 - t0).count();
    result.passTrace = std::move(ctx.trace);
    return result;
}

void
LowerSwapsPass::run(CompileContext &ctx) const
{
    ctx.lowered = ctx.input.withSwapsDecomposed();
    ctx.loweredReady = true;
}

std::uint64_t
resultFingerprint(const CompileResult &result)
{
    // Field-for-field the algorithm test_backend_golden pins its 13
    // golden digests with (kept there as an independent copy on
    // purpose: a drift in THIS function must fail those tests, not
    // re-pin them).
    Fnv1a h;
    h.update(static_cast<std::uint64_t>(result.schedule.ops.size()));
    for (const ScheduledOp &op : result.schedule.ops) {
        h.update(static_cast<int>(op.kind));
        h.update(op.q0);
        h.update(op.q1);
        h.update(op.zoneFrom);
        h.update(op.zoneTo);
        h.update(op.durationUs);
        h.update(op.nbar);
        h.update(op.circuitGate);
        h.update(op.inserted);
        h.update(op.enterFront);
    }
    for (const auto &chain : result.schedule.initialChains) {
        h.update(static_cast<std::uint64_t>(chain.size()));
        for (int q : chain)
            h.update(q);
    }
    for (const auto &chain : result.finalChains) {
        h.update(static_cast<std::uint64_t>(chain.size()));
        for (int q : chain)
            h.update(q);
    }
    h.update(result.schedule.shuttleCount);
    h.update(result.schedule.ionSwapCount);
    h.update(result.schedule.insertedSwapGates);
    h.update(result.swapInsertions);
    h.update(result.evictions);
    h.update(result.metrics.shuttleCount);
    h.update(result.metrics.executionTimeUs);
    h.update(result.metrics.lnFidelity);
    return h.digest();
}

} // namespace mussti
