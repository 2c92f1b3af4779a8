#include "sim/evaluator.h"

#include <cmath>

#include "arch/target_device.h"
#include "common/logging.h"

namespace mussti {

Metrics
Evaluator::evaluate(const Schedule &schedule,
                    const TargetDevice &device) const
{
    return evaluate(schedule, device.zoneInfos());
}

double
Metrics::fidelity() const
{
    return std::exp(lnFidelity);
}

double
Metrics::log10Fidelity() const
{
    return lnFidelity * 0.43429448190325176;
}

Metrics
Evaluator::evaluate(const Schedule &schedule,
                    const std::vector<ZoneInfo> &zone_infos) const
{
    MUSSTI_REQUIRE(schedule.initialChains.size() == zone_infos.size(),
                   "schedule zones (" << schedule.initialChains.size()
                   << ") do not match device zones ("
                   << zone_infos.size() << ")");

    Metrics metrics;
    metrics.shuttleCount = schedule.shuttleCount;
    metrics.ionSwapCount = schedule.ionSwapCount;
    metrics.insertedSwapGates = schedule.insertedSwapGates;

    LogFidelity fidelity;
    LogFidelity from_shuttle, from_gate, from_heat;

    // Zone state replay: occupancy for the N^2 gate penalty, heat for
    // the background term.
    std::vector<int> occupancy(zone_infos.size(), 0);
    std::vector<double> heat(zone_infos.size(), 0.0);
    for (std::size_t z = 0; z < zone_infos.size(); ++z)
        occupancy[z] = static_cast<int>(schedule.initialChains[z].size());

    const double k = params_.heatingRate;
    // Gates also consume qubit lifetime: their serial duration feeds the
    // circuit-level decay envelope below.
    double gate_time = 0.0;

    for (const ScheduledOp &op : schedule.ops) {
        metrics.executionTimeUs += op.durationUs;
        if (op.isGate())
            gate_time += op.durationUs;

        switch (op.kind) {
          case OpKind::Split:
          case OpKind::IonSwap:
            from_shuttle.multiply(
                params_.shuttleFidelity(op.durationUs, op.nbar));
            if (!params_.perfectShuttle)
                heat[op.zoneFrom] += op.nbar;
            if (op.kind == OpKind::Split)
                --occupancy[op.zoneFrom];
            break;

          case OpKind::Move:
          case OpKind::Merge:
            from_shuttle.multiply(
                params_.shuttleFidelity(op.durationUs, op.nbar));
            if (!params_.perfectShuttle)
                heat[op.zoneTo] += op.nbar;
            if (op.kind == OpKind::Merge)
                ++occupancy[op.zoneTo];
            break;

          case OpKind::Gate1Q: {
            ++metrics.gate1qCount;
            from_gate.multiply(params_.gate1qFidelity);
            if (op.zoneFrom >= 0)
                from_heat.multiplyLn(-k * heat[op.zoneFrom]);
            break;
          }

          case OpKind::Gate2Q: {
            ++metrics.gate2qCount;
            MUSSTI_ASSERT(op.zoneFrom >= 0, "2q gate without a zone");
            from_gate.multiply(
                params_.twoQubitGateFidelity(occupancy[op.zoneFrom]));
            from_heat.multiplyLn(-k * heat[op.zoneFrom]);
            break;
          }

          case OpKind::FiberGate: {
            ++metrics.fiberGateCount;
            MUSSTI_ASSERT(op.zoneFrom >= 0 && op.zoneTo >= 0,
                          "fiber gate without zones");
            const double f = params_.perfectGate
                ? params_.perfectGateFidelity
                : params_.fiberGateFidelity;
            from_gate.multiply(f);
            from_heat.multiplyLn(-k * (heat[op.zoneFrom] +
                                       heat[op.zoneTo]));
            break;
          }
        }
    }
    fidelity.multiply(from_shuttle);
    fidelity.multiply(from_gate);
    fidelity.multiply(from_heat);
    metrics.lnFromShuttleOps = from_shuttle.ln();
    metrics.lnFromGateIntrinsic = from_gate.ln();
    metrics.lnFromHeatBackground = from_heat.ln();

    // Lifetime decay over the whole serial execution, applied per qubit
    // via the shuttle terms above plus this circuit-level envelope for
    // gate durations.
    fidelity.multiplyLn(-gate_time / params_.t1Us);
    metrics.lnFromLifetime = -gate_time / params_.t1Us;

    metrics.lnFidelity = fidelity.ln();
    return metrics;
}

} // namespace mussti
