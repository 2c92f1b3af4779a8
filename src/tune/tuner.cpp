#include "tune/tuner.h"

#include <sstream>
#include <utility>

#include "arch/device_registry.h"
#include "baselines/backend_factory.h"
#include "common/fault_injection.h"
#include "common/logging.h"
#include "common/string_util.h"
#include "workloads/workloads.h"

namespace mussti {

namespace {

/**
 * Attempts the tuner gives a Transient-faulted probe or sweep job
 * before declaring the candidate infeasible. Retries are deterministic:
 * a probe is a pure function of the spec, and a retried sweep job
 * recompiles under the seed of its original flat index, so the outcome
 * set — and therefore the front — is identical whether a job resolved
 * on round one or round three.
 */
constexpr int kTunerFaultAttempts = 3;

/** Render a structured error for an infeasibleReason field. */
std::string
describeFailure(const MusstiError &error)
{
    return std::string(error.categoryName()) + " [" + error.code() +
           "] " + error.message();
}

/**
 * The deterministic recommendation among the Pareto front: best total
 * log-fidelity, then lower makespan, then fewer shuttles, then the
 * lexicographically smallest canonical spec. Only scored objectives
 * and the spec text participate — never wall-clock — so the pick is
 * identical across machines and thread counts.
 */
bool
recommendOver(const TuneCandidate &challenger, const TuneCandidate &best)
{
    const ScoreCard &c = challenger.total;
    const ScoreCard &b = best.total;
    if (c.log10Fidelity != b.log10Fidelity)
        return c.log10Fidelity > b.log10Fidelity;
    if (c.makespanUs != b.makespanUs)
        return c.makespanUs < b.makespanUs;
    if (c.shuttles != b.shuttles)
        return c.shuttles < b.shuttles;
    return challenger.spec.canonical() < best.spec.canonical();
}

} // namespace

std::string
TuneWorkload::label() const
{
    std::ostringstream out;
    out << family << "_n" << qubits;
    return out.str();
}

TuneWorkload
parseTuneWorkload(const std::string &text)
{
    const std::size_t colon = text.find(':');
    MUSSTI_REQUIRE(colon != std::string::npos && colon > 0,
                   "malformed workload `" << text
                   << "` (expected family:qubits, e.g. qaoa:96)");
    TuneWorkload workload;
    workload.family = toLower(trim(text.substr(0, colon)));
    workload.qubits = parseIntArg(text.substr(colon + 1),
                                  "workload qubit count");
    MUSSTI_REQUIRE(workload.qubits > 0,
                   "workload qubit count must be positive in `" << text
                   << "`");
    return workload;
}

const TuneCandidate &
TuneOutcome::recommendedCandidate() const
{
    MUSSTI_ASSERT(recommended >= 0 &&
                  static_cast<std::size_t>(recommended) <
                      candidates.size(),
                  "no recommended candidate in this TuneOutcome");
    return candidates[static_cast<std::size_t>(recommended)];
}

TuneOutcome
tuneDeviceSpec(const TunerConfig &config)
{
    return tuneDeviceSpec(config, parseSpecSearch(config.search));
}

TuneOutcome
tuneDeviceSpec(const TunerConfig &config, CompileService &service)
{
    return tuneDeviceSpec(config, parseSpecSearch(config.search),
                          service);
}

TuneOutcome
tuneDeviceSpec(const TunerConfig &config, const SpecSearchSpace &space)
{
    CompileServiceConfig service_config;
    service_config.numThreads = config.numThreads;
    service_config.cacheCapacity = config.cacheCapacity;
    CompileService service(service_config);
    return tuneDeviceSpec(config, space, service);
}

TuneOutcome
tuneDeviceSpec(const TunerConfig &config, const SpecSearchSpace &space,
               CompileService &service)
{
    MUSSTI_REQUIRE(!config.workloads.empty(),
                   "tuner needs at least one workload (family:qubits)");
    for (const TuneWorkload &workload : config.workloads)
        MUSSTI_REQUIRE(workload.qubits > 0,
                       "workload " << workload.family
                       << " needs a positive qubit count");

    // parseSpecSearch fills `candidates`; a hand-built space falls
    // back to enumerating here.
    const std::vector<DeviceSpec> fallback =
        space.candidates.empty() ? space.enumerate()
                                 : std::vector<DeviceSpec>{};
    const std::vector<DeviceSpec> &enumerated =
        space.candidates.empty() ? fallback : space.candidates;

    TuneOutcome outcome;
    for (const DeviceSpec &spec : enumerated) {
        TuneCandidate candidate;
        candidate.spec = spec;
        outcome.candidates.push_back(std::move(candidate));
    }

    // One circuit build per workload. CompileRequest carries the
    // circuit BY VALUE, so each feasible (candidate x workload) job
    // below copies it — acceptable at the 4096-candidate ceiling, but
    // a cost to know about before raising that ceiling.
    std::vector<Circuit> circuits;
    circuits.reserve(config.workloads.size());
    for (const TuneWorkload &workload : config.workloads)
        circuits.push_back(makeBenchmark(workload.family,
                                         workload.qubits));

    // Feasibility probe: a candidate must host every workload. The
    // probe is quiet (tryCreate) — an out-of-range candidate is an
    // expected part of a sweep, not console noise — and deterministic,
    // so the feasible set is identical on every run. The TunerProbe
    // fault site covers the probe: a Transient fault retries (the probe
    // is pure, so a retry decides identically); anything persistent
    // marks the candidate infeasible instead of aborting the tune.
    std::vector<std::size_t> feasible;
    for (std::size_t i = 0; i < outcome.candidates.size(); ++i) {
        TuneCandidate &candidate = outcome.candidates[i];
        for (int attempt = 0;; ++attempt) {
            try {
                FaultInjector::maybeThrow(FaultSite::TunerProbe);
                candidate.feasible = true;
                for (const Circuit &circuit : circuits) {
                    std::string reason;
                    if (!DeviceRegistry::tryCreate(candidate.spec,
                                                   circuit.numQubits(),
                                                   &reason)) {
                        candidate.feasible = false;
                        candidate.infeasibleReason = reason;
                        break;
                    }
                }
                break;
            } catch (...) {
                const MusstiError error = describeCurrentException();
                if (error.category() == ErrorCategory::Transient &&
                    attempt + 1 < kTunerFaultAttempts)
                    continue;
                candidate.feasible = false;
                candidate.infeasibleReason = describeFailure(error);
                break;
            }
        }
        if (candidate.feasible)
            feasible.push_back(i);
    }
    MUSSTI_REQUIRE(!feasible.empty(),
                   "every candidate of device search `" << config.search
                   << "` is infeasible for the workload set; e.g. "
                   << outcome.candidates.front().spec.canonical() << ": "
                   << outcome.candidates.front().infeasibleReason);

    // One sharded batch over the whole (feasible spec x workload) grid,
    // seeded explicitly by flat job index (deriveJobSeed(baseSeed, i)):
    // a job retried in a later round recompiles under the seed
    // of its original position, so the resolved outcome set is a pure
    // function of (requests, baseSeed) no matter which round each job
    // lands in — or how many faults fired along the way.
    std::vector<CompileRequest> requests;
    std::vector<std::size_t> owner; ///< flat job -> candidate index
    requests.reserve(feasible.size() * circuits.size());
    for (const std::size_t i : feasible) {
        const DeviceSpec &spec = outcome.candidates[i].spec;
        const auto backend = makeBackendFor(
            spec.family == DeviceFamily::Eml ? "mussti"
                                             : config.gridBackend,
            spec);
        for (const Circuit &circuit : circuits) {
            CompileRequest request{backend, circuit, {}, {}, {}};
            request.seed = CompileService::deriveJobSeed(config.baseSeed,
                                                         requests.size());
            requests.push_back(std::move(request));
            owner.push_back(i);
        }
    }

    // Outcome-tolerant sweep with bounded retry rounds. A job fails a
    // round through the service (worker-side faults the service's own
    // retry gave up on) or at the TunerSweep harvest site; Transient
    // failures re-enter the next round, anything else is final. Jobs
    // still failed after the last round poison their candidate:
    // infeasible with the structured reason, excluded from the front.
    std::vector<std::optional<CompileResult>> resolved(requests.size());
    std::vector<std::size_t> unresolved(requests.size());
    for (std::size_t i = 0; i < unresolved.size(); ++i)
        unresolved[i] = i;

    for (int round = 0;
         round < kTunerFaultAttempts && !unresolved.empty(); ++round) {
        std::vector<CompileRequest> batch;
        batch.reserve(unresolved.size());
        for (const std::size_t idx : unresolved)
            batch.push_back(requests[idx]);
        std::vector<CompileOutcome> outcomes =
            service.compileAllOutcomes(std::move(batch));

        std::vector<std::size_t> retry;
        for (std::size_t k = 0; k < unresolved.size(); ++k) {
            const std::size_t idx = unresolved[k];
            std::optional<MusstiError> failure;
            if (outcomes[k].ok()) {
                try {
                    FaultInjector::maybeThrow(FaultSite::TunerSweep);
                    resolved[idx] = std::move(*outcomes[k].result);
                } catch (...) {
                    failure = describeCurrentException();
                }
            } else {
                failure = std::move(*outcomes[k].error);
            }
            if (!failure)
                continue;
            if (failure->category() == ErrorCategory::Transient &&
                round + 1 < kTunerFaultAttempts) {
                retry.push_back(idx);
            } else {
                TuneCandidate &candidate =
                    outcome.candidates[owner[idx]];
                candidate.feasible = false;
                if (candidate.infeasibleReason.empty())
                    candidate.infeasibleReason =
                        describeFailure(*failure);
            }
        }
        unresolved = std::move(retry);
    }
    for (const std::size_t idx : unresolved) {
        TuneCandidate &candidate = outcome.candidates[owner[idx]];
        candidate.feasible = false;
        if (candidate.infeasibleReason.empty())
            candidate.infeasibleReason =
                "sweep compile kept failing Transient after " +
                std::to_string(kTunerFaultAttempts) + " rounds";
    }

    // Score the survivors (a candidate needs every workload resolved).
    std::vector<std::size_t> scored;
    for (const std::size_t i : feasible)
        if (outcome.candidates[i].feasible)
            scored.push_back(i);
    std::size_t next = 0;
    for (const std::size_t i : feasible) {
        TuneCandidate &candidate = outcome.candidates[i];
        for (std::size_t w = 0; w < circuits.size(); ++w, ++next) {
            if (!candidate.feasible)
                continue;
            const ScoreCard card = scoreCardOf(*resolved[next]);
            candidate.perWorkload.push_back(card);
            candidate.total.accumulate(card);
        }
    }
    MUSSTI_REQUIRE(!scored.empty(),
                   "every feasible candidate of device search `"
                   << config.search << "` failed its sweep compiles; "
                   "e.g. " << outcome.candidates[feasible.front()]
                                  .spec.canonical() << ": "
                   << outcome.candidates[feasible.front()]
                          .infeasibleReason);

    // Pareto front over the aggregated scores: a candidate survives
    // unless some scored candidate dominates it.
    for (const std::size_t i : scored) {
        bool dominated = false;
        for (const std::size_t j : scored) {
            if (i != j && outcome.candidates[j].total.dominates(
                              outcome.candidates[i].total)) {
                dominated = true;
                break;
            }
        }
        if (!dominated) {
            outcome.candidates[i].onParetoFront = true;
            outcome.paretoFront.push_back(i);
        }
    }

    for (const std::size_t i : outcome.paretoFront) {
        if (outcome.recommended < 0 ||
            recommendOver(outcome.candidates[i],
                          outcome.candidates[static_cast<std::size_t>(
                              outcome.recommended)]))
            outcome.recommended = static_cast<int>(i);
    }
    return outcome;
}

} // namespace mussti
