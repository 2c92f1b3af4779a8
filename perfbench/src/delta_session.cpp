/**
 * @file
 * delta_session: one interactive user editing circuits in a closed loop,
 * in-process through a CompileService with MusstiConfig::deltaCompile on
 * (trivial mapping and 64-gate checkpoints, as in the
 * micro_scheduler/delta tier). The base documents compile during set-up;
 * the timed loop submits a seeded stream of edits, each a circuit no
 * earlier request produced: append one Trotter layer, re-parameterize
 * the tail angles, or sweep the angles of a QAOA circuit's last round.
 * Every edit misses the result cache and resumes from the snapshot tier.
 */
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "arch/device_registry.h"
#include "baselines/backend_factory.h"
#include "core/compile_service.h"
#include "core/compiler.h"
#include "core/pipeline.h"
#include "harness.h"
#include "sim/validator.h"
#include "workloads/workloads.h"

namespace perfbench {

using namespace mussti;

namespace {

constexpr double kSloMs = 100.0;
constexpr int kMaxAppends = 4;
/** Edits whose schedule quality enters the deterministic metrics. */
constexpr std::size_t kQualityEdits = 32;
/**
 * One edit cycle: every document visited until each is back at its
 * base version (an Ising document takes kMaxAppends + 1 appends and as
 * many re-parameterizations).
 */
constexpr std::size_t kEditCycle = 3 * 2 * (kMaxAppends + 1);
/** Share of each cycle position's repeats the timing metrics come from. */
constexpr double kFastShare = 0.1;
constexpr const char *kBaselineGrid = "grid:4x3,cap=16";

enum class DocKind { Ising, Qaoa };

struct DocSpec
{
    DocKind kind;
    int qubits;
    int depth; ///< Trotter steps or QAOA rounds.
};

const DocSpec kDocs[] = {{DocKind::Ising, 48, 160},
                         {DocKind::Ising, 64, 240},
                         {DocKind::Qaoa, 128, 16}};

/**
 * A document version: appended layers and the tag of its tail angles.
 * Tags are never reused, so no two versions are equal.
 */
struct Version
{
    int appended = 0;
    std::uint64_t tag = 0;
};

/** Edit kinds, counted in the run's note. */
enum EditKind { kAppend = 0, kReparam, kSweep, kNumEditKinds };

/** Per-document inputs prepared at set-up. */
struct Doc
{
    DocSpec spec;
    std::vector<Circuit> bases; ///< Ising: per appended count; QAOA: one.
    std::size_t pivot = 0;      ///< First gate an angle edit touches.
    Version current;
    bool appendNext = false;    ///< Ising: the next edit appends.
    double angleStep = 1e-4;    ///< Seeded step of the angle edits.
};

Doc
makeDoc(const DocSpec &spec, std::uint64_t seed)
{
    Doc doc{spec, {}, 0, {}, false,
            1e-4 * static_cast<double>(1 + seed % 9)};
    if (spec.kind == DocKind::Ising) {
        for (int a = 0; a <= kMaxAppends; ++a)
            doc.bases.push_back(makeIsing(spec.qubits, spec.depth + a, seed));
        // The tail is the last eighth of the base circuit.
        const std::size_t size = doc.bases[0].size();
        doc.pivot = size - size / 8;
    } else {
        doc.bases.push_back(makeQaoa(spec.qubits, spec.depth, seed));
        // The last round starts after the first depth-1 rounds: the
        // initial H layer plus (depth-1) x (3 gates per edge + mixer).
        const Circuit &qc = doc.bases[0];
        const std::size_t measures = static_cast<std::size_t>(spec.qubits);
        const std::size_t body = qc.size() - measures - measures;
        doc.pivot = measures + body / spec.depth * (spec.depth - 1);
    }
    return doc;
}

/** The circuit of one document version. */
Circuit
buildVersion(const Doc &doc, const Version &version)
{
    const Circuit &base =
        doc.bases[static_cast<std::size_t>(version.appended)];
    Circuit edited(base.numQubits(), base.name());
    const double nudge = doc.angleStep * static_cast<double>(version.tag);
    for (std::size_t i = 0; i < base.size(); ++i) {
        Gate g = base[i];
        if (i >= doc.pivot && (g.kind == GateKind::Rz ||
                               (doc.spec.kind == DocKind::Qaoa &&
                                g.kind == GateKind::Rx)))
            g.param += nudge;
        edited.add(g);
    }
    return edited;
}

struct Setup
{
    std::vector<Doc> docs;
    std::shared_ptr<const ICompilerBackend> backend;
    std::unique_ptr<CompileService> service;
    std::vector<CompileResult> baseResults;
};

MusstiConfig
sessionConfig(bool delta)
{
    MusstiConfig config;
    config.mapping = MappingKind::Trivial;
    config.deltaCompile = delta;
    config.deltaCheckpointGates = 64;
    return config;
}

std::unique_ptr<Setup>
buildSetup(std::uint64_t seed, Tracer &tracer, double &build_ms)
{
    auto setup = std::make_unique<Setup>();
    const Clock::time_point b0 = Clock::now();
    std::uint64_t doc_seed = seed;
    for (const DocSpec &spec : kDocs)
        setup->docs.push_back(makeDoc(spec, doc_seed++));
    const Clock::time_point b1 = Clock::now();
    tracer.record("workloads.build", b0, b1);
    build_ms = msBetween(b0, b1);

    setup->backend = makeMusstiBackend(sessionConfig(true));
    CompileServiceConfig config;
    config.numThreads = 1;
    setup->service = std::make_unique<CompileService>(config);
    for (const Doc &doc : setup->docs) {
        setup->baseResults.push_back(
            setup->service->submit(setup->backend, doc.bases[0]).get());
    }
    return setup;
}

/** One timed edit, kept for the correctness check. */
struct Edit
{
    std::size_t doc = 0;
    Version version;
    EditKind kind = kAppend;
    std::uint64_t fingerprint = 0;
    bool resumed = false;
    double latencyMs = -1.0; ///< Negative when the edit failed.
};

} // namespace

RunResult
runDeltaSession(const Options &options)
{
    RunResult run;
    Report &report = run.report;
    Tracer tracer(options.trace);

    // ---- set-up; repeated after the run, see the end ------------------
    std::vector<double> setup_s, build_ms;
    auto timedSetup = [&] {
        double b = 0.0;
        const Clock::time_point s0 = Clock::now();
        std::unique_ptr<Setup> built = buildSetup(options.seed, tracer, b);
        setup_s.push_back(msBetween(s0, Clock::now()) / 1e3);
        build_ms.push_back(b);
        return built;
    };
    const std::unique_ptr<Setup> setup = timedSetup();
    CompileService &service = *setup->service;
    const CompileService::CacheStats before = service.cacheStats();
    const std::uint64_t executed_before = service.jobsExecuted();

    // ---- timed region: the edit stream ---------------------------------
    std::uint64_t next_tag = 1;
    std::vector<Edit> edits;
    std::vector<double> latencies, overhead_ms;
    std::map<std::string, double> pass_ms;
    QualityTotals quality;
    std::uint64_t failed = 0;
    double excluded_ms = 0.0;
    const Clock::time_point t_start = Clock::now();
    // At least kQualityEdits edits run, however short the run, so the
    // quality metrics always cover the same programs.
    while (edits.size() < kQualityEdits ||
           msBetween(t_start, Clock::now()) - excluded_ms <
               1e3 * options.seconds) {
        // The user visits the documents in turn; an Ising document
        // alternates an append and a tail re-parameterization, so every
        // run has the same mix of edit kinds (the seed sets the documents
        // and the angle steps).
        Edit edit;
        edit.doc = edits.size() % setup->docs.size();
        Doc &doc = setup->docs[edit.doc];
        Version &v = doc.current;
        if (doc.spec.kind == DocKind::Qaoa) {
            edit.kind = kSweep;
            v.tag = next_tag++;
        } else if ((doc.appendNext = !doc.appendNext)) {
            edit.kind = kAppend;
            if (++v.appended > kMaxAppends) {
                // The document starts over at its base depth, with tail
                // angles no earlier version had.
                v.appended = 0;
                v.tag = next_tag++;
            }
        } else {
            edit.kind = kReparam;
            v.tag = next_tag++;
        }
        edit.version = v;

        const Clock::time_point e0 = Clock::now();
        Circuit circuit = buildVersion(doc, v);
        const Clock::time_point t0 = Clock::now();
        CompileOutcome outcome =
            service.submitOutcome({setup->backend, std::move(circuit), {},
                                   {}, {}})
                .get();
        const Clock::time_point t1 = Clock::now();

        // Bookkeeping below is excluded from the timed region.
        const std::uint64_t id = edits.size() + 1;
        if (!outcome.ok()) {
            ++failed;
            run.correct = false;
            report.note("FAIL edit " + std::to_string(id) + ": " +
                        outcome.errorInfo().message());
            edits.push_back(edit);
            excluded_ms += msBetween(t1, Clock::now());
            continue;
        }
        const CompileResult &result = *outcome.result;
        latencies.push_back(msBetween(t0, t1));
        edit.latencyMs = latencies.back();
        overhead_ms.push_back(msBetween(t0, t1) - 1e3 * result.compileTimeSec);
        edit.fingerprint = resultFingerprint(result);
        edit.resumed = result.deltaResumed;
        if (edits.size() < kQualityEdits)
            quality.addMussti(result.metrics.shuttleCount,
                              result.metrics.log10Fidelity(),
                              result.metrics.executionTimeUs);
        tracer.record("workloads.edit", e0, t0, Tracer::kNone, id);
        const Tracer::SpanId root =
            tracer.record("service.submit_wait", t0, t1, Tracer::kNone, id);
        Clock::time_point cursor =
            t1 - std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double>(result.compileTimeSec));
        for (const PassTiming &timing : result.passTrace) {
            pass_ms[timing.pass] += 1e3 * timing.seconds;
            const auto next = cursor +
                std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(timing.seconds));
            tracer.record("pass." + timing.pass, cursor, next, root, id);
            cursor = next;
        }
        edits.push_back(edit);
        excluded_ms += msBetween(t1, Clock::now());
    }
    const double timed_s =
        (msBetween(t_start, Clock::now()) - excluded_ms) / 1e3;
    const double rss_mb = peakRssMb();
    const CompileService::CacheStats after = service.cacheStats();
    const std::uint64_t executed = service.jobsExecuted() - executed_before;

    // ---- correctness: every edit == a cold compile with delta off -------
    CompileServiceConfig cold_config;
    cold_config.numThreads = 4;
    cold_config.cacheCapacity = 0;
    cold_config.snapshotCacheCapacity = 0;
    CompileService cold(cold_config);
    const auto cold_backend = makeMusstiBackend(sessionConfig(false));
    std::vector<CompileRequest> requests;
    for (const Edit &edit : edits)
        requests.push_back({cold_backend,
                            buildVersion(setup->docs[edit.doc],
                                         edit.version),
                            {}, {}, {}});
    std::vector<CompileOutcome> reference =
        cold.compileAllOutcomes(std::move(requests));
    std::vector<double> fingerprint_ms;
    double validate_ms = 0.0;
    std::size_t mismatched = 0, resumed = 0;
    std::size_t kind_count[kNumEditKinds] = {};
    const MusstiCompiler device_source(sessionConfig(false));
    for (std::size_t i = 0; i < edits.size(); ++i) {
        const Edit &edit = edits[i];
        ++kind_count[edit.kind];
        resumed += edit.resumed ? 1 : 0;
        if (!reference[i].ok()) {
            ++mismatched;
            continue;
        }
        const CompileResult &result = *reference[i].result;
        const Clock::time_point f0 = Clock::now();
        const std::uint64_t fp = resultFingerprint(result);
        fingerprint_ms.push_back(msBetween(f0, Clock::now()));
        const Clock::time_point v0 = Clock::now();
        const auto device = device_source.deviceFor(result.lowered);
        const ValidationReport valid =
            ScheduleValidator(*device).validate(result.schedule,
                                                result.lowered);
        const Clock::time_point v1 = Clock::now();
        tracer.record("sim.validate", v0, v1, Tracer::kNone, i + 1);
        validate_ms += msBetween(v0, v1);
        if (fp != edit.fingerprint || !valid) {
            ++mismatched;
            report.note("FAIL edit " + std::to_string(i + 1) +
                        (valid ? ": delta result != cold compile"
                               : ": invalid schedule: " + valid.firstError));
        }
    }
    if (mismatched > 0) {
        run.correct = false;
        failed += mismatched;
    }

    // Quality also covers the base documents, and the session's
    // reference point: each base document on the murali grid baseline.
    const GridConfig grid = DeviceRegistry::parse(kBaselineGrid).grid;
    const auto murali = makeGridBackend("murali", grid);
    for (std::size_t d = 0; d < setup->docs.size(); ++d) {
        const CompileResult &base = setup->baseResults[d];
        quality.addMussti(base.metrics.shuttleCount,
                          base.metrics.log10Fidelity(),
                          base.metrics.executionTimeUs);
        quality.addBaseline(
            murali->compile(setup->docs[d].bases[0]).metrics.shuttleCount);
    }

    // The remaining set-ups run after the peak-RSS sample, so tearing
    // them down cannot inflate it.
    for (int rep = 1; rep < options.setupRepeats; ++rep)
        timedSetup();

    run.attempted = edits.size();
    run.failed = std::min<std::uint64_t>(failed, edits.size());
    std::vector<std::vector<double>> cycles(edits.size() / kEditCycle);
    for (std::size_t i = 0; i < cycles.size() * kEditCycle; ++i) {
        if (edits[i].latencyMs >= 0.0)
            cycles[i / kEditCycle].push_back(edits[i].latencyMs);
    }
    const FastRepeats fast = fastestRepeats(cycles, kFastShare);
    char line[256];
    std::snprintf(line, sizeof line,
                  "delta_session: %zu edits in %.2f s timed (append %zu, "
                  "reparam %zu, sweep %zu), %zu resumed; timing from the "
                  "fastest %zu of %zu cycles per edit; SLO %.0f ms",
                  edits.size(), timed_s, kind_count[kAppend],
                  kind_count[kReparam], kind_count[kSweep], resumed,
                  fast.kept, fast.rounds, kSloMs);
    report.note(line);

    run.latencyP50Ms = median(fast.latencies);
    if (!options.trace) {
        report.add("setup_s", median(setup_s), "s");
        addLatencyMetrics(report, latencies, fast.latencies, run.attempted,
                          run.failed, fast.throughputRps, kSloMs, 90.0);
        report.add("peak_rss_mb", rss_mb, "MB");
        quality.report(report);
        return run;
    }

    const auto ratio = [](double num, double den) {
        return den > 0.0 ? num / den : 0.0;
    };
    const double n = static_cast<double>(edits.size());
    report.add("workloads.build_ms", median(build_ms), "ms");
    for (const auto &[pass, ms] : pass_ms)
        report.add("pass." + pass + ".ms", ratio(ms, n), "ms");
    report.add("pipeline.fingerprint_ms", median(fingerprint_ms), "ms");
    report.add("service.overhead_ms", median(overhead_ms), "ms");
    report.add("service.compiles_executed", double(executed), "count");
    const double hits = double(after.resultHits - before.resultHits);
    report.add("service.result_hit_ratio", ratio(hits, hits + executed),
               "ratio");
    report.add("service.jobs_failed",
               double(after.jobsFailed - before.jobsFailed), "count");
    report.add("service.jobs_retried",
               double(after.jobsRetried - before.jobsRetried), "count");
    report.add("service.jobs_timed_out",
               double(after.jobsTimedOut - before.jobsTimedOut), "count");
    const double snap_hits = double(after.snapshotHits - before.snapshotHits);
    const double snap_misses =
        double(after.snapshotMisses - before.snapshotMisses);
    const double resumes = double(after.deltaResumes - before.deltaResumes);
    const double fallbacks =
        double(after.deltaFallbacks - before.deltaFallbacks);
    report.add("delta.snapshot_hit_ratio",
               ratio(snap_hits, snap_hits + snap_misses), "ratio");
    report.add("delta.resume_ratio", ratio(resumes, resumes + fallbacks),
               "ratio");
    report.add("delta.fallbacks", fallbacks, "count");
    report.add("delta.snapshot_bytes", double(after.snapshotBytes), "bytes");
    report.add("sim.validate_ms", validate_ms, "ms");
    addSelfTimes(report, tracer, edits.size());
    if (!options.traceFile.empty())
        tracer.write(options.traceFile);
    return run;
}

} // namespace perfbench
