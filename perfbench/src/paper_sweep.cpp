/**
 * @file
 * paper_sweep: the paper's evaluation matrix, compiled cold in a closed
 * loop with one request in flight, through a 1-worker CompileService
 * whose result cache and snapshot tier are off.
 *
 * Programs: the medium and large suites plus qft:160, qft:288,
 * sqrt:576 and ran:576. Every program runs on MUSS-TI on the paper EML
 * device; the ones that fit the paper grid of their suite also run on
 * murali, dai and mqt. The seeded families draw from the workload seed.
 */
#include <map>
#include <memory>
#include <optional>
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

constexpr double kSloMs = 1000.0;
/** Share of each job's repeats the timing metrics come from. */
constexpr double kFastShare = 0.1;
constexpr const char *kMediumGrid = "grid:4x3,cap=16";
constexpr const char *kLargeGrid = "grid:5x4,cap=16";

struct ProgramSpec
{
    std::string family;
    int qubits = 0;
    const char *grid = nullptr; ///< Paper grid of its suite, if any.
};

std::vector<ProgramSpec>
programSpecs()
{
    std::vector<ProgramSpec> specs;
    for (const BenchmarkSpec &s : mediumScaleSuite())
        specs.push_back({s.family, s.numQubits, kMediumGrid});
    for (const BenchmarkSpec &s : largeScaleSuite())
        specs.push_back({s.family, s.numQubits, kLargeGrid});
    // The expensive extras. Only qft:288 also runs on the grid
    // baselines (the grid case the ROADMAP measured); 55 jobs per pass
    // put p90 and p99 in the middle of single-program latency clusters.
    specs.push_back({"qft", 160, nullptr});
    specs.push_back({"qft", 288, kLargeGrid});
    specs.push_back({"sqrt", 576, nullptr});
    specs.push_back({"ran", 576, nullptr});
    return specs;
}

/**
 * The grid the baselines compile the program on, if any: its suite's
 * paper grid, when that has more trap slots than the program qubits.
 */
std::optional<GridConfig>
gridOf(const ProgramSpec &spec)
{
    if (spec.grid == nullptr)
        return std::nullopt;
    const GridConfig grid = DeviceRegistry::parse(spec.grid).grid;
    if (spec.qubits >= grid.width * grid.height * grid.trapCapacity)
        return std::nullopt;
    return grid;
}

std::uint64_t
splitMix(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

/** The program's circuit; seeded families draw from the workload seed. */
Circuit
buildCircuit(const ProgramSpec &spec, std::uint64_t seed)
{
    const std::uint64_t s = splitMix(seed ^ (std::uint64_t(spec.qubits) << 8));
    if (spec.family == "qaoa")
        return makeQaoa(spec.qubits, 1, s);
    if (spec.family == "ran")
        return makeRandomCircuit(spec.qubits, spec.qubits * 6, s);
    if (spec.family == "sc")
        return makeSupremacy(spec.qubits, 8, s);
    if (spec.family == "bv")
        return makeBv(spec.qubits, s);
    return makeBenchmark(spec.family, spec.qubits);
}

const char *kGridBackends[] = {"murali", "dai", "mqt"};

/** One (program, backend) compile of the matrix. */
struct Job
{
    std::string label; ///< <family>_n<q>.<backend>
    std::size_t program = 0;
    std::shared_ptr<const ICompilerBackend> backend;
    std::shared_ptr<const TargetDevice> device;
    bool mussti = false;
};

struct Setup
{
    std::vector<Circuit> circuits;
    std::vector<Job> jobs;
    std::unique_ptr<CompileService> service;
};

Setup
buildSetup(std::uint64_t seed, Tracer &tracer, double &build_ms,
           double &device_ms)
{
    Setup setup;
    const std::vector<ProgramSpec> specs = programSpecs();

    const Clock::time_point b0 = Clock::now();
    for (const ProgramSpec &spec : specs)
        setup.circuits.push_back(buildCircuit(spec, seed));
    const Clock::time_point b1 = Clock::now();
    tracer.record("workloads.build", b0, b1);
    build_ms = msBetween(b0, b1);

    const MusstiConfig config; // paper defaults, paper EML device
    const auto mussti = makeMusstiBackend(config);
    device_ms = 0.0;
    for (std::size_t p = 0; p < specs.size(); ++p) {
        const ProgramSpec &spec = specs[p];
        const std::string name = spec.family + "_n" +
                                 std::to_string(spec.qubits);
        Clock::time_point d0 = Clock::now();
        auto eml = DeviceRegistry::createEml(config.device, spec.qubits);
        Clock::time_point d1 = Clock::now();
        tracer.record("arch.device_create", d0, d1);
        device_ms += msBetween(d0, d1);
        setup.jobs.push_back({name + ".mussti", p, mussti, eml, true});

        const std::optional<GridConfig> grid = gridOf(spec);
        if (!grid)
            continue;
        d0 = Clock::now();
        auto grid_device = DeviceRegistry::createGrid(*grid);
        d1 = Clock::now();
        tracer.record("arch.device_create", d0, d1);
        device_ms += msBetween(d0, d1);
        for (const char *which : kGridBackends) {
            setup.jobs.push_back({name + "." + which, p,
                                  makeGridBackend(which, *grid), grid_device,
                                  false});
        }
    }

    CompileServiceConfig service;
    service.numThreads = 1;
    service.cacheCapacity = 0;
    service.snapshotCacheCapacity = 0;
    setup.service = std::make_unique<CompileService>(service);
    return setup;
}

} // namespace

std::vector<std::string>
paperSweepProgramMetricNames()
{
    std::vector<std::string> names;
    for (const ProgramSpec &spec : programSpecs()) {
        const std::string base = "program." + spec.family + "_n" +
                                 std::to_string(spec.qubits) + ".";
        names.push_back(base + "mussti.compile_ms");
        if (gridOf(spec)) {
            for (const char *which : kGridBackends)
                names.push_back(base + which + ".compile_ms");
        }
    }
    return names;
}

RunResult
runPaperSweep(const Options &options)
{
    RunResult run;
    Report &report = run.report;
    Tracer tracer(options.trace);

    // ---- set-up; repeated after the run, see the end ------------------
    std::vector<double> setup_s, build_ms, device_ms;
    auto timedSetup = [&] {
        double b = 0.0, d = 0.0;
        const Clock::time_point s0 = Clock::now();
        Setup built = buildSetup(options.seed, tracer, b, d);
        setup_s.push_back(msBetween(s0, Clock::now()) / 1e3);
        build_ms.push_back(b);
        device_ms.push_back(d);
        return built;
    };
    Setup setup = timedSetup();
    CompileService &service = *setup.service;
    const std::size_t num_jobs = setup.jobs.size();

    // ---- timed region: whole passes over the matrix -------------------
    std::vector<double> latencies;
    std::vector<std::vector<double>> pass_latencies;
    std::vector<std::optional<CompileResult>> first(num_jobs);
    std::vector<std::uint64_t> fingerprints(num_jobs);
    std::vector<std::vector<double>> compile_ms(num_jobs);
    std::map<std::string, double> pass_ms;
    std::vector<double> overhead_ms, fingerprint_ms;
    std::uint64_t attempted = 0, failed = 0;
    int passes = 0;
    double excluded_ms = 0.0;

    const Clock::time_point t_start = Clock::now();
    for (;;) {
        pass_latencies.emplace_back();
        for (std::size_t j = 0; j < num_jobs; ++j) {
            const Job &job = setup.jobs[j];
            CompileRequest request{job.backend, setup.circuits[job.program],
                                   {}, {}, {}};
            const Clock::time_point t0 = Clock::now();
            CompileOutcome outcome =
                service.submitOutcome(std::move(request)).get();
            const Clock::time_point t1 = Clock::now();
            ++attempted;

            // Bookkeeping below is excluded from the timed region.
            const double latency = msBetween(t0, t1);
            if (!outcome.ok()) {
                ++failed;
                run.correct = false;
                report.note("FAIL " + job.label + ": " +
                            outcome.errorInfo().message());
                excluded_ms += msBetween(t1, Clock::now());
                continue;
            }
            latencies.push_back(latency);
            pass_latencies.back().push_back(latency);
            const CompileResult &result = *outcome.result;
            compile_ms[j].push_back(1e3 * result.compileTimeSec);
            overhead_ms.push_back(latency - 1e3 * result.compileTimeSec);
            const Tracer::SpanId root =
                tracer.record("service.submit_wait", t0, t1,
                              Tracer::kNone, attempted);
            Clock::time_point cursor =
                t1 - std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(
                             result.compileTimeSec));
            for (const PassTiming &timing : result.passTrace) {
                pass_ms[timing.pass] += 1e3 * timing.seconds;
                const auto next =
                    cursor + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double>(
                                     timing.seconds));
                tracer.record("pass." + timing.pass, cursor, next, root,
                              attempted);
                cursor = next;
            }
            const Clock::time_point f0 = Clock::now();
            const std::uint64_t fingerprint = resultFingerprint(result);
            const Clock::time_point f1 = Clock::now();
            tracer.record("pipeline.fingerprint", f0, f1, Tracer::kNone,
                          attempted);
            fingerprint_ms.push_back(msBetween(f0, f1));
            if (passes == 0) {
                fingerprints[j] = fingerprint;
                first[j] = outcome.take();
            } else if (fingerprint != fingerprints[j]) {
                ++failed;
                run.correct = false;
                report.note("FAIL " + job.label +
                            ": repeated compile differs from the first");
            }
            excluded_ms += msBetween(t1, Clock::now());
        }
        ++passes;
        if (msBetween(t_start, Clock::now()) - excluded_ms >=
            1e3 * options.seconds)
            break;
    }
    const double timed_s =
        (msBetween(t_start, Clock::now()) - excluded_ms) / 1e3;
    const double rss_mb = peakRssMb();

    // ---- correctness: validate every distinct schedule ----------------
    QualityTotals quality;
    double validate_ms = 0.0;
    long long routing = 0, swaps = 0, evictions = 0;
    for (std::size_t j = 0; j < num_jobs; ++j) {
        if (!first[j].has_value())
            continue;
        const Job &job = setup.jobs[j];
        const CompileResult &result = *first[j];
        const Clock::time_point v0 = Clock::now();
        const ValidationReport valid =
            ScheduleValidator(*job.device).validate(result.schedule,
                                                    result.lowered);
        const Clock::time_point v1 = Clock::now();
        tracer.record("sim.validate", v0, v1, Tracer::kNone, j);
        validate_ms += msBetween(v0, v1);
        if (!valid) {
            run.correct = false;
            ++failed;
            report.note("FAIL " + job.label + ": invalid schedule: " +
                        valid.firstError);
        }
        if (job.mussti) {
            quality.addMussti(result.metrics.shuttleCount,
                              result.metrics.log10Fidelity(),
                              result.metrics.executionTimeUs);
            routing += result.routingSteps;
            swaps += result.swapInsertions;
            evictions += result.evictions;
        } else {
            quality.addBaseline(result.metrics.shuttleCount);
        }
    }

    // The remaining set-ups run after the peak-RSS sample, so tearing
    // them down cannot inflate it.
    for (int rep = 1; rep < options.setupRepeats; ++rep)
        timedSetup();

    run.attempted = attempted;
    run.failed = failed;
    const FastRepeats fast = fastestRepeats(pass_latencies, kFastShare);
    char line[200];
    std::snprintf(line, sizeof line,
                  "paper_sweep: %zu jobs (%zu programs) x %d passes in "
                  "%.2f s timed; timing from the fastest %zu of each job",
                  num_jobs, setup.circuits.size(), passes, timed_s,
                  fast.kept);
    report.note(line);

    run.latencyP50Ms = median(fast.latencies);
    if (!options.trace) {
        report.add("setup_s", median(setup_s), "s");
        addLatencyMetrics(report, latencies, fast.latencies, attempted,
                          failed, fast.throughputRps, kSloMs, 90.0);
        report.add("peak_rss_mb", rss_mb, "MB");
        quality.report(report);
        return run;
    }

    report.add("workloads.build_ms", median(build_ms), "ms");
    report.add("arch.device_create_ms", median(device_ms), "ms");
    for (const auto &[pass, ms] : pass_ms)
        report.add("pass." + pass + ".ms", ms / passes, "ms");
    report.add("scheduler.routing_steps", static_cast<double>(routing),
               "count");
    report.add("scheduler.swap_insertions", static_cast<double>(swaps),
               "count");
    report.add("scheduler.evictions", static_cast<double>(evictions),
               "count");
    report.add("pipeline.fingerprint_ms", median(fingerprint_ms), "ms");
    report.add("service.overhead_ms", median(overhead_ms), "ms");
    const CompileService::CacheStats stats = service.cacheStats();
    report.add("service.compiles_executed",
               static_cast<double>(service.jobsExecuted()), "count");
    report.add("service.result_hit_ratio", 0.0, "ratio");
    report.add("service.jobs_failed", static_cast<double>(stats.jobsFailed),
               "count");
    report.add("service.jobs_retried",
               static_cast<double>(stats.jobsRetried), "count");
    report.add("service.jobs_timed_out",
               static_cast<double>(stats.jobsTimedOut), "count");
    report.add("sim.validate_ms", validate_ms, "ms");
    for (std::size_t j = 0; j < num_jobs; ++j) {
        report.add("program." + setup.jobs[j].label + ".compile_ms",
                   median(compile_ms[j]), "ms");
    }
    addSelfTimes(report, tracer, attempted);
    if (!options.traceFile.empty())
        tracer.write(options.traceFile);
    return run;
}

} // namespace perfbench
