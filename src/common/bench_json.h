/**
 * @file
 * Machine-readable benchmark results (the repo's BENCH_*.json format).
 *
 * Every perf harness emits the same schema so runs are comparable
 * across PRs and tooling can diff them:
 *
 * @code{.json}
 * {
 *   "schema": "mussti-bench-v1",
 *   "context": "micro_scheduler_bench --repeats 5",
 *   "results": [
 *     {
 *       "suite": "micro_scheduler/large",
 *       "name": "qaoa",
 *       "qubits": 288,
 *       "repeats": 5,
 *       "wall_ms": 4.31,
 *       "speedup_vs_baseline": 12.9,
 *       "pass_trace": [{"pass": "mussti-schedule", "ms": 1.02}, ...]
 *     }
 *   ]
 * }
 * @endcode
 *
 * `wall_ms` is the best-of-`repeats` wall clock of one compilation;
 * `pass_trace` is CompileResult::passTrace of the best run;
 * `speedup_vs_baseline` is present (> 0) only when the harness was
 * given a baseline file to compare against. The reader is a small
 * self-contained JSON parser, so round-tripping needs no external
 * dependency (tests assert write -> parse fidelity).
 */
#ifndef MUSSTI_COMMON_BENCH_JSON_H
#define MUSSTI_COMMON_BENCH_JSON_H

#include <string>
#include <utility>
#include <vector>

// jsonEscape and the JsonReader the parser below is built on live in
// common/json.h, shared with the lint renderer and the serve framing.
#include "common/json.h"

namespace mussti {

/** One pass of a result's per-pass wall-clock breakdown. */
struct BenchPassTiming
{
    std::string pass;
    double ms = 0.0;
};

/** One benchmark measurement. */
struct BenchRecord
{
    std::string suite;  ///< Harness + tier, e.g. "micro_scheduler/large".
    std::string name;   ///< Workload family.
    int qubits = 0;
    int repeats = 1;
    double wallMs = 0.0;             ///< Best-of-repeats wall clock.
    double speedupVsBaseline = 0.0;  ///< baseline/current; 0 = unknown.
    std::vector<BenchPassTiming> passTrace;

    /**
     * Scheduler-loop accounting (absent = -1, each on its own).
     * `routingSteps` counts phase-2 routed gates across the whole
     * compile (for a grid baseline, its strategy steps); `windowVisits`
     * (JSON `window_visits`) counts the DAG's relaxation-wave visits
     * (CompileResult::windowVisits), a deterministic work counter;
     * `steadyAllocs` (mussti suites only) is the heap-allocation count
     * inside the scheduling loops of the LAST repeat — the steady state,
     * with the scheduler arena warm — as seen by the harness's
     * instrumented operator new. `allocs_per_step` in the JSON is their
     * ratio, written with `steady_allocs`; the CI perf smoke asserts it
     * stays 0.
     */
    long long routingSteps = -1;
    long long windowVisits = -1;
    long long steadyAllocs = -1;

    /**
     * Device-tuner sweep scoring (device_tuner suites only; absent =
     * `shuttles` < 0): the candidate device's ScoreCard for one
     * workload, so a sweep trajectory file carries everything the
     * Pareto front was computed from.
     */
    long long shuttles = -1;
    double makespanUs = 0.0;
    double log10Fidelity = 0.0;

    /**
     * Delta-compilation timing (micro_scheduler/delta records only).
     * `wall_ms` holds the warm resumed path; `delta_cold_ms` (absent =
     * <= 0) is the cold-path reference on the same edited circuit and
     * `delta_speedup` their ratio.
     */
    double deltaColdMs = 0.0;
    double deltaSpeedup = 0.0;

    /**
     * Integer counters under their JSON key, in emit order — for a
     * record whose scenario ran through a CompileService, its
     * CompileService::counters() (snapshot hits, per-tier cache
     * counters, failure-path counters), proving the production path
     * served it. The parser files every numeric key it does not
     * otherwise know here, so readers that predate a counter keep it.
     */
    std::vector<std::pair<std::string, long long>> counters;
};

/** Render records as a mussti-bench-v1 JSON document. */
std::string benchResultsToJson(const std::vector<BenchRecord> &records,
                               const std::string &context);

/** Write the JSON document to `path`; fatal() on I/O failure. */
void writeBenchResults(const std::string &path,
                       const std::vector<BenchRecord> &records,
                       const std::string &context);

/**
 * Parse a mussti-bench-v1 document back into records; fatal() on
 * malformed input or a wrong schema tag. `context_out`, when non-null,
 * receives the document's context string.
 */
std::vector<BenchRecord> parseBenchResults(const std::string &text,
                                           std::string *context_out =
                                               nullptr);

/** Read and parse a results file; fatal() if unreadable. */
std::vector<BenchRecord> readBenchResults(const std::string &path,
                                          std::string *context_out =
                                              nullptr);

} // namespace mussti

#endif // MUSSTI_COMMON_BENCH_JSON_H
