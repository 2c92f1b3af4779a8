/**
 * @file
 * Perf-harness smoke tests: the bench-results JSON (the format
 * micro_scheduler_bench and fig10_compile_time emit, and the repo's
 * BENCH_*.json trajectory) must be emitted to disk and round-trip
 * through the bundled parser without loss.
 */
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>

#include "common/bench_json.h"
#include "core/compiler.h"
#include "workloads/workloads.h"

namespace mussti {
namespace {

std::vector<BenchRecord>
sampleRecords()
{
    BenchRecord a;
    a.suite = "micro_scheduler/large";
    a.name = "qaoa";
    a.qubits = 288;
    a.repeats = 5;
    a.wallMs = 4.125;
    a.speedupVsBaseline = 12.5;
    a.passTrace = {{"lower-swaps", 0.01}, {"mussti-schedule", 1.25},
                   {"sabre-two-fold", 2.5}};
    a.routingSteps = 4321;
    a.windowVisits = 7812345;
    a.steadyAllocs = 0;
    a.opsEmitted = 743549;
    a.scheduleBytes = 11897040;

    BenchRecord b; // no baseline, no trace, no scheduler counters
    b.suite = "fig10_compile_time";
    b.name = "bv";
    b.qubits = 160;
    b.repeats = 1;
    b.wallMs = 0.25;

    BenchRecord c; // a device-tuner sweep row with score fields
    c.suite = "device_tuner/qaoa_n96";
    c.name = "eml:cap=16,storage=2,op=1,optical=1,modules=3,maxq=32";
    c.qubits = 96;
    c.repeats = 1;
    c.wallMs = 0.75;
    c.shuttles = 132;
    c.makespanUs = 86780.0;
    c.log10Fidelity = -9.875;

    BenchRecord d; // a delta-recompilation row with cache counters
    d.suite = "micro_scheduler/delta";
    d.name = "ising-append";
    d.qubits = 64;
    d.repeats = 5;
    d.wallMs = 6.5;
    d.routingSteps = 2048;
    d.windowVisits = 0;
    d.steadyAllocs = 0;
    d.deltaColdMs = 36.25;
    d.deltaSpeedup = 5.5769; // %.6g emitter: keep within 6 sig figs
    d.counters = {{"snapshot_hits", 1}, {"snapshot_misses", 1},
                  {"delta_resumes", 1}, {"delta_fallbacks", 0}};

    BenchRecord e; // a cache-tier row with per-tier result counters
    e.suite = "micro_scheduler/cache";
    e.name = "ising-disk-warm";
    e.qubits = 96;
    e.repeats = 1;
    e.wallMs = 0.375;
    e.counters = {{"cache_mem_hits", 1},      {"cache_mem_misses", 1},
                  {"cache_mem_evictions", 0}, {"cache_disk_hits", 1},
                  {"cache_disk_misses", 0},   {"cache_disk_evictions", 2},
                  {"cache_disk_corrupt", 1},  {"snapshot_bytes", 123456789}};
    return {a, b, c, d, e};
}

void
expectSameRecords(const std::vector<BenchRecord> &x,
                  const std::vector<BenchRecord> &y)
{
    ASSERT_EQ(x.size(), y.size());
    for (std::size_t i = 0; i < x.size(); ++i) {
        EXPECT_EQ(x[i].suite, y[i].suite);
        EXPECT_EQ(x[i].name, y[i].name);
        EXPECT_EQ(x[i].qubits, y[i].qubits);
        EXPECT_EQ(x[i].repeats, y[i].repeats);
        EXPECT_NEAR(x[i].wallMs, y[i].wallMs, 1e-9);
        EXPECT_NEAR(x[i].speedupVsBaseline, y[i].speedupVsBaseline,
                    1e-9);
        EXPECT_EQ(x[i].routingSteps, y[i].routingSteps);
        EXPECT_EQ(x[i].windowVisits, y[i].windowVisits);
        EXPECT_EQ(x[i].steadyAllocs, y[i].steadyAllocs);
        EXPECT_EQ(x[i].opsEmitted, y[i].opsEmitted);
        EXPECT_EQ(x[i].scheduleBytes, y[i].scheduleBytes);
        EXPECT_EQ(x[i].shuttles, y[i].shuttles);
        EXPECT_NEAR(x[i].makespanUs, y[i].makespanUs, 1e-9);
        EXPECT_NEAR(x[i].log10Fidelity, y[i].log10Fidelity, 1e-9);
        EXPECT_NEAR(x[i].deltaColdMs, y[i].deltaColdMs, 1e-9);
        EXPECT_NEAR(x[i].deltaSpeedup, y[i].deltaSpeedup, 1e-9);
        EXPECT_EQ(x[i].counters, y[i].counters);
        ASSERT_EQ(x[i].passTrace.size(), y[i].passTrace.size());
        for (std::size_t j = 0; j < x[i].passTrace.size(); ++j) {
            EXPECT_EQ(x[i].passTrace[j].pass, y[i].passTrace[j].pass);
            EXPECT_NEAR(x[i].passTrace[j].ms, y[i].passTrace[j].ms,
                        1e-9);
        }
    }
}

TEST(BenchJson, RoundTripsThroughText)
{
    const auto records = sampleRecords();
    std::string context;
    const auto reparsed = parseBenchResults(
        benchResultsToJson(records, "unit-test run"), &context);
    EXPECT_EQ(context, "unit-test run");
    expectSameRecords(records, reparsed);
}

TEST(BenchJson, EmitsAndRoundTripsThroughAFile)
{
    const std::string path = ::testing::TempDir() + "bench_results.json";
    writeBenchResults(path, sampleRecords(), "file round-trip");

    std::ifstream probe(path);
    ASSERT_TRUE(probe.good()) << "bench_results.json was not emitted";

    const auto reparsed = readBenchResults(path);
    expectSameRecords(sampleRecords(), reparsed);
    std::remove(path.c_str());
}

TEST(BenchJson, CompileResultPassTraceRoundTrips)
{
    // End-to-end: a real compilation's pass trace survives the JSON
    // round trip — the property the perf harness depends on.
    const auto result = MusstiCompiler().compile(makeBenchmark("ghz", 32));
    ASSERT_FALSE(result.passTrace.empty());

    BenchRecord record;
    record.suite = "micro_scheduler/smoke";
    record.name = "ghz";
    record.qubits = 32;
    record.wallMs = 1e3 * result.compileTimeSec;
    for (const PassTiming &timing : result.passTrace)
        record.passTrace.push_back({timing.pass, 1e3 * timing.seconds});

    const auto reparsed =
        parseBenchResults(benchResultsToJson({record}, "smoke"));
    ASSERT_EQ(reparsed.size(), 1u);
    ASSERT_EQ(reparsed[0].passTrace.size(), result.passTrace.size());
    for (std::size_t i = 0; i < result.passTrace.size(); ++i)
        EXPECT_EQ(reparsed[0].passTrace[i].pass, result.passTrace[i].pass);
}

TEST(BenchJson, RejectsWrongSchemaAndGarbage)
{
    EXPECT_THROW(parseBenchResults("{\"schema\": \"other-v9\", "
                                   "\"results\": []}"),
                 std::runtime_error);
    EXPECT_THROW(parseBenchResults("not json at all"),
                 std::runtime_error);
    EXPECT_THROW(parseBenchResults("{\"schema\": \"mussti-bench-v1\""),
                 std::runtime_error); // truncated
}

TEST(BenchJson, ToleratesUnknownKeysIncludingLiterals)
{
    // Forward compatibility: unknown keys of any value shape —
    // including bare true/false/null — are skipped, not fatal.
    const auto records = parseBenchResults(
        "{\"schema\": \"mussti-bench-v1\", \"extra\": {\"nested\": [1, "
        "true, null]}, \"results\": [{\"suite\": \"s\", \"name\": "
        "\"n\", \"qubits\": 4, \"wall_ms\": 1.5, \"quick\": true, "
        "\"note\": null}]}");
    ASSERT_EQ(records.size(), 1u);
    EXPECT_EQ(records[0].suite, "s");
    EXPECT_NEAR(records[0].wallMs, 1.5, 1e-12);
}

TEST(BenchJson, UnknownNumericKeysAreFiledAsCounters)
{
    // Every numeric key the parser has no field for lands in
    // `counters`, in document order; the derived allocs_per_step does
    // not, nor do non-numeric values.
    const auto records = parseBenchResults(
        "{\"schema\": \"mussti-bench-v1\", \"results\": [{\"suite\": "
        "\"s\", \"routing_steps\": 8, \"steady_allocs\": 0, "
        "\"allocs_per_step\": 0, \"jobs_retried\": 2, \"note\": \"x\", "
        "\"cache_disk_hits\": -1}]}");
    ASSERT_EQ(records.size(), 1u);
    EXPECT_EQ(records[0].routingSteps, 8);
    const std::vector<std::pair<std::string, long long>> want = {
        {"jobs_retried", 2}, {"cache_disk_hits", -1}};
    EXPECT_EQ(records[0].counters, want);
}

TEST(BenchJson, UnicodeEscapesDecodeToUtf8)
{
    // ISSUE-5 regression: `\u` code points above 0x7F used to be
    // truncated by a char cast into a mangled byte. They must decode
    // to proper UTF-8 now (1-3 bytes across the BMP ranges).
    std::string context;
    (void)parseBenchResults(
        "{\"schema\": \"mussti-bench-v1\", \"context\": "
        "\"\\u0041\\u00e9\\u20ac\", \"results\": []}",
        &context);
    EXPECT_EQ(context, "A\xc3\xa9\xe2\x82\xac");
}

TEST(BenchJson, MalformedUnicodeEscapesAreRejected)
{
    const auto doc = [](const std::string &escape) {
        return "{\"schema\": \"mussti-bench-v1\", \"context\": \"" +
               escape + "\", \"results\": []}";
    };
    // Non-hex characters anywhere in the 4 digits.
    EXPECT_THROW(parseBenchResults(doc("\\u12g4")), std::runtime_error);
    // stoi's prefix semantics used to accept whitespace and sign forms.
    EXPECT_THROW(parseBenchResults(doc("\\u 041")), std::runtime_error);
    EXPECT_THROW(parseBenchResults(doc("\\u+041")), std::runtime_error);
    EXPECT_THROW(parseBenchResults(doc("\\u-041")), std::runtime_error);
    // Unpaired surrogate halves are not characters.
    EXPECT_THROW(parseBenchResults(doc("\\ud800")), std::runtime_error);
    // Truncated escape at end of input.
    EXPECT_THROW(parseBenchResults(doc("\\u00")), std::runtime_error);
}

TEST(BenchJson, SpecialCharactersInContextSurvive)
{
    const auto records = sampleRecords();
    std::string context;
    (void)parseBenchResults(
        benchResultsToJson(records, "quote \" backslash \\ tab \t"),
        &context);
    EXPECT_EQ(context, "quote \" backslash \\ tab \t");
}

} // namespace
} // namespace mussti
