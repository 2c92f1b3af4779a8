/**
 * @file
 * Self-tests of the benchmark harness: percentile selection, open-loop
 * latency accounting, metric names (against BENCHMARK.json), span self
 * time, and a minimal-length run of every workload with its correctness
 * checks live.
 */
#include <algorithm>
#include <filesystem>
#include <fstream>
#include <regex>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "harness.h"

namespace perfbench {
namespace {

using std::chrono::milliseconds;

std::vector<double>
ramp(std::size_t n)
{
    std::vector<double> v;
    for (std::size_t i = 1; i <= n; ++i)
        v.push_back(static_cast<double>(i));
    return v;
}

TEST(Percentile, NearestRank)
{
    EXPECT_EQ(percentile(ramp(100), 50.0), 50.0);
    EXPECT_EQ(percentile(ramp(100), 99.0), 99.0);
    EXPECT_EQ(percentile(ramp(100), 100.0), 100.0);
    EXPECT_EQ(percentile({7.0}, 99.0), 7.0);
    EXPECT_EQ(percentile({}, 50.0), 0.0);
    EXPECT_EQ(median({3.0, 1.0, 2.0}), 2.0);
}

TEST(Percentile, TailKeepsTenSamplesBeyond)
{
    // 1000 samples: p99 leaves exactly 10 beyond it, p99.9 only 1.
    TailStat tail = tailPercentile(ramp(1000));
    EXPECT_EQ(tail.percentile, 99.0);
    EXPECT_EQ(tail.value, 990.0);
    EXPECT_EQ(tail.samples, 1000u);
    EXPECT_EQ(tail.beyond, 10u);

    // One sample fewer and p99 has 9 beyond: fall back to p90.
    tail = tailPercentile(ramp(999));
    EXPECT_EQ(tail.percentile, 90.0);
    EXPECT_EQ(tail.beyond, 99u);
    EXPECT_EQ(tail.samples, 999u);

    // 10000 samples reach p99.9, again with exactly 10 beyond.
    tail = tailPercentile(ramp(10000));
    EXPECT_EQ(tail.percentile, 99.9);
    EXPECT_EQ(tail.beyond, 10u);

    // Input order does not matter.
    std::vector<double> shuffled = ramp(200);
    std::reverse(shuffled.begin(), shuffled.end());
    EXPECT_EQ(tailPercentile(shuffled).value, tailPercentile(ramp(200)).value);

    // Too few samples for any tail: the median, with its thin count.
    tail = tailPercentile(ramp(5));
    EXPECT_EQ(tail.percentile, 50.0);
    EXPECT_EQ(tail.beyond, 2u);
}

TEST(OpenLoop, LatencyRunsFromTheDueTime)
{
    const Clock::time_point due = Clock::now();
    // The generator stalled 30 ms; the reply came 5 ms after the send.
    const OpenLoopSample late =
        openLoopSample(due, due + milliseconds(30), due + milliseconds(35));
    EXPECT_NEAR(late.latencyMs, 35.0, 1e-9);
    EXPECT_NEAR(late.lagMs, 30.0, 1e-9);

    const OpenLoopSample on_time =
        openLoopSample(due, due, due + milliseconds(5));
    EXPECT_NEAR(on_time.latencyMs, 5.0, 1e-9);
    EXPECT_EQ(on_time.lagMs, 0.0);
}

TEST(FastRepeats, KeepsTheFastestShareOfEachPosition)
{
    // Four rounds of two request kinds; each kind had slow repeats.
    const std::vector<std::vector<double>> rounds = {
        {30.0, 3.0}, {10.0, 1.0}, {40.0, 2.0}, {12.0, 8.0}};
    FastRepeats fast = fastestRepeats(rounds, 0.5);
    EXPECT_EQ(fast.rounds, 4u);
    EXPECT_EQ(fast.kept, 2u);
    std::sort(fast.latencies.begin(), fast.latencies.end());
    EXPECT_EQ(fast.latencies, (std::vector<double>{1.0, 2.0, 10.0, 12.0}));
    // 4 requests in 25 ms of summed latency.
    EXPECT_NEAR(fast.throughputRps, 1e3 * 4.0 / 25.0, 1e-9);

    // Two repeats are kept, however small the share; a short round
    // leaves its missing positions out, and one round keeps one.
    fast = fastestRepeats({{30.0, 3.0}, {10.0}, {20.0, 4.0}}, 0.01);
    EXPECT_EQ(fast.kept, 2u);
    EXPECT_EQ(fast.latencies, (std::vector<double>{10.0, 20.0, 3.0, 4.0}));
    EXPECT_EQ(fastestRepeats({{5.0}}, 0.01).kept, 1u);

    EXPECT_EQ(fastestRepeats({}, 0.25).kept, 0u);
}

TEST(LatencyMetrics, FixedTailAndSloOverEveryRequest)
{
    Report report;
    // The SLO counts all 1000 requests (ramp 1..1000 ms against 500 ms);
    // the median and the tail come from the 100 timing samples.
    addLatencyMetrics(report, ramp(1000), ramp(100), 1000, 0, 50.0, 500.0,
                      90.0);
    EXPECT_EQ(report.value("latency_p50_ms"), 50.0);
    EXPECT_EQ(report.value("latency_tail_ms"), 90.0);
    EXPECT_NEAR(report.value("slo_met_ratio"), 0.5, 1e-12);
    EXPECT_EQ(report.value("throughput_rps"), 50.0);
    ASSERT_EQ(report.notes().size(), 1u);
    EXPECT_NE(report.notes()[0].find("p90 over 100 samples (10 beyond it)"),
              std::string::npos)
        << report.notes()[0];

    // The percentile stays put with many samples, and a thin tail is
    // flagged.
    Report many;
    addLatencyMetrics(many, ramp(5000), ramp(5000), 5000, 0, 1.0, 1e9, 95.0);
    EXPECT_EQ(many.value("latency_tail_ms"), 4750.0);
    Report thin;
    addLatencyMetrics(thin, ramp(50), ramp(50), 50, 0, 1.0, 1e9, 90.0);
    EXPECT_NE(thin.notes()[0].find("fewer than 10"), std::string::npos);
}

TEST(MetricNames, Validity)
{
    EXPECT_TRUE(validMetricName("latency_p50_ms"));
    EXPECT_TRUE(validMetricName("pass.lower-swaps.ms"));
    EXPECT_TRUE(validMetricName("9lives"));
    EXPECT_FALSE(validMetricName(""));
    EXPECT_FALSE(validMetricName("_leading"));
    EXPECT_FALSE(validMetricName("has space"));
    EXPECT_FALSE(validMetricName("slash/not"));
    EXPECT_FALSE(validMetricName(std::string(65, 'a')));
    EXPECT_TRUE(validMetricName(std::string(64, 'a')));
    Report report;
    EXPECT_THROW(report.add("bad name", 1.0, "ms"), std::invalid_argument);
}

/** "name" values of one top-level section of BENCHMARK.json, in order. */
std::vector<std::string>
benchmarkNames(const std::string &section)
{
    std::ifstream in(std::string(PERFBENCH_REPO_ROOT) + "/BENCHMARK.json");
    std::stringstream buffer;
    buffer << in.rdbuf();
    const std::string text = buffer.str();
    const std::size_t begin = text.find("\"" + section + "\"");
    if (begin == std::string::npos)
        return {};
    const std::size_t end = text.find(']', begin);
    const std::string body = text.substr(begin, end - begin);
    static const std::regex name_re("\"name\":\\s*\"([^\"]*)\"");
    std::vector<std::string> names;
    for (auto it = std::sregex_iterator(body.begin(), body.end(), name_re);
         it != std::sregex_iterator(); ++it)
        names.push_back((*it)[1]);
    return names;
}

TEST(MetricNames, PerLayerCatalogueMatchesBenchmarkJson)
{
    std::vector<std::string> catalogue;
    for (const auto &[name, unit] : perLayerMetricList()) {
        EXPECT_TRUE(validMetricName(name)) << name;
        catalogue.push_back(name);
    }
    EXPECT_LE(catalogue.size(), 128u);
    EXPECT_EQ(benchmarkNames("per_layer"), catalogue);
    for (const std::string &name : benchmarkNames("end_to_end"))
        EXPECT_TRUE(validMetricName(name)) << name;
}

TEST(Tracer, SelfTimeSubtractsMergedChildren)
{
    Tracer tracer(true);
    const Clock::time_point t = Clock::now();
    const auto parent = tracer.record("parent", t, t + milliseconds(10));
    tracer.record("child", t + milliseconds(1), t + milliseconds(3), parent);
    tracer.record("child", t + milliseconds(2), t + milliseconds(5), parent);
    // A child overhanging its parent only counts inside it.
    tracer.record("child", t + milliseconds(9), t + milliseconds(12),
                  parent);
    const auto self = tracer.selfTimeMs();
    EXPECT_NEAR(self.at("parent"), 10.0 - 4.0 - 1.0, 1e-6);
    EXPECT_NEAR(self.at("child"), 2.0 + 3.0 + 3.0, 1e-6);

    Tracer off(false);
    EXPECT_EQ(off.record("x", t, t), Tracer::kNone);
    EXPECT_TRUE(off.selfTimeMs().empty());
}

Options
smokeOptions(const std::string &workload, bool trace)
{
    Options options;
    options.workload = workload;
    options.seed = 7;
    options.seconds = 0.3;
    options.trace = trace;
    options.setupRepeats = 1;
    options.workDir = std::string(PERFBENCH_WORK_DIR) + "/" + workload;
    std::filesystem::create_directories(options.workDir);
    return options;
}

void
expectCorrectRun(const RunResult &run, const std::string &workload)
{
    EXPECT_TRUE(run.correct) << workload;
    EXPECT_EQ(run.failed, 0u) << workload;
    EXPECT_GE(run.attempted, 1u) << workload;
    for (const std::string &note : run.report.notes())
        EXPECT_EQ(note.find("FAIL"), std::string::npos) << note;
}

RunResult
runWorkload(const Options &options)
{
    if (options.workload == "paper_sweep")
        return runPaperSweep(options);
    if (options.workload == "serve_mixed")
        return runServeMixed(options);
    return runDeltaSession(options);
}

class Smoke : public ::testing::TestWithParam<std::string>
{};

TEST_P(Smoke, EndToEndMetricsWithChecksLive)
{
    const Options options = smokeOptions(GetParam(), false);
    const RunResult run = runWorkload(options);
    expectCorrectRun(run, GetParam());
    for (const std::string &name : benchmarkNames("end_to_end")) {
        ASSERT_TRUE(run.report.has(name)) << GetParam() << " lacks " << name;
        EXPECT_GT(run.report.value(name), 0.0) << GetParam() << " " << name;
    }
    std::filesystem::remove_all(options.workDir);
}

TEST_P(Smoke, TracedRunEmitsTheCatalogue)
{
    const Options options = smokeOptions(GetParam(), true);
    RunResult run = runWorkload(options);
    expectCorrectRun(run, GetParam());
    completePerLayer(run.report, GetParam());
    const auto catalogue = perLayerMetricList();
    ASSERT_EQ(run.report.metrics().size(), catalogue.size());
    for (std::size_t i = 0; i < catalogue.size(); ++i)
        EXPECT_EQ(run.report.metrics()[i].name, catalogue[i].first);
    EXPECT_GT(run.report.value("pipeline.fingerprint_ms"), 0.0);
    EXPECT_GT(run.report.value("sim.validate_ms"), 0.0);
    std::filesystem::remove_all(options.workDir);
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, Smoke,
                         ::testing::ValuesIn(workloadNames()));

} // namespace
} // namespace perfbench
