#include "harness.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include <sys/resource.h>

namespace perfbench {

double
msBetween(Clock::time_point start, Clock::time_point end)
{
    return 1e3 * std::chrono::duration<double>(end - start).count();
}

// ---- statistics -----------------------------------------------------

namespace {

/** 0-based nearest-rank index of percentile p among n sorted samples. */
std::size_t
rankIndex(std::size_t n, double p)
{
    // The epsilon keeps 99.9% of 10000 at rank 9990, not 9991.
    const double rank =
        std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9);
    const std::size_t r = rank < 1.0 ? 1 : static_cast<std::size_t>(rank);
    return std::min(r, n) - 1;
}

// Decades only: a finer ladder lets the chosen rank hop between
// clusters of a multi-modal latency mix as the sample count drifts.
constexpr double kTailLadder[] = {50.0, 90.0, 99.0, 99.9, 99.99};

} // namespace

double
percentile(std::vector<double> samples, double p)
{
    if (samples.empty())
        return 0.0;
    std::sort(samples.begin(), samples.end());
    return samples[rankIndex(samples.size(), p)];
}

double
median(std::vector<double> samples)
{
    return percentile(std::move(samples), 50.0);
}

TailStat
tailPercentile(std::vector<double> samples, std::size_t min_beyond)
{
    TailStat tail;
    tail.samples = samples.size();
    if (samples.empty())
        return tail;
    std::sort(samples.begin(), samples.end());
    const std::size_t n = samples.size();
    tail.percentile = kTailLadder[0];
    for (const double p : kTailLadder) {
        const std::size_t beyond = n - 1 - rankIndex(n, p);
        if (beyond >= min_beyond)
            tail.percentile = p;
    }
    const std::size_t index = rankIndex(n, tail.percentile);
    tail.value = samples[index];
    tail.beyond = n - 1 - index;
    return tail;
}

OpenLoopSample
openLoopSample(Clock::time_point due, Clock::time_point sent,
               Clock::time_point done)
{
    return {msBetween(due, done), std::max(0.0, msBetween(due, sent))};
}

bool
validMetricName(const std::string &name)
{
    if (name.empty() || name.size() > 64)
        return false;
    const auto alnum = [](char c) {
        return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
               (c >= '0' && c <= '9');
    };
    if (!alnum(name[0]))
        return false;
    return std::all_of(name.begin(), name.end(), [&](char c) {
        return alnum(c) || c == '_' || c == '.' || c == '-';
    });
}

// ---- report ---------------------------------------------------------

void
Report::add(const std::string &name, double value, const std::string &unit)
{
    if (!validMetricName(name))
        throw std::invalid_argument("invalid metric name: " + name);
    for (Metric &metric : metrics_) {
        if (metric.name == name) {
            metric.value = value;
            metric.unit = unit;
            return;
        }
    }
    metrics_.push_back({name, value, unit});
}

bool
Report::has(const std::string &name) const
{
    return std::any_of(metrics_.begin(), metrics_.end(),
                       [&](const Metric &m) { return m.name == name; });
}

double
Report::value(const std::string &name) const
{
    for (const Metric &metric : metrics_) {
        if (metric.name == name)
            return metric.value;
    }
    return 0.0;
}

std::string
resultJson(const RunResult &result)
{
    std::ostringstream out;
    out << "{\"correct\": " << (result.correct ? "true" : "false")
        << ", \"attempted\": " << result.attempted
        << ", \"failed\": " << result.failed << ", \"metrics\": {";
    bool first = true;
    for (const Metric &metric : result.report.metrics()) {
        char value[64];
        // %.17g keeps every digit; non-finite values become 0 (JSON has
        // no spelling for them).
        std::snprintf(value, sizeof value, "%.17g",
                      std::isfinite(metric.value) ? metric.value : 0.0);
        out << (first ? "" : ", ") << "\"" << metric.name
            << "\": {\"value\": " << value << ", \"unit\": \""
            << metric.unit << "\"}";
        first = false;
    }
    out << "}}";
    return out.str();
}

double
peakRssMb()
{
    rusage usage{};
    ::getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KB on Linux.
}

// ---- tracing --------------------------------------------------------

Tracer::SpanId
Tracer::record(const std::string &name, Clock::time_point start,
               Clock::time_point end, SpanId parent, std::uint64_t request)
{
    if (!enabled_)
        return kNone;
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back({name, start, end, parent, request});
    return static_cast<SpanId>(spans_.size() - 1);
}

std::map<std::string, double>
Tracer::selfTimeMs() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<std::vector<std::size_t>> children(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const SpanId parent = spans_[i].parent;
        if (parent >= 0 && static_cast<std::size_t>(parent) < spans_.size())
            children[static_cast<std::size_t>(parent)].push_back(i);
    }
    std::map<std::string, double> self;
    std::vector<std::pair<Clock::time_point, Clock::time_point>> covered;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &span = spans_[i];
        covered.clear();
        for (const std::size_t c : children[i]) {
            const auto lo = std::max(spans_[c].start, span.start);
            const auto hi = std::min(spans_[c].end, span.end);
            if (lo < hi)
                covered.emplace_back(lo, hi);
        }
        std::sort(covered.begin(), covered.end());
        double child_ms = 0.0;
        Clock::time_point run_lo{}, run_hi{};
        bool open = false;
        for (const auto &[lo, hi] : covered) {
            if (open && lo <= run_hi) {
                run_hi = std::max(run_hi, hi);
                continue;
            }
            if (open)
                child_ms += msBetween(run_lo, run_hi);
            run_lo = lo;
            run_hi = hi;
            open = true;
        }
        if (open)
            child_ms += msBetween(run_lo, run_hi);
        self[span.name] +=
            std::max(0.0, msBetween(span.start, span.end) - child_ms);
    }
    return self;
}

bool
Tracer::write(const std::string &path) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::ofstream out(path);
    if (!out.good())
        return false;
    const Clock::time_point origin =
        spans_.empty() ? Clock::time_point{} : spans_.front().start;
    out << "[\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &span = spans_[i];
        char line[256];
        std::snprintf(line, sizeof line,
                      "{\"id\": %zu, \"name\": \"%s\", \"start_us\": %.3f, "
                      "\"end_us\": %.3f, \"parent\": %lld, "
                      "\"request\": %llu}%s\n",
                      i, span.name.c_str(),
                      1e3 * msBetween(origin, span.start),
                      1e3 * msBetween(origin, span.end),
                      static_cast<long long>(span.parent),
                      static_cast<unsigned long long>(span.request),
                      i + 1 < spans_.size() ? "," : "");
        out << line;
    }
    out << "]\n";
    return out.good();
}

// ---- end-to-end metric helpers ---------------------------------------

void
addLatencyMetrics(Report &report, const std::vector<double> &latencies_ms,
                  const std::vector<double> &timing_ms,
                  std::uint64_t attempted, std::uint64_t failed,
                  double throughput_rps, double slo_ms, double tail_p)
{
    const std::size_t met = static_cast<std::size_t>(std::count_if(
        latencies_ms.begin(), latencies_ms.end(),
        [slo_ms](double ms) { return ms <= slo_ms; }));
    // A fixed percentile: one chosen by sample count would move to a
    // higher one when a faster program completes more requests.
    const std::size_t n = timing_ms.size();
    const double tail = percentile(timing_ms, tail_p);
    const std::size_t beyond = n > 0 ? n - 1 - rankIndex(n, tail_p) : 0;
    const double denom = attempted > 0 ? static_cast<double>(attempted) : 1.0;

    report.add("throughput_rps", throughput_rps, "req/s");
    report.add("latency_p50_ms", median(timing_ms), "ms");
    report.add("latency_tail_ms", tail, "ms");
    report.add("slo_met_ratio", static_cast<double>(met) / denom, "ratio");
    report.add("success_ratio",
               static_cast<double>(attempted - std::min(failed, attempted)) /
                   denom,
               "ratio");

    char line[160];
    std::snprintf(line, sizeof line,
                  "latency_tail_ms is p%g over %zu samples (%zu beyond it%s); "
                  "SLO %.0f ms",
                  tail_p, n, beyond,
                  beyond < 10 ? ", fewer than 10" : "", slo_ms);
    report.note(line);
}

FastRepeats
fastestRepeats(const std::vector<std::vector<double>> &rounds, double share)
{
    FastRepeats fast;
    fast.rounds = rounds.size();
    if (rounds.empty())
        return fast;
    // Two repeats at least: 55 paper_sweep jobs then put 10 samples
    // beyond the p90.
    fast.kept = std::min(
        fast.rounds,
        std::max<std::size_t>(2, static_cast<std::size_t>(
                                     share * static_cast<double>(fast.rounds))));
    std::size_t positions = 0;
    for (const std::vector<double> &round : rounds)
        positions = std::max(positions, round.size());
    double kept_ms = 0.0;
    std::vector<double> repeats;
    for (std::size_t p = 0; p < positions; ++p) {
        repeats.clear();
        for (const std::vector<double> &round : rounds) {
            if (p < round.size())
                repeats.push_back(round[p]);
        }
        std::sort(repeats.begin(), repeats.end());
        const std::size_t keep = std::min(fast.kept, repeats.size());
        for (std::size_t i = 0; i < keep; ++i) {
            fast.latencies.push_back(repeats[i]);
            kept_ms += repeats[i];
        }
    }
    if (kept_ms > 0.0)
        fast.throughputRps =
            1e3 * static_cast<double>(fast.latencies.size()) / kept_ms;
    return fast;
}

void
QualityTotals::addMussti(int shuttle_count, double log10_fidelity,
                         double exec_us)
{
    shuttles += shuttle_count;
    negLog10Fidelity -= log10_fidelity;
    scheduleExecMs += exec_us / 1e3;
}

void
QualityTotals::addBaseline(int shuttle_count)
{
    baselineShuttles += shuttle_count;
}

void
QualityTotals::report(Report &report) const
{
    report.add("shuttles", shuttles, "count");
    report.add("baseline_shuttles", baselineShuttles, "count");
    report.add("neg_log10_fidelity", negLog10Fidelity, "log10");
    report.add("schedule_exec_ms", scheduleExecMs, "ms");
}

namespace {

/** Request-path spans whose self time a traced run reports. */
const char *const kSelfSpans[] = {
    "request",         "loadgen.lag",     "serve.encode",
    "serve.write",     "server.roundtrip", "serve.decode",
    "workloads.edit",  "service.submit_wait", "pass",
    "pipeline.fingerprint"};

} // namespace

std::vector<std::pair<std::string, std::string>>
perLayerMetricList()
{
    std::vector<std::pair<std::string, std::string>> list = {
        {"workloads.build_ms", "ms"},
        {"arch.device_create_ms", "ms"},
        {"circuit.qasm_parse_ms", "ms"},
        {"circuit.content_hash_ms", "ms"},
        {"pass.lower-swaps.ms", "ms"},
        {"pass.eml-target.ms", "ms"},
        {"pass.trivial-placement.ms", "ms"},
        {"pass.mussti-schedule.ms", "ms"},
        {"pass.sabre-two-fold.ms", "ms"},
        {"pass.evaluate.ms", "ms"},
        {"pass.grid-target.ms", "ms"},
        {"pass.grid-placement.ms", "ms"},
        {"pass.grid-schedule.ms", "ms"},
        {"scheduler.routing_steps", "count"},
        {"scheduler.swap_insertions", "count"},
        {"scheduler.evictions", "count"},
        {"pipeline.fingerprint_ms", "ms"},
        {"service.overhead_ms", "ms"},
        {"service.result_hit_ratio", "ratio"},
        {"service.compiles_executed", "count"},
        {"service.compiles_per_cold_key", "ratio"},
        {"service.jobs_failed", "count"},
        {"service.jobs_retried", "count"},
        {"service.jobs_timed_out", "count"},
        {"cache.mem_hit_ratio", "ratio"},
        {"cache.disk_hit_ratio", "ratio"},
        {"cache.mem_evictions", "count"},
        {"cache.disk_evictions", "count"},
        {"cache.disk_corrupt", "count"},
        {"cache.disk_hit_ms", "ms"},
        {"delta.snapshot_hit_ratio", "ratio"},
        {"delta.resume_ratio", "ratio"},
        {"delta.fallbacks", "count"},
        {"delta.snapshot_bytes", "bytes"},
        {"admission.queued_peak", "count"},
        {"admission.in_flight_peak", "count"},
        {"serve.request_bytes", "bytes"},
        {"serve.response_bytes", "bytes"},
        {"serve.encode_us", "us"},
        {"serve.decode_us", "us"},
        {"serve.hit.latency_p50_ms", "ms"},
        {"serve.disk_hit.latency_p50_ms", "ms"},
        {"serve.cold.latency_p50_ms", "ms"},
        {"serve.stampede.latency_p50_ms", "ms"},
        {"serve.ui.latency_tail_ms", "ms"},
        {"serve.sweep.latency_tail_ms", "ms"},
        {"sim.validate_ms", "ms"},
        {"loadgen.lag_tail_ms", "ms"},
        {"trace.overhead_pct", "%"},
    };
    for (const char *span : kSelfSpans)
        list.emplace_back(std::string("self.") + span + ".ms_per_req", "ms");
    for (const std::string &name : paperSweepProgramMetricNames())
        list.emplace_back(name, "ms");
    return list;
}

void
completePerLayer(Report &report, const std::string &workload)
{
    std::string missing;
    for (const auto &[name, unit] : perLayerMetricList()) {
        if (report.has(name))
            continue;
        report.add(name, 0.0, unit);
        // The program.* block is paper_sweep's by construction; name it
        // once instead of listing all of its entries.
        if (name.rfind("program.", 0) == 0) {
            if (missing.find("program.*") == std::string::npos)
                missing += " program.*";
            continue;
        }
        missing += " " + name;
    }
    // Anything a workload adds beyond the catalogue is dropped, so every
    // traced run emits exactly the catalogue.
    Report trimmed;
    for (const auto &[name, unit] : perLayerMetricList())
        trimmed.add(name, report.value(name), unit);
    for (const std::string &note : report.notes())
        trimmed.note(note);
    report = trimmed;
    if (!missing.empty())
        report.note(workload + ": not applicable, reported as 0:" + missing);
}

void
addSelfTimes(Report &report, const Tracer &tracer, std::uint64_t requests)
{
    const double n = requests > 0 ? static_cast<double>(requests) : 1.0;
    std::map<std::string, double> by_span;
    for (const auto &[name, ms] : tracer.selfTimeMs()) {
        // Every pass.<name> span folds into the one "pass" layer.
        by_span[name.rfind("pass.", 0) == 0 ? "pass" : name] += ms;
    }
    for (const char *span : kSelfSpans) {
        const auto it = by_span.find(span);
        if (it != by_span.end())
            report.add(std::string("self.") + span + ".ms_per_req",
                       it->second / n, "ms");
    }
}

std::vector<std::string>
workloadNames()
{
    return {"paper_sweep", "serve_mixed", "delta_session"};
}

} // namespace perfbench
