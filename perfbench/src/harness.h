/**
 * @file
 * Shared machinery of the repository benchmark: run options, latency
 * statistics, the metric report, and the span tracer.
 *
 * Every workload is a function from Options to a RunResult. It builds
 * its inputs from the seed, measures for the requested seconds, checks
 * every output it produced, and fills a Report with the end-to-end
 * metrics (untraced run) or the per-layer metrics (traced run). Spans
 * are recorded only around calls the benchmark itself makes into the
 * library's public API; nothing inside src/ is instrumented.
 */
#ifndef PERFBENCH_HARNESS_H
#define PERFBENCH_HARNESS_H

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** Milliseconds between two steady-clock stamps. */
double msBetween(Clock::time_point start, Clock::time_point end);

/** Command-line options of one benchmark run. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;

    /** Scratch directory for this run (disk cache tier, temp files). */
    std::string workDir = ".bench_build/work";

    /** Where a traced run writes its spans (empty: not written). */
    std::string traceFile;

    /** Times each workload's set-up is repeated; setup_s is the median. */
    int setupRepeats = 5;

    /**
     * Median latency of an untraced run of the same workload; a traced
     * run reports its own median against it as trace.overhead_pct.
     */
    double untracedP50Ms = 0.0;
};

// ---- statistics -----------------------------------------------------

/** Nearest-rank percentile (p in [0, 100]) of unsorted samples. */
double percentile(std::vector<double> samples, double p);

/** Median (nearest rank) of unsorted samples; 0 when empty. */
double median(std::vector<double> samples);

/** The tail percentile a report quotes, with its sample accounting. */
struct TailStat
{
    double percentile = 0.0; ///< Chosen percentile, e.g. 99.
    double value = 0.0;      ///< Sample at that percentile.
    std::size_t samples = 0; ///< Total samples.
    std::size_t beyond = 0;  ///< Samples strictly above its rank.
};

/**
 * The highest percentile of a fixed ladder (50, 90, 99, 99.9, 99.99)
 * that has at least `min_beyond` samples ranked beyond it. With fewer
 * than min_beyond + 1 samples the median is returned and `beyond` tells
 * how thin it is.
 */
TailStat tailPercentile(std::vector<double> samples,
                        std::size_t min_beyond = 10);

/**
 * One open-loop request: its latency runs from the time it was DUE,
 * not from when the generator managed to send it, so a stalled
 * generator or connection charges every request queued behind the
 * stall. The lag is how late the generator sent it.
 */
struct OpenLoopSample
{
    double latencyMs = 0.0;
    double lagMs = 0.0;
};

OpenLoopSample openLoopSample(Clock::time_point due, Clock::time_point sent,
                              Clock::time_point done);

/** Metric names: 1-64 of letters, digits, '_', '.', '-'; first alnum. */
bool validMetricName(const std::string &name);

// ---- report ---------------------------------------------------------

struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** Ordered metric set of one run plus free-form notes. */
class Report
{
  public:
    /** Add or overwrite a metric; panics on an invalid name. */
    void add(const std::string &name, double value,
             const std::string &unit);

    bool has(const std::string &name) const;
    double value(const std::string &name) const;

    /** A line printed (prefixed "# ") ahead of the result line. */
    void note(const std::string &line) { notes_.push_back(line); }

    const std::vector<Metric> &metrics() const { return metrics_; }
    const std::vector<std::string> &notes() const { return notes_; }

  private:
    std::vector<Metric> metrics_;
    std::vector<std::string> notes_;
};

/** What a workload hands back to main(). */
struct RunResult
{
    Report report;
    bool correct = true;          ///< Every correctness check passed.
    std::uint64_t attempted = 0;  ///< Requests issued in the timed region.
    std::uint64_t failed = 0;     ///< Failed, refused or wrong requests.
    double latencyP50Ms = 0.0;    ///< Median request latency.
};

/** The result line: {"correct", "attempted", "failed", "metrics"}. */
std::string resultJson(const RunResult &result);

/** Peak resident set of this process so far (getrusage), in MB. */
double peakRssMb();

// ---- tracing --------------------------------------------------------

/**
 * In-memory span recorder. Disabled tracers cost one branch per call.
 * Spans carry a name, start and end stamps, the parent span and the
 * request id; they are written out as JSON when the run ends. Thread
 * safe (the serve workload records from sender and receiver threads).
 */
class Tracer
{
  public:
    using SpanId = std::int64_t;
    static constexpr SpanId kNone = -1;

    explicit Tracer(bool enabled) : enabled_(enabled) {}

    bool enabled() const { return enabled_; }

    /** Record a finished span; returns its id (kNone when disabled). */
    SpanId record(const std::string &name, Clock::time_point start,
                  Clock::time_point end, SpanId parent = kNone,
                  std::uint64_t request = 0);

    /**
     * Self time per span name, in ms: each span's duration minus the
     * part of it that its children cover (children clipped to the
     * parent, overlaps merged), summed over spans of that name.
     */
    std::map<std::string, double> selfTimeMs() const;

    /** Write every span as a JSON array; false on I/O failure. */
    bool write(const std::string &path) const;

  private:
    struct Span
    {
        std::string name;
        Clock::time_point start;
        Clock::time_point end;
        SpanId parent = kNone;
        std::uint64_t request = 0;
    };

    const bool enabled_;
    mutable std::mutex mutex_;
    std::vector<Span> spans_;
};

// ---- end-to-end metric helpers ---------------------------------------

/**
 * The request-latency metrics every workload reports: throughput_rps,
 * latency_p50_ms, latency_tail_ms (the workload's fixed percentile
 * `tail_p`, with a note giving the sample count and how many lie beyond
 * it), slo_met_ratio and success_ratio. `latencies_ms` holds every
 * successful request and sets slo_met_ratio (failed ones count as
 * misses); the median and the tail are taken over `timing_ms`.
 */
void addLatencyMetrics(Report &report, const std::vector<double> &latencies_ms,
                       const std::vector<double> &timing_ms,
                       std::uint64_t attempted, std::uint64_t failed,
                       double throughput_rps, double slo_ms, double tail_p);

/**
 * The timing of a closed-loop run made of rounds, each round the same
 * sequence of requests (one matrix pass, one edit cycle), so position p
 * of every round repeats one kind of request. The shared hosts this
 * benchmark runs on slow a core down by up to 2x, from a fraction of a
 * second to minutes at a time, and a request caught in such a stretch
 * measures the neighbours rather than the program. So each position
 * keeps only the fastest `share` of its repeats (at least two); the
 * timing metrics are taken over the kept latencies, and the throughput
 * is their count over their sum.
 */
struct FastRepeats
{
    std::vector<double> latencies;
    double throughputRps = 0.0;
    std::size_t kept = 0;   ///< Repeats kept per position.
    std::size_t rounds = 0; ///< Rounds measured.
};

FastRepeats fastestRepeats(const std::vector<std::vector<double>> &rounds,
                           double share);

/**
 * Schedule-quality totals over the distinct programs a workload
 * compiled: shuttles and the fidelity/exec-time sums for MUSS-TI
 * programs, baseline_shuttles for the grid baselines.
 */
struct QualityTotals
{
    double shuttles = 0.0;
    double baselineShuttles = 0.0;
    double negLog10Fidelity = 0.0;
    double scheduleExecMs = 0.0;

    void addMussti(int shuttle_count, double log10_fidelity,
                   double exec_us);
    void addBaseline(int shuttle_count);
    void report(Report &report) const;
};

/**
 * Per-layer metrics are reported on every traced run: names a workload
 * does not produce are filled with 0 and listed in a note. The full,
 * ordered list (name, unit) of what a traced run emits.
 */
std::vector<std::pair<std::string, std::string>> perLayerMetricList();

/** Fill every missing per-layer metric with 0 and note which. */
void completePerLayer(Report &report, const std::string &workload);

/** Per-layer self times of a tracer, as self.<span>.ms_per_req. */
void addSelfTimes(Report &report, const Tracer &tracer,
                  std::uint64_t requests);

// ---- workloads --------------------------------------------------------

RunResult runPaperSweep(const Options &options);
RunResult runServeMixed(const Options &options);
RunResult runDeltaSession(const Options &options);

/** program.<family>_n<q>.<backend>.compile_ms for every sweep job. */
std::vector<std::string> paperSweepProgramMetricNames();

/** Names accepted by --workload. */
std::vector<std::string> workloadNames();

} // namespace perfbench

#endif // PERFBENCH_HARNESS_H
