/**
 * @file
 * Benchmark entry point: runs one workload and prints its metrics.
 *
 *   perfbench --workload <paper_sweep|serve_mixed|delta_session>
 *             --seed <n> --seconds <s> [--trace 0|1]
 *             [--work-dir <dir>] [--trace-file <path>]
 *             [--untraced-p50-ms <ms>]
 *   perfbench --list-metrics
 *
 * Notes go to stdout prefixed "# "; the last line is one JSON object
 * with the keys correct, attempted, failed and metrics. The exit code
 * is 0 only when every correctness check passed.
 */
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>

#include "harness.h"

using namespace perfbench;

namespace {

[[noreturn]] void
usage(const std::string &why)
{
    std::cerr << "perfbench: " << why
              << "\nusage: perfbench --workload <name> --seed <n> "
                 "--seconds <s> [--trace 0|1] [--work-dir <dir>] "
                 "[--trace-file <path>] [--untraced-p50-ms <ms>]\n"
                 "       perfbench --list-metrics\n";
    std::exit(2);
}

double
parseNumber(const std::string &flag, const std::string &text)
{
    char *end = nullptr;
    const double value = std::strtod(text.c_str(), &end);
    if (text.empty() || *end != '\0')
        usage(flag + " wants a number, got `" + text + "`");
    return value;
}

} // namespace

int
main(int argc, char **argv)
{
    Options options;
    bool list_metrics = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc)
                usage("missing value after " + arg);
            return argv[++i];
        };
        if (arg == "--workload")
            options.workload = next();
        else if (arg == "--seed")
            options.seed = std::strtoull(next().c_str(), nullptr, 10);
        else if (arg == "--seconds")
            options.seconds = parseNumber(arg, next());
        else if (arg == "--trace")
            options.trace = parseNumber(arg, next()) != 0.0;
        else if (arg == "--work-dir")
            options.workDir = next();
        else if (arg == "--trace-file")
            options.traceFile = next();
        else if (arg == "--untraced-p50-ms")
            options.untracedP50Ms = parseNumber(arg, next());
        else if (arg == "--list-metrics")
            list_metrics = true;
        else
            usage("unknown argument " + arg);
    }

    if (list_metrics) {
        for (const auto &[name, unit] : perLayerMetricList())
            std::cout << name << " " << unit << "\n";
        return 0;
    }
    if (options.seconds <= 0.0)
        usage("--seconds must be positive");

    RunResult result;
    try {
        if (options.workload == "paper_sweep")
            result = runPaperSweep(options);
        else if (options.workload == "serve_mixed")
            result = runServeMixed(options);
        else if (options.workload == "delta_session")
            result = runDeltaSession(options);
        else
            usage("unknown workload `" + options.workload + "`");
    } catch (const std::exception &e) {
        std::cerr << "perfbench: " << options.workload
                  << " aborted: " << e.what() << "\n";
        return 1;
    }
    if (options.trace) {
        if (options.untracedP50Ms > 0.0)
            result.report.add("trace.overhead_pct",
                              100.0 * (result.latencyP50Ms /
                                           options.untracedP50Ms -
                                       1.0),
                              "%");
        completePerLayer(result.report, options.workload);
    }

    for (const std::string &note : result.report.notes())
        std::cout << "# " << note << "\n";
    std::cout << resultJson(result) << std::endl;
    return result.correct && result.failed == 0 ? 0 : 1;
}
