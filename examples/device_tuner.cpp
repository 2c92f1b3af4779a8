/**
 * @file
 * Device-aware auto-tuner CLI: search the DeviceRegistry spec space for
 * the device that best serves a workload set, and report a Pareto front
 * plus one recommended spec.
 *
 *   device_tuner --workload qaoa:96 --search 'eml:modules=2..8,cap=8..32'
 *   device_tuner --workload bv:64 --workload ghz:64 \
 *       --search 'eml:modules=2..4,cap=12..20:step=4' --json sweep.json
 *
 * Options:
 *   --search SPEC        search-space spec (required; see
 *                        src/arch/README.md for the range grammar, e.g.
 *                        eml:modules=2..8,cap=8..32:step=8 or
 *                        eml:hetero=2.1.1-2.1.1|2.1.2-2.1.1,cap=16)
 *   --workload F:N       family:qubits (repeatable; default qaoa:96)
 *   --backend B          backend for grid:... searches (murali | dai |
 *                        mqt; eml searches always use mussti)
 *   --seed N             base seed for per-job seed derivation
 *   --threads N          sweep pool size (default: MUSSTI_BENCH_THREADS
 *                        or hardware concurrency)
 *   --json [PATH]        write the sweep trajectory as mussti-bench-v1
 *                        JSON (default path device_tuner_results.json)
 *
 * The sweep is deterministic: the same search at any --threads value
 * yields a bit-identical Pareto front and recommendation.
 */
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "common/bench_json.h"
#include "common/error.h"
#include "common/string_util.h"
#include "tune/tuner.h"

using namespace mussti;

namespace {

void
usage()
{
    std::cerr <<
        "usage: device_tuner --search SPEC [options]\n"
        "  --search SPEC    e.g. 'eml:modules=2..8,cap=8..32:step=8'\n"
        "  --workload F:N   family:qubits (repeatable; default qaoa:96)\n"
        "  --backend B      grid-search backend (murali | dai | mqt)\n"
        "  --seed N --threads N --json [PATH]\n";
}

/** The sweep trajectory as bench records (one per feasible job). */
std::vector<BenchRecord>
trajectoryRecords(const TunerConfig &config, const TuneOutcome &outcome)
{
    std::vector<BenchRecord> records;
    for (const TuneCandidate &candidate : outcome.candidates) {
        if (!candidate.feasible)
            continue;
        for (std::size_t w = 0; w < config.workloads.size(); ++w) {
            const TuneWorkload &workload = config.workloads[w];
            const ScoreCard &card = candidate.perWorkload[w];
            BenchRecord record;
            record.suite = "device_tuner/" + workload.label();
            record.name = candidate.spec.canonical();
            record.qubits = workload.qubits;
            record.repeats = 1;
            record.wallMs = 1e3 * card.compileTimeSec;
            record.shuttles = card.shuttles;
            record.makespanUs = card.makespanUs;
            record.log10Fidelity = card.log10Fidelity;
            records.push_back(std::move(record));
        }
    }
    return records;
}

int
cliMain(int argc, char **argv)
{
    TunerConfig config;
    std::string json_path;
    bool emit_json = false;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--search" && i + 1 < argc) {
            config.search = argv[++i];
        } else if (arg == "--workload" && i + 1 < argc) {
            config.workloads.push_back(parseTuneWorkload(argv[++i]));
        } else if (arg == "--backend" && i + 1 < argc) {
            config.gridBackend = toLower(argv[++i]);
        } else if (arg == "--seed" && i + 1 < argc) {
            config.baseSeed = static_cast<std::uint64_t>(
                parseIntArg(argv[++i], "base seed"));
        } else if (arg == "--threads" && i + 1 < argc) {
            config.numThreads = parseIntArg(argv[++i], "thread count");
        } else if (arg == "--json") {
            emit_json = true;
            if (i + 1 < argc && argv[i + 1][0] != '-')
                json_path = argv[++i];
            if (json_path.empty())
                json_path = "device_tuner_results.json";
        } else {
            usage();
            return 2;
        }
    }
    if (config.search.empty()) {
        usage();
        return 2;
    }
    if (config.workloads.empty())
        config.workloads.push_back(parseTuneWorkload("qaoa:96"));
    if (config.numThreads <= 0)
        config.numThreads = CompileService::parseThreadCount(
            std::getenv("MUSSTI_BENCH_THREADS"));

    const SpecSearchSpace space = parseSpecSearch(config.search);
    std::cout << "search       : " << config.search << "\n"
              << "space        : " << space.describe() << "\n"
              << "workloads    :";
    for (const TuneWorkload &workload : config.workloads)
        std::cout << " " << workload.label();
    std::cout << "\n\n";

    const TuneOutcome outcome = tuneDeviceSpec(config, space);

    std::size_t infeasible = 0;
    for (const TuneCandidate &candidate : outcome.candidates)
        infeasible += candidate.feasible ? 0 : 1;

    std::printf("%-44s  %12s  %12s  %9s  %s\n", "device spec",
                "log10(F)", "makespan(us)", "shuttles", "front");
    for (const TuneCandidate &candidate : outcome.candidates) {
        if (!candidate.feasible)
            continue;
        std::printf("%-44s  %12.2f  %12.0f  %9lld  %s\n",
                    candidate.spec.canonical().c_str(),
                    candidate.total.log10Fidelity,
                    candidate.total.makespanUs, candidate.total.shuttles,
                    candidate.onParetoFront ? "*" : "");
    }
    if (infeasible > 0)
        std::cout << "(" << infeasible << " of "
                  << outcome.candidates.size()
                  << " candidates infeasible for the workload set)\n";

    const TuneCandidate &best = outcome.recommendedCandidate();
    std::cout << "\npareto front : " << outcome.paretoFront.size()
              << " of " << outcome.candidates.size() - infeasible
              << " feasible candidate(s) (*)\n"
              << "recommended  : " << best.spec.canonical() << "\n";

    if (emit_json) {
        std::string context = "device_tuner --search '" + config.search +
            "'";
        for (const TuneWorkload &workload : config.workloads)
            context += " --workload " + workload.family + ":" +
                std::to_string(workload.qubits);
        context += "; recommended=" + best.spec.canonical();
        writeBenchResults(json_path, trajectoryRecords(config, outcome),
                          context);
        std::cout << "trajectory   : " << json_path << "\n";
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return runMain(argc, argv, cliMain);
}
