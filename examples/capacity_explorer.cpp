/**
 * @file
 * Architecture co-design example (paper section 5.3, extended): sweep
 * the EML trap capacity for a workload supplied on the command line and
 * report where fidelity peaks — then sweep heterogeneous per-module
 * zone mixes (a scenario the paper never ran, unlocked by the
 * DeviceRegistry's `eml:hetero=...` specs) against the uniform device.
 *
 *   capacity_explorer [family] [qubits]
 *   capacity_explorer sqrt 117
 *   capacity_explorer --spec eml:hetero=2.1.2-2.1.1,cap=16 bv 64
 */
#include <cstring>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "arch/device_registry.h"
#include "common/error.h"
#include "common/string_util.h"
#include "core/compiler.h"
#include "workloads/workloads.h"

using namespace mussti;

namespace {

/** Compile the circuit on the spec'd device and print one table row. */
CompileResult
runRow(const Circuit &circuit, const DeviceSpec &spec,
       const std::string &label)
{
    MusstiConfig config;
    config.device = spec.eml;
    const auto result = MusstiCompiler(config).compile(circuit);
    std::printf("%-34s  %8d  %9.0f  %15.2f\n", label.c_str(),
                result.metrics.shuttleCount,
                result.metrics.executionTimeUs,
                result.metrics.log10Fidelity());
    return result;
}

/** Uniform 2.1.1 modules with module `hub` (if any) enriched. */
std::string
hubSpec(int modules, int hub, const EmlModuleMix &hub_mix, int capacity)
{
    std::vector<EmlModuleMix> mixes(modules);
    if (hub >= 0 && hub < modules)
        mixes[hub] = hub_mix;
    return DeviceRegistry::heteroSpec(mixes, capacity);
}

int
cliMain(int argc, char **argv)
{
    std::string family = "bv";
    int qubits = 128;
    std::string explicit_spec;
    std::vector<std::string> positional;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--spec") == 0 && i + 1 < argc)
            explicit_spec = argv[++i];
        else
            positional.push_back(argv[i]);
    }
    if (!positional.empty())
        family = positional[0];
    if (positional.size() > 1) {
        qubits = parseIntArg(positional[1], "qubit count");
        MUSSTI_REQUIRE(qubits > 0, "qubit count must be positive, got "
                       << positional[1]);
    }

    const Circuit circuit = makeBenchmark(family, qubits);
    std::cout << "Device sweep for " << circuit.name() << " ("
              << circuit.twoQubitCount() << " two-qubit gates)\n\n";

    if (!explicit_spec.empty()) {
        // One-shot mode: compile end-to-end on the given spec.
        const DeviceSpec spec = DeviceRegistry::parse(explicit_spec);
        if (spec.family != DeviceFamily::Eml)
            fatal("capacity_explorer sweeps EML devices; got: " +
                  spec.canonical());
        std::cout << DeviceRegistry::create(spec, qubits)->describe()
                  << "\n\n";
        std::printf("%-34s  %8s  %9s  %15s\n", "device", "shuttles",
                    "time(us)", "log10(fidelity)");
        runRow(circuit, spec, spec.canonical());
        return 0;
    }

    // ---- Sweep 1: uniform trap capacity (paper Fig 7). -----------------
    std::printf("%-34s  %8s  %9s  %15s\n", "capacity", "shuttles",
                "time(us)", "log10(fidelity)");
    int best_capacity = 0;
    double best = -1e300;
    for (int capacity = 12; capacity <= 20; capacity += 2) {
        std::ostringstream spec_text;
        spec_text << "eml:cap=" << capacity;
        const DeviceSpec spec = DeviceRegistry::parse(spec_text.str());
        const auto result = runRow(circuit, spec,
                                   std::to_string(capacity));
        if (result.metrics.lnFidelity > best) {
            best = result.metrics.lnFidelity;
            best_capacity = capacity;
        }
    }
    std::cout << "\nBest capacity for " << circuit.name() << ": "
              << best_capacity
              << " (paper: 14-18 is consistently good in EML-QCCD)\n\n";

    // ---- Sweep 2: heterogeneous per-module zone mixes. -----------------
    // The uniform device gives every module the same 2.1.1 layout; the
    // hetero specs enrich one "hub" module (extra optical or operation
    // zones) at the same trap capacity, asking whether the fidelity
    // budget prefers a fat hub over symmetric modules.
    const int modules = (qubits + 31) / 32;
    if (modules < 2) {
        std::cout << "(heterogeneous sweep needs a multi-module "
                     "workload; try >= 33 qubits)\n";
        return 0;
    }
    std::printf("%-34s  %8s  %9s  %15s\n", "module mix", "shuttles",
                "time(us)", "log10(fidelity)");
    runRow(circuit, DeviceRegistry::parse(
               hubSpec(modules, -1, {}, best_capacity)),
           "uniform 2.1.1");
    runRow(circuit, DeviceRegistry::parse(
               hubSpec(modules, 0, {2, 1, 2}, best_capacity)),
           "optical hub (2.1.2 first)");
    runRow(circuit, DeviceRegistry::parse(
               hubSpec(modules, 0, {2, 2, 1}, best_capacity)),
           "operation hub (2.2.1 first)");
    runRow(circuit, DeviceRegistry::parse(
               hubSpec(modules, modules / 2, {3, 1, 2}, best_capacity)),
           "fat middle (3.1.2 center)");
    std::cout << "\n(heterogeneous specs: eml:hetero=S.O.X-... — see "
                 "src/arch/README.md)\n";
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return runMain(argc, argv, cliMain);
}
