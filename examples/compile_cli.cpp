/**
 * @file
 * Command-line compiler driver: the "downstream user" entry point.
 *
 *   compile_cli [options] <family|file.qasm> [qubits]
 *
 * Options:
 *   --device SPEC        target device spec (DeviceRegistry grammar,
 *                        e.g. eml:modules=4,cap=16,optical=2 or
 *                        grid:8x8,cap=16); default: paper EML device
 *   --backend B          mussti (default) | murali | dai | mqt; the
 *                        grid baselines need a grid:... device spec
 *   --trivial            use trivial mapping (default: SABRE)
 *   --no-swap-insert     disable section-3.3 SWAP insertion
 *   --capacity N         trap capacity (default 16)
 *   --optical N          optical zones per module (default 1)
 *   --lookahead K        weight-table window, 1..64 (at most the DAG
 *                        window horizon; default 8)
 *   --policy P           anticipatory-lru | lru | fifo | random
 *   --trace [N]          print the first N schedule ops (default 40)
 *   --validate           run the schedule validator and report
 *
 * Examples:
 *   compile_cli sqrt 117
 *   compile_cli --device eml:hetero=2.1.2-2.1.1,cap=20 ran 64
 *   compile_cli --device grid:4x3,cap=16 --backend murali qft 32
 *   compile_cli --trace 20 --validate my_circuit.qasm
 */
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>

#include "arch/device_registry.h"
#include "baselines/backend_factory.h"
#include "circuit/qasm.h"
#include "common/error.h"
#include "common/string_util.h"
#include "core/compile_service.h"
#include "core/compiler.h"
#include "core/pipeline.h"
#include "dag/dag.h"
#include "sim/trace.h"
#include "sim/validator.h"
#include "workloads/workloads.h"

using namespace mussti;

namespace {

void
usage()
{
    std::cerr <<
        "usage: compile_cli [options] <family|file.qasm> [qubits]\n"
        "  families: adder bv ghz qaoa qft sqrt ran sc ising qv wstate\n"
        "  options: --device SPEC --backend B --trivial --no-swap-insert\n"
        "           --capacity N --optical N --lookahead K --policy P\n"
        "           --trace [N] --validate\n"
        "  --lookahead K: 1.." << DependencyDag::kDefaultWindowHorizon
              << " (the DAG window horizon), default "
              << MusstiConfig{}.lookAhead << "\n";
}

int
cliMain(int argc, char **argv)
{
    MusstiConfig config;
    std::string backend_name = "mussti";
    std::string device_spec;
    bool device_flags = false;
    bool trace = false;
    int trace_ops = 40;
    bool validate = false;
    std::string target;
    int qubits = 32;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--device" && i + 1 < argc) {
            device_spec = argv[++i];
        } else if (arg == "--backend" && i + 1 < argc) {
            backend_name = toLower(argv[++i]);
        } else if (arg == "--trivial") {
            config.mapping = MappingKind::Trivial;
        } else if (arg == "--no-swap-insert") {
            config.enableSwapInsertion = false;
        } else if (arg == "--capacity" && i + 1 < argc) {
            config.device.trapCapacity =
                parseIntArg(argv[++i], "--capacity");
            device_flags = true;
        } else if (arg == "--optical" && i + 1 < argc) {
            config.device.numOpticalZones =
                parseIntArg(argv[++i], "--optical");
            device_flags = true;
        } else if (arg == "--lookahead" && i + 1 < argc) {
            config.lookAhead = parseIntArg(argv[++i], "--lookahead");
        } else if (arg == "--policy" && i + 1 < argc) {
            const std::string p = argv[++i];
            if (p == "anticipatory-lru")
                config.replacement = ReplacementPolicy::AnticipatoryLru;
            else if (p == "lru")
                config.replacement = ReplacementPolicy::Lru;
            else if (p == "fifo")
                config.replacement = ReplacementPolicy::Fifo;
            else if (p == "random")
                config.replacement = ReplacementPolicy::Random;
            else {
                usage();
                return 2;
            }
        } else if (arg == "--trace") {
            trace = true;
            if (i + 1 < argc && std::isdigit(
                    static_cast<unsigned char>(argv[i + 1][0])))
                trace_ops = parseIntArg(argv[++i], "--trace op count");
        } else if (arg == "--validate") {
            validate = true;
        } else if (arg.rfind("--", 0) == 0) {
            usage();
            return 2;
        } else if (target.empty()) {
            target = arg;
        } else {
            qubits = parseIntArg(arg, "qubit count", 1);
        }
    }
    if (target.empty()) {
        usage();
        return 2;
    }

    Circuit circuit(1);
    if (target.size() > 5 &&
        target.compare(target.size() - 5, 5, ".qasm") == 0) {
        std::ifstream in(target);
        if (!in) {
            std::cerr << "cannot open " << target << "\n";
            return 1;
        }
        circuit = fromQasmStream(in, target);
    } else {
        circuit = makeBenchmark(target, qubits);
    }

    // Device selection is spec-driven: the registry parses the string
    // and the backend family must match the device family. A spec
    // defines the WHOLE device, so combining it with the legacy
    // per-knob flags would silently drop one side — refuse instead.
    if (!device_spec.empty() && device_flags)
        fatal("--device replaces the whole device; fold --capacity/"
              "--optical into the spec (e.g. " + device_spec +
              ",cap=20) instead of mixing them");
    DeviceSpec spec = DeviceRegistry::specOf(config.device);
    if (!device_spec.empty())
        spec = DeviceRegistry::parse(device_spec);

    const std::shared_ptr<const ICompilerBackend> backend =
        makeBackendFor(backend_name, spec, config);
    const std::shared_ptr<const TargetDevice> device =
        DeviceRegistry::create(spec, circuit.numQubits());

    CompileServiceConfig service_config;
    service_config.numThreads = 1;   // one job; no pool needed
    service_config.cacheCapacity = 0;
    CompileService service(service_config);
    const auto result = service.submit(backend, circuit).get();

    std::cout << "circuit      : " << circuit.name() << " ("
              << circuit.numQubits() << " qubits, "
              << circuit.twoQubitCount() << " 2q gates)\n"
              << "backend      : " << backend->name() << "\n"
              << "device       : " << device->describe() << "\n"
              << "device spec  : " << device->spec() << "\n"
              << "schedule     : " << summarizeSchedule(result.schedule)
              << "\n"
              << "swap inserts : " << result.swapInsertions << "\n"
              << "evictions    : " << result.evictions << "\n"
              << "exec time    : " << result.metrics.executionTimeUs
              << " us\n"
              << "fidelity     : " << result.metrics.fidelity()
              << " (log10 " << result.metrics.log10Fidelity() << ")\n"
              << "fingerprint  : 0x" << std::hex
              << resultFingerprint(result) << std::dec << "\n"
              << "compile time : " << result.compileTimeSec << " s\n";

    if (trace) {
        std::cout << "\n" << formatSchedule(result.schedule, *device,
                                            trace_ops);
    }
    if (validate) {
        const auto report = ScheduleValidator(*device)
                                .validate(result.schedule, result.lowered);
        std::cout << "validation   : "
                  << (report ? "PASS" : "FAIL: " + report.firstError)
                  << "\n";
        return report ? 0 : 1;
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return runMain(argc, argv, cliMain);
}
