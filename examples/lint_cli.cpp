/**
 * @file
 * Static-analysis driver: compile a workload, lint the artifact, and
 * render the findings — the command-line face of src/lint/.
 *
 *   lint_cli [options] <family|file.qasm> [qubits]
 *   lint_cli --search "eml:modules=2..8,cap=8..32:step=8"
 *
 * Options:
 *   --device SPEC    target device spec (default: the paper EML device)
 *   --backend B      mussti (default) | murali | dai | mqt
 *   --json           render the report as mussti-lint-v1 JSON
 *   --corrupt RULE   plant the named violation into the compiled
 *                    schedule before linting (sch.* rule id, or `list`
 *                    to print the catalog) — a self-test that the
 *                    linter catches what it claims to catch
 *   --search TEXT    lint a device spec / spec-search string instead of
 *                    compiling anything (never parses, never fatal()s)
 *
 * Exit status: 0 when the report has no errors, 1 when it does, 2 on
 * usage or input errors (a bad flag, an unknown family, an unreadable
 * or malformed input file). main runs through runMain
 * (common/error.h), so an error escaping the compile is one `fatal:`
 * line and an exit code, never std::terminate; a non-input failure
 * exits 1. CI smokes both directions: a golden compile must exit 0
 * with an empty findings array, and a --corrupt run must exit 1 with
 * the planted rule id in the output.
 */
#include <fstream>
#include <iostream>
#include <memory>
#include <string>

#include "arch/device_registry.h"
#include "baselines/backend_factory.h"
#include "circuit/qasm.h"
#include "common/error.h"
#include "common/string_util.h"
#include "lint/corrupt.h"
#include "lint/schedule_linter.h"
#include "lint/spec_linter.h"
#include "workloads/workloads.h"

using namespace mussti;

namespace {

void
usage()
{
    std::cerr <<
        "usage: lint_cli [options] <family|file.qasm> [qubits]\n"
        "       lint_cli --search SPEC_OR_SEARCH_TEXT\n"
        "  options: --device SPEC --backend B --json --corrupt RULE\n"
        "  rules:   lint_cli --corrupt list\n";
}

int
renderAndExit(const LintReport &report, bool json)
{
    std::cout << (json ? report.renderJson() : report.renderText());
    return report.ok() ? 0 : 1;
}

int
cliMain(int argc, char **argv)
{
    std::string backend_name = "mussti";
    std::string device_spec;
    std::string corrupt_rule;
    std::string search_text;
    bool json = false;
    std::string target;
    int qubits = 32;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--device" && i + 1 < argc) {
            device_spec = argv[++i];
        } else if (arg == "--backend" && i + 1 < argc) {
            backend_name = toLower(argv[++i]);
        } else if (arg == "--json") {
            json = true;
        } else if (arg == "--corrupt" && i + 1 < argc) {
            corrupt_rule = argv[++i];
        } else if (arg == "--search" && i + 1 < argc) {
            search_text = argv[++i];
        } else if (arg.rfind("--", 0) == 0) {
            usage();
            return 2;
        } else if (target.empty()) {
            target = arg;
        } else {
            qubits = parseIntArg(arg, "qubit count", 1);
        }
    }

    if (corrupt_rule == "list") {
        for (const std::string &rule : corruptibleRules())
            std::cout << rule << "\n";
        return 0;
    }
    if (!search_text.empty())
        return renderAndExit(lintSpecSearchText(search_text), json);
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
            return 2;
        }
        circuit = fromQasmStream(in, target);
    } else {
        circuit = makeBenchmark(target, qubits);
    }

    const DeviceSpec spec = device_spec.empty()
                                ? DeviceRegistry::specOf(EmlConfig{})
                                : DeviceRegistry::parse(device_spec);
    const std::shared_ptr<const ICompilerBackend> backend =
        makeBackendFor(backend_name, spec);

    const std::shared_ptr<const TargetDevice> device =
        DeviceRegistry::create(spec, circuit.numQubits());
    CompileResult result = backend->compile(circuit);

    if (!corrupt_rule.empty() &&
        !corruptSchedule(result.schedule, result.lowered, *device,
                         corrupt_rule)) {
        std::cerr << "cannot stage corruption `" << corrupt_rule
                  << "` on this schedule — pick a richer workload\n";
        return 2;
    }

    LintReport report =
        lintSchedule(result.schedule, result.lowered, *device);
    report.merge(lintDeviceSpec(spec, circuit.numQubits()));
    return renderAndExit(report, json);
}

} // namespace

int
main(int argc, char **argv)
{
    return runMain(argc, argv, cliMain);
}
