/**
 * @file
 * Command-line client of the compile daemon.
 *
 *   compile_client [options] <family|file.qasm> [qubits]
 *   compile_client --stats
 *
 * Options:
 *   --host H         daemon address (default 127.0.0.1)
 *   --port N         daemon port (default 7717)
 *   --client NAME    admission identity: requests sharing a name share
 *                    one fair-admission queue (default "cli")
 *   --qasm FILE      submit the QASM file's text (same as a positional
 *                    *.qasm argument)
 *   --device SPEC    device spec (DeviceRegistry grammar)
 *   --backend B      mussti (default) | murali | dai | mqt
 *   --seed S         explicit compile seed
 *   --deadline-ms N  per-job deadline, relative, server-anchored
 *   --count N        submit the circuit N times, pipelined (cache and
 *                    fairness exercises); responses print as they land
 *   --json           print each response as its wire JSON payload
 *   --stats          print the daemon's counters instead of compiling
 *
 * Exit status: 0 if every response was ok, 1 otherwise — so scripts can
 * assert a deadline was met without parsing; 2 on a usage error or
 * invalid local input.
 *
 * The fingerprint in every ok response is resultFingerprint() of the
 * server-side compile; compile_cli prints the same digest for a local
 * run, so `compile_client qft 32` vs `compile_cli qft 32` is the
 * end-to-end determinism check in one diff.
 */
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "common/error.h"
#include "common/string_util.h"
#include "serve/compile_client.h"
#include "serve/protocol.h"

using namespace mussti;

namespace {

void
usage()
{
    std::cerr <<
        "usage: compile_client [options] <family|file.qasm> [qubits]\n"
        "       compile_client --stats\n"
        "  options: --host H --port N --client NAME --qasm FILE\n"
        "           --device SPEC --backend B --seed S --deadline-ms N\n"
        "           --count N --json\n";
}

bool
printResponse(const ServeResponse &response, bool json)
{
    if (json) {
        std::cout << encodeResponse(response) << "\n";
        return response.ok;
    }
    if (!response.ok) {
        std::cout << "error        : " << response.error.category << " ["
                  << response.error.code << "] " << response.error.message
                  << "\n";
        return false;
    }
    std::cout << "response id  : " << response.id << "\n"
              << "fingerprint  : 0x" << std::hex << response.fingerprint
              << std::dec << "\n"
              << "exec time    : " << response.executionTimeUs << " us\n"
              << "log10 fid    : " << response.log10Fidelity << "\n"
              << "shuttles     : " << response.shuttles << "\n"
              << "swap inserts : " << response.swapInsertions << "\n"
              << "attempts     : " << response.attempts << "\n";
    return true;
}

int
cliMain(int argc, char **argv)
{
    std::string host = "127.0.0.1";
    int port = 7717;
    ServeRequest request;
    request.client = "cli";
    bool json = false;
    bool stats = false;
    int count = 1;
    std::string qasm_file;
    std::string target;
    int qubits = 0;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--host" && i + 1 < argc) {
            host = argv[++i];
        } else if (arg == "--port" && i + 1 < argc) {
            port = parseIntArg(argv[++i], "--port", 0, 65535);
        } else if (arg == "--client" && i + 1 < argc) {
            request.client = argv[++i];
        } else if (arg == "--qasm" && i + 1 < argc) {
            qasm_file = argv[++i];
        } else if (arg == "--device" && i + 1 < argc) {
            request.device = argv[++i];
        } else if (arg == "--backend" && i + 1 < argc) {
            request.backend = argv[++i];
        } else if (arg == "--seed" && i + 1 < argc) {
            request.seed = std::strtoull(argv[++i], nullptr, 0);
            request.hasSeed = true;
        } else if (arg == "--deadline-ms" && i + 1 < argc) {
            request.deadlineMs = parseIntArg(argv[++i], "--deadline-ms", 0);
        } else if (arg == "--count" && i + 1 < argc) {
            count = parseIntArg(argv[++i], "--count", 0);
        } else if (arg == "--json") {
            json = true;
        } else if (arg == "--stats") {
            stats = true;
        } else if (arg.rfind("--", 0) == 0) {
            usage();
            return 2;
        } else if (target.empty()) {
            target = arg;
        } else {
            qubits = parseIntArg(arg, "qubit count", 1);
        }
    }

    if (target.size() > 5 &&
        target.compare(target.size() - 5, 5, ".qasm") == 0) {
        qasm_file = target;
        target.clear();
    }
    if (!stats && qasm_file.empty() && target.empty()) {
        usage();
        return 2;
    }

    if (!qasm_file.empty()) {
        std::ifstream in(qasm_file);
        if (!in) {
            std::cerr << "cannot open " << qasm_file << "\n";
            return 1;
        }
        std::ostringstream text;
        text << in.rdbuf();
        request.qasm = text.str();
        request.name = qasm_file;
    } else {
        request.family = target;
        request.qubits = qubits;
    }

    CompileClient client;
    if (!client.connect(host, port)) {
        std::cerr << "cannot connect to " << host << ":" << port << "\n";
        return 1;
    }

    if (stats) {
        const ServeResponse response = client.stats(request.client);
        if (json) {
            std::cout << encodeResponse(response) << "\n";
        } else {
            for (const auto &[key, value] : response.stats)
                std::cout << key << " : " << value << "\n";
        }
        return response.ok ? 0 : 1;
    }

    // Pipeline the batch: send everything, then collect. The server
    // streams completions, so awaits in id order still drain frames as
    // they arrive (out-of-order ones buffer inside the client).
    std::vector<std::uint64_t> ids;
    for (int i = 0; i < count; ++i)
        ids.push_back(client.send(request));

    bool all_ok = true;
    for (std::size_t i = 0; i < ids.size(); ++i) {
        if (i > 0 && !json)
            std::cout << "\n";
        all_ok = printResponse(client.await(ids[i]), json) && all_ok;
    }
    return all_ok ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    return runMain(argc, argv, cliMain);
}
