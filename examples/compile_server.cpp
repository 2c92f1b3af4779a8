/**
 * @file
 * The compile daemon binary.
 *
 *   compile_server [options]
 *
 * Options:
 *   --port N        TCP port on 127.0.0.1 (default 7717; 0 = ephemeral,
 *                   printed on stdout for scripts to scrape)
 *   --threads N     service worker threads (default: auto)
 *   --cache N       in-memory result-cache capacity (default 128)
 *   --disk-cache D  directory of the persistent result tier (default:
 *                   off); a restarted daemon pointed at the same
 *                   directory serves repeat compiles from disk
 *   --disk-cap N    disk-tier entry bound (default 512; 0 = unbounded)
 *   --quantum N     DRR gate-credit quantum (default 256)
 *   --inflight N    per-client in-flight budget (default 4; 0 = off)
 *
 * SIGTERM/SIGINT drain gracefully: stop accepting, stream Cancelled for
 * still-queued jobs, finish in-flight compiles, exit 0.
 *
 * Every numeric flag parses strictly and is range-checked before the
 * server is built: a bad one exits 2 with one `fatal:` line (runMain,
 * common/error.h), having started no thread and bound no port.
 */
#include <atomic>
#include <csignal>
#include <iostream>
#include <string>

#include <sys/socket.h>

#include "common/error.h"
#include "common/string_util.h"
#include "serve/compile_server.h"

using namespace mussti;

namespace {

// The only async-signal-safe way to stop the daemon: shut down the
// listen socket, which unblocks the accept loop; main() then drains.
std::atomic<int> g_listen_fd{-1};

void
onSignal(int)
{
    const int fd = g_listen_fd.load();
    if (fd >= 0)
        ::shutdown(fd, SHUT_RDWR);
}

void
usage()
{
    std::cerr <<
        "usage: compile_server [--port N] [--threads N] [--cache N]\n"
        "                      [--disk-cache DIR] [--disk-cap N]\n"
        "                      [--quantum N] [--inflight N]\n";
}

int
serverMain(int argc, char **argv)
{
    CompileServerConfig config;
    config.port = 7717;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--port" && i + 1 < argc) {
            config.port = parseIntArg(argv[++i], "--port", 0, 65535);
        } else if (arg == "--threads" && i + 1 < argc) {
            config.numThreads = parseIntArg(argv[++i], "--threads", 0,
                                            CompileService::kMaxThreads);
        } else if (arg == "--cache" && i + 1 < argc) {
            config.cacheCapacity = parseIntArg(argv[++i], "--cache", 0);
        } else if (arg == "--disk-cache" && i + 1 < argc) {
            config.diskCachePath = argv[++i];
        } else if (arg == "--disk-cap" && i + 1 < argc) {
            config.diskCacheCapacity = parseIntArg(argv[++i], "--disk-cap", 0);
        } else if (arg == "--quantum" && i + 1 < argc) {
            config.admission.quantum = parseIntArg(argv[++i], "--quantum", 0);
        } else if (arg == "--inflight" && i + 1 < argc) {
            config.admission.maxInFlightPerClient =
                parseIntArg(argv[++i], "--inflight", 0);
        } else {
            usage();
            return 2;
        }
    }

    CompileServer server(config);
    if (!server.start()) {
        std::cerr << "compile_server: cannot bind 127.0.0.1:"
                  << config.port << "\n";
        return 1;
    }
    g_listen_fd.store(server.listenFd());
    std::signal(SIGTERM, onSignal);
    std::signal(SIGINT, onSignal);

    // Scripts scrape this line (the CI smoke boots with --port 0).
    std::cout << "compile_server: listening on 127.0.0.1:"
              << server.port() << std::endl;

    server.waitForShutdownRequest();
    std::cout << "compile_server: draining" << std::endl;
    server.stop();
    std::cout << "compile_server: stopped" << std::endl;
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return runMain(argc, argv, serverMain);
}
