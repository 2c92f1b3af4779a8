/**
 * @file
 * The compile daemon: a TCP server wrapping the layered compile stack.
 *
 *     transport (this file)  — framing, sessions, protocol
 *          |
 *     FairAdmission          — per-client DRR queues, in-flight budget
 *          |
 *     CompileService         — worker pool, retry, deadlines
 *          |
 *     caches                 — memory LRU, then persistent disk tier;
 *                              delta snapshot LRU (result_cache.h)
 *
 * One session per accepted connection; each session has a reader
 * thread that decodes request frames and submits them through the
 * admission layer. Responses are STREAMED: each job's response frame
 * goes out the moment its outcome resolves (a per-session write mutex
 * keeps frames whole), so responses arrive out of order and clients
 * correlate by id. Every layer below the transport is deterministic —
 * a compile's result is a pure function of (circuit, config, seed) —
 * so the fingerprints a server streams are bit-identical to a local
 * compile_cli run at any thread count and any client interleaving.
 *
 * Failures stay structured end to end: a malformed frame, an unknown
 * benchmark family, a blown deadline, or an injected fault each come
 * back as a response carrying the MusstiError taxonomy (category /
 * code / message); nothing a client sends can take the daemon down.
 *
 * Graceful drain (stop(), also the SIGTERM path of the example
 * daemon): close the listen socket, cancel still-queued jobs through
 * FairAdmission::shutdown (each streams a Cancelled response), let
 * in-flight compiles finish, then shut the sessions' read sides and
 * join. Already-dispatched work is never abandoned mid-compile.
 */
#ifndef MUSSTI_SERVE_COMPILE_SERVER_H
#define MUSSTI_SERVE_COMPILE_SERVER_H

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/admission.h"
#include "core/compile_service.h"
#include "serve/protocol.h"

namespace mussti {

/** Daemon sizing: socket, pool, cache tiers, fairness policy. */
struct CompileServerConfig
{
    /** TCP port to bind on 127.0.0.1; 0 picks an ephemeral port
        (read it back with port()). */
    int port = 0;

    /** Worker threads of the underlying service; <= 0 auto-sizes. */
    int numThreads = 0;

    /** In-memory result-tier capacity (CompileServiceConfig). */
    std::size_t cacheCapacity = 128;

    /** Persistent disk-tier directory; empty disables the tier. */
    std::string diskCachePath;
    std::size_t diskCacheCapacity = 512;

    /** Fairness policy of the admission layer. */
    FairAdmissionConfig admission;
};

/**
 * The daemon. Construction builds the stack; start() binds and begins
 * accepting; stop() drains gracefully. One instance per process is the
 * intended shape, but nothing is global — tests run several.
 */
class CompileServer
{
  public:
    explicit CompileServer(const CompileServerConfig &config = {});
    ~CompileServer();

    CompileServer(const CompileServer &) = delete;
    CompileServer &operator=(const CompileServer &) = delete;

    /**
     * Bind 127.0.0.1:port, listen, and spawn the accept loop. False if
     * the socket could not be bound (port taken, no permission) — the
     * object is then inert and stop() is a no-op.
     */
    bool start();

    /**
     * Graceful drain, in layer order: stop accepting, cancel queued
     * admission work (streamed as Cancelled responses), drain in-flight
     * compiles, stop the service pool, close sessions, join every
     * thread. Idempotent; the destructor calls it.
     */
    void stop();

    /**
     * Block until something ends the accept loop — stop() from another
     * thread, or an out-of-band shutdown of the listen socket (the
     * SIGTERM handler of the example daemon does exactly that, it being
     * the only async-signal-safe option). Returns without draining;
     * callers follow with stop().
     */
    void waitForShutdownRequest();

    /** The bound port (resolved after start(), also for port = 0). */
    int port() const { return port_; }

    /**
     * The listen socket, for async-signal-safe shutdown from a signal
     * handler: ::shutdown(listenFd(), SHUT_RDWR) unblocks the accept
     * loop, waitForShutdownRequest() returns, and the caller runs
     * stop(). -1 before start().
     */
    int listenFd() const { return listenFd_; }

    /** Layer introspection (stats endpoints, tests). */
    const CompileService &service() const { return service_; }
    const FairAdmission &admission() const { return admission_; }

  private:
    struct Session
    {
        int fd = -1;
        std::thread reader;
        std::mutex writeMutex;           ///< One frame at a time.
        std::size_t outstanding = 0;     ///< Jobs not yet responded.
        std::condition_variable drained; ///< outstanding -> 0.
        std::mutex stateMutex;           ///< outstanding + drained.
    };

    void acceptLoop();
    void sessionLoop(Session &session);

    /** Decode + execute one request frame, streaming the response(s). */
    void handleFrame(Session &session, const std::string &payload);

    /** Submit one compile through admission; response streams later. */
    void handleCompile(Session &session, ServeRequest request);

    /** Answer a stats request inline. */
    void handleStats(Session &session, std::uint64_t id);

    void sendResponse(Session &session, const ServeResponse &response);

    /**
     * Build the CompileRequest a protocol request describes — circuit,
     * backend, seed, absolute deadline (anchored now). Throws the
     * structured taxonomy on anything malformed; handleCompile converts
     * that into an InvalidInput-class response.
     */
    CompileRequest buildRequest(const ServeRequest &request) const;

    CompileServerConfig config_;
    CompileService service_;
    FairAdmission admission_;

    int listenFd_ = -1;
    int port_ = 0;
    std::thread acceptThread_;
    std::atomic<bool> stopping_{false};
    bool stopped_ = false; ///< stop() ran to completion (stopMutex_).
    std::mutex stopMutex_;

    std::mutex sessionsMutex_;
    std::vector<std::unique_ptr<Session>> sessions_;

    std::mutex acceptExitMutex_;
    std::condition_variable acceptExitCv_;
    bool acceptExited_ = false;
};

} // namespace mussti

#endif // MUSSTI_SERVE_COMPILE_SERVER_H
