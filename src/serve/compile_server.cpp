#include "serve/compile_server.h"

#include <cerrno>
#include <chrono>
#include <cstring>
#include <utility>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include "arch/device_registry.h"
#include "baselines/backend_factory.h"
#include "circuit/qasm.h"
#include "common/logging.h"
#include "core/pipeline.h"
#include "serve/framing.h"
#include "workloads/workloads.h"

namespace mussti {

namespace {

CompileServiceConfig
serviceConfigOf(const CompileServerConfig &config)
{
    CompileServiceConfig service;
    service.numThreads = config.numThreads;
    service.cacheCapacity = config.cacheCapacity;
    service.diskCachePath = config.diskCachePath;
    service.diskCacheCapacity = config.diskCacheCapacity;
    return service;
}

ServeResponse
errorResponse(std::uint64_t id, const MusstiError &error, int attempts = 1)
{
    ServeResponse response;
    response.id = id;
    response.ok = false;
    response.attempts = attempts;
    response.error.category = error.categoryName();
    response.error.code = error.code();
    response.error.message = error.message();
    return response;
}

} // namespace

CompileServer::CompileServer(const CompileServerConfig &config)
    : config_(config), service_(serviceConfigOf(config)),
      admission_(service_, config.admission)
{}

CompileServer::~CompileServer()
{
    stop();
}

bool
CompileServer::start()
{
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0)
        return false;
    const int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

    // Loopback only: the daemon has no auth story; remote use belongs
    // behind a tunnel.
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<std::uint16_t>(config_.port));
    if (::bind(fd, reinterpret_cast<const sockaddr *>(&addr),
               sizeof addr) != 0 ||
        ::listen(fd, 16) != 0) {
        ::close(fd);
        return false;
    }

    sockaddr_in bound{};
    socklen_t bound_len = sizeof bound;
    if (::getsockname(fd, reinterpret_cast<sockaddr *>(&bound),
                      &bound_len) == 0)
        port_ = static_cast<int>(ntohs(bound.sin_port));

    listenFd_ = fd;
    acceptThread_ = std::thread([this] { acceptLoop(); });
    return true;
}

void
CompileServer::stop()
{
    std::lock_guard<std::mutex> stop_lock(stopMutex_);
    if (stopped_)
        return;
    stopped_ = true;
    stopping_.store(true);

    if (listenFd_ >= 0)
        ::shutdown(listenFd_, SHUT_RDWR);
    if (acceptThread_.joinable())
        acceptThread_.join();
    if (listenFd_ >= 0) {
        ::close(listenFd_);
        listenFd_ = -1;
    }

    // Drain inner layers before cutting sessions: queued jobs stream
    // Cancelled responses, in-flight jobs finish and stream results.
    admission_.shutdown();
    service_.shutdown();

    std::lock_guard<std::mutex> lock(sessionsMutex_);
    for (auto &session : sessions_) {
        std::lock_guard<std::mutex> state(session->stateMutex);
        if (session->fd >= 0)
            ::shutdown(session->fd, SHUT_RD);
    }
    for (auto &session : sessions_) {
        if (session->reader.joinable())
            session->reader.join();
        std::lock_guard<std::mutex> state(session->stateMutex);
        if (session->fd >= 0) {
            ::close(session->fd);
            session->fd = -1;
        }
    }
}

void
CompileServer::waitForShutdownRequest()
{
    std::unique_lock<std::mutex> lock(acceptExitMutex_);
    acceptExitCv_.wait(lock, [this] { return acceptExited_; });
}

void
CompileServer::acceptLoop()
{
    while (!stopping_.load()) {
        const int fd = ::accept(listenFd_, nullptr, nullptr);
        if (fd < 0) {
            if (errno == EINTR)
                continue;
            break; // Listen socket shut down (stop() or SIGTERM path).
        }
        // Responses stream out while earlier ones are still unacked;
        // under Nagle each would wait for the client's delayed ACK.
        setTcpNoDelay(fd);
        std::lock_guard<std::mutex> lock(sessionsMutex_);
        if (stopping_.load()) {
            ::close(fd); // Lost the race against stop().
            break;
        }
        auto session = std::make_unique<Session>();
        session->fd = fd;
        Session &ref = *session;
        sessions_.push_back(std::move(session));
        ref.reader = std::thread([this, &ref] { sessionLoop(ref); });
    }
    {
        std::lock_guard<std::mutex> lock(acceptExitMutex_);
        acceptExited_ = true;
    }
    acceptExitCv_.notify_all();
}

void
CompileServer::sessionLoop(Session &session)
{
    std::string payload;
    while (readFrame(session.fd, payload))
        handleFrame(session, payload);

    // EOF or cut read side: every accepted job still streams its
    // response, so the write side stays open until the last one lands.
    std::unique_lock<std::mutex> state(session.stateMutex);
    session.drained.wait(state,
                         [&session] { return session.outstanding == 0; });
    // The fd itself is closed by stop() (which joins this thread first);
    // closing here would race the number back into accept's pool.
}

void
CompileServer::handleFrame(Session &session, const std::string &payload)
{
    ServeRequest request;
    if (!decodeRequest(payload, request)) {
        sendResponse(session,
                     errorResponse(request.id,
                                   MusstiError(ErrorCategory::InvalidInput,
                                               "serve.bad-frame",
                                               "unparseable request frame")));
        return;
    }
    if (request.type == ServeRequestType::Stats)
        handleStats(session, request.id);
    else
        handleCompile(session, std::move(request));
}

void
CompileServer::handleCompile(Session &session, ServeRequest request)
{
    std::optional<CompileRequest> job;
    try {
        // Bad requests are the client's problem, reported on the wire;
        // keep their fatal() chatter out of the daemon's stderr.
        ScopedFatalSilence quiet(true);
        job = buildRequest(request);
    } catch (...) {
        sendResponse(session,
                     errorResponse(request.id, describeCurrentException()));
        return;
    }

    {
        std::lock_guard<std::mutex> state(session.stateMutex);
        ++session.outstanding;
    }
    const std::uint64_t id = request.id;
    admission_.submit(
        request.client, std::move(*job),
        [this, &session, id](CompileOutcome outcome) {
            ServeResponse response;
            if (outcome.ok()) {
                const CompileResult &result = *outcome.result;
                response.id = id;
                response.ok = true;
                response.attempts = outcome.attempts;
                response.fingerprint = resultFingerprint(result);
                response.executionTimeUs = result.metrics.executionTimeUs;
                response.log10Fidelity = result.metrics.log10Fidelity();
                response.shuttles = result.metrics.shuttleCount;
                response.swapInsertions = result.swapInsertions;
            } else {
                response = errorResponse(id, *outcome.error,
                                         outcome.attempts);
            }
            sendResponse(session, response);
            {
                std::lock_guard<std::mutex> state(session.stateMutex);
                --session.outstanding;
            }
            session.drained.notify_all();
        });
}

void
CompileServer::handleStats(Session &session, std::uint64_t id)
{
    const AdmissionStats admission = admission_.stats();
    ServeResponse response;
    response.id = id;
    response.ok = true;
    response.stats = service_.counters();
    auto put = [&response](const char *key, auto value) {
        response.stats.emplace_back(key, static_cast<long long>(value));
    };
    put("admission_submitted", admission.submitted);
    put("admission_dispatched", admission.dispatched);
    put("admission_completed", admission.completed);
    put("admission_cancelled_queued", admission.cancelledQueued);
    put("admission_queued", admission.queuedJobs);
    put("admission_in_flight", admission.inFlightJobs);
    put("admission_active_clients", admission.activeClients);
    sendResponse(session, response);
}

void
CompileServer::sendResponse(Session &session, const ServeResponse &response)
{
    const std::string payload = encodeResponse(response);
    std::lock_guard<std::mutex> lock(session.writeMutex);
    // A failed write means the peer is gone; its jobs still complete
    // (cache-warm for the next asker) — nothing to do here.
    writeFrame(session.fd, payload);
}

CompileRequest
CompileServer::buildRequest(const ServeRequest &request) const
{
    MUSSTI_REQUIRE(request.badNumber.empty(),
                   "compile request " << request.badNumber);
    Circuit circuit(1);
    if (!request.qasm.empty())
        circuit = fromQasm(request.qasm,
                           request.name.empty() ? "qasm" : request.name);
    else if (!request.family.empty()) {
        const int qubits = request.qubits.value_or(32);
        MUSSTI_REQUIRE(qubits >= 1, "compile request qubit count must be "
                                    ">= 1, got " << qubits);
        circuit = makeBenchmark(request.family, qubits);
    } else
        fatalCoded("serve.no-circuit",
                   "compile request names neither a benchmark family "
                   "nor inline QASM");

    // The same resolution as compile_cli (makeBackendFor): the
    // determinism contract depends on a served compile being configured
    // bit-for-bit like a local one.
    const DeviceSpec spec = request.device.empty()
                                ? DeviceRegistry::specOf(EmlConfig{})
                                : DeviceRegistry::parse(request.device);
    CompileRequest job{
        makeBackendFor(request.backend.empty() ? "mussti" : request.backend,
                       spec),
        std::move(circuit), {}, {}, {}};
    if (request.hasSeed)
        job.seed = request.seed;
    if (request.deadlineMs > 0)
        job.deadline = std::chrono::steady_clock::now() +
                       std::chrono::milliseconds(request.deadlineMs);
    return job;
}

} // namespace mussti
