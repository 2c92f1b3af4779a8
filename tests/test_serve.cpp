/**
 * @file
 * End-to-end tests of the serving stack (src/serve/): protocol
 * round-trips (u64 ids exact), framing under short writes, a real
 * daemon on a loopback ephemeral port, warm round trips free of Nagle
 * stalls, the determinism contract (server fingerprint == local
 * compile), the
 * persistent disk tier across a server restart, structured error
 * responses, deadline enforcement under load, fair admission keeping a
 * sweep from starving an interactive client, and graceful drain.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <pthread.h>
#include <sys/socket.h>
#include <unistd.h>

#include "baselines/backend_factory.h"
#include "common/logging.h"
#include "core/pipeline.h"
#include "serve/compile_client.h"
#include "serve/compile_server.h"
#include "serve/framing.h"
#include "serve/protocol.h"
#include "workloads/workloads.h"

namespace mussti {
namespace {

namespace fs = std::filesystem;

/** Self-deleting scratch directory for disk-tier tests. */
class ScratchDir
{
  public:
    ScratchDir()
    {
        static int counter = 0;
        path_ = fs::temp_directory_path() /
                ("mussti_serve_test_" + std::to_string(::getpid()) +
                 "_" + std::to_string(counter++));
        fs::create_directories(path_);
    }
    ~ScratchDir()
    {
        std::error_code ignored;
        fs::remove_all(path_, ignored);
    }
    std::string str() const { return path_.string(); }

  private:
    fs::path path_;
};

/** The stats counter `key`, or -1 when the response lacks it. */
long long
counter(const ServeResponse &stats, const std::string &key)
{
    for (const auto &entry : stats.stats)
        if (entry.first == key)
            return entry.second;
    return -1;
}

ServeRequest
familyRequest(const std::string &family, int qubits,
              const std::string &client = "test")
{
    ServeRequest request;
    request.type = ServeRequestType::Compile;
    request.client = client;
    request.family = family;
    request.qubits = qubits;
    return request;
}

TEST(ServeProtocol, RequestRoundTripsEveryField)
{
    ServeRequest request;
    request.type = ServeRequestType::Compile;
    request.id = 42;
    request.client = "sweeper";
    request.family = "qaoa";
    request.qubits = 96;
    request.device = "eml:modules=4,cap=32";
    request.backend = "mussti";
    request.hasSeed = true;
    request.seed = (1ull << 63) + 12345; // past 2^53: must survive JSON
    request.deadlineMs = 2500;

    ServeRequest decoded;
    ASSERT_TRUE(decodeRequest(encodeRequest(request), decoded));
    EXPECT_EQ(decoded.id, request.id);
    EXPECT_EQ(decoded.client, request.client);
    EXPECT_EQ(decoded.family, request.family);
    EXPECT_EQ(decoded.qubits, request.qubits);
    EXPECT_EQ(decoded.device, request.device);
    EXPECT_EQ(decoded.backend, request.backend);
    EXPECT_TRUE(decoded.hasSeed);
    EXPECT_EQ(decoded.seed, request.seed);
    EXPECT_EQ(decoded.deadlineMs, request.deadlineMs);

    // An absent qubit count stays absent (the server's default).
    ServeRequest defaulted = familyRequest("ghz", 8);
    defaulted.qubits.reset();
    ASSERT_TRUE(decodeRequest(encodeRequest(defaulted), decoded));
    EXPECT_FALSE(decoded.qubits.has_value());

    ServeRequest qasm;
    qasm.qasm = "OPENQASM 2.0;\nqreg q[2];\ncx q[0],q[1];\n";
    qasm.name = "bell";
    ASSERT_TRUE(decodeRequest(encodeRequest(qasm), decoded));
    EXPECT_EQ(decoded.qasm, qasm.qasm);
    EXPECT_EQ(decoded.name, "bell");

    ServeRequest stats;
    stats.type = ServeRequestType::Stats;
    stats.id = 7;
    ASSERT_TRUE(decodeRequest(encodeRequest(stats), decoded));
    EXPECT_EQ(decoded.type, ServeRequestType::Stats);
    EXPECT_EQ(decoded.id, 7u);
}

TEST(ServeProtocol, ResponseRoundTripsBothArms)
{
    ServeResponse success;
    success.id = 9;
    success.ok = true;
    success.attempts = 3;
    success.fingerprint = 0xdeadbeefcafef00dull; // > 2^53 as well
    success.executionTimeUs = 123.5;
    success.log10Fidelity = -0.25;
    success.shuttles = 17;
    success.swapInsertions = 4;

    ServeResponse decoded;
    ASSERT_TRUE(decodeResponse(encodeResponse(success), decoded));
    EXPECT_TRUE(decoded.ok);
    EXPECT_EQ(decoded.id, 9u);
    EXPECT_EQ(decoded.attempts, 3);
    EXPECT_EQ(decoded.fingerprint, success.fingerprint);
    EXPECT_DOUBLE_EQ(decoded.executionTimeUs, 123.5);
    EXPECT_DOUBLE_EQ(decoded.log10Fidelity, -0.25);
    EXPECT_EQ(decoded.shuttles, 17);
    EXPECT_EQ(decoded.swapInsertions, 4);

    ServeResponse failure;
    failure.id = 10;
    failure.ok = false;
    failure.error = {"InvalidInput", "serve.no-circuit", "no circuit"};
    ASSERT_TRUE(decodeResponse(encodeResponse(failure), decoded));
    EXPECT_FALSE(decoded.ok);
    EXPECT_EQ(decoded.error.category, "InvalidInput");
    EXPECT_EQ(decoded.error.code, "serve.no-circuit");
    EXPECT_EQ(decoded.error.message, "no circuit");

    ServeResponse stats;
    stats.id = 11;
    stats.ok = true;
    stats.stats = {{"jobs_executed", 5}, {"cache_disk_hits", 2}};
    ASSERT_TRUE(decodeResponse(encodeResponse(stats), decoded));
    ASSERT_EQ(decoded.stats.size(), 2u);
    EXPECT_EQ(decoded.stats[0].first, "jobs_executed");
    EXPECT_EQ(decoded.stats[0].second, 5);
    EXPECT_EQ(decoded.stats[1].second, 2);
}

TEST(ServeProtocol, MalformedPayloadsAreRejectedNotFatal)
{
    const std::vector<std::string> garbage = {
        "",
        "not json",
        "{",
        "[1,2,3]",
        "{\"type\":\"compile\"",               // truncated
        "{\"type\":\"compile\",\"id\":\"x\"}", // id not numeric
    };
    for (const std::string &text : garbage) {
        ServeRequest request;
        EXPECT_FALSE(decodeRequest(text, request)) << text;
        ServeResponse response;
        EXPECT_FALSE(decodeResponse(text, response)) << text;
    }
    // Request-specific poison: fields a response decoder would merely
    // skip as unknown keys.
    const std::vector<std::string> badRequests = {
        "{\"type\":\"teleport\",\"id\":1}", // unknown type
        "{\"type\":\"compile\",\"id\":1,\"seed\":\"12z\"}",
    };
    for (const std::string &text : badRequests) {
        ServeRequest request;
        EXPECT_FALSE(decodeRequest(text, request)) << text;
    }

    // Unknown keys are skipped, not fatal: forward compatibility.
    ServeRequest request;
    EXPECT_TRUE(decodeRequest(
        "{\"type\":\"compile\",\"id\":3,\"family\":\"ghz\","
        "\"qubits\":8,\"future_knob\":{\"a\":[1,2]}}",
        request));
    EXPECT_EQ(request.family, "ghz");
    EXPECT_EQ(request.qubits, 8);
}

TEST(ServeProtocol, IdsPast2To53RoundTripExactly)
{
    // A double holds 53 bits: 2^53+1 and UINT64_MAX both round.
    for (const std::uint64_t id :
         {std::uint64_t{(1ull << 53) + 1},
          std::numeric_limits<std::uint64_t>::max()}) {
        ServeRequest request = familyRequest("ghz", 8);
        request.id = id;
        ServeRequest decodedRequest;
        ASSERT_TRUE(decodeRequest(encodeRequest(request), decodedRequest));
        EXPECT_EQ(decodedRequest.id, id);

        ServeResponse response;
        response.id = id;
        response.ok = true;
        ServeResponse decodedResponse;
        ASSERT_TRUE(
            decodeResponse(encodeResponse(response), decodedResponse));
        EXPECT_EQ(decodedResponse.id, id);
    }
}

TEST(ServeProtocol, NonU64IdsAreBadFrames)
{
    for (const std::string id :
         {"-1", "1.5", "1e3", "18446744073709551616", "007", "\"5\""}) {
        const std::string request = "{\"type\":\"stats\",\"id\":" + id + "}";
        ServeRequest decodedRequest;
        EXPECT_FALSE(decodeRequest(request, decodedRequest)) << request;
        const std::string response = "{\"id\":" + id + ",\"ok\":true}";
        ServeResponse decodedResponse;
        EXPECT_FALSE(decodeResponse(response, decodedResponse)) << response;
    }
}

std::atomic<int> wakeSignals{0};

void
onWakeSignal(int)
{
    wakeSignals.fetch_add(1, std::memory_order_relaxed);
}

TEST(ServeFraming, ShortWritesRoundTripByteForByte)
{
    int fds[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    const int small = 4096;
    ::setsockopt(fds[0], SOL_SOCKET, SO_SNDBUF, &small, sizeof small);
    ::setsockopt(fds[1], SOL_SOCKET, SO_RCVBUF, &small, sizeof small);

    std::string payload(8u << 20, '\0');
    for (std::size_t i = 0; i < payload.size(); ++i)
        payload[i] = static_cast<char>((i * 131) ^ (i >> 13));

    // A blocking sendmsg returns short only when a signal interrupts it
    // after some bytes went out (and fails with EINTR when none did). Keep
    // interrupting the writer, via a handler without SA_RESTART, while a
    // concurrent reader drains the small buffers: writeFrame must resume
    // mid-iovec every time.
    struct sigaction wake {};
    struct sigaction previous {};
    wake.sa_handler = onWakeSignal;
    sigemptyset(&wake.sa_mask);
    ASSERT_EQ(::sigaction(SIGUSR1, &wake, &previous), 0);
    wakeSignals = 0;

    std::string received;
    bool read_ok = false;
    std::thread reader([&] { read_ok = readFrame(fds[1], received); });
    std::atomic<bool> written{false};
    bool write_ok = false;
    std::thread writer([&] {
        write_ok = writeFrame(fds[0], payload);
        written = true;
    });
    while (!written.load()) {
        ::pthread_kill(writer.native_handle(), SIGUSR1);
        std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    writer.join();
    reader.join();
    ::sigaction(SIGUSR1, &previous, nullptr);

    EXPECT_GT(wakeSignals.load(), 0);
    EXPECT_TRUE(write_ok);
    ASSERT_TRUE(read_ok);
    EXPECT_TRUE(received == payload) << "payload corrupted in transit";

    // An empty frame is a bare prefix and keeps the stream in step.
    ASSERT_TRUE(writeFrame(fds[0], ""));
    ASSERT_TRUE(writeFrame(fds[0], "next"));
    ASSERT_TRUE(readFrame(fds[1], received));
    EXPECT_EQ(received, "");
    ASSERT_TRUE(readFrame(fds[1], received));
    EXPECT_EQ(received, "next");

    // An oversized frame is refused before a single byte is sent.
    EXPECT_FALSE(writeFrame(fds[0], std::string(kMaxFrameBytes + 1, 'x')));
    char byte = 0;
    EXPECT_EQ(::recv(fds[1], &byte, 1, MSG_DONTWAIT), -1);
    EXPECT_TRUE(errno == EAGAIN || errno == EWOULDBLOCK);

    ::close(fds[0]);
    ::close(fds[1]);
}

TEST(Serve, CompileMatchesALocalCompileBitForBit)
{
    CompileServerConfig config;
    config.port = 0;
    config.numThreads = 2;
    CompileServer server(config);
    ASSERT_TRUE(server.start());

    CompileClient client;
    ASSERT_TRUE(client.connect("127.0.0.1", server.port()));

    const ServeResponse response =
        client.await(client.send(familyRequest("qft", 16)));
    ASSERT_TRUE(response.ok)
        << response.error.code << ": " << response.error.message;

    // The determinism contract: a daemon compile is bit-identical to a
    // local one — same fingerprint, same headline metrics.
    const CompileResult local =
        makeMusstiBackend()->compile(makeBenchmark("qft", 16));
    EXPECT_EQ(response.fingerprint, resultFingerprint(local));
    EXPECT_DOUBLE_EQ(response.executionTimeUs,
                     local.metrics.executionTimeUs);
    EXPECT_DOUBLE_EQ(response.log10Fidelity,
                     local.metrics.log10Fidelity());
    EXPECT_EQ(response.shuttles, local.metrics.shuttleCount);

    // Same request again: served from the result cache, same answer.
    const ServeResponse again =
        client.await(client.send(familyRequest("qft", 16)));
    ASSERT_TRUE(again.ok);
    EXPECT_EQ(again.fingerprint, response.fingerprint);

    const ServeResponse stats = client.stats();
    ASSERT_TRUE(stats.ok);
    EXPECT_EQ(counter(stats, "jobs_executed"), 1);
    EXPECT_GE(counter(stats, "cache_hits"), 1);
    EXPECT_GE(counter(stats, "admission_completed"), 2);

    server.stop();
}

TEST(Serve, StatsAreTheServiceCountersThenAdmission)
{
    // The stats endpoint is CompileService::counters() verbatim, then
    // the admission layer's seven keys — one counter list, no copy.
    CompileServerConfig config;
    config.port = 0;
    config.numThreads = 1;
    CompileServer server(config);
    ASSERT_TRUE(server.start());

    CompileClient client;
    ASSERT_TRUE(client.connect("127.0.0.1", server.port()));
    ASSERT_TRUE(client.await(client.send(familyRequest("ghz", 12))).ok);
    const ServeResponse stats = client.stats();
    ASSERT_TRUE(stats.ok);

    const auto service = server.service().counters();
    const std::vector<std::string> admission = {
        "admission_submitted", "admission_dispatched",
        "admission_completed", "admission_cancelled_queued",
        "admission_queued",    "admission_in_flight",
        "admission_active_clients"};
    ASSERT_EQ(stats.stats.size(), service.size() + admission.size());
    for (std::size_t i = 0; i < service.size(); ++i)
        EXPECT_EQ(stats.stats[i], service[i]) << i;
    for (std::size_t i = 0; i < admission.size(); ++i)
        EXPECT_EQ(stats.stats[service.size() + i].first, admission[i]);
    EXPECT_EQ(counter(stats, "jobs_executed"), 1);

    server.stop();
}

/** A raw loopback client socket with Nagle left on, as perfbench uses. */
int
connectWithNagle(int port)
{
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0)
        return -1;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    if (::connect(fd, reinterpret_cast<const sockaddr *>(&addr),
                  sizeof addr) != 0) {
        ::close(fd);
        return -1;
    }
    return fd;
}

TEST(Serve, WarmRoundTripsDoNotWaitOnNagle)
{
    CompileServerConfig config;
    config.port = 0;
    CompileServer server(config);
    ASSERT_TRUE(server.start());
    const int fd = connectWithNagle(server.port());
    ASSERT_GE(fd, 0);

    const auto round_trip_ms = [fd](std::uint64_t id) {
        ServeRequest request = familyRequest("ghz", 16);
        request.id = id;
        const auto t0 = std::chrono::steady_clock::now();
        std::string payload;
        ServeResponse response;
        const bool ok = writeFrame(fd, encodeRequest(request)) &&
                        readFrame(fd, payload) &&
                        decodeResponse(payload, response);
        const double ms = std::chrono::duration<double, std::milli>(
                              std::chrono::steady_clock::now() - t0)
                              .count();
        EXPECT_TRUE(ok && response.ok && response.id == id);
        return ms;
    };

    round_trip_ms(1); // The cold compile; every later request is a hit.
    std::vector<double> samples;
    for (std::uint64_t id = 2; id < 22; ++id)
        samples.push_back(round_trip_ms(id));
    std::nth_element(samples.begin(), samples.begin() + 10, samples.end());
    // A Nagle stall waits for a delayed ACK: 20-40 ms per round trip.
    // A request leaves the Nagle client at once only as one segment.
    EXPECT_LT(samples[10], 10.0);

    ::close(fd);
    server.stop();
}

/** One frame's bytes (4-byte big-endian length, then the payload). */
std::string
frameBytes(const std::string &payload)
{
    const auto len = static_cast<std::uint32_t>(payload.size());
    std::string bytes = {static_cast<char>(len >> 24),
                         static_cast<char>(len >> 16),
                         static_cast<char>(len >> 8),
                         static_cast<char>(len)};
    return bytes + payload;
}

TEST(Serve, PipelinedResponsesDoNotWaitOnNagle)
{
    CompileServerConfig config;
    config.port = 0;
    CompileServer server(config);
    ASSERT_TRUE(server.start());
    const int fd = connectWithNagle(server.port());
    ASSERT_GE(fd, 0);

    std::uint64_t next_id = 1;
    const auto pair_ms = [fd, &next_id] {
        // Two warm requests in one segment, so the request side cannot
        // stall; the second response then leaves while the first is
        // still unacknowledged, which only the server's TCP_NODELAY lets
        // through without waiting for the client's delayed ACK.
        std::string both;
        for (int i = 0; i < 2; ++i) {
            ServeRequest request = familyRequest("ghz", 16);
            request.id = next_id++;
            both += frameBytes(encodeRequest(request));
        }
        const auto t0 = std::chrono::steady_clock::now();
        bool ok = ::send(fd, both.data(), both.size(), MSG_NOSIGNAL) ==
                  static_cast<ssize_t>(both.size());
        for (int i = 0; i < 2 && ok; ++i) {
            std::string payload;
            ServeResponse response;
            ok = readFrame(fd, payload) &&
                 decodeResponse(payload, response) && response.ok;
        }
        EXPECT_TRUE(ok);
        return std::chrono::duration<double, std::milli>(
                   std::chrono::steady_clock::now() - t0)
            .count();
    };

    pair_ms(); // Cold compile of the key; every later request is a hit.
    std::vector<double> samples;
    for (int i = 0; i < 20; ++i)
        samples.push_back(pair_ms());
    std::nth_element(samples.begin(), samples.begin() + 10, samples.end());
    EXPECT_LT(samples[10], 10.0);

    ::close(fd);
    server.stop();
}

TEST(Serve, SeededCompilesMatchTheSeededLocalPath)
{
    CompileServerConfig config;
    config.port = 0;
    CompileServer server(config);
    ASSERT_TRUE(server.start());

    CompileClient client;
    ASSERT_TRUE(client.connect("127.0.0.1", server.port()));

    ServeRequest request = familyRequest("qaoa", 24);
    request.hasSeed = true;
    request.seed = (1ull << 60) + 99; // u64-clean through the wire
    const ServeResponse response = client.await(client.send(request));
    ASSERT_TRUE(response.ok)
        << response.error.code << ": " << response.error.message;

    const CompileResult local = makeMusstiBackend()->compile(
        makeBenchmark("qaoa", 24), {.seed = request.seed});
    EXPECT_EQ(response.fingerprint, resultFingerprint(local));

    server.stop();
}

TEST(Serve, WarmRestartServesFromThePersistentTier)
{
    ScratchDir dir;
    std::uint64_t cold = 0;
    {
        CompileServerConfig config;
        config.port = 0;
        config.diskCachePath = dir.str();
        CompileServer server(config);
        ASSERT_TRUE(server.start());
        CompileClient client;
        ASSERT_TRUE(client.connect("127.0.0.1", server.port()));
        const ServeResponse response =
            client.await(client.send(familyRequest("ghz", 20)));
        ASSERT_TRUE(response.ok);
        cold = response.fingerprint;
        server.stop();
    }

    // A fresh daemon on the same cache directory answers bit-identically
    // WITHOUT compiling: the disk tier survives the process.
    CompileServerConfig config;
    config.port = 0;
    config.diskCachePath = dir.str();
    CompileServer server(config);
    ASSERT_TRUE(server.start());
    CompileClient client;
    ASSERT_TRUE(client.connect("127.0.0.1", server.port()));
    const ServeResponse warm =
        client.await(client.send(familyRequest("ghz", 20)));
    ASSERT_TRUE(warm.ok);
    EXPECT_EQ(warm.fingerprint, cold);

    const ServeResponse stats = client.stats();
    ASSERT_TRUE(stats.ok);
    EXPECT_EQ(counter(stats, "jobs_executed"), 0);
    EXPECT_GE(counter(stats, "cache_disk_hits"), 1);

    server.stop();
}

TEST(Serve, StructuredErrorsComeBackOverTheWire)
{
    ScopedFatalSilence quiet(true);
    CompileServerConfig config;
    config.port = 0;
    CompileServer server(config);
    ASSERT_TRUE(server.start());

    CompileClient client;
    ASSERT_TRUE(client.connect("127.0.0.1", server.port()));

    // Unknown benchmark family -> InvalidInput from the workload layer.
    const ServeResponse family =
        client.await(client.send(familyRequest("warpdrive", 8)));
    EXPECT_FALSE(family.ok);
    EXPECT_EQ(family.error.category, "InvalidInput");

    // No circuit at all.
    ServeRequest empty;
    empty.client = "test";
    const ServeResponse none = client.await(client.send(empty));
    EXPECT_FALSE(none.ok);
    EXPECT_EQ(none.error.code, "serve.no-circuit");

    // MUSS-TI backend pointed at a grid device spec.
    ServeRequest mismatch = familyRequest("ghz", 8);
    mismatch.device = "grid:8x8";
    mismatch.backend = "mussti";
    const ServeResponse wrong = client.await(client.send(mismatch));
    EXPECT_FALSE(wrong.ok);
    EXPECT_EQ(wrong.error.code, "input.device-mismatch");

    // A qubit count below one is an input error, never a silent
    // 32-qubit compile.
    for (const int qubits : {0, -5}) {
        const ServeResponse bad =
            client.await(client.send(familyRequest("ghz", qubits)));
        EXPECT_FALSE(bad.ok) << qubits;
        EXPECT_EQ(bad.error.category, "InvalidInput") << qubits;
        EXPECT_EQ(bad.error.code, "input.require") << qubits;
    }

    // The session survives every bad request above, and an absent
    // qubit count still compiles the 32-qubit default.
    ServeRequest defaulted = familyRequest("ghz", 8);
    defaulted.qubits.reset();
    const ServeResponse okStill = client.await(client.send(defaulted));
    ASSERT_TRUE(okStill.ok);
    EXPECT_EQ(okStill.fingerprint,
              resultFingerprint(
                  makeMusstiBackend()->compile(makeBenchmark("ghz", 32))));

    server.stop();
}

TEST(ServeProtocol, WireIntegersPastIntRangeMarkTheRequest)
{
    for (const std::string number : {"1e300", "-1e300", "1e19", "2.5"}) {
        for (const std::string key : {"qubits", "deadline_ms"}) {
            const std::string frame =
                "{\"type\":\"compile\",\"family\":\"ghz\",\"" + key +
                "\":" + number + "}";
            ServeRequest request;
            ASSERT_TRUE(decodeRequest(frame, request)) << frame;
            EXPECT_NE(request.badNumber.find(key), std::string::npos)
                << frame;
        }
    }
    ServeRequest fine;
    ASSERT_TRUE(decodeRequest(
        "{\"type\":\"compile\",\"qubits\":-2147483648,"
        "\"deadline_ms\":2147483647}",
        fine));
    EXPECT_TRUE(fine.badNumber.empty());
    EXPECT_EQ(fine.qubits, -2147483647 - 1);
    EXPECT_EQ(fine.deadlineMs, 2147483647);
}

TEST(Serve, HugeWireNumbersAreInputErrors)
{
    // 1e300 cast to an int is undefined behaviour: the server must
    // range-check the number and refuse it as an input error.
    CompileServerConfig config;
    config.port = 0;
    config.numThreads = 1;
    CompileServer server(config);
    ASSERT_TRUE(server.start());
    const int fd = connectWithNagle(server.port());
    ASSERT_GE(fd, 0);

    std::uint64_t id = 0;
    for (const std::string number : {"1e300", "-1e300", "1e19"}) {
        for (const std::string &field :
             {"\"qubits\":" + number,
              "\"qubits\":8,\"deadline_ms\":" + number}) {
            ++id;
            const std::string frame =
                "{\"type\":\"compile\",\"id\":" + std::to_string(id) +
                ",\"family\":\"ghz\"," + field + "}";
            std::string payload;
            ServeResponse response;
            ASSERT_TRUE(writeFrame(fd, frame) && readFrame(fd, payload) &&
                        decodeResponse(payload, response))
                << frame;
            EXPECT_EQ(response.id, id) << frame;
            EXPECT_FALSE(response.ok) << frame;
            EXPECT_EQ(response.error.category, "InvalidInput") << frame;
            EXPECT_EQ(response.error.code, "input.require") << frame;
        }
    }
    ::close(fd);
    server.stop();
}

TEST(Serve, ABlownDeadlineIsAStructuredTimeout)
{
    CompileServerConfig config;
    config.port = 0;
    config.numThreads = 1;
    CompileServer server(config);
    ASSERT_TRUE(server.start());

    CompileClient client;
    ASSERT_TRUE(client.connect("127.0.0.1", server.port()));

    // Park the single worker, then queue a 1 ms-deadline job behind it:
    // by the time a worker frees up the deadline is long gone.
    const std::uint64_t blocker =
        client.send(familyRequest("qv", 64, "blocker"));
    ServeRequest urgent = familyRequest("ghz", 8, "urgent");
    urgent.deadlineMs = 1;
    const ServeResponse late = client.await(client.send(urgent));
    EXPECT_FALSE(late.ok);
    EXPECT_EQ(late.error.category, "Timeout");
    EXPECT_TRUE(client.await(blocker).ok);

    server.stop();
}

TEST(Serve, ASweepCannotStarveAnInteractiveClient)
{
    // Two workers; the sweep's in-flight budget is 1, so however deep
    // its queue, one worker always remains for the interactive client —
    // the admission lever the fairness story hangs on.
    CompileServerConfig config;
    config.port = 0;
    config.numThreads = 2;
    config.cacheCapacity = 0; // every job pays full compile cost
    config.admission.maxInFlightPerClient = 1;
    CompileServer server(config);
    ASSERT_TRUE(server.start());

    CompileClient sweep;
    ASSERT_TRUE(sweep.connect("127.0.0.1", server.port()));
    std::vector<std::uint64_t> ids;
    for (int i = 0; i < 8; ++i) {
        ServeRequest request = familyRequest("qft", 24, "sweep");
        request.hasSeed = true;
        request.seed = 1000 + i;
        ids.push_back(sweep.send(request));
    }

    CompileClient interactive;
    ASSERT_TRUE(interactive.connect("127.0.0.1", server.port()));
    ServeRequest request = familyRequest("ghz", 8, "interactive");
    request.deadlineMs = 10000;
    const auto t0 = std::chrono::steady_clock::now();
    const ServeResponse response =
        interactive.await(interactive.send(request));
    const auto elapsed =
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now() - t0);

    ASSERT_TRUE(response.ok)
        << response.error.code << ": " << response.error.message;
    EXPECT_LT(elapsed.count(), 10000);

    for (const std::uint64_t id : ids)
        EXPECT_TRUE(sweep.await(id).ok);

    server.stop();
}

TEST(Serve, GracefulStopStreamsCancelledForQueuedWork)
{
    ScopedFatalSilence quiet(true);
    CompileServerConfig config;
    config.port = 0;
    config.numThreads = 1;
    config.admission.maxInFlightPerClient = 1;
    CompileServer server(config);
    ASSERT_TRUE(server.start());

    CompileClient client;
    ASSERT_TRUE(client.connect("127.0.0.1", server.port()));
    std::vector<std::uint64_t> ids;
    ids.push_back(client.send(familyRequest("qv", 64)));
    for (int i = 0; i < 4; ++i) {
        ServeRequest request = familyRequest("ghz", 8);
        request.hasSeed = true;
        request.seed = 2000 + i;
        ids.push_back(client.send(request));
    }
    // Let the reader thread ingest the frames, then drain.
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    server.stop();

    // Every job resolves exactly once: finished in-flight work is ok,
    // still-queued work streams a structured Cancelled — and even a
    // torn connection degrades to a synthetic Cancelled, never a hang.
    int ok = 0, cancelled = 0;
    for (const std::uint64_t id : ids) {
        const ServeResponse response = client.await(id);
        if (response.ok) {
            ++ok;
        } else {
            EXPECT_EQ(response.error.category, "Cancelled")
                << response.error.code;
            ++cancelled;
        }
    }
    EXPECT_EQ(ok + cancelled, 5);
    EXPECT_GE(ok, 1); // the in-flight blocker was never abandoned
}

} // namespace
} // namespace mussti
