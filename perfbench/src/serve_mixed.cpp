/**
 * @file
 * serve_mixed: an in-process CompileServer on loopback, driven open loop
 * at one fixed offered rate by two connections (client identities
 * `sweep` and `ui`), each with one sender and one receiver thread over
 * the public framing and protocol calls. The disk tier is on.
 *
 * Traffic: mostly hits on a warmed hot set of 1.5x the memory tier's
 * capacity (so part of the hits are served by the disk tier and
 * promoted), a smaller share of cold requests under fresh seeds (half
 * of them inline QASM), and a stampede burst of K identical cold
 * requests once a second. Latency is measured from each request's due
 * time, so a stall also charges the requests queued behind it.
 */
#include <algorithm>
#include <atomic>
#include <cerrno>
#include <stdexcept>
#include <filesystem>
#include <list>
#include <memory>
#include <optional>
#include <random>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "arch/device_registry.h"
#include "baselines/backend_factory.h"
#include "circuit/qasm.h"
#include "core/compile_service.h"
#include "core/pipeline.h"
#include "core/result_cache.h"
#include "harness.h"
#include "serve/compile_server.h"
#include "serve/framing.h"
#include "serve/protocol.h"
#include "sim/validator.h"
#include "workloads/workloads.h"

namespace perfbench {

using namespace mussti;
namespace fs = std::filesystem;

namespace {

constexpr double kSloMs = 100.0;
/**
 * Offered rate in req/s over both connections. With Nagle on, a
 * response leaves when the ACK carried by the connection's next request
 * arrives, so latencies fall on steps of the send spacing. At 400-800
 * req/s the p99 hopped between steps from run to run, and at 800 req/s a
 * slow host pushed the server near saturation. At 90 req/s the median
 * sits on the first step (the 22 ms spacing).
 */
constexpr double kOfferedRate = 90.0;
/**
 * latency_tail_ms. About 89% of requests land on the first step (22 ms)
 * and 7-12% on the second (33 ms), depending on host speed; p90 sat on
 * the boundary and read 22.8 ms or 33.5 ms by host phase. p95 lies inside
 * the second step.
 */
constexpr double kTailPercentile = 95.0;
constexpr std::size_t kMemoryTier = 128; ///< CompileServer default.
constexpr std::size_t kDiskTier = 4096;
constexpr int kServerThreads = 2;
constexpr std::size_t kBlock = 25;       ///< Requests per mix block.
constexpr std::size_t kColdPerBlock = 3; ///< Cold share 3/25 = 12%.
constexpr int kStampedeSize = 8;
constexpr double kStampedeEverySec = 1.0;
constexpr const char *kGrid = "grid:4x3,cap=16";

enum Class { kHit = 0, kDiskHit, kCold, kStampede, kNumClasses };
const char *const kClassNames[] = {"hit", "disk_hit", "cold", "stampede"};
const char *const kClients[] = {"sweep", "ui"};

/** One distinct compile the traffic asks for. */
struct Key
{
    std::string family; ///< Empty for inline QASM.
    int qubits = 0;
    std::string qasm;
    std::string name;
    std::string backend = "mussti";
    std::string device; ///< Empty: the paper EML device.
    std::uint64_t seed = 0;
};

struct Planned
{
    std::size_t key = 0;
    double dueMs = 0.0; ///< Offset from the start of the timed region.
    int conn = 0;
    Class cls = kHit;
};

/** Per-request stamps filled by the sender and receiver threads. */
struct Outcome
{
    Clock::time_point sendStart, encodeEnd, writeEnd, readEnd, decodeEnd;
    bool answered = false;
    bool ok = false;
    std::uint64_t fingerprint = 0;
    std::size_t requestBytes = 0;
    std::size_t responseBytes = 0;
};

ServeRequest
requestFor(const Key &key, std::uint64_t id, const char *client)
{
    ServeRequest request;
    request.id = id;
    request.client = client;
    request.family = key.family;
    request.qubits = key.qubits;
    request.qasm = key.qasm;
    request.name = key.name;
    request.backend = key.backend;
    request.device = key.device;
    request.hasSeed = true;
    request.seed = key.seed;
    return request;
}

int
connectLoopback(int port)
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

/** Wait until fd is readable or the deadline passes. */
bool
readable(int fd, Clock::time_point deadline)
{
    for (;;) {
        const double left = msBetween(Clock::now(), deadline);
        if (left <= 0.0)
            return false;
        pollfd p{fd, POLLIN, 0};
        const int n = ::poll(&p, 1, static_cast<int>(std::min(left, 200.0)));
        if (n > 0)
            return true;
        if (n < 0 && errno != EINTR)
            return false;
    }
}

/** The traffic of one run: distinct keys and the request schedule. */
struct Plan
{
    std::vector<Key> keys;
    std::size_t hotKeys = 0;
    std::vector<Planned> requests; ///< Sorted by due time.
};

Plan
makePlan(std::uint64_t seed, double seconds)
{
    Plan plan;
    std::mt19937_64 rng(seed * 0x9e3779b97f4a7c15ull + 0x5e7e);
    auto fresh = [&rng] { return rng() | 1u; };

    // The shape of the traffic is fixed (which circuits, how many of
    // each class, which connection); the seed picks the compile seeds,
    // the QASM circuits, the hit order and where in each block of
    // requests the cold ones fall.
    //
    // Hot set: 1.5x the memory tier. Three quarters MUSS-TI on the paper
    // device, one quarter grid baselines; all server-generated families.
    const std::size_t hot = kMemoryTier * 3 / 2;
    const char *const mussti_families[] = {"adder", "bv", "ghz", "qaoa"};
    const int mussti_sizes[] = {64, 128, 256};
    const char *const grid_families[] = {"adder", "qaoa"};
    const int grid_sizes[] = {64, 128};
    const char *const grid_backends[] = {"murali", "dai", "mqt"};
    for (std::size_t i = 0; plan.keys.size() < hot; ++i) {
        Key key;
        if (i % 4 == 3) {
            const std::size_t g = i / 4;
            key.family = grid_families[g % 2];
            key.qubits = grid_sizes[g / 2 % 2];
            key.backend = grid_backends[g / 4 % 3];
            key.device = kGrid;
        } else {
            const std::size_t m = i - i / 4;
            key.family = mussti_families[m % 4];
            key.qubits = mussti_sizes[m / 4 % 3];
        }
        key.seed = fresh();
        plan.keys.push_back(key);
    }
    plan.hotKeys = plan.keys.size();

    // Cold keys alternate inline QASM (QAOA or random circuits drawn
    // from the seed) and server-generated families, at 64 and 128 qubits.
    std::size_t cold_made = 0;
    auto coldKey = [&] {
        const std::size_t c = cold_made++;
        Key key;
        key.seed = fresh();
        const int n = c / 2 % 2 ? 128 : 64;
        if (c % 2 == 0) {
            const Circuit circuit = c / 4 % 2
                ? makeRandomCircuit(n, n * 6, fresh())
                : makeQaoa(n, 1, fresh());
            key.qasm = toQasm(circuit);
            key.name = "qasm_" + std::to_string(plan.keys.size());
        } else {
            key.family = mussti_families[c / 4 % 4];
            key.qubits = n;
        }
        plan.keys.push_back(key);
        return plan.keys.size() - 1;
    };

    // Blocks of kBlock requests, kColdPerBlock of them cold at seeded
    // positions; requests alternate between the two connections.
    const std::size_t total =
        static_cast<std::size_t>(seconds * kOfferedRate);
    std::vector<bool> cold_slot(kBlock, false);
    for (std::size_t i = 0; i < total; ++i) {
        if (i % kBlock == 0) {
            std::fill(cold_slot.begin(), cold_slot.end(), false);
            std::fill(cold_slot.begin(), cold_slot.begin() + kColdPerBlock,
                      true);
            std::shuffle(cold_slot.begin(), cold_slot.end(), rng);
        }
        Planned p;
        p.dueMs = 1e3 * static_cast<double>(i) / kOfferedRate;
        p.conn = static_cast<int>(i % 2);
        if (cold_slot[i % kBlock]) {
            p.cls = kCold;
            p.key = coldKey();
        } else {
            p.cls = kHit;
            p.key = rng() % plan.hotKeys;
        }
        plan.requests.push_back(p);
    }
    // Stampedes: K identical cold requests, due at once, on `sweep`,
    // alternating a random and a sqrt circuit.
    int burst = 0;
    for (double at = 0.5 * kStampedeEverySec; at < seconds;
         at += kStampedeEverySec) {
        Key key;
        key.family = burst++ % 2 ? "sqrt" : "ran";
        key.qubits = key.family == "ran" ? 256 : 299;
        key.seed = fresh();
        plan.keys.push_back(key);
        for (int k = 0; k < kStampedeSize; ++k)
            plan.requests.push_back({plan.keys.size() - 1, 1e3 * at, 0,
                                     kStampede});
    }
    std::stable_sort(plan.requests.begin(), plan.requests.end(),
                     [](const Planned &a, const Planned &b) {
                         return a.dueMs < b.dueMs;
                     });

    // Which hits the memory tier should serve: replay the memory LRU on
    // the client side (warm-up order, then the request order). A hit on
    // a key the model no longer holds comes from the disk tier.
    std::list<std::size_t> lru;
    std::unordered_map<std::size_t, std::list<std::size_t>::iterator> where;
    auto touch = [&](std::size_t key) {
        const auto it = where.find(key);
        const bool present = it != where.end();
        if (present)
            lru.erase(it->second);
        lru.push_front(key);
        where[key] = lru.begin();
        if (lru.size() > kMemoryTier) {
            where.erase(lru.back());
            lru.pop_back();
        }
        return present;
    };
    for (std::size_t k = 0; k < plan.hotKeys; ++k)
        touch(k);
    for (Planned &p : plan.requests) {
        const bool in_memory = touch(p.key);
        if (p.cls == kHit && !in_memory)
            p.cls = kDiskHit;
    }
    return plan;
}

/** A live server with its two connections, warmed with the hot set. */
struct Setup
{
    std::string dir;
    std::unique_ptr<CompileServer> server;
    int fds[2] = {-1, -1};
    Plan plan;
    std::vector<std::uint64_t> warmFingerprints;

    ~Setup()
    {
        for (int &fd : fds) {
            if (fd >= 0)
                ::close(fd);
            fd = -1;
        }
        if (server)
            server->stop();
    }
};

std::unique_ptr<Setup>
buildSetup(const Options &options, int rep, Tracer &tracer, double &build_ms)
{
    auto setup = std::make_unique<Setup>();
    setup->dir = options.workDir + "/serve_mixed_" + std::to_string(rep);
    std::error_code ec;
    fs::remove_all(setup->dir, ec);
    fs::create_directories(setup->dir);

    const Clock::time_point b0 = Clock::now();
    setup->plan = makePlan(options.seed, options.seconds);
    const Clock::time_point b1 = Clock::now();
    tracer.record("workloads.build", b0, b1);
    build_ms = msBetween(b0, b1);

    CompileServerConfig config;
    config.port = 0;
    config.numThreads = kServerThreads;
    config.cacheCapacity = kMemoryTier;
    config.diskCachePath = setup->dir + "/cache";
    config.diskCacheCapacity = kDiskTier;
    setup->server = std::make_unique<CompileServer>(config);
    if (!setup->server->start())
        throw std::runtime_error("serve_mixed: server failed to bind");
    for (int c = 0; c < 2; ++c) {
        setup->fds[c] = connectLoopback(setup->server->port());
        if (setup->fds[c] < 0)
            throw std::runtime_error("serve_mixed: connect failed");
    }

    // Warm the hot set, pipelined on the sweep connection.
    const Plan &plan = setup->plan;
    for (std::size_t k = 0; k < plan.hotKeys; ++k) {
        if (!writeFrame(setup->fds[0],
                        encodeRequest(requestFor(plan.keys[k], k + 1,
                                                 kClients[0]))))
            throw std::runtime_error("serve_mixed: warm-up write failed");
    }
    setup->warmFingerprints.assign(plan.hotKeys, 0);
    const Clock::time_point deadline =
        Clock::now() + std::chrono::seconds(60);
    std::string payload;
    for (std::size_t got = 0; got < plan.hotKeys; ++got) {
        ServeResponse response;
        if (!readable(setup->fds[0], deadline) ||
            !readFrame(setup->fds[0], payload) ||
            !decodeResponse(payload, response) || !response.ok ||
            response.id < 1 || response.id > plan.hotKeys)
            throw std::runtime_error("serve_mixed: warm-up failed");
        setup->warmFingerprints[response.id - 1] = response.fingerprint;
    }
    return setup;
}

/** The local, in-process equivalent of a served request. */
CompileRequest
localRequest(const Key &key, std::shared_ptr<const TargetDevice> &device,
             std::vector<double> &parse_ms)
{
    Circuit circuit(1);
    if (!key.qasm.empty()) {
        const Clock::time_point p0 = Clock::now();
        circuit = fromQasm(key.qasm, key.name);
        parse_ms.push_back(msBetween(p0, Clock::now()));
    } else {
        circuit = makeBenchmark(key.family, key.qubits);
    }
    std::shared_ptr<const ICompilerBackend> backend;
    if (key.backend == "mussti") {
        const MusstiConfig config;
        device = DeviceRegistry::createEml(config.device,
                                           circuit.numQubits());
        backend = makeMusstiBackend(config);
    } else {
        const GridConfig grid = DeviceRegistry::parse(key.device).grid;
        device = DeviceRegistry::createGrid(grid);
        backend = makeGridBackend(key.backend, grid);
    }
    CompileRequest request{std::move(backend), std::move(circuit), {}, {},
                           {}};
    request.seed = key.seed;
    return request;
}

} // namespace

RunResult
runServeMixed(const Options &options)
{
    RunResult run;
    Report &report = run.report;
    Tracer tracer(options.trace);

    // ---- set-up; repeated after the run, see the end ------------------
    std::vector<double> setup_s, build_ms;
    auto timedSetup = [&](int rep) {
        double b = 0.0;
        const Clock::time_point s0 = Clock::now();
        std::unique_ptr<Setup> built = buildSetup(options, rep, tracer, b);
        setup_s.push_back(msBetween(s0, Clock::now()) / 1e3);
        build_ms.push_back(b);
        return built;
    };
    const std::unique_ptr<Setup> setup = timedSetup(0);
    const Plan &plan = setup->plan;
    const std::size_t n = plan.requests.size();
    std::vector<Outcome> outcomes(n);
    std::vector<std::size_t> by_conn[2];
    for (std::size_t i = 0; i < n; ++i)
        by_conn[plan.requests[i].conn].push_back(i);

    CompileServer &server = *setup->server;
    const CompileService::CacheStats before = server.service().cacheStats();
    const std::uint64_t executed_before = server.service().jobsExecuted();
    const std::uint64_t hits_before = server.service().cacheHits();

    // ---- timed region --------------------------------------------------
    const Clock::time_point start = Clock::now() +
                                    std::chrono::milliseconds(20);
    auto dueOf = [&](std::size_t i) {
        return start + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double, std::milli>(
                               plan.requests[i].dueMs));
    };
    const Clock::time_point give_up =
        dueOf(n - 1) + std::chrono::seconds(60);

    auto sender = [&](int c) {
        for (const std::size_t i : by_conn[c]) {
            std::this_thread::sleep_until(dueOf(i));
            Outcome &o = outcomes[i];
            o.sendStart = Clock::now();
            const std::string frame = encodeRequest(requestFor(
                plan.keys[plan.requests[i].key], i + 1, kClients[c]));
            o.encodeEnd = Clock::now();
            o.requestBytes = frame.size() + 4;
            // A failed write shows up as an unanswered, failed request.
            writeFrame(setup->fds[c], frame);
            o.writeEnd = Clock::now();
        }
    };
    auto receiver = [&](int c) {
        std::string payload;
        for (std::size_t got = 0; got < by_conn[c].size(); ++got) {
            if (!readable(setup->fds[c], give_up) ||
                !readFrame(setup->fds[c], payload))
                return;
            const Clock::time_point read_end = Clock::now();
            ServeResponse response;
            const bool decoded = decodeResponse(payload, response);
            const Clock::time_point decode_end = Clock::now();
            if (!decoded || response.id < 1 || response.id > n)
                continue;
            Outcome &o = outcomes[response.id - 1];
            o.readEnd = read_end;
            o.decodeEnd = decode_end;
            o.answered = true;
            o.ok = response.ok;
            o.fingerprint = response.fingerprint;
            o.responseBytes = payload.size() + 4;
        }
    };

    std::atomic<bool> sampling{options.trace};
    std::size_t queued_peak = 0, in_flight_peak = 0;
    std::thread sampler([&] {
        while (sampling.load()) {
            const AdmissionStats stats = server.admission().stats();
            queued_peak = std::max(queued_peak, stats.queuedJobs);
            in_flight_peak = std::max(in_flight_peak, stats.inFlightJobs);
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
        }
    });
    std::thread threads[4] = {std::thread(sender, 0), std::thread(sender, 1),
                              std::thread(receiver, 0),
                              std::thread(receiver, 1)};
    for (std::thread &t : threads)
        t.join();
    sampling.store(false);
    sampler.join();
    const double rss_mb = peakRssMb();

    const CompileService::CacheStats after = server.service().cacheStats();
    const std::uint64_t executed =
        server.service().jobsExecuted() - executed_before;
    const std::uint64_t hits = server.service().cacheHits() - hits_before;

    // ---- per-request accounting ----------------------------------------
    std::vector<double> latencies, lag_ms, by_class[kNumClasses],
        by_client[2], encode_us, decode_us;
    double request_bytes = 0.0, response_bytes = 0.0;
    Clock::time_point last = start;
    std::uint64_t failed = 0;
    std::vector<std::optional<std::uint64_t>> served(plan.keys.size());
    for (std::size_t k = 0; k < plan.hotKeys; ++k)
        served[k] = setup->warmFingerprints[k];
    for (std::size_t i = 0; i < n; ++i) {
        const Planned &p = plan.requests[i];
        const Outcome &o = outcomes[i];
        if (!o.answered || !o.ok) {
            ++failed;
            continue;
        }
        if (served[p.key].has_value() && *served[p.key] != o.fingerprint) {
            ++failed;
            report.note("FAIL: request " + std::to_string(i) +
                        " fingerprint differs from an earlier response");
            continue;
        }
        served[p.key] = o.fingerprint;
        const OpenLoopSample sample =
            openLoopSample(dueOf(i), o.sendStart, o.readEnd);
        latencies.push_back(sample.latencyMs);
        by_class[p.cls].push_back(sample.latencyMs);
        by_client[p.conn].push_back(sample.latencyMs);
        lag_ms.push_back(sample.lagMs);
        encode_us.push_back(1e3 * msBetween(o.sendStart, o.encodeEnd));
        decode_us.push_back(1e3 * msBetween(o.readEnd, o.decodeEnd));
        request_bytes += static_cast<double>(o.requestBytes);
        response_bytes += static_cast<double>(o.responseBytes);
        last = std::max(last, o.readEnd);
    }
    const double timed_s = msBetween(start, last) / 1e3;

    // ---- correctness: daemon == local compile, every schedule valid ----
    std::vector<double> parse_ms, hash_ms, fingerprint_ms;
    std::vector<std::size_t> distinct;
    std::vector<CompileRequest> locals;
    std::vector<std::shared_ptr<const TargetDevice>> devices;
    for (std::size_t k = 0; k < plan.keys.size(); ++k) {
        if (!served[k].has_value())
            continue;
        std::shared_ptr<const TargetDevice> device;
        CompileRequest request = localRequest(plan.keys[k], device, parse_ms);
        const Circuit fresh = request.circuit; // cold prefix-hash cache
        const Clock::time_point h0 = Clock::now();
        (void)fresh.contentHash();
        hash_ms.push_back(msBetween(h0, Clock::now()));
        distinct.push_back(k);
        locals.push_back(std::move(request));
        devices.push_back(std::move(device));
    }
    // Time disk-tier hits on the server's own directory, read-only.
    std::vector<double> disk_hit_ms;
    {
        DiskResultCache disk(setup->dir + "/cache", 0);
        for (std::size_t d = 0; d < distinct.size() && d < 64; ++d) {
            const CompileRequest &request = locals[d];
            ResultCacheKey key;
            key.circuitHash = request.circuit.contentHash();
            key.configDigest = request.backend->configDigest();
            key.seed = *request.seed;
            key.hasSeed = true;
            const Clock::time_point l0 = Clock::now();
            const bool hit = disk.lookup(key).has_value();
            const Clock::time_point l1 = Clock::now();
            if (hit)
                disk_hit_ms.push_back(msBetween(l0, l1));
        }
    }
    setup->server->stop();

    CompileServiceConfig local_config;
    local_config.numThreads = 4;
    local_config.cacheCapacity = 0;
    local_config.snapshotCacheCapacity = 0;
    CompileService local(local_config);
    std::vector<CompileOutcome> results =
        local.compileAllOutcomes(std::move(locals));
    QualityTotals quality;
    double validate_ms = 0.0;
    std::size_t mismatched = 0;
    for (std::size_t d = 0; d < distinct.size(); ++d) {
        const Key &key = plan.keys[distinct[d]];
        if (!results[d].ok()) {
            ++mismatched;
            report.note("FAIL: local compile of key " +
                        std::to_string(distinct[d]) + " failed");
            continue;
        }
        const CompileResult &result = *results[d].result;
        const Clock::time_point f0 = Clock::now();
        const std::uint64_t fp = resultFingerprint(result);
        fingerprint_ms.push_back(msBetween(f0, Clock::now()));
        const Clock::time_point v0 = Clock::now();
        const ValidationReport valid = ScheduleValidator(*devices[d])
                                           .validate(result.schedule,
                                                     result.lowered);
        const Clock::time_point v1 = Clock::now();
        tracer.record("sim.validate", v0, v1, Tracer::kNone, distinct[d]);
        validate_ms += msBetween(v0, v1);
        if (fp != *served[distinct[d]] || !valid) {
            ++mismatched;
            report.note("FAIL: key " + std::to_string(distinct[d]) +
                        (valid ? " daemon fingerprint != local compile"
                               : " invalid schedule: " + valid.firstError));
            continue;
        }
        if (key.backend == "mussti")
            quality.addMussti(result.metrics.shuttleCount,
                              result.metrics.log10Fidelity(),
                              result.metrics.executionTimeUs);
        else
            quality.addBaseline(result.metrics.shuttleCount);
    }
    // A wrong key makes every request that asked for it wrong.
    if (mismatched > 0) {
        run.correct = false;
        failed += mismatched;
    }

    // The remaining set-ups run after the peak-RSS sample, so tearing
    // them down cannot inflate it.
    for (int rep = 1; rep < options.setupRepeats; ++rep)
        timedSetup(rep);

    run.attempted = n;
    run.failed = std::min<std::uint64_t>(failed, n);
    std::size_t class_count[kNumClasses] = {};
    for (const Planned &p : plan.requests)
        ++class_count[p.cls];
    char line[256];
    std::snprintf(line, sizeof line,
                  "serve_mixed: offered %.0f req/s for %.1f s, %zu requests "
                  "(hit %.3f, disk_hit %.3f, cold %.3f, stampede %.3f), "
                  "%zu distinct keys, hot set %zu = 1.5x memory tier %zu",
                  kOfferedRate, options.seconds, n,
                  double(class_count[kHit]) / double(n),
                  double(class_count[kDiskHit]) / double(n),
                  double(class_count[kCold]) / double(n),
                  double(class_count[kStampede]) / double(n),
                  distinct.size(), plan.hotKeys, kMemoryTier);
    report.note(line);

    run.latencyP50Ms = median(latencies);
    if (!options.trace) {
        report.add("setup_s", median(setup_s), "s");
        addLatencyMetrics(report, latencies, latencies, run.attempted,
                          run.failed,
                          timed_s > 0.0 ? double(latencies.size()) / timed_s
                                        : 0.0,
                          kSloMs, kTailPercentile);
        report.add("peak_rss_mb", rss_mb, "MB");
        quality.report(report);
        return run;
    }

    // ---- per-layer metrics --------------------------------------------
    for (std::size_t i = 0; i < n; ++i) {
        const Outcome &o = outcomes[i];
        if (!o.answered)
            continue;
        const Tracer::SpanId root =
            tracer.record("request", dueOf(i), o.decodeEnd, Tracer::kNone,
                          i + 1);
        tracer.record("loadgen.lag", dueOf(i), o.sendStart, root, i + 1);
        tracer.record("serve.encode", o.sendStart, o.encodeEnd, root, i + 1);
        tracer.record("serve.write", o.encodeEnd, o.writeEnd, root, i + 1);
        tracer.record("server.roundtrip", o.writeEnd, o.readEnd, root, i + 1);
        tracer.record("serve.decode", o.readEnd, o.decodeEnd, root, i + 1);
    }
    const auto ratio = [](double num, double den) {
        return den > 0.0 ? num / den : 0.0;
    };
    report.add("workloads.build_ms", median(build_ms), "ms");
    report.add("circuit.qasm_parse_ms", median(parse_ms), "ms");
    report.add("circuit.content_hash_ms", median(hash_ms), "ms");
    report.add("pipeline.fingerprint_ms", median(fingerprint_ms), "ms");
    report.add("service.result_hit_ratio",
               ratio(double(hits), double(hits + executed)), "ratio");
    report.add("service.compiles_executed", double(executed), "count");
    const std::size_t cold_keys = plan.keys.size() - plan.hotKeys;
    report.add("service.compiles_per_cold_key",
               ratio(double(executed), double(cold_keys)), "ratio");
    report.add("service.jobs_failed",
               double(after.jobsFailed - before.jobsFailed), "count");
    report.add("service.jobs_retried",
               double(after.jobsRetried - before.jobsRetried), "count");
    report.add("service.jobs_timed_out",
               double(after.jobsTimedOut - before.jobsTimedOut), "count");
    const double mem_hits = double(after.memoryTier.hits -
                                   before.memoryTier.hits);
    const double mem_misses = double(after.memoryTier.misses -
                                     before.memoryTier.misses);
    const double disk_hits = double(after.diskTier.hits -
                                    before.diskTier.hits);
    const double disk_misses = double(after.diskTier.misses -
                                      before.diskTier.misses);
    report.add("cache.mem_hit_ratio", ratio(mem_hits, mem_hits + mem_misses),
               "ratio");
    report.add("cache.disk_hit_ratio",
               ratio(disk_hits, disk_hits + disk_misses), "ratio");
    report.add("cache.mem_evictions",
               double(after.memoryTier.evictions -
                      before.memoryTier.evictions), "count");
    report.add("cache.disk_evictions",
               double(after.diskTier.evictions - before.diskTier.evictions),
               "count");
    report.add("cache.disk_corrupt",
               double(after.diskTier.corrupt - before.diskTier.corrupt),
               "count");
    report.add("cache.disk_hit_ms", median(disk_hit_ms), "ms");
    report.add("admission.queued_peak", double(queued_peak), "count");
    report.add("admission.in_flight_peak", double(in_flight_peak), "count");
    report.add("serve.request_bytes", ratio(request_bytes, latencies.size()),
               "bytes");
    report.add("serve.response_bytes",
               ratio(response_bytes, latencies.size()), "bytes");
    report.add("serve.encode_us", median(encode_us), "us");
    report.add("serve.decode_us", median(decode_us), "us");
    for (int c = 0; c < kNumClasses; ++c)
        report.add(std::string("serve.") + kClassNames[c] +
                       ".latency_p50_ms",
                   median(by_class[c]), "ms");
    for (int c = 0; c < 2; ++c)
        report.add(std::string("serve.") + kClients[c] + ".latency_tail_ms",
                   tailPercentile(by_client[c]).value, "ms");
    report.add("sim.validate_ms", validate_ms, "ms");
    report.add("loadgen.lag_tail_ms", tailPercentile(lag_ms).value, "ms");
    addSelfTimes(report, tracer, latencies.size());
    if (!options.traceFile.empty())
        tracer.write(options.traceFile);
    return run;
}

} // namespace perfbench
