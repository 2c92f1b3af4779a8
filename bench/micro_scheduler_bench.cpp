/**
 * @file
 * Scheduler compile-time microbenchmark and the source of the repo's
 * BENCH_*.json trajectory.
 *
 * Times full MUSS-TI compilations (SABRE mapping, paper defaults)
 * across four workload tiers — small (64q), medium (160q), large
 * (288q), huge (576q) — taking the best of N repeats, and emits
 * machine-readable results (common/bench_json.h) including the
 * per-pass trace of the best run. The huge tier runs the wide
 * families (adder/qaoa) plus a 12-module heterogeneous EML device
 * built through the registry, so both the homogeneous ceil(n/32)
 * topology and the hetero `maxq` path stay covered at scale.
 *
 * A micro_scheduler/heavy tier runs the paper-scale circuits whose
 * compiles actually cost something — qft:160, qft:288, sqrt:576 and
 * ran:576 — with the same paper defaults. Their look-ahead windows are
 * the widest of any suite, so --assert-zero-allocs over this tier is
 * the strongest proof that the hot loop stays allocation-free. It sits
 * outside the --require-speedup gate, so it needs no baseline entry.
 * (qft:576 is left out: one compile takes over a second.)
 *
 * A grid_router suite times the grid baseline compilers
 * (murali/dai/mqt) on a registry-spec'd 8x8 grid whose relocation inner
 * loops lean on TargetDevice::hopDistance() — the table-lookup path —
 * so regressions in the shared device layer show up here even when the
 * MUSS-TI tiers are unaffected.
 *
 * A grid_router/heavy suite times the expensive grid cases of the
 * paper evaluation: qft:288 on the large-suite paper grid
 * (grid:5x4,cap=16) for all three baselines, plus ran:256 for dai.
 * Every grid record carries routing_steps (the strategy steps of its
 * compile) and window_visits (the DAG relaxation-wave visits, nonzero
 * only for dai, the one strategy that reads the window): both
 * deterministic, so --baseline gates window_visits exactly, as for the
 * MUSS-TI records. Grid records measure no allocations and sit outside
 * --require-speedup.
 *
 * ## Allocation accounting
 *
 * This binary overrides the global operator new to count heap
 * allocations into common/alloc_counter.h; the scheduler reports the
 * delta observed inside its main loop. MUSS-TI repeats run on one
 * thread and share its scheduler arena, so the LAST repeat runs with a
 * warm arena — its count is the steady state, recorded per record as
 * steady_allocs / allocs_per_step and asserted zero by
 * --assert-zero-allocs (the CI gate for the allocation-free hot path).
 *
 * Compilations go straight through the backends, NOT the shared
 * CompileService, so the result cache cannot fake the timings.
 *
 * ## Delta-recompilation tier
 *
 * A micro_scheduler/delta suite measures delta recompilation on deep
 * Ising workloads: the base circuit is scheduled once (untimed) with
 * checkpoint capture on, then an edited variant — one appended Trotter
 * layer, or re-parameterized rz angles in the tail — is scheduled
 * cold and warm (resuming from the base run's snapshots). `wall_ms`
 * is the warm resumed path, `delta_cold_ms`/`delta_speedup` the cold
 * reference and their ratio, both at scheduler level so the numbers
 * isolate the resume machinery. Each record also carries snapshot
 * hit/miss and resume/fallback counters from a CompileService
 * verification pass over the same pair, proving the cache tier above
 * the scheduler actually serves the scenario end to end.
 * --require-delta-speedup X exits non-zero unless the suite's
 * aggregate warm-vs-cold speedup reaches X (self-contained: the cold
 * reference is measured in the same run, no baseline file needed).
 * --soak N re-runs every warm resumed path N extra times with the
 * resume and zero-allocation assertions live on each iteration — a
 * cheap endurance gate for the allocation-free resume path.
 *
 * A micro_scheduler/delta_service record times the same idea where a
 * user meets it: submit to result through a CompileService with the
 * result tier on, for unique one-layer appends to ising 64 x 240
 * (trivial mapping, 64-gate checkpoints). Each edit runs on a service
 * without the snapshot tier (cold) and on one whose tier holds the
 * base's checkpoints (warm); `wall_ms` and `delta_cold_ms` are the
 * best of the edits, as elsewhere in this file, and every warm result
 * must resume and equal the cold one.
 * --require-service-delta-speedup X exits non-zero unless the cold
 * over warm ratio reaches X (same run, so no baseline file).
 *
 * Usage: `micro_scheduler_bench --help` prints the flags (kUsage) and
 * exits 0; a bad or unknown argument prints the error and the usage and
 * exits 2.
 *
 * Every MUSS-TI record carries window_visits, the DAG relaxation-wave
 * visits of its compile (CompileResult::windowVisits): a deterministic
 * work counter, the same on any machine. With --baseline, a record
 * whose window_visits exceeds its baseline entry's fails the run — an
 * exact gate, unlike the wall-time ratios below.
 *
 * With --baseline, each record gains speedup_vs_baseline against the
 * matching (suite, name, qubits) entry of the old file, and the summary
 * reports the large and huge tiers' aggregate speedups (summed wall
 * time, so the heavy workloads dominate and sub-millisecond ones don't
 * add noise). --require-speedup X exits non-zero unless BOTH gated
 * tiers reach X and every workload of those tiers has a baseline entry
 * (the CI perf gate; it refuses to pass vacuously).
 */
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <map>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include <filesystem>
#include <unistd.h>

#include "arch/device_registry.h"
#include "baselines/backend_factory.h"
#include "common/alloc_counter.h"
#include "common/bench_json.h"
#include "core/compile_service.h"
#include "core/compiler.h"
#include "core/mapper.h"
#include "core/pipeline.h"
#include "core/scheduler.h"
#include "workloads/workloads.h"

// ---- instrumented global allocator ---------------------------------------
// Counts every allocation into the library's thread-local AllocCounter so
// the scheduler can report the allocations inside its hot loop. Deliberate
// pass-through otherwise: malloc/free semantics, no headers, no padding.
//
// Disabled under ASan/UBSan: the sanitizer runtime interposes its own
// allocator and flags the mix of interceptor-new and pass-through-free as
// an alloc-dealloc mismatch. The sanitize job checks memory safety; the
// zero-alloc gate runs on the plain build.

#if defined(__SANITIZE_ADDRESS__)
#define MUSSTI_BENCH_COUNT_ALLOCS 0
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define MUSSTI_BENCH_COUNT_ALLOCS 0
#endif
#endif
#ifndef MUSSTI_BENCH_COUNT_ALLOCS
#define MUSSTI_BENCH_COUNT_ALLOCS 1
#endif

#if MUSSTI_BENCH_COUNT_ALLOCS

namespace {

void *
countedAlloc(std::size_t size)
{
    ++mussti::AllocCounter::allocations;
    if (void *p = std::malloc(size ? size : 1))
        return p;
    throw std::bad_alloc();
}

} // namespace

void *operator new(std::size_t size) { return countedAlloc(size); }
void *operator new[](std::size_t size) { return countedAlloc(size); }
void *
operator new(std::size_t size, std::align_val_t align)
{
    ++mussti::AllocCounter::allocations;
    // aligned_alloc requires size to be a multiple of the alignment
    // (glibc tolerates violations, conforming libcs return NULL).
    const std::size_t a = static_cast<std::size_t>(align);
    const std::size_t rounded = size ? (size + a - 1) / a * a : a;
    if (void *p = std::aligned_alloc(a, rounded))
        return p;
    throw std::bad_alloc();
}
void *
operator new[](std::size_t size, std::align_val_t align)
{
    return operator new(size, align);
}
void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }
void operator delete(void *p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void *p, std::align_val_t) noexcept { std::free(p); }
void
operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}
void
operator delete[](void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

#endif // MUSSTI_BENCH_COUNT_ALLOCS

using namespace mussti;

namespace {

struct Tier
{
    const char *label;
    int qubits;
};

constexpr Tier kTiers[] = {{"small", 64}, {"medium", 160}, {"large", 288}};
constexpr const char *kFamilies[] = {"adder", "bv", "ghz", "qaoa"};

// The huge tier: 576 qubits (18 homogeneous modules), heavy families
// only, plus the same circuit on a 12-module heterogeneous device
// (fat-middle mixes, 48 qubits per module) through the registry spec
// grammar.
constexpr int kHugeQubits = 576;
constexpr const char *kHugeFamilies[] = {"adder", "qaoa"};
constexpr const char *kHugeHeteroName = "qaoa-hetero12";
constexpr const char *kHugeHeteroSpec =
    "eml:hetero=3.1.2-2.1.1-3.1.2-2.1.1-3.1.2-2.1.1-3.1.2-2.1.1-"
    "3.1.2-2.1.1-3.1.2-2.1.1,cap=16,maxq=48";

// The heavy tier: deep circuits at paper scale (see the file header).
struct HeavyWorkload
{
    const char *family;
    int qubits;
};
constexpr HeavyWorkload kHeavyWorkloads[] = {
    {"qft", 160}, {"qft", 288}, {"sqrt", 576}, {"ran", 576}};

// The tiers the --require-speedup gate aggregates over.
constexpr const char *kGatedTiers[] = {"micro_scheduler/large",
                                       "micro_scheduler/huge"};

// The grid-router suite: a capacity-starved grid so the baselines'
// relocation/spill loops (hopDistance + nearestTrapWithSpace) dominate.
constexpr const char *kGridSpec = "grid:8x8,cap=4";
constexpr const char *kGridSuite = "grid_router/8x8cap4";
constexpr const char *kGridFamily = "qaoa";
constexpr int kGridQubits = 96;

// The heavy grid suite: the paper sweep's most expensive grid jobs.
struct HeavyGridWorkload
{
    const char *backend;
    const char *family;
    int qubits;
};
constexpr const char *kHeavyGridSpec = "grid:5x4,cap=16";
constexpr const char *kHeavyGridSuite = "grid_router/heavy";
constexpr HeavyGridWorkload kHeavyGridWorkloads[] = {
    {"murali", "qft", 288}, {"dai", "qft", 288}, {"mqt", "qft", 288},
    {"dai", "ran", 256}};

double
toMs(std::chrono::steady_clock::duration d)
{
    return 1e3 * std::chrono::duration<double>(d).count();
}

/**
 * Time `repeats` compilations of one MUSS-TI workload on this thread:
 * wall time is best-of-repeats; the allocation count is taken from the
 * LAST repeat, when the thread's scheduler arena is warm (steady
 * state).
 */
BenchRecord
measureMussti(const MusstiCompiler &compiler, const std::string &suite,
              const std::string &name, int qubits, int repeats)
{
    const Circuit qc = makeBenchmark(
        name.rfind("qaoa", 0) == 0 ? "qaoa" : name, qubits);

    BenchRecord record;
    record.suite = suite;
    record.name = name;
    record.qubits = qubits;
    record.repeats = repeats;
    record.wallMs = -1.0;

    for (int rep = 0; rep < repeats; ++rep) {
        const auto t0 = std::chrono::steady_clock::now();
        const CompileResult result = compiler.compile(qc);
        const auto t1 = std::chrono::steady_clock::now();
        const double wall_ms = toMs(t1 - t0);
        if (record.wallMs < 0.0 || wall_ms < record.wallMs) {
            record.wallMs = wall_ms;
            record.passTrace.clear();
            for (const PassTiming &timing : result.passTrace)
                record.passTrace.push_back(
                    {timing.pass, 1e3 * timing.seconds});
        }
        record.routingSteps = result.routingSteps;
        record.windowVisits =
            static_cast<long long>(result.windowVisits);
        record.steadyAllocs =
            static_cast<long long>(result.schedulerHeapAllocs);
    }
    return record;
}

/**
 * Time `repeats` compilations of one grid-baseline workload, best of
 * repeats, with the compile's deterministic step and window counters.
 */
BenchRecord
measureGrid(const char *grid_spec, const std::string &which,
            const std::string &suite, const std::string &name,
            const char *family, int qubits, int repeats)
{
    const DeviceSpec spec = DeviceRegistry::parse(grid_spec);
    const auto backend = makeGridBackend(which, spec.grid);
    const Circuit qc = makeBenchmark(family, qubits);

    BenchRecord record;
    record.suite = suite;
    record.name = name;
    record.qubits = qubits;
    record.repeats = repeats;
    record.wallMs = -1.0;

    for (int rep = 0; rep < repeats; ++rep) {
        const auto t0 = std::chrono::steady_clock::now();
        const CompileResult result = backend->compile(qc);
        const auto t1 = std::chrono::steady_clock::now();
        const double wall_ms = toMs(t1 - t0);
        if (record.wallMs < 0.0 || wall_ms < record.wallMs) {
            record.wallMs = wall_ms;
            record.passTrace.clear();
            for (const PassTiming &timing : result.passTrace)
                record.passTrace.push_back(
                    {timing.pass, 1e3 * timing.seconds});
        }
        record.routingSteps = result.routingSteps;
        record.windowVisits =
            static_cast<long long>(result.windowVisits);
    }
    return record;
}

// ---- delta-recompilation tier --------------------------------------------

struct DeltaTier
{
    const char *label;
    int qubits;
    int trotterSteps;
};

// Deep Ising workloads: many Trotter steps so the shared prefix dwarfs
// the edited suffix — the regime delta recompilation targets (think an
// interactive session appending layers or sweeping angles).
constexpr DeltaTier kDeltaTiers[] = {
    {"small", 32, 60}, {"medium", 48, 160}, {"large", 64, 480}};

constexpr const char *kDeltaSuite = "micro_scheduler/delta";

/**
 * The re-parameterize edit: same structure, rz angles nudged in the
 * last eighth of the gate list (an angle sweep touching the final
 * layers, as in variational fine-tuning). The early divergence point
 * is what distinguishes this scenario from append — the resume must
 * stop at the edit, not at the end of the base circuit.
 */
Circuit
reparamTail(const Circuit &base)
{
    Circuit edited(base.numQubits(), base.name());
    const std::size_t pivot = base.size() - base.size() / 8;
    for (std::size_t i = 0; i < base.size(); ++i) {
        Gate g = base[i];
        if (i >= pivot && g.kind == GateKind::Rz)
            g.param += 0.017;
        edited.add(g);
    }
    return edited;
}

/**
 * Measure one delta scenario at scheduler level. The base circuit runs
 * once, untimed, with checkpoint capture on; the edited circuit is
 * then scheduled `repeats` times cold (no candidates) and `repeats`
 * times warm (resuming from the capture run's snapshots), both
 * best-of-repeats on this thread's scheduler arena. Every warm run must
 * actually resume, and with `soak` > 0 the warm path re-runs that many
 * extra times asserting resume + zero loop allocations on each
 * iteration. A CompileService pass over the same (base, edited) pair
 * supplies the record's snapshot-cache counters. Failures clear `ok`.
 */
BenchRecord
measureDelta(const DeltaTier &tier, bool append, int repeats, int soak,
             bool &ok)
{
    const Circuit base = makeIsing(tier.qubits, tier.trotterSteps);
    const Circuit edited = append
        ? makeIsing(tier.qubits, tier.trotterSteps + 1)
        : reparamTail(base);

    // Trivial mapping: a single forward scheduling leg, the leg the
    // delta path resumes — so cold-vs-warm compares exactly the work
    // the snapshot machinery is supposed to skip.
    MusstiConfig config;
    config.mapping = MappingKind::Trivial;
    const auto device = DeviceRegistry::createEml(config.device,
                                                  tier.qubits);
    const PhysicalParams params;
    const MusstiScheduler scheduler(*device, params, config);

    const Circuit low_base = base.withSwapsDecomposed();
    const Circuit low_edit = edited.withSwapsDecomposed();
    const Placement initial = trivialPlacement(*device, tier.qubits);

    // Untimed capture run over the base circuit supplies the snapshots.
    DeltaRequest capture;
    capture.checkpointEvery = 64;
    const MusstiScheduler::RunOutput captured =
        scheduler.run(low_base, initial, &capture);

    // Shared lowered prefix between base and edit, by direct compare —
    // the bench plays the role the compile pass's prefix-hash lookup
    // plays in production.
    std::size_t shared = 0;
    const std::size_t limit = std::min(low_base.size(), low_edit.size());
    while (shared < limit && low_base[shared] == low_edit[shared])
        ++shared;

    DeltaRequest resume;
    for (const ScheduleSnapshot &snap : captured.snapshots) {
        if (snap.loweredPrefixGates <= shared)
            resume.candidates.push_back({&snap, shared});
    }

    BenchRecord record;
    record.suite = kDeltaSuite;
    record.name = append ? "ising-append" : "ising-reparam";
    record.qubits = tier.qubits;
    record.repeats = repeats;
    record.wallMs = -1.0;

    double cold_ms = -1.0;
    for (int rep = 0; rep < repeats; ++rep) {
        const auto t0 = std::chrono::steady_clock::now();
        const MusstiScheduler::RunOutput out =
            scheduler.run(low_edit, initial);
        const auto t1 = std::chrono::steady_clock::now();
        const double wall_ms = toMs(t1 - t0);
        if (cold_ms < 0.0 || wall_ms < cold_ms)
            cold_ms = wall_ms;
        if (out.resumedFrom != nullptr) {
            std::printf("FAIL: %s/%s cold reference reports resumed\n",
                        kDeltaSuite, record.name.c_str());
            ok = false;
        }
    }

    const int warm_runs = repeats + soak;
    for (int rep = 0; rep < warm_runs; ++rep) {
        const auto t0 = std::chrono::steady_clock::now();
        const MusstiScheduler::RunOutput out =
            scheduler.run(low_edit, initial, &resume);
        const auto t1 = std::chrono::steady_clock::now();
        const double wall_ms = toMs(t1 - t0);
        if (record.wallMs < 0.0 || wall_ms < record.wallMs)
            record.wallMs = wall_ms;
        if (out.resumedFrom == nullptr) {
            std::printf("FAIL: %s/%s warm run %d fell back to a cold "
                        "schedule\n", kDeltaSuite, record.name.c_str(),
                        rep);
            ok = false;
            break;
        }
        // The soak iterations (and every steady-state repeat) must keep
        // the resumed hot path allocation-free; rep 0 warms the arena.
        if (rep > 0 && out.loopHeapAllocs != 0 &&
            MUSSTI_BENCH_COUNT_ALLOCS) {
            std::printf("FAIL: %s/%s warm run %d performs %llu heap "
                        "allocations in the resumed scheduling loop "
                        "(want 0)\n", kDeltaSuite, record.name.c_str(),
                        rep,
                        static_cast<unsigned long long>(
                            out.loopHeapAllocs));
            ok = false;
            break;
        }
        record.routingSteps = out.routingSteps;
        record.windowVisits = static_cast<long long>(out.windowVisits);
        record.steadyAllocs = static_cast<long long>(out.loopHeapAllocs);
    }
    record.deltaColdMs = cold_ms;
    if (record.wallMs > 0.0)
        record.deltaSpeedup = cold_ms / record.wallMs;

    // End-to-end verification through the CompileService snapshot tier:
    // submit base then edited and require the edited compile to resume
    // from the cached checkpoint. Untimed — the result cache is off so
    // the edited job must really compile, and the counters land in the
    // record as proof the production path (prefix-hash probe included)
    // serves this scenario.
    CompileServiceConfig svc;
    svc.numThreads = 1;
    svc.cacheCapacity = 0;
    svc.snapshotCacheCapacity = 32;
    CompileService service(svc);
    MusstiConfig delta_cfg = config;
    delta_cfg.deltaCompile = true;
    const auto backend = std::make_shared<MusstiCompiler>(delta_cfg);
    service.submit(backend, base).get();
    const CompileResult warm = service.submit(backend, edited).get();
    record.counters = service.counters();
    if (!warm.deltaResumed) {
        std::printf("FAIL: %s/%s did not delta-resume through the "
                    "CompileService\n", kDeltaSuite,
                    record.name.c_str());
        ok = false;
    }
    return record;
}

constexpr const char *kDeltaServiceSuite = "micro_scheduler/delta_service";

/** Unique edits the service-level delta record times. */
constexpr int kServiceDeltaEdits = 40;

/**
 * The service-level delta record (see the file header): a base
 * document compiled once through the warm service, then
 * kServiceDeltaEdits unique appends, each timed from submit to result
 * on the cold and then the warm service. Failures clear `ok`.
 */
BenchRecord
measureServiceDelta(bool &ok)
{
    const int qubits = 64;
    const Circuit base = makeIsing(qubits, 240);
    const Circuit appended = makeIsing(qubits, 241);
    std::size_t shared = 0;
    while (shared < base.size() && base[shared] == appended[shared])
        ++shared;
    // Edit k: the appended layer with angles no other edit has, so the
    // result tier misses and only the snapshot tier can help.
    const auto edit = [&](int k) {
        Circuit edited(appended.numQubits(), appended.name());
        for (std::size_t i = 0; i < appended.size(); ++i) {
            Gate g = appended[i];
            if (i >= shared && g.kind == GateKind::Rz)
                g.param += 1e-3 * (k + 1);
            edited.add(g);
        }
        return edited;
    };

    MusstiConfig config;
    config.mapping = MappingKind::Trivial;
    config.deltaCompile = true;
    config.deltaCheckpointGates = 64;
    const auto backend = std::make_shared<MusstiCompiler>(config);
    CompileServiceConfig svc;
    svc.numThreads = 1;
    CompileService warm(svc);
    svc.snapshotCacheCapacity = 0;
    CompileService cold(svc);
    warm.submit(backend, base).get();

    BenchRecord record;
    record.suite = kDeltaServiceSuite;
    record.name = "ising-append";
    record.qubits = qubits;
    record.repeats = kServiceDeltaEdits;

    std::vector<double> warm_ms, cold_ms;
    for (int k = 0; k < kServiceDeltaEdits; ++k) {
        const Circuit edited = edit(k);
        // submitOutcome, as the compile server uses: the outcome
        // shares the result the memory tier keeps.
        const auto timed = [&](CompileService &service,
                               std::vector<double> &ms) {
            CompileRequest request{backend, edited, {}, {}, {}};
            const auto t0 = std::chrono::steady_clock::now();
            CompileOutcome outcome =
                service.submitOutcome(std::move(request)).get();
            ms.push_back(toMs(std::chrono::steady_clock::now() - t0));
            return outcome;
        };
        const CompileOutcome reference = timed(cold, cold_ms);
        const CompileOutcome resumed = timed(warm, warm_ms);
        const bool same = reference.ok() && resumed.ok() &&
                          resultFingerprint(reference.value()) ==
                              resultFingerprint(resumed.value());
        if (!same || !resumed.value().deltaResumed) {
            std::printf("FAIL: %s/%s edit %d %s\n", kDeltaServiceSuite,
                        record.name.c_str(), k,
                        same ? "did not resume"
                             : "differs from the cold compile");
            ok = false;
        }
    }
    record.wallMs = *std::min_element(warm_ms.begin(), warm_ms.end());
    record.deltaColdMs = *std::min_element(cold_ms.begin(), cold_ms.end());
    record.deltaSpeedup = record.deltaColdMs / record.wallMs;
    record.counters = warm.counters();
    return record;
}

constexpr const char *kCacheSuite = "micro_scheduler/cache";

/**
 * Measure and verify the result-cache tiers. A throwaway service
 * compiles an Ising workload into a scratch disk-tier directory; a
 * FRESH service on the same directory must then serve the identical
 * request from the persistent tier — bit-identical fingerprint, zero
 * recompiles — and a repeat on that second service must hit the
 * in-memory tier. `wall_ms` times the disk-tier hit (deserialize +
 * promote, no scheduling), and the record carries the service's
 * counters(), the per-tier hit/miss/evict/corrupt counters among them.
 * Any miss, corrupt entry, or fingerprint drift clears `ok`.
 */
BenchRecord
measureCacheTiers(bool &ok)
{
    namespace fs = std::filesystem;
    const int qubits = 96;
    const Circuit circuit = makeIsing(qubits, 6);
    const auto backend = std::make_shared<MusstiCompiler>();

    const fs::path dir =
        fs::temp_directory_path() /
        ("mussti_bench_cache_" + std::to_string(::getpid()));
    std::error_code ignored;
    fs::remove_all(dir, ignored);
    fs::create_directories(dir);

    CompileServiceConfig svc;
    svc.numThreads = 1;
    svc.cacheCapacity = 8;
    svc.diskCachePath = dir.string();

    BenchRecord record;
    record.suite = kCacheSuite;
    record.name = "ising-disk-warm";
    record.qubits = qubits;
    record.repeats = 1;

    std::uint64_t cold_fingerprint = 0;
    {
        CompileService seeder(svc);
        cold_fingerprint =
            resultFingerprint(seeder.submit(backend, circuit).get());
    }

    CompileService service(svc); // fresh process stand-in, same dir
    const auto t0 = std::chrono::steady_clock::now();
    const CompileResult warm = service.submit(backend, circuit).get();
    const auto t1 = std::chrono::steady_clock::now();
    record.wallMs = toMs(t1 - t0);
    service.submit(backend, circuit).get(); // now a memory-tier hit

    const CompileService::CacheStats stats = service.cacheStats();
    record.counters = service.counters();

    if (resultFingerprint(warm) != cold_fingerprint) {
        std::printf("FAIL: %s/%s disk-tier result drifted from the "
                    "compiled one\n", kCacheSuite, record.name.c_str());
        ok = false;
    }
    if (stats.diskTier.hits < 1 || stats.memoryTier.hits < 1 ||
        stats.resultMisses != 0 || stats.diskTier.corrupt != 0) {
        std::printf("FAIL: %s/%s tier counters wrong (mem %llu/%llu, "
                    "disk %llu/%llu, corrupt %llu, recompiles %llu)\n",
                    kCacheSuite, record.name.c_str(),
                    static_cast<unsigned long long>(
                        stats.memoryTier.hits),
                    static_cast<unsigned long long>(
                        stats.memoryTier.misses),
                    static_cast<unsigned long long>(stats.diskTier.hits),
                    static_cast<unsigned long long>(
                        stats.diskTier.misses),
                    static_cast<unsigned long long>(
                        stats.diskTier.corrupt),
                    static_cast<unsigned long long>(stats.resultMisses));
        ok = false;
    }
    fs::remove_all(dir, ignored);
    return record;
}

const BenchRecord *
findBaseline(const std::vector<BenchRecord> &baseline,
             const BenchRecord &record)
{
    for (const BenchRecord &b : baseline) {
        if (b.suite == record.suite && b.name == record.name &&
            b.qubits == record.qubits)
            return &b;
    }
    return nullptr;
}

bool
isGatedTier(const std::string &suite)
{
    for (const char *tier : kGatedTiers) {
        if (suite == tier)
            return true;
    }
    return false;
}

void
printRecord(const char *tier, const BenchRecord &record,
            const std::string &speedup_cell)
{
    char allocs_cell[32] = "-";
    if (record.steadyAllocs >= 0) {
        std::snprintf(allocs_cell, sizeof(allocs_cell), "%lld",
                      record.steadyAllocs);
    }
    std::printf("%-8s %-14s %7d %12.3f %10s %12s\n", tier,
                record.name.c_str(), record.qubits, record.wallMs,
                speedup_cell.c_str(), allocs_cell);
}

const char *const kUsage =
    "usage: micro_scheduler_bench [--repeats N] [--quick]\n"
    "                             [--out bench_results.json]\n"
    "                             [--baseline old_results.json]\n"
    "                             [--require-speedup X]\n"
    "                             [--require-delta-speedup X]\n"
    "                             [--require-service-delta-speedup X]\n"
    "                             [--soak N]\n"
    "                             [--assert-zero-allocs]\n";

} // namespace

int
main(int argc, char **argv)
{
    int repeats = 5;
    std::string out_path = "bench_results.json";
    std::string baseline_path;
    double require_speedup = 0.0;
    double require_delta_speedup = 0.0;
    double require_service_delta_speedup = 0.0;
    int soak = 0;
    bool assert_zero_allocs = false;

    // A bad command line is the caller's error: fatal() prints it, the
    // usage follows and the exit code is 2 (never an uncaught throw).
    bool help = false;
    const auto parse_args = [&] {
        for (int i = 1; i < argc; ++i) {
            const std::string arg = argv[i];
            auto next = [&]() -> std::string {
                if (i + 1 >= argc)
                    fatal("missing value after " + arg);
                return argv[++i];
            };
            if (arg == "--repeats") {
                repeats = std::atoi(next().c_str());
                if (repeats < 1)
                    fatal("--repeats must be >= 1");
            } else if (arg == "--quick") {
                repeats = 2;
            } else if (arg == "--out") {
                out_path = next();
            } else if (arg == "--baseline") {
                baseline_path = next();
            } else if (arg == "--assert-zero-allocs") {
                assert_zero_allocs = true;
            } else if (arg == "--require-speedup") {
                // Strict parse: atof would turn a typo into 0.0 and
                // silently disable the CI gate.
                const std::string value = next();
                char *end = nullptr;
                require_speedup = std::strtod(value.c_str(), &end);
                if (end == value.c_str() || *end != '\0' ||
                    require_speedup <= 0.0)
                    fatal("--require-speedup wants a positive number, got `" +
                          value + "`");
            } else if (arg == "--require-delta-speedup") {
                const std::string value = next();
                char *end = nullptr;
                require_delta_speedup = std::strtod(value.c_str(), &end);
                if (end == value.c_str() || *end != '\0' ||
                    require_delta_speedup <= 0.0)
                    fatal("--require-delta-speedup wants a positive number, "
                          "got `" + value + "`");
            } else if (arg == "--require-service-delta-speedup") {
                const std::string value = next();
                char *end = nullptr;
                require_service_delta_speedup =
                    std::strtod(value.c_str(), &end);
                if (end == value.c_str() || *end != '\0' ||
                    require_service_delta_speedup <= 0.0)
                    fatal("--require-service-delta-speedup wants a "
                          "positive number, got `" + value + "`");
            } else if (arg == "--soak") {
                soak = std::atoi(next().c_str());
                if (soak < 1)
                    fatal("--soak must be >= 1");
            } else if (arg == "--help" || arg == "-h") {
                help = true;
                return;
            } else {
                fatal("unknown argument: " + arg);
            }
        }

        // The gate must never pass vacuously: demanding a speedup with no
        // baseline to compare against is a misconfiguration, not a pass.
        if (require_speedup > 0.0 && baseline_path.empty())
            fatal("--require-speedup needs --baseline <old_results.json>");

        // Allocation accounting only works when the steady state is
        // actually reached: the second repeat reuses the first's warm
        // arena. --quick already guarantees 2.
        if (assert_zero_allocs && repeats < 2)
            fatal("--assert-zero-allocs needs --repeats >= 2 (the first "
                  "repeat warms the scheduler arena)");
    };
    try {
        parse_args();
    } catch (const MusstiFault &) {
        std::fputs(kUsage, stderr);
        return 2;
    }
    if (help) {
        std::fputs(kUsage, stdout);
        return 0;
    }

    std::vector<BenchRecord> baseline;
    if (!baseline_path.empty())
        baseline = readBenchResults(baseline_path);

    std::cout << "micro_scheduler_bench: full-compile wall time, best of "
              << repeats << " repeats\n";
    std::printf("%-8s %-14s %7s %12s %10s %12s\n", "tier", "family",
                "qubits", "wall-ms", "speedup", "allocs");

    std::vector<BenchRecord> records;
    bool gate_ok = true;
    bool allocs_ok = true;
    bool visits_ok = true;
    std::map<std::string, std::pair<double, double>> gated; // wall, base

    const auto submit = [&](const char *tier, BenchRecord record) {
        std::string speedup_cell = "-";
        const BenchRecord *base = findBaseline(baseline, record);
        if (base != nullptr) {
            record.speedupVsBaseline = base->wallMs / record.wallMs;
            char buf[32];
            std::snprintf(buf, sizeof(buf), "%.2fx",
                          record.speedupVsBaseline);
            speedup_cell = buf;
            if (base->windowVisits >= 0 &&
                record.windowVisits > base->windowVisits) {
                std::printf("FAIL: %s/%s n=%d window_visits %lld above "
                            "the baseline's %lld\n",
                            record.suite.c_str(), record.name.c_str(),
                            record.qubits, record.windowVisits,
                            base->windowVisits);
                visits_ok = false;
            }
        }
        if (isGatedTier(record.suite)) {
            if (base != nullptr) {
                // Aggregate over MATCHED records only, so a partial
                // baseline compares like against like instead of
                // dividing mismatched workload sets.
                auto &[wall, base_wall] = gated[record.suite];
                wall += record.wallMs;
                base_wall += base->wallMs;
            } else if (!baseline.empty()) {
                // A gated workload with no baseline entry can never
                // prove its speedup — warn always, and fail the gate
                // instead of passing vacuously (e.g. a stale or
                // mismatched baseline file).
                std::printf("no baseline entry for %s/%s n=%d\n",
                            record.suite.c_str(), record.name.c_str(),
                            record.qubits);
                if (require_speedup > 0.0)
                    gate_ok = false;
            }
        }
        // Delta records' headline number is warm-vs-cold, measured in
        // this same run — show it in the speedup column (the baseline
        // comparison, when available, still lands in the JSON).
        if (record.deltaSpeedup > 0.0) {
            char buf[32];
            std::snprintf(buf, sizeof(buf), "%.2fx",
                          record.deltaSpeedup);
            speedup_cell = buf;
        }
        // steadyAllocs < 0 is the "not measured" sentinel (suites that
        // never enter a scheduling loop, like the cache tier).
        if (assert_zero_allocs &&
            record.suite.rfind("micro_scheduler/", 0) == 0 &&
            record.steadyAllocs > 0) {
            std::printf("FAIL: %s/%s performs %lld steady-state heap "
                        "allocations in the scheduling loop (want 0)\n",
                        record.suite.c_str(), record.name.c_str(),
                        record.steadyAllocs);
            allocs_ok = false;
        }
        printRecord(tier, record, speedup_cell);
        records.push_back(std::move(record));
    };

    const MusstiCompiler compiler; // paper defaults, SABRE mapping
    for (const Tier &tier : kTiers) {
        for (const char *family : kFamilies) {
            submit(tier.label,
                   measureMussti(compiler,
                                 std::string("micro_scheduler/") +
                                     tier.label,
                                 family, tier.qubits, repeats));
        }
    }

    // Huge tier: homogeneous 18-module device for the heavy families...
    for (const char *family : kHugeFamilies) {
        submit("huge", measureMussti(compiler, "micro_scheduler/huge",
                                     family, kHugeQubits, repeats));
    }
    // ...and the registry-built 12-module heterogeneous EML fabric.
    {
        const DeviceSpec spec = DeviceRegistry::parse(kHugeHeteroSpec);
        MusstiConfig hetero_config;
        hetero_config.device = spec.eml;
        const MusstiCompiler hetero_compiler(hetero_config);
        submit("huge", measureMussti(hetero_compiler,
                                     "micro_scheduler/huge",
                                     kHugeHeteroName, kHugeQubits,
                                     repeats));
    }

    // Heavy tier: informational wall time, live zero-alloc gate.
    for (const HeavyWorkload &w : kHeavyWorkloads) {
        submit("heavy", measureMussti(compiler, "micro_scheduler/heavy",
                                      w.family, w.qubits, repeats));
    }

    // Delta-recompilation tier: warm resume vs cold recompile of an
    // edited circuit, scheduler level (see the file header).
    bool delta_ok = true;
    for (const DeltaTier &tier : kDeltaTiers) {
        for (const bool append : {true, false}) {
            submit("delta",
                   measureDelta(tier, append, repeats, soak, delta_ok));
        }
    }

    // Service-level delta record: submit to result, warm vs cold.
    {
        BenchRecord record = measureServiceDelta(delta_ok);
        std::printf("%s warm-vs-cold speedup: %.2fx (%.2f ms cold -> "
                    "%.2f ms warm, best of %d edits)\n", kDeltaServiceSuite,
                    record.deltaSpeedup, record.deltaColdMs,
                    record.wallMs, kServiceDeltaEdits);
        if (require_service_delta_speedup > 0.0 &&
            record.deltaSpeedup < require_service_delta_speedup) {
            std::printf("FAIL: %s speedup below the required %.2fx\n",
                        kDeltaServiceSuite,
                        require_service_delta_speedup);
            delta_ok = false;
        }
        submit("delta", std::move(record));
    }

    // Cache-tier suite: one record proving the persistent disk tier
    // round-trips a compile bit-identically across services, with the
    // per-tier counters in the JSON. Wall time is informational; the
    // correctness checks are a hard gate.
    bool cache_ok = true;
    submit("cache", measureCacheTiers(cache_ok));

    // Grid-router suite (informational; the --require-speedup gate
    // stays on the MUSS-TI tiers).
    for (const char *which : {"murali", "dai", "mqt"}) {
        submit("grid", measureGrid(kGridSpec, which, kGridSuite, which,
                                   kGridFamily, kGridQubits, repeats));
    }
    for (const HeavyGridWorkload &w : kHeavyGridWorkloads) {
        submit("grid", measureGrid(kHeavyGridSpec, w.backend,
                                   kHeavyGridSuite,
                                   std::string(w.family) + "-" + w.backend,
                                   w.family, w.qubits, repeats));
    }

    std::string context = "micro_scheduler_bench --repeats " +
        std::to_string(repeats);
    if (!baseline_path.empty())
        context += " --baseline " + baseline_path;
    writeBenchResults(out_path, records, context);
    std::cout << "wrote " << out_path << "\n";

    for (const char *tier : kGatedTiers) {
        const auto it = gated.find(tier);
        if (it == gated.end())
            continue;
        const auto [wall, base_wall] = it->second;
        const double speedup = wall > 0.0 ? base_wall / wall : 0.0;
        std::printf("%s aggregate speedup vs baseline: %.2fx "
                    "(%.2f ms -> %.2f ms)\n", tier, speedup, base_wall,
                    wall);
        if (require_speedup > 0.0 && speedup < require_speedup) {
            std::printf("FAIL: %s aggregate speedup below the required "
                        "%.2fx\n", tier, require_speedup);
            gate_ok = false;
        }
    }
    if (require_speedup > 0.0 && gated.empty()) {
        std::printf("FAIL: baseline matches no gated-tier record\n");
        gate_ok = false;
    }

    // The delta gate is self-contained: warm and cold come from this
    // run, aggregated as summed wall time so the large tier dominates.
    {
        double warm = 0.0, cold = 0.0;
        for (const BenchRecord &r : records) {
            if (r.suite == kDeltaSuite) {
                warm += r.wallMs;
                cold += r.deltaColdMs;
            }
        }
        if (warm > 0.0 && cold > 0.0) {
            const double speedup = cold / warm;
            std::printf("%s aggregate warm-vs-cold speedup: %.2fx "
                        "(%.2f ms cold -> %.2f ms warm)\n", kDeltaSuite,
                        speedup, cold, warm);
            if (require_delta_speedup > 0.0 &&
                speedup < require_delta_speedup) {
                std::printf("FAIL: delta aggregate speedup below the "
                            "required %.2fx\n", require_delta_speedup);
                delta_ok = false;
            }
        } else if (require_delta_speedup > 0.0) {
            std::printf("FAIL: no delta-tier record to gate\n");
            delta_ok = false;
        }
    }

    const bool ok = gate_ok && allocs_ok && visits_ok && delta_ok && cache_ok;
    return ok ? 0 : 1;
}
