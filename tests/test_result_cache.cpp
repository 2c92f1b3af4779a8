/**
 * @file
 * Tests for the pluggable result-cache tiers (core/result_cache.h):
 * bit-exact serializer round-trips, the disk tier's hit/miss/eviction
 * behaviour, and — the point of the format's paranoia — that every
 * flavour of on-disk damage (truncation, garbage, version skew, racing
 * writers) degrades to a MISS with the corrupt counter ticking, never
 * to a wrong result and never to an exception on the compile path.
 */
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "baselines/backend_factory.h"
#include "core/compile_service.h"
#include "core/pipeline.h"
#include "core/result_cache.h"
#include "workloads/workloads.h"

namespace fs = std::filesystem;

namespace mussti {
namespace {

/** Fresh scratch directory, removed on scope exit. */
class ScratchDir
{
  public:
    ScratchDir()
    {
        path_ = fs::temp_directory_path() /
                fs::path("mussti_cache_test_" +
                         std::to_string(::getpid()) + "_" +
                         std::to_string(counter_++));
        fs::create_directories(path_);
    }
    ~ScratchDir()
    {
        std::error_code ec;
        fs::remove_all(path_, ec);
    }

    std::string str() const { return path_.string(); }
    const fs::path &path() const { return path_; }

  private:
    static inline int counter_ = 0;
    fs::path path_;
};

/** One real compile to cache (every field populated by the pipeline). */
const CompileResult &
sampleResult()
{
    static const CompileResult result =
        makeMusstiBackend()->compile(makeBenchmark("ghz", 12));
    return result;
}

std::shared_ptr<const CompileResult>
sharedResult()
{
    static const auto result =
        std::make_shared<const CompileResult>(sampleResult());
    return result;
}

ResultCacheKey
sampleKey(std::uint64_t salt = 0)
{
    ResultCacheKey key;
    key.circuitHash = 0x1234 + salt;
    key.configDigest = 0x5678;
    key.seed = 42;
    key.hasSeed = true;
    return key;
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << path;
    return std::string(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
}

void
writeFile(const std::string &path, const std::string &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(),
              static_cast<std::streamsize>(bytes.size()));
}

TEST(ResultSerializer, RoundTripsBitExact)
{
    const CompileResult &original = sampleResult();
    const std::string bytes = serializeCompileResult(original);
    const std::optional<CompileResult> back =
        deserializeCompileResult(bytes);
    ASSERT_TRUE(back.has_value());

    // The fingerprint covers every schedule-defining field; the rest
    // are checked explicitly (timing fields round-trip as raw bits).
    EXPECT_EQ(resultFingerprint(original), resultFingerprint(*back));
    EXPECT_EQ(original.lowered.size(), back->lowered.size());
    EXPECT_EQ(original.lowered.name(), back->lowered.name());
    EXPECT_EQ(original.compileTimeSec, back->compileTimeSec);
    EXPECT_EQ(original.routingSteps, back->routingSteps);
    EXPECT_EQ(original.windowVisits, back->windowVisits);
    EXPECT_EQ(original.schedulerHeapAllocs, back->schedulerHeapAllocs);
    EXPECT_EQ(original.deltaResumed, back->deltaResumed);
    ASSERT_EQ(original.passTrace.size(), back->passTrace.size());
    for (std::size_t i = 0; i < original.passTrace.size(); ++i) {
        EXPECT_EQ(original.passTrace[i].pass, back->passTrace[i].pass);
        EXPECT_EQ(original.passTrace[i].seconds,
                  back->passTrace[i].seconds);
    }
}

TEST(ResultSerializer, EveryTruncationIsRejectedNotCrashed)
{
    const std::string bytes = serializeCompileResult(sampleResult());
    ASSERT_GT(bytes.size(), 64u);
    // Every prefix is malformed: too-short buffers must come back
    // nullopt from the bounds-checked reader, never throw or UB.
    for (std::size_t len = 0; len < bytes.size();
         len += (len < 128 ? 1 : 97))
        EXPECT_FALSE(
            deserializeCompileResult(bytes.substr(0, len)).has_value())
            << "truncation at " << len << " bytes";
    // Trailing garbage is malformed too (atEnd is part of the format).
    EXPECT_FALSE(deserializeCompileResult(bytes + "x").has_value());
}

TEST(MemoryCache, EvictsTheLeastRecentlyUsedEntry)
{
    // Capacity 2: the lookup of A makes B the oldest, so storing C
    // evicts B, not A.
    MemoryResultCache cache(2);
    cache.store(sampleKey(1), sharedResult());
    cache.store(sampleKey(2), sharedResult());
    EXPECT_NE(cache.lookup(sampleKey(1)), nullptr);
    cache.store(sampleKey(3), sharedResult());

    EXPECT_EQ(cache.stats().evictions, 1u);
    EXPECT_EQ(cache.lookup(sampleKey(2)), nullptr);
    EXPECT_NE(cache.lookup(sampleKey(1)), nullptr);
    EXPECT_NE(cache.lookup(sampleKey(3)), nullptr);
}

TEST(MemoryCache, DuplicateStoreIsANoOp)
{
    // Re-storing a present key neither evicts nor refreshes it: with A
    // re-stored after B, A is still the oldest and C evicts it.
    MemoryResultCache cache(2);
    cache.store(sampleKey(1), sharedResult());
    cache.store(sampleKey(2), sharedResult());
    cache.store(sampleKey(1), sharedResult());
    EXPECT_EQ(cache.stats().evictions, 0u);

    cache.store(sampleKey(3), sharedResult());
    EXPECT_EQ(cache.stats().evictions, 1u);
    EXPECT_EQ(cache.lookup(sampleKey(1)), nullptr);
    EXPECT_NE(cache.lookup(sampleKey(2)), nullptr);
}

TEST(MemoryCache, HitSharesTheStoredResult)
{
    // A store and a hit move a refcount, never the schedule.
    MemoryResultCache cache(2);
    cache.store(sampleKey(), sharedResult());
    EXPECT_EQ(cache.lookup(sampleKey()).get(), sharedResult().get());
}

TEST(MemoryCache, CapacityZeroStoresNothing)
{
    MemoryResultCache cache(0);
    cache.store(sampleKey(), sharedResult());
    EXPECT_EQ(cache.lookup(sampleKey()), nullptr);
    EXPECT_EQ(cache.stats().hits, 0u);
    EXPECT_EQ(cache.stats().evictions, 0u);
}

TEST(DiskCache, StoreThenLookupHitsAndCounts)
{
    const ScratchDir dir;
    DiskResultCache cache(dir.str(), 16);
    const ResultCacheKey key = sampleKey();

    EXPECT_FALSE(cache.lookup(key).has_value()); // cold miss
    cache.store(key, sampleResult());
    const std::optional<CompileResult> hit = cache.lookup(key);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(resultFingerprint(sampleResult()),
              resultFingerprint(*hit));

    const ResultTierStats stats = cache.stats();
    EXPECT_EQ(stats.hits, 1u);
    EXPECT_EQ(stats.misses, 1u);
    EXPECT_EQ(stats.corrupt, 0u);
}

TEST(DiskCache, SecondProcessSeesTheEntry)
{
    // Persistence is the tier's reason to exist: a fresh instance over
    // the same directory (a restarted server) serves the entry.
    const ScratchDir dir;
    const ResultCacheKey key = sampleKey();
    DiskResultCache(dir.str(), 16).store(key, sampleResult());

    DiskResultCache reopened(dir.str(), 16);
    const std::optional<CompileResult> hit = reopened.lookup(key);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(resultFingerprint(sampleResult()),
              resultFingerprint(*hit));
}

TEST(DiskCache, TruncatedEntryIsAMissAndQuarantined)
{
    const ScratchDir dir;
    DiskResultCache cache(dir.str(), 16);
    const ResultCacheKey key = sampleKey();
    cache.store(key, sampleResult());

    const std::string path = cache.entryPathFor(key);
    const std::string bytes = readFile(path);
    writeFile(path, bytes.substr(0, bytes.size() / 2));

    EXPECT_FALSE(cache.lookup(key).has_value());
    EXPECT_EQ(cache.stats().corrupt, 1u);
    EXPECT_FALSE(fs::exists(path)); // moved out of the lookup path
    EXPECT_TRUE(fs::exists(dir.path() / "quarantine" /
                           fs::path(path).filename()));

    // The slot is reusable: a fresh store serves again.
    cache.store(key, sampleResult());
    EXPECT_TRUE(cache.lookup(key).has_value());
}

TEST(DiskCache, GarbageHeaderIsAMissNeverAnError)
{
    const ScratchDir dir;
    DiskResultCache cache(dir.str(), 16);
    const ResultCacheKey key = sampleKey();
    writeFile(cache.entryPathFor(key),
              "this is not a cache entry at all, not even close");

    EXPECT_FALSE(cache.lookup(key).has_value());
    const ResultTierStats stats = cache.stats();
    EXPECT_EQ(stats.corrupt, 1u);
    EXPECT_EQ(stats.misses, 1u);
}

TEST(DiskCache, VersionMismatchIsAMiss)
{
    const ScratchDir dir;
    DiskResultCache cache(dir.str(), 16);
    const ResultCacheKey key = sampleKey();
    cache.store(key, sampleResult());

    // Header layout: 8-byte magic, then the u32 format version (LE).
    const std::string path = cache.entryPathFor(key);
    std::string bytes = readFile(path);
    ASSERT_GT(bytes.size(), 12u);
    bytes[8] = static_cast<char>(DiskResultCache::kFormatVersion + 1);
    writeFile(path, bytes);

    EXPECT_FALSE(cache.lookup(key).has_value());
    EXPECT_EQ(cache.stats().corrupt, 1u);
}

TEST(DiskCache, KeyEchoMismatchIsAMiss)
{
    // A file landing under the wrong name (digest collision, manual
    // copy) must not serve: the header echoes the full key.
    const ScratchDir dir;
    DiskResultCache cache(dir.str(), 16);
    const ResultCacheKey key = sampleKey();
    const ResultCacheKey other = sampleKey(999);
    cache.store(key, sampleResult());
    fs::copy_file(cache.entryPathFor(key), cache.entryPathFor(other));

    EXPECT_FALSE(cache.lookup(other).has_value());
    EXPECT_EQ(cache.stats().corrupt, 1u);
    EXPECT_TRUE(cache.lookup(key).has_value()); // incumbent untouched
}

TEST(DiskCache, ConcurrentWritersAndReadersStayCorrect)
{
    // Atomic write-then-rename: readers racing writers on one key see
    // either a miss or a COMPLETE entry — never a torn read surfacing
    // as corruption or a wrong result.
    const ScratchDir dir;
    DiskResultCache cache(dir.str(), 16);
    const ResultCacheKey key = sampleKey();
    const std::uint64_t want = resultFingerprint(sampleResult());

    std::vector<std::thread> threads;
    for (int w = 0; w < 4; ++w)
        threads.emplace_back(
            [&cache, &key] { cache.store(key, sampleResult()); });
    for (int r = 0; r < 4; ++r)
        threads.emplace_back([&cache, &key, want] {
            for (int i = 0; i < 20; ++i) {
                const std::optional<CompileResult> hit =
                    cache.lookup(key);
                if (hit) {
                    EXPECT_EQ(want, resultFingerprint(*hit));
                }
            }
        });
    for (std::thread &thread : threads)
        thread.join();

    EXPECT_EQ(cache.stats().corrupt, 0u);
    ASSERT_TRUE(cache.lookup(key).has_value());
}

TEST(DiskCache, CapacityEvictsOldestEntries)
{
    const ScratchDir dir;
    DiskResultCache cache(dir.str(), 2);
    cache.store(sampleKey(1), sampleResult());
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    cache.store(sampleKey(2), sampleResult());
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    cache.store(sampleKey(3), sampleResult());

    EXPECT_GE(cache.stats().evictions, 1u);
    EXPECT_FALSE(cache.lookup(sampleKey(1)).has_value()); // oldest out
    EXPECT_TRUE(cache.lookup(sampleKey(3)).has_value());
}

TEST(ServiceDiskTier, CorruptEntryRecompilesAndCounterReconciles)
{
    // End-to-end through the service: a corrupted persistent entry must
    // cost exactly one recompile (a miss), tick diskTier.corrupt, and
    // serve the SAME result as the undamaged path — never an Internal
    // error, never a wrong schedule.
    const ScratchDir dir;
    const auto backend = makeMusstiBackend();
    const Circuit circuit = makeBenchmark("ghz", 12);

    CompileServiceConfig config;
    config.numThreads = 1;
    config.cacheCapacity = 4;
    config.diskCachePath = dir.str();
    std::uint64_t want = 0;
    {
        CompileService service(config);
        want = resultFingerprint(
            service.submit(backend, circuit).get());
    }

    // Damage the one entry the compile stored.
    std::vector<fs::path> entries;
    for (const auto &entry : fs::directory_iterator(dir.path()))
        if (entry.path().extension() == ".mstc")
            entries.push_back(entry.path());
    ASSERT_EQ(entries.size(), 1u);
    const std::string bytes = readFile(entries.front().string());
    writeFile(entries.front().string(),
              bytes.substr(0, bytes.size() - 7));

    CompileService service(config);
    const CompileResult result =
        service.submit(backend, circuit).get();
    EXPECT_EQ(want, resultFingerprint(result));

    const CompileService::CacheStats stats = service.cacheStats();
    EXPECT_EQ(stats.diskTier.corrupt, 1u);
    EXPECT_EQ(stats.diskTier.hits, 0u);
    EXPECT_EQ(stats.resultMisses, 1u); // it recompiled, once

    // And the recompile re-stored a healthy entry: a third service
    // over the same directory serves from disk without compiling.
    CompileService warm(config);
    EXPECT_EQ(want, resultFingerprint(
                        warm.submit(backend, circuit).get()));
    EXPECT_EQ(warm.cacheStats().diskTier.hits, 1u);
    EXPECT_EQ(warm.jobsExecuted(), 0u);
}

} // namespace
} // namespace mussti
