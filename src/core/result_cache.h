/**
 * @file
 * The compile service's caches.
 *
 * The service memoises finished CompileResults keyed by (circuit
 * content hash, backend config digest, seed) in two tiers it calls
 * directly: an in-memory LRU (MemoryResultCache) and, when configured,
 * a disk-backed persistent tier (DiskResultCache) behind it. A disk hit
 * is promoted into memory, so a result that survived a process restart
 * on disk is one miss away from memory speed. Next to them sits the
 * delta-compile checkpoint store (SnapshotCache).
 *
 * Cache contract:
 *  - lookup()/store() are thread-safe and never throw: a cache that
 *    cannot serve (I/O error, corrupt entry, capacity zero) degrades to
 *    a miss or a dropped store, never to a wrong result and never to an
 *    exception on the compile path.
 *  - A stored result must deserialize bit-identical to what went in;
 *    the disk tier enforces this with a version-stamped, checksummed
 *    entry format: it drops another format's entries and quarantines
 *    anything else that fails validation.
 *  - Only completed compiles are stored (the service guarantees this),
 *    so a cache hit is always a result some compile actually produced.
 */
#ifndef MUSSTI_CORE_RESULT_CACHE_H
#define MUSSTI_CORE_RESULT_CACHE_H

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/lru_map.h"
#include "core/pipeline.h"
#include "core/schedule_snapshot.h"

namespace mussti {

/**
 * Cache coordinates of one compile. The snapshot tier reuses it:
 * `circuitHash` then holds the hash of the input PREFIX a snapshot
 * covers, and is 0 in the (configDigest, seed) key of its probe index.
 */
struct ResultCacheKey
{
    std::uint64_t circuitHash = 0;
    std::uint64_t configDigest = 0;
    std::uint64_t seed = 0;
    bool hasSeed = false;

    bool operator==(const ResultCacheKey &other) const = default;

    /** FNV-1a digest over all fields (filenames, hash buckets). */
    std::uint64_t digest() const;
};

struct ResultCacheKeyHash
{
    std::size_t
    operator()(const ResultCacheKey &key) const
    {
        return static_cast<std::size_t>(key.digest());
    }
};

/** Monotonic per-tier counters. */
struct ResultTierStats
{
    std::uint64_t hits = 0;      ///< Lookups that returned a result.
    std::uint64_t misses = 0;    ///< Lookups that found nothing usable.
    std::uint64_t evictions = 0; ///< Entries dropped by the capacity bound.
    std::uint64_t corrupt = 0;   ///< Entries failing validation (counted
                                 ///< as misses and quarantined; a stale
                                 ///< format is a plain miss).
};

/** The in-memory bounded LRU tier; capacity 0 disables it. */
class MemoryResultCache
{
  public:
    explicit MemoryResultCache(std::size_t capacity);

    /**
     * The result stored under `key`, or null. Entries are shared and
     * immutable: a hit hands out the stored result, not a copy.
     */
    std::shared_ptr<const CompileResult> lookup(const ResultCacheKey &key);

    /** Store, evicting LRU at capacity; a present key is kept as is. */
    void store(const ResultCacheKey &key,
               std::shared_ptr<const CompileResult> result);

    ResultTierStats stats() const;

  private:
    const std::size_t capacity_;
    mutable std::mutex mutex_;
    LruMap<ResultCacheKey, std::shared_ptr<const CompileResult>,
           ResultCacheKeyHash>
        entries_;
    ResultTierStats stats_;
};

/**
 * The disk-backed persistent tier: one file per entry under a cache
 * directory, named by the key digest. Writes are atomic
 * (write-to-temp + rename), so concurrent writers and a reader racing
 * a writer only ever observe complete entries. Every entry carries a
 * magic tag, a format version, the full key, and a payload checksum.
 * An entry sound in all but its format version (written by a build
 * with another format) is a plain miss and is removed. An entry failing
 * any other check — truncation, garbage, a digest collision — is
 * treated as a miss, counted corrupt, and moved into a quarantine/
 * subdirectory for post-mortem, keeping the hot path silent and the
 * wrong-result probability at the checksum collision floor.
 */
class DiskResultCache
{
  public:
    /**
     * `directory` is created if missing; `capacity` bounds the entry
     * count (oldest-mtime eviction past it; 0 = unbounded).
     */
    DiskResultCache(std::string directory, std::size_t capacity);

    /** The entry stored under `key`, or nullopt (corrupt = miss). */
    std::optional<CompileResult> lookup(const ResultCacheKey &key);

    /** Atomic best-effort store; a present entry is kept as is. */
    void store(const ResultCacheKey &key, const CompileResult &result);

    ResultTierStats stats() const;

    /** Entry path for `key` (exposed for the corruption tests). */
    std::string entryPathFor(const ResultCacheKey &key) const;

    /**
     * Entry format version stamped into every file header. Bumped also
     * when the key changes meaning: version 3 entries are keyed by the
     * word-mixed Circuit::contentHash; version 4 stores the packed
     * 16-byte ops and their cost table. Older entries read as stale.
     */
    static constexpr std::uint32_t kFormatVersion = 4;

    /** 8-byte magic tag opening every entry file. */
    static const char kMagic[9];

  private:
    void quarantine(const std::string &path);
    void enforceCapacityLocked();

    const std::string directory_;
    const std::size_t capacity_;
    mutable std::mutex mutex_;
    ResultTierStats stats_;
};

/** Counters of the snapshot tier (see SnapshotCache). */
struct SnapshotTierStats
{
    std::uint64_t hits = 0;        ///< Probes finding >=1 resume candidate.
    std::uint64_t misses = 0;      ///< Probes finding none.
    std::uint64_t evictions = 0;   ///< Snapshots dropped by the bound.
    std::uint64_t resumes = 0;     ///< Compiles resumed from a snapshot.
    std::uint64_t fallbacks = 0;   ///< Candidate-backed cold compiles.
    std::uint64_t quarantines = 0; ///< Quarantine events.
    bool quarantined = false;      ///< Tier currently quarantined.
    std::size_t count = 0;         ///< Snapshots currently cached.
    std::size_t bytes = 0;         ///< Their approximate footprint.
};

/**
 * The delta-compile checkpoint tier: an LRU of ScheduleSnapshots keyed
 * by the content hash of the input PREFIX each covers (not the whole
 * circuit — that is the point) plus the config/seed coordinates of the
 * compile that captured it, so a snapshot can never resume a job it
 * was not produced under.
 *
 * After kQuarantineThreshold consecutive resume fallbacks the tier
 * quarantines itself: it is cleared, enabled() turns false,
 * and store() refuses to refill it. Thread-safe; enabled() reads one
 * atomic and takes no lock.
 */
class SnapshotCache
{
  public:
    explicit SnapshotCache(std::size_t capacity);

    /** Non-zero capacity and not quarantined. */
    bool
    enabled() const
    {
        return capacity_ > 0 && !quarantined_.load(std::memory_order_relaxed);
    }

    /**
     * Cached snapshots whose input prefix `circuit` shares
     * (hash-verified), ascending by prefix length, at most
     * kMaxResumeCandidates of the longest ones. Counts a hit or miss.
     */
    std::vector<std::shared_ptr<const ScheduleSnapshot>>
    probe(const ResultCacheKey &key, const Circuit &circuit);

    /**
     * Bank checkpoints captured by a compile under `key`'s config and
     * seed, evicting LRU past the capacity. A no-op once quarantined,
     * checked under the tier's lock so a concurrent quarantine is never
     * refilled.
     */
    void store(const ResultCacheKey &key,
               std::vector<ScheduleSnapshot> captured);

    /** A compile resumed: count it and reset the fallback streak. */
    void noteResume();

    /** A candidate-backed compile scheduled cold; maybe quarantine. */
    void noteFallback();

    SnapshotTierStats stats() const;

    /** Longest resume-candidate list offered to one compile. */
    static constexpr std::size_t kMaxResumeCandidates = 8;

    /** Consecutive resume fallbacks that quarantine the tier. */
    static constexpr int kQuarantineThreshold = 32;

  private:
    const std::size_t capacity_;
    mutable std::mutex mutex_;

    LruMap<ResultCacheKey, std::shared_ptr<const ScheduleSnapshot>,
           ResultCacheKeyHash>
        entries_;

    /**
     * Probe index: per (configDigest, seed) — a key with circuitHash
     * 0 — the cached prefix lengths with a refcount (several snapshots
     * of different circuits may share a length). Lets a probe
     * enumerate candidate lengths and hash only those prefixes of the
     * incoming circuit.
     */
    std::unordered_map<ResultCacheKey, std::map<std::size_t, int>,
                       ResultCacheKeyHash>
        prefixIndex_;

    SnapshotTierStats stats_; ///< `count` and `quarantined` filled on read.
    int fallbackStreak_ = 0;
    std::atomic<bool> quarantined_{false}; ///< Written under mutex_.
};

/**
 * Bit-exact binary serialization of a CompileResult (doubles round-trip
 * as raw bit patterns), the payload format of the disk tier. Exposed
 * for tests; the encoding is internal to this repo and versioned by
 * DiskResultCache::kFormatVersion.
 */
std::string serializeCompileResult(const CompileResult &result);

/**
 * Inverse of serializeCompileResult. nullopt on ANY malformation —
 * truncation, trailing bytes, out-of-range enum or operand — never an
 * exception and never a partially-filled result.
 */
std::optional<CompileResult>
deserializeCompileResult(const std::string &bytes);

} // namespace mussti

#endif // MUSSTI_CORE_RESULT_CACHE_H
