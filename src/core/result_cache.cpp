#include "core/result_cache.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <system_error>
#include <unistd.h>
#include <vector>

#include "common/hash.h"
#include "common/logging.h"

namespace fs = std::filesystem;

namespace mussti {

std::uint64_t
ResultCacheKey::digest() const
{
    Fnv1a hash;
    hash.update(circuitHash);
    hash.update(configDigest);
    hash.update(seed);
    hash.update(hasSeed);
    return hash.digest();
}

// ---- binary serialization ---------------------------------------------
//
// Little-endian fixed-width fields; doubles as raw bit patterns so the
// round trip is bit-exact (the golden-fingerprint tests depend on it).
// The format is private to the disk tier and versioned by
// DiskResultCache::kFormatVersion — any change bumps the version and
// old entries degrade to misses.

namespace {

void
putU64(std::string &out, std::uint64_t value)
{
    for (int i = 0; i < 8; ++i)
        out += static_cast<char>((value >> (8 * i)) & 0xFF);
}

void
putI32(std::string &out, std::int32_t value)
{
    const auto bits = static_cast<std::uint32_t>(value);
    for (int i = 0; i < 4; ++i)
        out += static_cast<char>((bits >> (8 * i)) & 0xFF);
}

void
putU16(std::string &out, std::uint16_t value)
{
    out += static_cast<char>(value & 0xFF);
    out += static_cast<char>(value >> 8);
}

void
putU8(std::string &out, std::uint8_t value)
{
    out += static_cast<char>(value);
}

void
putDouble(std::string &out, double value)
{
    std::uint64_t bits = 0;
    std::memcpy(&bits, &value, sizeof(bits));
    putU64(out, bits);
}

void
putString(std::string &out, const std::string &value)
{
    putU64(out, value.size());
    out += value;
}

void
putIntMatrix(std::string &out, const std::vector<std::vector<int>> &rows)
{
    putU64(out, rows.size());
    for (const auto &row : rows) {
        putU64(out, row.size());
        for (const int v : row)
            putI32(out, v);
    }
}

/**
 * Bounds-checked little-endian reader over a byte string. Every get*
 * returns false on overrun instead of throwing, so a truncated payload
 * unwinds to "corrupt entry", never UB.
 */
class ByteReader
{
  public:
    explicit ByteReader(const std::string &bytes) : bytes_(bytes) {}

    bool
    getU64(std::uint64_t &value)
    {
        if (pos_ + 8 > bytes_.size())
            return false;
        value = 0;
        for (int i = 0; i < 8; ++i)
            value |= static_cast<std::uint64_t>(
                         static_cast<unsigned char>(bytes_[pos_ + i]))
                     << (8 * i);
        pos_ += 8;
        return true;
    }

    bool
    getI32(std::int32_t &value)
    {
        if (pos_ + 4 > bytes_.size())
            return false;
        std::uint32_t bits = 0;
        for (int i = 0; i < 4; ++i)
            bits |= static_cast<std::uint32_t>(
                        static_cast<unsigned char>(bytes_[pos_ + i]))
                    << (8 * i);
        pos_ += 4;
        value = static_cast<std::int32_t>(bits);
        return true;
    }

    bool
    getU16(std::uint16_t &value)
    {
        if (pos_ + 2 > bytes_.size())
            return false;
        value = static_cast<std::uint16_t>(
            static_cast<unsigned char>(bytes_[pos_]) |
            static_cast<unsigned char>(bytes_[pos_ + 1]) << 8);
        pos_ += 2;
        return true;
    }

    bool
    getI16(std::int16_t &value)
    {
        std::uint16_t bits = 0;
        if (!getU16(bits))
            return false;
        value = static_cast<std::int16_t>(bits);
        return true;
    }

    bool
    getU8(std::uint8_t &value)
    {
        if (pos_ >= bytes_.size())
            return false;
        value = static_cast<unsigned char>(bytes_[pos_++]);
        return true;
    }

    bool
    getDouble(double &value)
    {
        std::uint64_t bits = 0;
        if (!getU64(bits))
            return false;
        std::memcpy(&value, &bits, sizeof(value));
        return true;
    }

    bool
    getString(std::string &value)
    {
        std::uint64_t size = 0;
        if (!getU64(size) || pos_ + size > bytes_.size())
            return false;
        value.assign(bytes_, pos_, static_cast<std::size_t>(size));
        pos_ += static_cast<std::size_t>(size);
        return true;
    }

    /**
     * Element-count sanity bound: a corrupt length field must not turn
     * into a multi-gigabyte allocation before the per-element reads
     * notice the truncation. Every element below is >= 1 byte, so any
     * honest count is <= the remaining byte budget.
     */
    bool
    plausibleCount(std::uint64_t count) const
    {
        return count <= bytes_.size() - pos_;
    }

    bool
    getIntMatrix(std::vector<std::vector<int>> &rows)
    {
        std::uint64_t num_rows = 0;
        if (!getU64(num_rows) || !plausibleCount(num_rows))
            return false;
        rows.clear();
        rows.reserve(static_cast<std::size_t>(num_rows));
        for (std::uint64_t r = 0; r < num_rows; ++r) {
            std::uint64_t len = 0;
            if (!getU64(len) || !plausibleCount(len))
                return false;
            std::vector<int> row;
            row.reserve(static_cast<std::size_t>(len));
            for (std::uint64_t i = 0; i < len; ++i) {
                std::int32_t v = 0;
                if (!getI32(v))
                    return false;
                row.push_back(v);
            }
            rows.push_back(std::move(row));
        }
        return true;
    }

    bool atEnd() const { return pos_ == bytes_.size(); }

  private:
    const std::string &bytes_;
    std::size_t pos_ = 0;
};

constexpr std::uint8_t kMaxGateKind =
    static_cast<std::uint8_t>(GateKind::Barrier);

} // namespace

std::string
serializeCompileResult(const CompileResult &result)
{
    std::string out;
    out.reserve(256 + result.schedule.ops.size() * sizeof(PackedOp));

    // lowered circuit
    putI32(out, result.lowered.numQubits());
    putString(out, result.lowered.name());
    putU64(out, result.lowered.size());
    for (const Gate &gate : result.lowered.gates()) {
        putU8(out, static_cast<std::uint8_t>(gate.kind));
        putI32(out, gate.q0);
        putI32(out, gate.q1);
        putDouble(out, gate.param);
    }

    // schedule
    putIntMatrix(out, result.schedule.initialChains);
    putU64(out, result.schedule.ops.costs().size());
    for (const OpCost &cost : result.schedule.ops.costs()) {
        putDouble(out, cost.durationUs);
        putDouble(out, cost.nbar);
    }
    putU64(out, result.schedule.ops.size());
    for (const PackedOp &op : result.schedule.ops.packed()) {
        putI32(out, op.circuitGate);
        putU16(out, static_cast<std::uint16_t>(op.q0));
        putU16(out, static_cast<std::uint16_t>(op.q1));
        putU16(out, static_cast<std::uint16_t>(op.zoneFrom));
        putU16(out, static_cast<std::uint16_t>(op.zoneTo));
        putU16(out, op.cost);
        putU8(out, op.kind);
        putU8(out, op.flags);
    }
    putI32(out, result.schedule.shuttleCount);
    putI32(out, result.schedule.ionSwapCount);
    putI32(out, result.schedule.insertedSwapGates);

    // metrics
    putI32(out, result.metrics.shuttleCount);
    putI32(out, result.metrics.ionSwapCount);
    putI32(out, result.metrics.gate1qCount);
    putI32(out, result.metrics.gate2qCount);
    putI32(out, result.metrics.fiberGateCount);
    putI32(out, result.metrics.insertedSwapGates);
    putDouble(out, result.metrics.executionTimeUs);
    putDouble(out, result.metrics.lnFidelity);
    putDouble(out, result.metrics.lnFromShuttleOps);
    putDouble(out, result.metrics.lnFromGateIntrinsic);
    putDouble(out, result.metrics.lnFromHeatBackground);
    putDouble(out, result.metrics.lnFromLifetime);

    // top-level scalars and traces
    putDouble(out, result.compileTimeSec);
    putI32(out, result.swapInsertions);
    putI32(out, result.evictions);
    putIntMatrix(out, result.finalChains);
    putU64(out, result.passTrace.size());
    for (const PassTiming &timing : result.passTrace) {
        putString(out, timing.pass);
        putDouble(out, timing.seconds);
    }
    putI32(out, result.routingSteps);
    putU64(out, result.windowVisits);
    putU64(out, result.schedulerHeapAllocs);
    putU8(out, result.deltaResumed ? 1 : 0);
    return out;
}

std::optional<CompileResult>
deserializeCompileResult(const std::string &bytes)
{
    ByteReader in(bytes);

    std::int32_t num_qubits = 0;
    std::string name;
    std::uint64_t num_gates = 0;
    if (!in.getI32(num_qubits) || num_qubits <= 0 || !in.getString(name) ||
        !in.getU64(num_gates) || !in.plausibleCount(num_gates))
        return std::nullopt;

    Circuit lowered(num_qubits, std::move(name));
    for (std::uint64_t i = 0; i < num_gates; ++i) {
        std::uint8_t kind = 0;
        Gate gate;
        std::int32_t q0 = 0, q1 = 0;
        if (!in.getU8(kind) || kind > kMaxGateKind || !in.getI32(q0) ||
            !in.getI32(q1) || !in.getDouble(gate.param))
            return std::nullopt;
        gate.kind = static_cast<GateKind>(kind);
        gate.q0 = q0;
        gate.q1 = q1;
        // Validate operands here (Circuit::add would fatal(), which is
        // the wrong failure mode for corrupt cache bytes).
        if (gate.q0 < -1 || gate.q0 >= num_qubits || gate.q1 < -1 ||
            gate.q1 >= num_qubits)
            return std::nullopt;
        if (gateArity(gate.kind) >= 1 && gate.q0 < 0)
            return std::nullopt;
        if (gateArity(gate.kind) == 2 &&
            (gate.q1 < 0 || gate.q0 == gate.q1))
            return std::nullopt;
        lowered.add(gate);
    }

    CompileResult result(std::move(lowered));

    if (!in.getIntMatrix(result.schedule.initialChains))
        return std::nullopt;
    std::uint64_t num_costs = 0;
    if (!in.getU64(num_costs) || !in.plausibleCount(num_costs))
        return std::nullopt;
    std::vector<OpCost> costs(static_cast<std::size_t>(num_costs));
    for (OpCost &cost : costs) {
        if (!in.getDouble(cost.durationUs) || !in.getDouble(cost.nbar))
            return std::nullopt;
    }
    std::uint64_t num_ops = 0;
    if (!in.getU64(num_ops) || !in.plausibleCount(num_ops))
        return std::nullopt;
    std::vector<PackedOp> packed(static_cast<std::size_t>(num_ops));
    for (PackedOp &op : packed) {
        if (!in.getI32(op.circuitGate) || !in.getI16(op.q0) ||
            !in.getI16(op.q1) || !in.getI16(op.zoneFrom) ||
            !in.getI16(op.zoneTo) || !in.getU16(op.cost) ||
            !in.getU8(op.kind) || !in.getU8(op.flags))
            return std::nullopt;
    }
    std::optional<OpStream> ops =
        OpStream::fromPacked(std::move(packed), std::move(costs));
    if (!ops)
        return std::nullopt;
    result.schedule.ops = std::move(*ops);
    if (!in.getI32(result.schedule.shuttleCount) ||
        !in.getI32(result.schedule.ionSwapCount) ||
        !in.getI32(result.schedule.insertedSwapGates))
        return std::nullopt;

    if (!in.getI32(result.metrics.shuttleCount) ||
        !in.getI32(result.metrics.ionSwapCount) ||
        !in.getI32(result.metrics.gate1qCount) ||
        !in.getI32(result.metrics.gate2qCount) ||
        !in.getI32(result.metrics.fiberGateCount) ||
        !in.getI32(result.metrics.insertedSwapGates) ||
        !in.getDouble(result.metrics.executionTimeUs) ||
        !in.getDouble(result.metrics.lnFidelity) ||
        !in.getDouble(result.metrics.lnFromShuttleOps) ||
        !in.getDouble(result.metrics.lnFromGateIntrinsic) ||
        !in.getDouble(result.metrics.lnFromHeatBackground) ||
        !in.getDouble(result.metrics.lnFromLifetime))
        return std::nullopt;

    std::uint64_t num_timings = 0;
    std::uint8_t delta_resumed = 0;
    std::uint64_t heap_allocs = 0;
    if (!in.getDouble(result.compileTimeSec) ||
        !in.getI32(result.swapInsertions) ||
        !in.getI32(result.evictions) ||
        !in.getIntMatrix(result.finalChains) || !in.getU64(num_timings) ||
        !in.plausibleCount(num_timings))
        return std::nullopt;
    result.passTrace.reserve(static_cast<std::size_t>(num_timings));
    for (std::uint64_t i = 0; i < num_timings; ++i) {
        PassTiming timing;
        if (!in.getString(timing.pass) || !in.getDouble(timing.seconds))
            return std::nullopt;
        result.passTrace.push_back(std::move(timing));
    }
    if (!in.getI32(result.routingSteps) ||
        !in.getU64(result.windowVisits) || !in.getU64(heap_allocs) ||
        !in.getU8(delta_resumed) || delta_resumed > 1 || !in.atEnd())
        return std::nullopt;
    result.schedulerHeapAllocs = heap_allocs;
    result.deltaResumed = delta_resumed != 0;
    return result;
}

// ---- memory tier ------------------------------------------------------

MemoryResultCache::MemoryResultCache(std::size_t capacity)
    : capacity_(capacity)
{}

std::shared_ptr<const CompileResult>
MemoryResultCache::lookup(const ResultCacheKey &key)
{
    if (capacity_ == 0)
        return nullptr;
    std::lock_guard<std::mutex> lock(mutex_);
    const auto *hit = entries_.find(key);
    if (hit == nullptr) {
        ++stats_.misses;
        return nullptr;
    }
    ++stats_.hits;
    return *hit;
}

void
MemoryResultCache::store(const ResultCacheKey &key,
                         std::shared_ptr<const CompileResult> result)
{
    if (capacity_ == 0)
        return;
    std::lock_guard<std::mutex> lock(mutex_);
    if (entries_.contains(key))
        return; // A concurrent identical job already stored it.
    while (entries_.size() >= capacity_) {
        entries_.popOldest();
        ++stats_.evictions;
    }
    entries_.insert(key, std::move(result));
}

ResultTierStats
MemoryResultCache::stats() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return stats_;
}

// ---- disk tier --------------------------------------------------------

const char DiskResultCache::kMagic[9] = "MSTCACHE";

namespace {

/** 16-hex-digit rendering of a key digest. */
std::string
hexDigest(std::uint64_t digest)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(digest));
    return buf;
}

/** The key fields an entry header carries, for exact-match checking. */
std::string
encodeHeader(const ResultCacheKey &key, const std::string &payload)
{
    std::string header;
    header.append(DiskResultCache::kMagic, 8);
    const std::uint32_t version = DiskResultCache::kFormatVersion;
    for (int i = 0; i < 4; ++i)
        header += static_cast<char>((version >> (8 * i)) & 0xFF);
    putU64(header, key.circuitHash);
    putU64(header, key.configDigest);
    putU64(header, key.seed);
    putU8(header, key.hasSeed ? 1 : 0);
    putU64(header, payload.size());
    Fnv1a checksum;
    checksum.updateBytes(payload.data(), payload.size());
    putU64(header, checksum.digest());
    return header;
}

/** What validateEntry() made of an entry file. */
enum class EntryVerdict { Valid, Stale, Corrupt };

/**
 * Validate a whole entry file against `key`, moving its payload into
 * `payload` when Valid. An entry sound in every field but its format
 * version is Stale: a build with another format wrote it. Every other
 * failure mode — short file, wrong magic, key mismatch (digest
 * collision), bad length, bad checksum — is Corrupt.
 */
EntryVerdict
validateEntry(const std::string &bytes, const ResultCacheKey &key,
              std::string &payload)
{
    static constexpr std::size_t kHeaderSize = 8 + 4 + 8 * 3 + 1 + 8 + 8;
    if (bytes.size() < kHeaderSize)
        return EntryVerdict::Corrupt;
    if (std::memcmp(bytes.data(), DiskResultCache::kMagic, 8) != 0)
        return EntryVerdict::Corrupt;

    ByteReader in(bytes);
    {   // Skip the magic through the reader to keep offsets aligned.
        std::uint64_t magic = 0;
        if (!in.getU64(magic))
            return EntryVerdict::Corrupt;
    }
    std::uint32_t version = 0;
    for (int i = 0; i < 4; ++i) {
        std::uint8_t byte = 0;
        if (!in.getU8(byte))
            return EntryVerdict::Corrupt;
        version |= static_cast<std::uint32_t>(byte) << (8 * i);
    }

    ResultCacheKey stored;
    std::uint8_t has_seed = 0;
    if (!in.getU64(stored.circuitHash) || !in.getU64(stored.configDigest) ||
        !in.getU64(stored.seed) || !in.getU8(has_seed) || has_seed > 1)
        return EntryVerdict::Corrupt;
    stored.hasSeed = has_seed != 0;
    if (!(stored == key))
        return EntryVerdict::Corrupt;

    std::uint64_t payload_size = 0;
    std::uint64_t expected_checksum = 0;
    if (!in.getU64(payload_size) || !in.getU64(expected_checksum))
        return EntryVerdict::Corrupt;
    if (bytes.size() - kHeaderSize != payload_size)
        return EntryVerdict::Corrupt;

    Fnv1a checksum;
    checksum.updateBytes(bytes.data() + kHeaderSize,
                         bytes.size() - kHeaderSize);
    if (checksum.digest() != expected_checksum)
        return EntryVerdict::Corrupt;
    if (version != DiskResultCache::kFormatVersion)
        return EntryVerdict::Stale;
    payload = bytes.substr(kHeaderSize);
    return EntryVerdict::Valid;
}

} // namespace

DiskResultCache::DiskResultCache(std::string directory,
                                 std::size_t capacity)
    : directory_(std::move(directory)), capacity_(capacity)
{
    std::error_code ec;
    fs::create_directories(directory_, ec);
    if (ec)
        warn("disk result cache: cannot create `" + directory_ + "`: " +
             ec.message() + "; the tier will miss on every lookup");
}

std::string
DiskResultCache::entryPathFor(const ResultCacheKey &key) const
{
    return (fs::path(directory_) / (hexDigest(key.digest()) + ".mstc"))
        .string();
}

std::optional<CompileResult>
DiskResultCache::lookup(const ResultCacheKey &key)
{
    const std::string path = entryPathFor(key);
    std::string bytes;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        std::ifstream in(path, std::ios::binary);
        if (!in.good()) {
            ++stats_.misses;
            return std::nullopt;
        }
        std::ostringstream buffer;
        buffer << in.rdbuf();
        bytes = std::move(buffer).str();
        if (!in.good() && !in.eof()) {
            ++stats_.misses;
            return std::nullopt; // Read error, not evidence of corruption.
        }
    }

    std::string payload;
    const EntryVerdict verdict = validateEntry(bytes, key, payload);
    std::optional<CompileResult> result;
    if (verdict == EntryVerdict::Valid)
        result = deserializeCompileResult(payload);

    std::lock_guard<std::mutex> lock(mutex_);
    if (verdict == EntryVerdict::Stale) {
        // Another format's entry is no evidence of corruption: drop it
        // so this build's store refills the slot.
        ++stats_.misses;
        std::error_code ec;
        fs::remove(path, ec);
        return std::nullopt;
    }
    if (!result.has_value()) {
        ++stats_.corrupt;
        ++stats_.misses;
        quarantine(path);
        return std::nullopt;
    }
    ++stats_.hits;
    return result;
}

void
DiskResultCache::store(const ResultCacheKey &key,
                       const CompileResult &result)
{
    const std::string payload = serializeCompileResult(result);
    const std::string header = encodeHeader(key, payload);
    const std::string path = entryPathFor(key);

    std::lock_guard<std::mutex> lock(mutex_);
    std::error_code ec;
    if (fs::exists(path, ec))
        return; // A concurrent identical job already stored it.

    // Atomic publish: a reader (in this process or another sharing the
    // directory) only ever opens complete entries.
    const std::string tmp = path + ".tmp." +
        std::to_string(static_cast<unsigned long>(::getpid()));
    {
        std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
        if (!out.good())
            return; // Best-effort: an unwritable cache is a cache miss.
        out << header << payload;
        out.flush();
        if (!out.good()) {
            out.close();
            fs::remove(tmp, ec);
            return;
        }
    }
    fs::rename(tmp, path, ec);
    if (ec) {
        fs::remove(tmp, ec);
        return;
    }
    enforceCapacityLocked();
}

void
DiskResultCache::enforceCapacityLocked()
{
    if (capacity_ == 0)
        return;
    std::error_code ec;
    std::vector<std::pair<fs::file_time_type, fs::path>> entries;
    for (const auto &entry : fs::directory_iterator(directory_, ec)) {
        if (!entry.is_regular_file(ec) ||
            entry.path().extension() != ".mstc")
            continue;
        entries.emplace_back(entry.last_write_time(ec), entry.path());
    }
    if (entries.size() <= capacity_)
        return;
    // Oldest-mtime eviction: recency on disk is write time, which is
    // coarser than the memory tier's LRU but needs no sidecar state.
    std::sort(entries.begin(), entries.end());
    const std::size_t excess = entries.size() - capacity_;
    for (std::size_t i = 0; i < excess; ++i) {
        fs::remove(entries[i].second, ec);
        if (!ec)
            ++stats_.evictions;
    }
}

void
DiskResultCache::quarantine(const std::string &path)
{
    std::error_code ec;
    const fs::path quarantine_dir = fs::path(directory_) / "quarantine";
    fs::create_directories(quarantine_dir, ec);
    if (ec) {
        fs::remove(path, ec); // Still get the bad entry off the hot path.
        return;
    }
    fs::rename(path, quarantine_dir / fs::path(path).filename(), ec);
    if (ec)
        fs::remove(path, ec);
}

ResultTierStats
DiskResultCache::stats() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return stats_;
}

// ---- snapshot tier ----------------------------------------------------

SnapshotCache::SnapshotCache(std::size_t capacity) : capacity_(capacity) {}

std::vector<std::shared_ptr<const ScheduleSnapshot>>
SnapshotCache::probe(const ResultCacheKey &key, const Circuit &circuit)
{
    std::vector<std::shared_ptr<const ScheduleSnapshot>> found;
    ResultCacheKey skey = key;
    skey.circuitHash = 0; // the probe-index key, then each snapshot's
    std::lock_guard<std::mutex> lock(mutex_);

    const auto index_it = prefixIndex_.find(skey);
    if (index_it != prefixIndex_.end()) {
        // Walk the cached prefix lengths longest-first — the longer
        // the verified prefix, the less suffix the scheduler replays —
        // and stop once enough candidates are in hand.
        const auto &lengths = index_it->second;
        for (auto it = lengths.rbegin();
             it != lengths.rend() && found.size() < kMaxResumeCandidates;
             ++it) {
            const std::size_t prefix_gates = it->first;
            if (prefix_gates == 0 || prefix_gates > circuit.size())
                continue;
            skey.circuitHash = circuit.prefixHash(prefix_gates);
            if (const auto *snapshot = entries_.find(skey))
                found.push_back(*snapshot);
        }
    }
    ++(found.empty() ? stats_.misses : stats_.hits);

    // The scheduler wants candidates ascending by covered prefix.
    std::reverse(found.begin(), found.end());
    return found;
}

void
SnapshotCache::store(const ResultCacheKey &key,
                     std::vector<ScheduleSnapshot> captured)
{
    if (captured.empty())
        return;
    ResultCacheKey probe_key = key;
    probe_key.circuitHash = 0;
    std::lock_guard<std::mutex> lock(mutex_);
    if (quarantined_.load(std::memory_order_relaxed))
        return;
    for (ScheduleSnapshot &snap : captured) {
        if (snap.inputPrefixGates == 0)
            continue;
        ResultCacheKey skey = probe_key;
        skey.circuitHash = snap.prefixHash;
        // Deterministic compiles recapture identical checkpoints; keep
        // the incumbent, just refresh its recency.
        if (entries_.find(skey) != nullptr)
            continue;

        stats_.bytes += snap.approxBytes();
        prefixIndex_[probe_key][snap.inputPrefixGates] += 1;
        entries_.insert(skey, std::make_shared<const ScheduleSnapshot>(
                                  std::move(snap)));

        while (entries_.size() > capacity_) {
            auto [old_key, old] = entries_.popOldest();
            stats_.bytes -= std::min(stats_.bytes, old->approxBytes());
            old_key.circuitHash = 0;
            const auto index_it = prefixIndex_.find(old_key);
            if (index_it != prefixIndex_.end()) {
                auto &lengths = index_it->second;
                const auto len_it = lengths.find(old->inputPrefixGates);
                if (len_it != lengths.end() && --len_it->second <= 0)
                    lengths.erase(len_it);
                if (lengths.empty())
                    prefixIndex_.erase(index_it);
            }
            ++stats_.evictions;
        }
    }
}

void
SnapshotCache::noteResume()
{
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.resumes;
    fallbackStreak_ = 0;
}

void
SnapshotCache::noteFallback()
{
    std::unique_lock<std::mutex> lock(mutex_);
    ++stats_.fallbacks;
    if (++fallbackStreak_ < kQuarantineThreshold ||
        quarantined_.load(std::memory_order_relaxed))
        return;
    quarantined_.store(true, std::memory_order_relaxed);
    ++stats_.quarantines;
    entries_.clear();
    prefixIndex_.clear();
    stats_.bytes = 0;
    const int streak = fallbackStreak_;
    lock.unlock();
    warn("delta snapshot tier quarantined after " +
         std::to_string(streak) +
         " consecutive resume fallbacks; compiling cold from here on");
}

SnapshotTierStats
SnapshotCache::stats() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    SnapshotTierStats stats = stats_;
    stats.count = entries_.size();
    stats.quarantined = quarantined_.load(std::memory_order_relaxed);
    return stats;
}

} // namespace mussti
