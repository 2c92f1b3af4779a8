/**
 * @file
 * Platform-stable hashing for cache keys and config digests.
 *
 * The compile-service result cache keys jobs by (circuit hash, backend
 * config digest, seed). Config digests and fingerprints are built with
 * the FNV-1a accumulator below; the circuit hash folds whole 64-bit
 * words through splitMix64 (Circuit::prefixHash). Both are stable
 * across platforms and runs (unlike std::hash).
 */
#ifndef MUSSTI_COMMON_HASH_H
#define MUSSTI_COMMON_HASH_H

#include <cstdint>
#include <cstring>
#include <string>

namespace mussti {

/**
 * SplitMix64: add the golden-ratio increment, then two multiply and
 * xor-shift rounds. A bijection on 64-bit words in which every output
 * bit depends on every input bit, so unlike FNV's `(h ^ w) * p` a
 * difference in the top bit of a word does not stay in the top bit.
 */
constexpr std::uint64_t
splitMix64(std::uint64_t x)
{
    x += 0x9E3779B97F4A7C15ull;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
    return x ^ (x >> 31);
}

/** Incremental 64-bit FNV-1a hash accumulator. */
class Fnv1a
{
  public:
    Fnv1a() = default;

    /** Fold `size` raw bytes into the hash. */
    void
    updateBytes(const void *data, std::size_t size)
    {
        const auto *bytes = static_cast<const unsigned char *>(data);
        for (std::size_t i = 0; i < size; ++i) {
            hash_ ^= bytes[i];
            hash_ *= 0x100000001B3ull;
        }
    }

    void
    update(std::uint64_t value)
    {
        updateBytes(&value, sizeof(value));
    }

    void
    update(int value)
    {
        update(static_cast<std::uint64_t>(
            static_cast<std::int64_t>(value)));
    }

    void
    update(bool value)
    {
        update(static_cast<std::uint64_t>(value));
    }

    /** Hash a double by bit pattern (distinguishes -0.0 from +0.0). */
    void
    update(double value)
    {
        std::uint64_t bits = 0;
        std::memcpy(&bits, &value, sizeof(bits));
        update(bits);
    }

    /** Length-prefixed string hash (no concatenation ambiguity). */
    void
    update(const std::string &value)
    {
        update(static_cast<std::uint64_t>(value.size()));
        updateBytes(value.data(), value.size());
    }

    std::uint64_t digest() const { return hash_; }

  private:
    std::uint64_t hash_ = 0xCBF29CE484222325ull;
};

} // namespace mussti

#endif // MUSSTI_COMMON_HASH_H
