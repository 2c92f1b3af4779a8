/**
 * @file
 * Minimal self-contained JSON primitives shared by every emitter and
 * reader in the repo: the bench-results schema (common/bench_json.h),
 * the lint report renderer, and the compile-server wire protocol
 * (src/serve/). No external dependency; the reader is a small
 * recursive-descent parser that fatal()s (not panics) on malformed
 * input — a bad file or frame is a caller error, not a compiler bug.
 */
#ifndef MUSSTI_COMMON_JSON_H
#define MUSSTI_COMMON_JSON_H

#include <cstdint>
#include <string>

namespace mussti {

/**
 * JSON-escape a string for embedding in a double-quoted literal
 * (quotes, backslashes, and control characters; the fields this repo
 * emits are plain ASCII). Shared by the bench writer, the lint report
 * renderer, and the serve framing so escaping never drifts between
 * emitters.
 */
std::string jsonEscape(const std::string &text);

/**
 * Recursive-descent JSON reader, just enough to round-trip the
 * mussti-bench-v1 schema and the compile-server protocol without
 * external dependencies. Methods fatal() with an offset-bearing
 * diagnostic on malformed input. The referenced text must outlive the
 * reader.
 */
class JsonReader
{
  public:
    explicit JsonReader(const std::string &text) : text_(text) {}

    /** Next non-whitespace character without consuming it. */
    char peek();

    /** Consume exactly `c` (after whitespace) or fatal(). */
    void expect(char c);

    /** Consume `c` if it is next; false otherwise. */
    bool consumeIf(char c);

    /** Parse a double-quoted string with escape handling. */
    std::string parseString();

    /** Parse a strict base-10 number (fatal on stod-rejected forms). */
    double parseNumber();

    /**
     * Parse a non-negative integer exactly as a u64, for values a double
     * would round past 2^53. Fatal on a sign, fraction, exponent,
     * leading zero, or a value above UINT64_MAX.
     */
    std::uint64_t parseUnsigned();

    /** Parse a bare `true`/`false` literal. */
    bool parseBool();

    /** Skip any balanced value (for unknown keys). */
    void skipValue();

    /** True once only trailing whitespace remains. */
    bool atEnd();

  private:
    const std::string &text_;
    std::size_t pos_ = 0;

    void skipWs();
};

} // namespace mussti

#endif // MUSSTI_COMMON_JSON_H
