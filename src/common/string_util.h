/**
 * @file
 * Small string helpers shared by the QASM parser and the bench harness.
 */
#ifndef MUSSTI_COMMON_STRING_UTIL_H
#define MUSSTI_COMMON_STRING_UTIL_H

#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <vector>

namespace mussti {

/** Strip leading and trailing whitespace. */
std::string trim(const std::string &text);

/** Split on a delimiter character; empty fields are preserved. */
std::vector<std::string> split(const std::string &text, char delim);

/** True if text begins with the given prefix. */
bool startsWith(const std::string &text, const std::string &prefix);

/**
 * Strict full-string base-10 double parse: the whole string must be a
 * finite number (no trailing garbage, no inf/nan, no empty input);
 * nullopt otherwise. The one numeric-validation used by the QASM
 * parser, the bench-JSON reader, and the env-var parsing, so hardening
 * fixes land everywhere at once.
 */
std::optional<double> parseDoubleStrict(const std::string &text);

/** Strict full-string int parse; nullopt on garbage or overflow. */
std::optional<int> parseIntStrict(const std::string &text);

/**
 * Strict full-string unsigned 64-bit parse, decimal or 0x-hex: digits
 * only after the optional prefix (no sign, no whitespace); nullopt on
 * garbage or overflow.
 */
std::optional<std::uint64_t> parseU64Strict(const std::string &text);

/**
 * Strict int parse for command-line tokens: fatal() with a diagnostic
 * naming the offending token and its role (`what`) instead of atoi's
 * silent 0 — the CLI hardening convention (e.g. a positional qubit
 * count of "banana" must not quietly run with 0 qubits).
 */
int parseIntArg(const std::string &text, const std::string &what);

/** parseIntArg(), plus an InvalidInput error naming `what` unless
    lo <= value <= hi. */
int parseIntArg(const std::string &text, const std::string &what, int lo,
                int hi = std::numeric_limits<int>::max());

/**
 * Parse a worker-thread-count override from an environment variable.
 * Returns 0 — "auto", i.e. hardware concurrency — for null/empty
 * input, and the parsed value for a well-formed positive integer,
 * clamped to `max_threads` with a warning that names `env_var` (so a
 * process reading several knobs says which one was bad). Garbage or
 * non-positive values (which std::atoi would silently turn into 0 or
 * accept) are rejected with a logged warning and fall back to auto.
 */
int parseEnvThreadCount(const char *env_var, const char *text,
                        int max_threads = 512);

/** Lower-case an ASCII string. */
std::string toLower(const std::string &text);

/** printf-style number formatting used by the paper-table printers. */
std::string formatSci(double value, int digits = 2);

/** Format a double compactly: integers as integers, else fixed/sci. */
std::string formatCompact(double value);

} // namespace mussti

#endif // MUSSTI_COMMON_STRING_UTIL_H
