/**
 * @file
 * Wire protocol of the compile server: the JSON payloads carried inside
 * serve/framing.h frames, and their encode/decode functions.
 *
 * One request frame -> exactly one response frame, matched by the
 * client-chosen `id` — responses may arrive OUT OF ORDER (the server
 * streams each result the moment its job resolves), so the id is the
 * only correlation. Two request types:
 *
 *   compile  — one circuit (benchmark family + qubits, or inline QASM),
 *              a device spec, a backend name, optional seed and
 *              relative deadline. The response carries the outcome:
 *              headline metrics plus the schedule FINGERPRINT
 *              (core/pipeline.h resultFingerprint) on success, or the
 *              structured MusstiError taxonomy on failure. The
 *              fingerprint is the determinism contract: a client can
 *              assert server-compiled == locally-compiled bit-for-bit
 *              without shipping the schedule across the wire.
 *   stats    — point-in-time service/cache/admission counters.
 *
 * Numeric hygiene: u64 values (seed, fingerprint) are wire-encoded as
 * strings (decimal / "0x" hex) because JSON numbers are doubles and lose
 * bits past 2^53. The `id` stays a bare JSON number, but its digits are
 * parsed exactly as an integer (a sign, fraction, exponent or value
 * above UINT64_MAX is a bad frame). Decoders treat any malformed payload
 * as a recoverable error (decode functions return false), never a crash
 * — a hostile or buggy peer cannot take the server down.
 */
#ifndef MUSSTI_SERVE_PROTOCOL_H
#define MUSSTI_SERVE_PROTOCOL_H

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace mussti {

/** What the client asks for. */
enum class ServeRequestType { Compile, Stats };

/** One request frame, client -> server. */
struct ServeRequest
{
    ServeRequestType type = ServeRequestType::Compile;

    /** Client-chosen correlation id, echoed verbatim in the response. */
    std::uint64_t id = 0;

    /**
     * Admission identity: requests sharing a client string share one
     * fair-admission queue (and its in-flight budget). Empty is legal —
     * such requests pool under the anonymous client.
     */
    std::string client;

    // ---- circuit (compile requests; family XOR qasm) -----------------
    std::string family; ///< Benchmark family (workloads.h), with `qubits`.
    std::optional<int> qubits; ///< Absent: 32. Present: must be >= 1.
    std::string qasm;   ///< Inline OpenQASM text; wins over family.
    std::string name;   ///< Circuit name for QASM submissions.

    // ---- compilation target ------------------------------------------
    std::string device;  ///< DeviceRegistry spec; empty = paper device.
    std::string backend = "mussti"; ///< Backend name (backend_factory.h).

    bool hasSeed = false;
    std::uint64_t seed = 0;

    /** Relative deadline in ms, anchored when the server decodes the
        frame; <= 0 means none. */
    long long deadlineMs = 0;

    /**
     * Set by decodeRequest when `qubits` or `deadline_ms` is not an
     * integer in int range (a non-finite, fractional or huge number):
     * the frame decodes, and the server answers input.require.
     */
    std::string badNumber;
};

/** Structured failure payload (mirrors common/error.h MusstiError). */
struct ServeError
{
    std::string category; ///< errorCategoryName() string.
    std::string code;     ///< Stable machine-readable code.
    std::string message;
};

/** One response frame, server -> client. */
struct ServeResponse
{
    std::uint64_t id = 0; ///< Echo of the request id.
    bool ok = false;

    // ---- success arm -------------------------------------------------
    int attempts = 1;
    std::uint64_t fingerprint = 0; ///< resultFingerprint(result).
    double executionTimeUs = 0.0;
    double log10Fidelity = 0.0;
    int shuttles = 0;
    int swapInsertions = 0;

    // ---- failure arm -------------------------------------------------
    ServeError error;

    /** Stats responses: counter name -> value, in server order. */
    std::vector<std::pair<std::string, long long>> stats;
};

std::string encodeRequest(const ServeRequest &request);
std::string encodeResponse(const ServeResponse &response);

/** False (and untouched diagnostics aside) on any malformed payload. */
bool decodeRequest(const std::string &text, ServeRequest &request);
bool decodeResponse(const std::string &text, ServeResponse &response);

} // namespace mussti

#endif // MUSSTI_SERVE_PROTOCOL_H
