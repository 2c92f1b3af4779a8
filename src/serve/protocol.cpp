#include "serve/protocol.h"

#include <cmath>
#include <limits>
#include <sstream>

#include "common/json.h"
#include "common/logging.h"
#include "common/string_util.h"

namespace mussti {

namespace {

/** Strict full-string u64 parse (decimal or 0x-hex); fatal on garbage. */
std::uint64_t
parseU64(const std::string &text)
{
    const std::optional<std::uint64_t> value = parseU64Strict(text);
    MUSSTI_REQUIRE(value.has_value(),
                   "unparseable u64 on the serve wire: `" << text << "`");
    return *value;
}

std::string
hexU64(std::uint64_t value)
{
    std::ostringstream out;
    out << "0x" << std::hex << value;
    return out.str();
}

void
field(std::ostringstream &out, bool &first, const char *key)
{
    out << (first ? "" : ",") << '"' << key << "\":";
    first = false;
}

/** The JSON number at `p`, if it is an integer in T's range. */
template <typename T>
std::optional<T>
parseInteger(JsonReader &p)
{
    const double value = p.parseNumber();
    // Range-check the double itself: casting a NaN, an infinity or a
    // value past T's range is undefined behaviour. The bound is -min,
    // 2^(bits-1), which a double holds exactly (max it may not).
    constexpr double kLow = static_cast<double>(std::numeric_limits<T>::min());
    if (!std::isfinite(value) || value != std::trunc(value) ||
        value < kLow || value >= -kLow)
        return std::nullopt;
    return static_cast<T>(value);
}

/**
 * A request field's integer, or the request's first badNumber: the
 * frame still decodes, and the server refuses it as input.require.
 */
int
requestInteger(JsonReader &p, const std::string &key, ServeRequest &request)
{
    const std::optional<int> value = parseInteger<int>(p);
    if (!value && request.badNumber.empty())
        request.badNumber = "`" + key + "` is not an integer in int range";
    return value.value_or(0);
}

} // namespace

std::string
encodeRequest(const ServeRequest &request)
{
    std::ostringstream out;
    bool first = true;
    out << '{';
    field(out, first, "type");
    out << (request.type == ServeRequestType::Stats ? "\"stats\""
                                                    : "\"compile\"");
    field(out, first, "id");
    out << request.id;
    if (!request.client.empty()) {
        field(out, first, "client");
        out << '"' << jsonEscape(request.client) << '"';
    }
    if (request.type == ServeRequestType::Compile) {
        if (!request.qasm.empty()) {
            field(out, first, "qasm");
            out << '"' << jsonEscape(request.qasm) << '"';
            if (!request.name.empty()) {
                field(out, first, "name");
                out << '"' << jsonEscape(request.name) << '"';
            }
        } else {
            field(out, first, "family");
            out << '"' << jsonEscape(request.family) << '"';
            if (request.qubits.has_value()) {
                field(out, first, "qubits");
                out << *request.qubits;
            }
        }
        if (!request.device.empty()) {
            field(out, first, "device");
            out << '"' << jsonEscape(request.device) << '"';
        }
        field(out, first, "backend");
        out << '"' << jsonEscape(request.backend) << '"';
        if (request.hasSeed) {
            // String, not number: a u64 seed does not survive a JSON
            // double round-trip past 2^53.
            field(out, first, "seed");
            out << '"' << request.seed << '"';
        }
        if (request.deadlineMs > 0) {
            field(out, first, "deadline_ms");
            out << request.deadlineMs;
        }
    }
    out << '}';
    return out.str();
}

bool
decodeRequest(const std::string &text, ServeRequest &request)
{
    // A malformed frame is the PEER's bug: degrade to `false` (the
    // session answers with an InvalidInput response or drops), never
    // let the reader's fatal() escape into the session thread.
    ScopedFatalSilence quiet;
    try {
        ServeRequest decoded;
        JsonReader p(text);
        p.expect('{');
        if (!p.consumeIf('}')) {
            do {
                const std::string key = p.parseString();
                p.expect(':');
                if (key == "type") {
                    const std::string type = p.parseString();
                    if (type == "compile")
                        decoded.type = ServeRequestType::Compile;
                    else if (type == "stats")
                        decoded.type = ServeRequestType::Stats;
                    else
                        return false;
                } else if (key == "id") {
                    decoded.id = p.parseUnsigned();
                } else if (key == "client") {
                    decoded.client = p.parseString();
                } else if (key == "family") {
                    decoded.family = p.parseString();
                } else if (key == "qubits") {
                    decoded.qubits = requestInteger(p, key, decoded);
                } else if (key == "qasm") {
                    decoded.qasm = p.parseString();
                } else if (key == "name") {
                    decoded.name = p.parseString();
                } else if (key == "device") {
                    decoded.device = p.parseString();
                } else if (key == "backend") {
                    decoded.backend = p.parseString();
                } else if (key == "seed") {
                    decoded.seed = parseU64(p.parseString());
                    decoded.hasSeed = true;
                } else if (key == "deadline_ms") {
                    decoded.deadlineMs = requestInteger(p, key, decoded);
                } else {
                    p.skipValue(); // Forward compatibility.
                }
            } while (p.consumeIf(','));
            p.expect('}');
        }
        if (!p.atEnd())
            return false;
        request = std::move(decoded);
        return true;
    } catch (...) {
        return false;
    }
}

std::string
encodeResponse(const ServeResponse &response)
{
    std::ostringstream out;
    // Round-trip precision: the fidelity/time metrics must survive the
    // wire bit-for-bit or the determinism contract quietly erodes.
    out.precision(std::numeric_limits<double>::max_digits10);
    bool first = true;
    out << '{';
    field(out, first, "id");
    out << response.id;
    field(out, first, "ok");
    out << (response.ok ? "true" : "false");
    if (response.ok) {
        field(out, first, "attempts");
        out << response.attempts;
        field(out, first, "fingerprint");
        out << '"' << hexU64(response.fingerprint) << '"';
        field(out, first, "exec_time_us");
        out << response.executionTimeUs;
        field(out, first, "log10_fidelity");
        out << response.log10Fidelity;
        field(out, first, "shuttles");
        out << response.shuttles;
        field(out, first, "swap_insertions");
        out << response.swapInsertions;
    } else {
        field(out, first, "error");
        out << "{\"category\":\"" << jsonEscape(response.error.category)
            << "\",\"code\":\"" << jsonEscape(response.error.code)
            << "\",\"message\":\"" << jsonEscape(response.error.message)
            << "\"}";
        field(out, first, "attempts");
        out << response.attempts;
    }
    if (!response.stats.empty()) {
        field(out, first, "stats");
        out << '{';
        bool stats_first = true;
        for (const auto &[key, value] : response.stats) {
            field(out, stats_first, key.c_str());
            out << value;
        }
        out << '}';
    }
    out << '}';
    return out.str();
}

bool
decodeResponse(const std::string &text, ServeResponse &response)
{
    ScopedFatalSilence quiet;
    try {
        ServeResponse decoded;
        JsonReader p(text);
        p.expect('{');
        if (!p.consumeIf('}')) {
            do {
                const std::string key = p.parseString();
                p.expect(':');
                if (key == "id") {
                    decoded.id = p.parseUnsigned();
                } else if (key == "ok") {
                    decoded.ok = p.parseBool();
                } else if (key == "attempts") {
                    decoded.attempts = parseInteger<int>(p).value();
                } else if (key == "fingerprint") {
                    decoded.fingerprint = parseU64(p.parseString());
                } else if (key == "exec_time_us") {
                    decoded.executionTimeUs = p.parseNumber();
                } else if (key == "log10_fidelity") {
                    decoded.log10Fidelity = p.parseNumber();
                } else if (key == "shuttles") {
                    decoded.shuttles = parseInteger<int>(p).value();
                } else if (key == "swap_insertions") {
                    decoded.swapInsertions =
                        parseInteger<int>(p).value();
                } else if (key == "error") {
                    p.expect('{');
                    if (!p.consumeIf('}')) {
                        do {
                            const std::string err_key = p.parseString();
                            p.expect(':');
                            if (err_key == "category")
                                decoded.error.category = p.parseString();
                            else if (err_key == "code")
                                decoded.error.code = p.parseString();
                            else if (err_key == "message")
                                decoded.error.message = p.parseString();
                            else
                                p.skipValue();
                        } while (p.consumeIf(','));
                        p.expect('}');
                    }
                } else if (key == "stats") {
                    p.expect('{');
                    if (!p.consumeIf('}')) {
                        do {
                            std::string stat = p.parseString();
                            p.expect(':');
                            decoded.stats.emplace_back(
                                std::move(stat),
                                parseInteger<long long>(p).value());
                        } while (p.consumeIf(','));
                        p.expect('}');
                    }
                } else {
                    p.skipValue();
                }
            } while (p.consumeIf(','));
            p.expect('}');
        }
        if (!p.atEnd())
            return false;
        response = std::move(decoded);
        return true;
    } catch (...) {
        return false;
    }
}

} // namespace mussti
