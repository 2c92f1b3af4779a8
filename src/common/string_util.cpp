#include "common/string_util.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "common/logging.h"

namespace mussti {

std::optional<double>
parseDoubleStrict(const std::string &text)
{
    if (text.empty())
        return std::nullopt;
    try {
        std::size_t consumed = 0;
        const double value = std::stod(text, &consumed);
        if (consumed != text.size() || !std::isfinite(value))
            return std::nullopt;
        return value;
    } catch (const std::invalid_argument &) {
        return std::nullopt;
    } catch (const std::out_of_range &) {
        return std::nullopt;
    }
}

std::optional<int>
parseIntStrict(const std::string &text)
{
    if (text.empty())
        return std::nullopt;
    try {
        std::size_t consumed = 0;
        const int value = std::stoi(text, &consumed);
        if (consumed != text.size())
            return std::nullopt;
        return value;
    } catch (const std::invalid_argument &) {
        return std::nullopt;
    } catch (const std::out_of_range &) {
        return std::nullopt;
    }
}

std::optional<std::uint64_t>
parseU64Strict(const std::string &text)
{
    const bool hex = text.size() > 2 && text[0] == '0' &&
                     (text[1] == 'x' || text[1] == 'X');
    const std::size_t start = hex ? 2 : 0;
    if (text.size() == start)
        return std::nullopt;
    for (std::size_t i = start; i < text.size(); ++i) {
        const auto c = static_cast<unsigned char>(text[i]);
        if (hex ? !std::isxdigit(c) : !std::isdigit(c))
            return std::nullopt;
    }
    try {
        return std::stoull(text.substr(start), nullptr, hex ? 16 : 10);
    } catch (const std::out_of_range &) {
        return std::nullopt;
    }
}

int
parseIntArg(const std::string &text, const std::string &what)
{
    const std::optional<int> parsed = parseIntStrict(trim(text));
    MUSSTI_REQUIRE(parsed.has_value(),
                   "unparsable " << what << " `" << text
                   << "` (want a base-10 integer)");
    return *parsed;
}

int
parseIntArg(const std::string &text, const std::string &what, int lo, int hi)
{
    const int value = parseIntArg(text, what);
    MUSSTI_REQUIRE(value >= lo, what << " must be >= " << lo << ", got "
                                      << value);
    MUSSTI_REQUIRE(value <= hi, what << " must be <= " << hi << ", got "
                                      << value);
    return value;
}

int
parseEnvThreadCount(const char *env_var, const char *text,
                    int max_threads)
{
    const std::string var = env_var != nullptr ? env_var : "thread count";
    if (text == nullptr || *text == '\0')
        return 0;

    const std::optional<int> value = parseIntStrict(text);
    if (!value.has_value()) {
        warn("ignoring unparsable " + var + " `" + text +
             "` (want a positive integer); using hardware concurrency");
        return 0;
    }
    if (*value <= 0) {
        warn("ignoring non-positive " + var + " `" + text +
             "`; using hardware concurrency");
        return 0;
    }
    if (*value > max_threads) {
        warn("clamping " + var + " " + std::to_string(*value) + " to " +
             std::to_string(max_threads));
        return max_threads;
    }
    return *value;
}

std::string
trim(const std::string &text)
{
    std::size_t begin = 0;
    std::size_t end = text.size();
    while (begin < end &&
           std::isspace(static_cast<unsigned char>(text[begin]))) {
        ++begin;
    }
    while (end > begin &&
           std::isspace(static_cast<unsigned char>(text[end - 1]))) {
        --end;
    }
    return text.substr(begin, end - begin);
}

std::vector<std::string>
split(const std::string &text, char delim)
{
    std::vector<std::string> fields;
    std::size_t start = 0;
    for (std::size_t i = 0; i <= text.size(); ++i) {
        if (i == text.size() || text[i] == delim) {
            fields.push_back(text.substr(start, i - start));
            start = i + 1;
        }
    }
    return fields;
}

bool
startsWith(const std::string &text, const std::string &prefix)
{
    return text.size() >= prefix.size() &&
           text.compare(0, prefix.size(), prefix) == 0;
}

std::string
toLower(const std::string &text)
{
    std::string out = text;
    for (auto &ch : out)
        ch = static_cast<char>(std::tolower(static_cast<unsigned char>(ch)));
    return out;
}

std::string
formatSci(double value, int digits)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*e", digits, value);
    return buf;
}

std::string
formatCompact(double value)
{
    if (std::isfinite(value) && value == std::floor(value) &&
        std::fabs(value) < 1e15) {
        char buf[64];
        std::snprintf(buf, sizeof(buf), "%.0f", value);
        return buf;
    }
    if (std::fabs(value) >= 1e-3 && std::fabs(value) < 1e6) {
        char buf[64];
        std::snprintf(buf, sizeof(buf), "%.4g", value);
        return buf;
    }
    return formatSci(value);
}

} // namespace mussti
