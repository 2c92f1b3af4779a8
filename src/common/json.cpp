#include "common/json.h"

#include <cctype>
#include <cstdio>
#include <cstring>
#include <limits>
#include <optional>

#include "common/logging.h"
#include "common/string_util.h"

namespace mussti {

std::string
jsonEscape(const std::string &text)
{
    std::string out;
    out.reserve(text.size() + 2);
    for (char c : text) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

namespace {

/** Value of one hex digit, or -1 for any other character. */
int
hexDigit(char c)
{
    if (c >= '0' && c <= '9')
        return c - '0';
    if (c >= 'a' && c <= 'f')
        return c - 'a' + 10;
    if (c >= 'A' && c <= 'F')
        return c - 'A' + 10;
    return -1;
}

/** Append a BMP code point as UTF-8 (1-3 bytes). */
void
appendUtf8(std::string &out, int code)
{
    if (code < 0x80) {
        out += static_cast<char>(code);
    } else if (code < 0x800) {
        out += static_cast<char>(0xC0 | (code >> 6));
        out += static_cast<char>(0x80 | (code & 0x3F));
    } else {
        out += static_cast<char>(0xE0 | (code >> 12));
        out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
        out += static_cast<char>(0x80 | (code & 0x3F));
    }
}

} // namespace

char
JsonReader::peek()
{
    skipWs();
    MUSSTI_REQUIRE(pos_ < text_.size(),
                   "JSON truncated at offset " << pos_);
    return text_[pos_];
}

void
JsonReader::expect(char c)
{
    MUSSTI_REQUIRE(peek() == c, "JSON expected `" << c
                   << "` at offset " << pos_ << ", found `"
                   << text_[pos_] << "`");
    ++pos_;
}

bool
JsonReader::consumeIf(char c)
{
    if (pos_ < text_.size() && peek() == c) {
        ++pos_;
        return true;
    }
    return false;
}

std::string
JsonReader::parseString()
{
    expect('"');
    std::string out;
    while (true) {
        MUSSTI_REQUIRE(pos_ < text_.size(), "unterminated string");
        const char c = text_[pos_++];
        if (c == '"')
            return out;
        if (c == '\\') {
            MUSSTI_REQUIRE(pos_ < text_.size(), "unterminated escape");
            const char esc = text_[pos_++];
            switch (esc) {
              case '"': out += '"'; break;
              case '\\': out += '\\'; break;
              case '/': out += '/'; break;
              case 'n': out += '\n'; break;
              case 't': out += '\t'; break;
              case 'u': {
                MUSSTI_REQUIRE(pos_ + 4 <= text_.size(),
                               "truncated \\u escape");
                const std::string hex = text_.substr(pos_, 4);
                // Explicit digit walk: stoi's prefix semantics would
                // accept whitespace/sign forms like `\u 041`/`\u+041`.
                int code = 0;
                for (const char h : hex) {
                    const int digit = hexDigit(h);
                    MUSSTI_REQUIRE(digit >= 0,
                                   "malformed \\u escape `" << hex
                                   << "` (want 4 hex digits)");
                    code = code * 16 + digit;
                }
                MUSSTI_REQUIRE(code < 0xD800 || code > 0xDFFF,
                               "unsupported surrogate \\u escape `"
                               << hex << "` in JSON");
                pos_ += 4;
                appendUtf8(out, code);
                break;
              }
              default:
                fatal("unsupported JSON escape");
            }
        } else {
            out += c;
        }
    }
}

double
JsonReader::parseNumber()
{
    skipWs();
    const std::size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '-' || text_[pos_] == '+' ||
            text_[pos_] == '.' || text_[pos_] == 'e' ||
            text_[pos_] == 'E'))
        ++pos_;
    MUSSTI_REQUIRE(pos_ > start, "JSON expected a number at offset "
                   << start);
    const std::string token = text_.substr(start, pos_ - start);
    // The character-class scan accepts sequences stod does not
    // (".e", "-", "e5"); keep the promised fatal() contract.
    const std::optional<double> value = parseDoubleStrict(token);
    MUSSTI_REQUIRE(value.has_value(),
                   "JSON malformed number `" << token
                   << "` at offset " << start);
    return *value;
}

std::uint64_t
JsonReader::parseUnsigned()
{
    skipWs();
    const std::size_t start = pos_;
    constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
    std::uint64_t value = 0;
    while (pos_ < text_.size() &&
           std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        const auto digit = static_cast<std::uint64_t>(text_[pos_] - '0');
        MUSSTI_REQUIRE(value <= (kMax - digit) / 10,
                       "JSON integer overflows u64 at offset " << start);
        value = value * 10 + digit;
        ++pos_;
    }
    MUSSTI_REQUIRE(pos_ > start, "JSON expected an unsigned integer at "
                   "offset " << start);
    MUSSTI_REQUIRE(text_[start] != '0' || pos_ == start + 1,
                   "JSON integer with a leading zero at offset " << start);
    const char next = pos_ < text_.size() ? text_[pos_] : ' ';
    MUSSTI_REQUIRE(next != '.' && next != 'e' && next != 'E',
                   "JSON expected an integer, got a fraction or exponent "
                   "at offset " << start);
    return value;
}

bool
JsonReader::parseBool()
{
    (void)peek();
    if (text_.compare(pos_, 4, "true") == 0) {
        pos_ += 4;
        return true;
    }
    if (text_.compare(pos_, 5, "false") == 0) {
        pos_ += 5;
        return false;
    }
    fatal("JSON expected a boolean at offset " + std::to_string(pos_));
    return false; // unreachable
}

void
JsonReader::skipValue()
{
    const char c = peek();
    if (c == 't' || c == 'f' || c == 'n') {
        // Bare literals an unknown key may carry.
        for (const char *lit : {"true", "false", "null"}) {
            if (text_.compare(pos_, std::strlen(lit), lit) == 0) {
                pos_ += std::strlen(lit);
                return;
            }
        }
        fatal("JSON malformed literal at offset " +
              std::to_string(pos_));
    } else if (c == '"') {
        (void)parseString();
    } else if (c == '{') {
        ++pos_;
        if (!consumeIf('}')) {
            do {
                (void)parseString();
                expect(':');
                skipValue();
            } while (consumeIf(','));
            expect('}');
        }
    } else if (c == '[') {
        ++pos_;
        if (!consumeIf(']')) {
            do {
                skipValue();
            } while (consumeIf(','));
            expect(']');
        }
    } else {
        (void)parseNumber();
    }
}

bool
JsonReader::atEnd()
{
    skipWs();
    return pos_ >= text_.size();
}

void
JsonReader::skipWs()
{
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_])))
        ++pos_;
}

} // namespace mussti
