#include "server/json.h"

#include <cctype>
#include <cmath>
#include <cstdlib>
#include <cstring>

#include "support/strings.h"

namespace npp {

namespace {

/** Recursive-descent parser over a bounded byte range. Depth is capped
 *  so a hostile request of 100k open brackets cannot overflow the
 *  stack. */
struct Parser
{
    const char *p;
    size_t n;
    size_t off = 0;
    std::string error{};
    static constexpr int kMaxDepth = 64;

    bool
    fail(const std::string &msg)
    {
        if (error.empty())
            error = fmt("{} at byte {}", msg, off);
        return false;
    }

    void
    skipWs()
    {
        while (off < n && std::isspace(static_cast<unsigned char>(p[off])))
            off++;
    }

    bool
    consume(char c)
    {
        skipWs();
        if (off < n && p[off] == c) {
            off++;
            return true;
        }
        return false;
    }

    bool
    literal(const char *word)
    {
        const size_t len = std::strlen(word);
        if (n - off >= len && std::memcmp(p + off, word, len) == 0) {
            off += len;
            return true;
        }
        return false;
    }

    bool
    parseString(std::string *out)
    {
        skipWs();
        if (off >= n || p[off] != '"')
            return fail("expected string");
        off++;
        out->clear();
        while (off < n) {
            const char c = p[off];
            if (c == '"') {
                off++;
                return true;
            }
            if (c == '\\') {
                off++;
                if (off >= n)
                    return fail("unterminated escape");
                const char e = p[off++];
                switch (e) {
                case '"': *out += '"'; break;
                case '\\': *out += '\\'; break;
                case '/': *out += '/'; break;
                case 'b': *out += '\b'; break;
                case 'f': *out += '\f'; break;
                case 'n': *out += '\n'; break;
                case 'r': *out += '\r'; break;
                case 't': *out += '\t'; break;
                case 'u': {
                    if (n - off < 4)
                        return fail("short \\u escape");
                    unsigned code = 0;
                    for (int i = 0; i < 4; i++) {
                        const char h = p[off + i];
                        code <<= 4;
                        if (h >= '0' && h <= '9')
                            code |= static_cast<unsigned>(h - '0');
                        else if (h >= 'a' && h <= 'f')
                            code |= static_cast<unsigned>(h - 'a' + 10);
                        else if (h >= 'A' && h <= 'F')
                            code |= static_cast<unsigned>(h - 'A' + 10);
                        else
                            return fail("bad \\u escape");
                    }
                    off += 4;
                    // ASCII decodes; anything wider degrades to '?'
                    // (program names and option keys are ASCII).
                    *out += code < 0x80 ? static_cast<char>(code) : '?';
                    break;
                }
                default: return fail("unknown escape");
                }
                continue;
            }
            if (static_cast<unsigned char>(c) < 0x20)
                return fail("control character in string");
            *out += c;
            off++;
        }
        return fail("unterminated string");
    }

    bool
    parseValue(JsonValue *out, int depth)
    {
        if (depth > kMaxDepth)
            return fail("nesting too deep");
        skipWs();
        if (off >= n)
            return fail("unexpected end of input");
        const char c = p[off];
        if (c == '{') {
            off++;
            out->kind = JsonValue::Kind::Object;
            skipWs();
            if (consume('}'))
                return true;
            while (true) {
                std::string key;
                if (!parseString(&key))
                    return false;
                if (!consume(':'))
                    return fail("expected ':'");
                JsonValue val;
                if (!parseValue(&val, depth + 1))
                    return false;
                out->members.emplace_back(std::move(key), std::move(val));
                if (consume(','))
                    continue;
                if (consume('}'))
                    return true;
                return fail("expected ',' or '}'");
            }
        }
        if (c == '[') {
            off++;
            out->kind = JsonValue::Kind::Array;
            skipWs();
            if (consume(']'))
                return true;
            while (true) {
                JsonValue val;
                if (!parseValue(&val, depth + 1))
                    return false;
                out->elements.push_back(std::move(val));
                if (consume(','))
                    continue;
                if (consume(']'))
                    return true;
                return fail("expected ',' or ']'");
            }
        }
        if (c == '"') {
            out->kind = JsonValue::Kind::String;
            return parseString(&out->string);
        }
        if (literal("true")) {
            out->kind = JsonValue::Kind::Bool;
            out->boolean = true;
            return true;
        }
        if (literal("false")) {
            out->kind = JsonValue::Kind::Bool;
            out->boolean = false;
            return true;
        }
        if (literal("null")) {
            out->kind = JsonValue::Kind::Null;
            return true;
        }
        // Number.
        char *end = nullptr;
        const double v = std::strtod(p + off, &end);
        if (end == p + off || end > p + n)
            return fail("unexpected token");
        if (!std::isfinite(v))
            return fail("non-finite number");
        out->kind = JsonValue::Kind::Number;
        out->number = v;
        off = static_cast<size_t>(end - p);
        return true;
    }
};

} // namespace

const JsonValue *
JsonValue::get(const std::string &key) const
{
    if (kind != Kind::Object)
        return nullptr;
    for (const auto &[k, v] : members)
        if (k == key)
            return &v;
    return nullptr;
}

std::string
JsonValue::asString(const std::string &fallback) const
{
    return kind == Kind::String ? string : fallback;
}

double
JsonValue::asNumber(double fallback) const
{
    return kind == Kind::Number ? number : fallback;
}

int64_t
JsonValue::asInt(int64_t fallback) const
{
    if (kind != Kind::Number)
        return fallback;
    return static_cast<int64_t>(number);
}

bool
JsonValue::asBool(bool fallback) const
{
    return kind == Kind::Bool ? boolean : fallback;
}

std::optional<JsonValue>
parseJson(const std::string &text, std::string *error)
{
    // strtod in Parser::parseValue needs a NUL-terminated buffer;
    // std::string::data() provides one.
    Parser parser{text.data(), text.size()};
    JsonValue root;
    if (!parser.parseValue(&root, 0)) {
        if (error)
            *error = parser.error;
        return std::nullopt;
    }
    parser.skipWs();
    if (parser.off != text.size()) {
        if (error)
            *error = fmt("trailing data at byte {}", parser.off);
        return std::nullopt;
    }
    return root;
}

} // namespace npp
