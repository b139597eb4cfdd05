/**
 * @file
 * Minimal JSON support for the mapping service's request protocol: a
 * tolerant recursive-descent parser producing a small value tree, plus
 * the string-escaping helper used when rendering responses. This is a
 * deliberate subset — objects, arrays, strings (with the standard
 * escapes; \uXXXX decodes the ASCII range and replaces the rest),
 * numbers, booleans, null — because requests are one line of
 * machine-generated JSON, not arbitrary documents. Responses are
 * rendered by hand (the repo's existing JSON exports all do the same).
 */

#ifndef NPP_SERVER_JSON_H
#define NPP_SERVER_JSON_H

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace npp {

/** One parsed JSON value. Members/elements are stored in input order. */
struct JsonValue
{
    enum class Kind { Null, Bool, Number, String, Object, Array };

    Kind kind = Kind::Null;
    bool boolean = false;
    double number = 0.0;
    std::string string;
    std::vector<std::pair<std::string, JsonValue>> members; //!< Object
    std::vector<JsonValue> elements;                        //!< Array

    bool isNull() const { return kind == Kind::Null; }
    bool isBool() const { return kind == Kind::Bool; }
    bool isNumber() const { return kind == Kind::Number; }
    bool isString() const { return kind == Kind::String; }
    bool isObject() const { return kind == Kind::Object; }
    bool isArray() const { return kind == Kind::Array; }

    /** Object member lookup (first match); null when absent or when
     *  this value is not an object. */
    const JsonValue *get(const std::string &key) const;

    /** @name Typed accessors with fallbacks (never throw)
     *  @{
     */
    std::string asString(const std::string &fallback = {}) const;
    double asNumber(double fallback = 0.0) const;
    int64_t asInt(int64_t fallback = 0) const;
    bool asBool(bool fallback = false) const;
    /** @} */
};

/**
 * Parse one JSON document. Returns std::nullopt on malformed input and,
 * when `error` is non-null, a one-line description with the byte offset
 * of the failure. Trailing non-whitespace after the document is an
 * error (a second request on the same line is a protocol violation).
 */
std::optional<JsonValue> parseJson(const std::string &text,
                                   std::string *error = nullptr);

} // namespace npp

#endif // NPP_SERVER_JSON_H
