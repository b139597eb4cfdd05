/**
 * @file
 * Small string formatting utilities. GCC 12's libstdc++ lacks std::format,
 * so fmt() provides a positional "{}" replacement formatter that is good
 * enough for diagnostics and report printing.
 */

#ifndef NPP_SUPPORT_STRINGS_H
#define NPP_SUPPORT_STRINGS_H

#include <sstream>
#include <string>
#include <vector>

namespace npp {

namespace detail {

inline void
appendOne(std::ostringstream &os, const std::string &v)
{
    os << v;
}

inline void
appendOne(std::ostringstream &os, const char *v)
{
    os << v;
}

inline void
appendOne(std::ostringstream &os, bool v)
{
    os << (v ? "true" : "false");
}

template <typename T>
void
appendOne(std::ostringstream &os, const T &v)
{
    os << v;
}

inline void
fmtRec(std::ostringstream &os, const char *p)
{
    os << p;
}

template <typename T, typename... Rest>
void
fmtRec(std::ostringstream &os, const char *p, const T &v, Rest &&...rest)
{
    while (*p) {
        if (p[0] == '{' && p[1] == '}') {
            appendOne(os, v);
            fmtRec(os, p + 2, std::forward<Rest>(rest)...);
            return;
        }
        os << *p++;
    }
    // More arguments than placeholders: append space-separated.
    os << ' ';
    appendOne(os, v);
    fmtRec(os, p, std::forward<Rest>(rest)...);
}

} // namespace detail

/** Format a message by substituting "{}" placeholders in order. */
template <typename... Args>
std::string
fmt(const char *pattern, Args &&...args)
{
    std::ostringstream os;
    detail::fmtRec(os, pattern, std::forward<Args>(args)...);
    return os.str();
}

inline std::string
fmt()
{
    return {};
}

inline std::string
fmt(const std::string &s)
{
    return s;
}

/** Join elements with a separator using operator<<. */
template <typename Seq>
std::string
join(const Seq &seq, const std::string &sep)
{
    std::ostringstream os;
    bool first = true;
    for (const auto &e : seq) {
        if (!first)
            os << sep;
        os << e;
        first = false;
    }
    return os.str();
}

/** Repeat a string n times. */
std::string repeat(const std::string &s, int n);

/** Left-pad a string to the given width with spaces. */
std::string padLeft(const std::string &s, int width);

/** Right-pad a string to the given width with spaces. */
std::string padRight(const std::string &s, int width);

/** Format a double with fixed precision. */
std::string fixed(double v, int precision);

/** `v` with 17 significant digits, enough to read back the same double
 *  (JSON exports). */
std::string exactNum(double v);

/** Escape a string for embedding inside a JSON string literal: quote,
 *  backslash, \n, \r and \t get their short escapes, other control
 *  characters become \u00XX. */
std::string jsonEscape(const std::string &s);

} // namespace npp

#endif // NPP_SUPPORT_STRINGS_H
