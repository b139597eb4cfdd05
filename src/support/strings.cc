#include "support/strings.h"

#include <cstdio>
#include <iomanip>

namespace npp {

std::string
repeat(const std::string &s, int n)
{
    std::string out;
    out.reserve(s.size() * std::max(n, 0));
    for (int i = 0; i < n; i++)
        out += s;
    return out;
}

std::string
padLeft(const std::string &s, int width)
{
    if ((int)s.size() >= width)
        return s;
    return std::string(width - s.size(), ' ') + s;
}

std::string
padRight(const std::string &s, int width)
{
    if ((int)s.size() >= width)
        return s;
    return s + std::string(width - s.size(), ' ');
}

std::string
fixed(double v, int precision)
{
    std::ostringstream os;
    os << std::fixed << std::setprecision(precision) << v;
    return os.str();
}

std::string
exactNum(double v)
{
    std::ostringstream os;
    os.precision(17);
    os << v;
    return os.str();
}

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size() + 2);
    for (char c : s) {
        switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        case '\r': out += "\\r"; break;
        case '\t': out += "\\t"; break;
        default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

} // namespace npp
