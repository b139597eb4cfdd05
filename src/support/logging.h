/**
 * @file
 * Diagnostic helpers in the gem5 spirit: panic() for internal invariant
 * violations (a bug in this library), fatal() for unrecoverable user errors
 * (bad program, bad configuration), warn() for status output.
 */

#ifndef NPP_SUPPORT_LOGGING_H
#define NPP_SUPPORT_LOGGING_H

#include <string>

#include "support/strings.h"

namespace npp {

/** Print a panic message (library bug) and abort. */
[[noreturn]] void panicImpl(const char *file, int line, const std::string &msg);

/** Print a fatal message (user error) and exit(1). */
[[noreturn]] void fatalImpl(const char *file, int line, const std::string &msg);

/** Print a warning to stderr. */
void warnImpl(const std::string &msg);

} // namespace npp

#define NPP_PANIC(...) \
    ::npp::panicImpl(__FILE__, __LINE__, ::npp::fmt(__VA_ARGS__))

#define NPP_FATAL(...) \
    ::npp::fatalImpl(__FILE__, __LINE__, ::npp::fmt(__VA_ARGS__))

#define NPP_WARN(...) ::npp::warnImpl(::npp::fmt(__VA_ARGS__))

/** Internal invariant check; failure is a library bug, not a user error. */
#define NPP_ASSERT(cond, ...)                                              \
    do {                                                                   \
        if (!(cond)) {                                                     \
            ::npp::panicImpl(__FILE__, __LINE__,                           \
                             std::string("assertion failed: " #cond " ") + \
                                 ::npp::fmt(__VA_ARGS__));                 \
        }                                                                  \
    } while (0)

#endif // NPP_SUPPORT_LOGGING_H
