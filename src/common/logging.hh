/**
 * @file
 * Error and status reporting in the gem5 tradition.
 *
 * panic()  - an internal invariant was violated: a bug in this code base.
 *            Prints and aborts (core-dumpable).
 * fatal()  - the simulation cannot continue because of a user error (bad
 *            configuration, malformed program).  Prints and exits cleanly.
 * warn()   - something is modelled approximately; the run continues.
 * inform() - a status message with no negative connotation.
 *
 * All four accept printf-style formatting.  A panic/fatal message always
 * carries the source location of the call site.
 */

#ifndef WO_COMMON_LOGGING_HH
#define WO_COMMON_LOGGING_HH

#include <charconv>
#include <cstdarg>
#include <string>

namespace wo {

/** Verbosity gate for inform(); warnings and errors always print. */
enum class LogLevel { quiet, normal, verbose };

/** Set the global verbosity used by inform()/verbose(). */
void setLogLevel(LogLevel level);

/** Current global verbosity. */
LogLevel logLevel();

/** Render a printf-style format into a std::string. */
std::string vstrprintf(const char *fmt, std::va_list ap);

/** Render a printf-style format into a std::string. */
std::string strprintf(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/**
 * Append integer @p v in decimal, spelled as printf's %lld / %llu
 * would, without a format parse or a temporary string.
 */
template <typename Int>
void
appendDecimal(std::string &out, Int v)
{
    char buf[24];
    const auto res = std::to_chars(buf, buf + sizeof buf, v);
    out.append(buf, res.ptr);
}

/** Internal: print a diagnostic with a severity banner and location. */
[[noreturn]] void panicImpl(const char *file, int line, const char *fmt, ...)
    __attribute__((format(printf, 3, 4)));

/** Internal: print a diagnostic with a severity banner and location. */
[[noreturn]] void fatalImpl(const char *file, int line, const char *fmt, ...)
    __attribute__((format(printf, 3, 4)));

/** Print a warning; the run continues. */
void warn(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

/** Print a status message (suppressed when the log level is quiet). */
void inform(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

/** Print a status message only at verbose log level. */
void verbose(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

} // namespace wo

/** Report an internal bug and abort. */
#define wo_panic(...) ::wo::panicImpl(__FILE__, __LINE__, __VA_ARGS__)

/** Report an unrecoverable user error and exit(1). */
#define wo_fatal(...) ::wo::fatalImpl(__FILE__, __LINE__, __VA_ARGS__)

/** Panic unless a condition holds; the message should state the invariant. */
#define wo_assert(cond, ...)                                                 \
    do {                                                                     \
        if (!(cond))                                                         \
            ::wo::panicImpl(__FILE__, __LINE__, __VA_ARGS__);                \
    } while (0)

#endif // WO_COMMON_LOGGING_HH
