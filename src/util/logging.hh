/**
 * @file
 * Status-message and error helpers, modeled after gem5's logging
 * conventions: panic() for internal invariant violations, fatal() for
 * unrecoverable user/configuration errors, warn()/inform() for
 * non-fatal status messages.
 */

#ifndef FREEPART_UTIL_LOGGING_HH
#define FREEPART_UTIL_LOGGING_HH

#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>

namespace freepart::util {

/** Verbosity levels for runtime status messages. */
enum class LogLevel { Silent = 0, Warn = 1, Inform = 2, Debug = 3 };

/** Process-wide log verbosity; defaults to Warn so tests stay quiet. */
LogLevel logLevel();

/** Set the process-wide log verbosity. */
void setLogLevel(LogLevel level);

/** Set the log verbosity for one scope; the old level comes back at
 *  scope exit. */
class ScopedLogLevel
{
  public:
    explicit ScopedLogLevel(LogLevel level) : saved(logLevel())
    {
        setLogLevel(level);
    }
    ~ScopedLogLevel() { setLogLevel(saved); }

    ScopedLogLevel(const ScopedLogLevel &) = delete;
    ScopedLogLevel &operator=(const ScopedLogLevel &) = delete;

  private:
    LogLevel saved;
};

namespace detail {

std::string vformat(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

void emit(LogLevel level, const char *prefix, const std::string &msg);

} // namespace detail

/**
 * Raised by panic(): an internal invariant was violated (a FreePart
 * bug, never a user error).
 */
class PanicError : public std::logic_error
{
  public:
    explicit PanicError(const std::string &msg) : std::logic_error(msg) {}
};

/**
 * Raised by fatal(): the run cannot continue because of a user-level
 * error (bad configuration, invalid arguments).
 */
class FatalError : public std::runtime_error
{
  public:
    explicit FatalError(const std::string &msg) : std::runtime_error(msg) {}
};

/** Report an internal invariant violation and throw PanicError. The
 *  report prints at Warn, so LogLevel::Silent quiets it; the throw
 *  happens regardless. */
template <typename... Args>
[[noreturn]] void
panic(const char *fmt, Args... args)
{
    std::string msg = detail::vformat(fmt, args...);
    detail::emit(LogLevel::Warn, "panic", msg);
    throw PanicError(msg);
}

/** Report an unrecoverable user-level error and throw FatalError. */
template <typename... Args>
[[noreturn]] void
fatal(const char *fmt, Args... args)
{
    std::string msg = detail::vformat(fmt, args...);
    detail::emit(LogLevel::Warn, "fatal", msg);
    throw FatalError(msg);
}

/** Emit a warning: something may not behave as the user expects. */
template <typename... Args>
void
warn(const char *fmt, Args... args)
{
    detail::emit(LogLevel::Warn, "warn", detail::vformat(fmt, args...));
}

/** Emit an informational status message. */
template <typename... Args>
void
inform(const char *fmt, Args... args)
{
    detail::emit(LogLevel::Inform, "info", detail::vformat(fmt, args...));
}

/** Emit a debug-level trace message. */
template <typename... Args>
void
debugLog(const char *fmt, Args... args)
{
    detail::emit(LogLevel::Debug, "debug", detail::vformat(fmt, args...));
}

} // namespace freepart::util

#endif // FREEPART_UTIL_LOGGING_HH
