#include "util/logging.hh"

#include <cstdarg>
#include <vector>

namespace freepart::util {

namespace {

LogLevel g_level = LogLevel::Warn;

} // namespace

LogLevel
logLevel()
{
    return g_level;
}

void
setLogLevel(LogLevel level)
{
    g_level = level;
}

namespace detail {

std::string
vformat(const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    va_list ap_copy;
    va_copy(ap_copy, ap);
    int needed = std::vsnprintf(nullptr, 0, fmt, ap);
    va_end(ap);
    if (needed < 0) {
        va_end(ap_copy);
        return std::string(fmt);
    }
    std::vector<char> buf(static_cast<size_t>(needed) + 1);
    std::vsnprintf(buf.data(), buf.size(), fmt, ap_copy);
    va_end(ap_copy);
    return std::string(buf.data(), static_cast<size_t>(needed));
}

void
emit(LogLevel level, const char *prefix, const std::string &msg)
{
    if (level > g_level)
        return;
    std::fprintf(stderr, "[%s] %s\n", prefix, msg.c_str());
}

} // namespace detail

} // namespace freepart::util
