#include "common/logging.hh"

#include <cstdarg>
#include <cstdio>

namespace d2m
{

std::string
vformat(const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    va_list args_copy;
    va_copy(args_copy, args);
    const int len = std::vsnprintf(nullptr, 0, fmt, args);
    va_end(args);
    std::string result;
    if (len > 0) {
        result.resize(static_cast<size_t>(len));
        std::vsnprintf(result.data(), result.size() + 1, fmt, args_copy);
    }
    va_end(args_copy);
    return result;
}

namespace
{

/** Nesting depth of ScopedAbortCapture on this thread. */
thread_local unsigned abortCaptureDepth = 0;

/** Per-thread inform()/warn() line prefix (sweep job attribution). */
thread_local std::string logPrefix;

} // namespace

RunAbortError::RunAbortError(std::string msg, const char *file, int line,
                             bool is_panic)
    : message_(std::move(msg)),
      what_(vformat("%s [%s:%d]", message_.c_str(), file, line)),
      file_(file), line_(line), panic_(is_panic)
{
}

ScopedAbortCapture::ScopedAbortCapture()
{
    ++abortCaptureDepth;
}

ScopedAbortCapture::~ScopedAbortCapture()
{
    --abortCaptureDepth;
}

bool
ScopedAbortCapture::active()
{
    return abortCaptureDepth > 0;
}

void
panicImpl(const char *file, int line, const std::string &msg)
{
    if (ScopedAbortCapture::active())
        throw RunAbortError(msg, file, line, /*is_panic=*/true);
    std::fprintf(stderr, "panic: %s\n  @ %s:%d\n", msg.c_str(), file, line);
    std::abort();
}

void
fatalImpl(const char *file, int line, const std::string &msg)
{
    if (ScopedAbortCapture::active())
        throw RunAbortError(msg, file, line, /*is_panic=*/false);
    std::fprintf(stderr, "fatal: %s\n  @ %s:%d\n", msg.c_str(), file, line);
    std::exit(1);
}

void
setThreadLogPrefix(std::string prefix)
{
    logPrefix = std::move(prefix);
}

const std::string &
threadLogPrefix()
{
    return logPrefix;
}

void
warnImpl(const std::string &msg)
{
    std::fprintf(stderr, "%swarn: %s\n", logPrefix.c_str(), msg.c_str());
}

bool
WarnLimit::allow()
{
    const std::uint64_t n =
        count_.fetch_add(1, std::memory_order_relaxed) + 1;
    if (n <= limit_)
        return true;
    if (n == limit_ + 1) {
        std::fprintf(stderr,
                     "warn: (suppressing further identical warnings "
                     "after %llu)\n",
                     static_cast<unsigned long long>(limit_));
    }
    return false;
}

void
informImpl(const std::string &msg)
{
    std::fprintf(stdout, "%sinfo: %s\n", logPrefix.c_str(), msg.c_str());
}

} // namespace d2m
