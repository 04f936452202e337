/**
 * @file
 * Error and status reporting, modeled on gem5's base/logging.hh.
 *
 * panic():  an internal simulator bug; aborts.
 * fatal():  a user error (bad configuration); exits with status 1.
 * warn():   possibly-incorrect behavior the user should know about.
 * warn_once():    warn() that fires at most once per call site.
 * warn_limited(): warn() capped per call site (default 5), then a
 *                 single suppression notice — fault sweeps and NoC
 *                 retry storms cannot spam thousands of lines.
 * inform(): normal status messages.
 */

#ifndef D2M_COMMON_LOGGING_HH
#define D2M_COMMON_LOGGING_HH

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

namespace d2m
{

/** Internal printf-style formatter used by the logging macros. */
std::string vformat(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

[[noreturn]] void panicImpl(const char *file, int line,
                            const std::string &msg);
[[noreturn]] void fatalImpl(const char *file, int line,
                            const std::string &msg);
void warnImpl(const std::string &msg);
void informImpl(const std::string &msg);

/**
 * Prefix prepended to every inform()/warn() line emitted by the
 * calling thread ("" = none). The parallel sweep runner tags its pool
 * threads with "[job<N>] " so interleaved progress / warning lines
 * remain attributable to a grid cell.
 */
void setThreadLogPrefix(std::string prefix);

/** The calling thread's current log prefix. */
const std::string &threadLogPrefix();

/**
 * Thrown by fatal()/panic() instead of killing the process while a
 * ScopedAbortCapture is active on the calling thread. The campaign
 * runner converts it into a FAILED cell outcome; everything between
 * the raise site and the catch unwinds normally (each sweep job owns
 * its whole system, so unwinding cannot corrupt sibling runs).
 */
class RunAbortError : public std::exception
{
  public:
    RunAbortError(std::string msg, const char *file, int line,
                  bool is_panic);

    const char *what() const noexcept override { return what_.c_str(); }
    const std::string &message() const { return message_; }
    const char *file() const { return file_; }
    int line() const { return line_; }
    bool isPanic() const { return panic_; }

  private:
    std::string message_;
    std::string what_;  //!< "msg [file:line]" for generic catch sites.
    const char *file_;  //!< __FILE__ literal: static storage duration.
    int line_;
    bool panic_;
};

/**
 * While alive, fatal()/panic() on THIS thread throw RunAbortError
 * instead of terminating the process. Scopes nest; the capture is
 * per-thread, so a parallel sweep job aborting never affects its
 * siblings or the main thread.
 */
class ScopedAbortCapture
{
  public:
    ScopedAbortCapture();
    ~ScopedAbortCapture();

    ScopedAbortCapture(const ScopedAbortCapture &) = delete;
    ScopedAbortCapture &operator=(const ScopedAbortCapture &) = delete;

    /** True when a capture scope is active on the calling thread. */
    static bool active();
};

/** Per-call-site warning budget backing warn_limited(). The counter
 * is atomic: call sites are static and may be hit from concurrent
 * sweep jobs (harness/pool.hh). */
class WarnLimit
{
  public:
    explicit WarnLimit(std::uint64_t limit = 5) : limit_(limit) {}

    /** @return true while the budget lasts; prints one suppression
     * notice the first time the budget is exceeded. */
    bool allow();

    std::uint64_t
    count() const
    {
        return count_.load(std::memory_order_relaxed);
    }

    std::uint64_t
    suppressed() const
    {
        const std::uint64_t n = count();
        return n > limit_ ? n - limit_ : 0;
    }

  private:
    std::atomic<std::uint64_t> count_{0};
    std::uint64_t limit_;
};

} // namespace d2m

/** Report an internal simulator bug and abort. */
#define panic(...) \
    ::d2m::panicImpl(__FILE__, __LINE__, ::d2m::vformat(__VA_ARGS__))

/** Report an unrecoverable user/configuration error and exit(1). */
#define fatal(...) \
    ::d2m::fatalImpl(__FILE__, __LINE__, ::d2m::vformat(__VA_ARGS__))

/** Warn about suspicious but non-fatal behavior. */
#define warn(...) ::d2m::warnImpl(::d2m::vformat(__VA_ARGS__))

/** warn() at most once per call site (thread-safe: parallel sweep
 * jobs share the per-site flag). */
#define warn_once(...)                                          \
    do {                                                        \
        static ::std::atomic<bool> _d2m_warned{false};          \
        if (!_d2m_warned.exchange(true,                         \
                                  ::std::memory_order_relaxed)) \
            warn(__VA_ARGS__);                                  \
    } while (0)

/** warn() at most @p n times per call site, then suppress with a
 * single notice. */
#define warn_limited_n(n, ...)             \
    do {                                   \
        static ::d2m::WarnLimit _d2m_wl{n};\
        if (_d2m_wl.allow())               \
            warn(__VA_ARGS__);             \
    } while (0)

/** warn_limited_n with the default per-site budget (5). */
#define warn_limited(...) warn_limited_n(5, __VA_ARGS__)

/** Print a normal informational message. */
#define inform(...) ::d2m::informImpl(::d2m::vformat(__VA_ARGS__))

/** panic() unless @p cond holds. */
#define panic_if(cond, ...)        \
    do {                           \
        if (cond)                  \
            panic(__VA_ARGS__);    \
    } while (0)

/** fatal() unless @p cond is false. */
#define fatal_if(cond, ...)        \
    do {                           \
        if (cond)                  \
            fatal(__VA_ARGS__);    \
    } while (0)

#endif // D2M_COMMON_LOGGING_HH
