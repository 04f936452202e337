/**
 * @file
 * Campaign watchdog: stalled-run detection and shutdown-drain
 * propagation for the sweep runner.
 *
 * Every in-flight sweep cell owns a WatchdogClient whose progress
 * counter the execution driver updates every kPollEvery loop
 * iterations (the same counters the campaign progress stream samples
 * for per-cell KIPS). A single watchdog
 * thread polls all attached clients; a client whose progress has not
 * advanced for D2M_RUN_TIMEOUT is marked cancelled with reason
 * Timeout, and every client is marked Drain once a SIGINT/SIGTERM
 * drain is requested. The run loop polls its cancel flag and raises a
 * fatal() that the per-thread abort capture converts into a
 * recoverable RunAborted outcome for just that cell (DESIGN.md §13).
 */

#ifndef D2M_HARNESS_WATCHDOG_HH
#define D2M_HARNESS_WATCHDOG_HH

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>
#include <vector>

namespace d2m
{

/** Why a run's cancel flag was raised. */
enum CancelReason : int
{
    kCancelNone = 0,
    kCancelTimeout = 1,  //!< No progress for D2M_RUN_TIMEOUT.
    kCancelDrain = 2,    //!< SIGINT/SIGTERM campaign drain.
};

/** Per-cell liveness + cancellation mailbox (one per sweep slot). */
struct WatchdogClient
{
    std::atomic<std::uint64_t> progress{0};
    /** Committed instructions so far (campaign progress stream; the
     * watchdog itself only watches @ref progress). */
    std::atomic<std::uint64_t> insts{0};
    std::atomic<int> cancel{kCancelNone};

    /** Reset for a fresh attempt (never clears a drain cancel — the
     * campaign is shutting down, retries must not resurrect it). */
    void
    rearm()
    {
        progress.store(0, std::memory_order_relaxed);
        insts.store(0, std::memory_order_relaxed);
        int expected = kCancelTimeout;
        cancel.compare_exchange_strong(expected, kCancelNone,
                                       std::memory_order_relaxed);
    }

    // Watchdog-thread private bookkeeping (guarded by its mutex).
    std::uint64_t lastSeen = 0;
    std::chrono::steady_clock::time_point lastChange{};
};

/**
 * One polling thread per sweep. @p timeout_ms == 0 disables stall
 * detection (the thread still propagates drain requests to attached
 * clients so in-flight runs abandon promptly on Ctrl-C).
 */
class RunWatchdog
{
  public:
    explicit RunWatchdog(std::uint64_t timeout_ms);
    ~RunWatchdog();

    RunWatchdog(const RunWatchdog &) = delete;
    RunWatchdog &operator=(const RunWatchdog &) = delete;

    /** Start monitoring @p client (rearms its stall clock). */
    void attach(WatchdogClient *client);

    /** Stop monitoring @p client (no-op when not attached). */
    void detach(WatchdogClient *client);

    std::uint64_t timeoutMs() const { return timeoutMs_; }

  private:
    void loop();

    std::uint64_t timeoutMs_;
    std::mutex mutex_;
    std::condition_variable cv_;
    std::vector<WatchdogClient *> clients_;
    bool stop_ = false;
    std::thread thread_;
};

/**
 * Process-wide drain state (set from the sweep's SIGINT/SIGTERM
 * handler, so everything here is async-signal-safe lock-free atomics).
 */

/** Note one received drain signal; @return the running count. */
int noteDrainSignal();

/** True once a drain has been requested for the active sweep. */
bool drainRequested();

/** Clear the drain state (called when a new sweep begins). */
void resetDrain();

} // namespace d2m

#endif // D2M_HARNESS_WATCHDOG_HH
