/**
 * @file
 * Host-side simulation-rate profiling.
 *
 * The ROADMAP's "as fast as the hardware allows" goal needs the
 * simulator itself measured before any perf PR can be trusted: this
 * profiler tracks wall-clock time per run phase (warmup / measure),
 * reports simulated KIPS (committed kilo-instructions per host
 * second), and emits a progress heartbeat every N simulated
 * mega-instructions (D2M_HEARTBEAT=N; 0 = off) so long sweeps are
 * observable while they run.
 */

#ifndef D2M_OBS_PROFILER_HH
#define D2M_OBS_PROFILER_HH

#include <chrono>
#include <cstdint>

namespace d2m::obs
{

/** Wall-clock phase timer + KIPS meter + heartbeat for one run. */
class SimRateProfiler
{
  public:
    /** Heartbeat period from D2M_HEARTBEAT (mega-instructions). */
    SimRateProfiler();

    /** Explicit heartbeat period in instructions (0 = off; tests). */
    explicit SimRateProfiler(std::uint64_t heartbeat_insts);

    /** Mark the warmup -> measurement boundary (stats reset). */
    void phaseReset();

    /** Mark the end of the run with the final committed totals. */
    void finish(std::uint64_t measured_insts);

    /**
     * Progress hook, called with cumulative committed instructions.
     * Emits an inform() line and a Heartbeat trace record each time a
     * heartbeat boundary is crossed. The disabled / not-yet-due path
     * is one inlined compare, so this is safe per-access.
     * @return true when a heartbeat fired.
     */
    bool
    maybeHeartbeat(std::uint64_t committed_insts, std::uint64_t accesses)
    {
        if (heartbeatInsts_ == 0 || committed_insts < nextBeat_)
            [[likely]]
            return false;
        return heartbeatFire(committed_insts, accesses);
    }

    double warmupWallSec() const { return warmupWallSec_; }
    double measureWallSec() const { return measureWallSec_; }

    /** Measured-phase simulation rate in kilo-instructions/second. */
    double kips() const { return kips_; }

    std::uint64_t heartbeatsFired() const { return heartbeats_; }

  private:
    using Clock = std::chrono::steady_clock;

    double secondsSince(Clock::time_point t0) const;

    /** Out-of-line half of maybeHeartbeat(): log + trace + advance. */
    bool heartbeatFire(std::uint64_t committed_insts,
                       std::uint64_t accesses);

    Clock::time_point start_;
    Clock::time_point resetTime_;
    bool reset_ = false;
    std::uint64_t heartbeatInsts_;  //!< 0 = heartbeat disabled.
    std::uint64_t nextBeat_;
    std::uint64_t heartbeats_ = 0;
    double warmupWallSec_ = 0.0;
    double measureWallSec_ = 0.0;
    double kips_ = 0.0;
};

} // namespace d2m::obs

#endif // D2M_OBS_PROFILER_HH
