/**
 * @file
 * Experiment runner: executes (configuration x benchmark) sweeps and
 * collects Metrics rows for the report printers.
 *
 * Sweeps run in parallel on a work-stealing pool (harness/pool.hh):
 * every run builds its own MemorySystem, streams and golden memory,
 * so jobs share no mutable state (DESIGN.md §12). Results are
 * bit-identical to a serial sweep and emitted in the same
 * workload-major order regardless of which job finishes first.
 */

#ifndef D2M_HARNESS_RUNNER_HH
#define D2M_HARNESS_RUNNER_HH

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/knobs.hh"
#include "harness/metrics.hh"
#include "workload/suites.hh"

namespace d2m
{

/** Options for a sweep. */
struct SweepOptions
{
    SystemParams baseParams{};
    std::uint64_t instsPerCore = 0;  //!< 0 = workload default / env.
    /** Warmup instructions per core before counters reset; by default
     * equal to the measured instruction count (env D2M_WARMUP
     * overrides). */
    std::uint64_t warmupInstsPerCore = ~std::uint64_t(0);
    /** Progress lines to stderr; default: unless D2M_QUIET is
     * non-zero. */
    bool verbose = knobU64(Knob::Quiet) == 0;
    /** Concurrent sweep jobs. 0 = auto: D2M_JOBS if set, else the
     * hardware thread count. */
    unsigned jobs = 0;
    RunOptions runOptions{};

    /**
     * Stall watchdog: a run whose access counter stops advancing for
     * this long is cancelled and recorded as "timeout". The sentinel
     * defers to env D2M_RUN_TIMEOUT (seconds); 0 disables.
     */
    std::uint64_t runTimeoutMs = ~std::uint64_t(0);
    /** Extra attempts for failed/timed-out cells, each with a
     * deterministically jittered seed. Sentinel = env D2M_RUN_RETRIES
     * (default 0). */
    std::uint64_t runRetries = ~std::uint64_t(0);
    /**
     * Test hook, called at the start of every attempt of every cell
     * (before the system is built). Runs inside the per-run abort
     * capture, so a fatal() here is recorded as that cell failing —
     * the campaign tests use it to inject crashes, stalls and
     * signals at precise points.
     */
    std::function<void(const NamedWorkload &wl, unsigned attempt)>
        preRunHook;
};

/** Aggregate outcome of one runSweep() call (DESIGN.md §13). */
struct SweepOutcome
{
    std::size_t total = 0;      //!< Grid cells requested.
    std::size_t executed = 0;   //!< Cells actually run this process.
    std::size_t fromStore = 0;  //!< Cells resumed from D2M_STORE_DIR.
    std::size_t ok = 0;
    std::size_t failed = 0;
    std::size_t timeout = 0;
    std::size_t abandoned = 0;  //!< Skipped by a shutdown drain.
    bool interrupted = false;   //!< SIGINT/SIGTERM drain happened.
};

/** Outcome of the most recent runSweep() in this process. */
const SweepOutcome &lastSweepOutcome();

/** Accumulated outcome of every runSweep() in this process. */
const SweepOutcome &processSweepOutcome();

/** Campaign exit-code semantics: clean / failed cells / interrupted
 * (partial takes precedence over failed — the missing cells make the
 * document incomplete, which matters more downstream). */
inline constexpr int kCampaignExitClean = 0;
inline constexpr int kCampaignExitFailed = 2;
inline constexpr int kCampaignExitPartial = 3;

/** Exit code for @p outcome per the semantics above. */
int campaignExitCode(const SweepOutcome &outcome);

/** Exit code for the whole process (processSweepOutcome()). */
int campaignExitCode();

/** One cell's system, streams and run options, before the run. */
struct CellSetup
{
    std::unique_ptr<MemorySystem> system;
    std::vector<std::unique_ptr<AccessStream>> streams;
    RunOptions runOptions;  //!< opts.runOptions with the warmup set.
};

/**
 * Build @p kind's system and @p wl's streams exactly as a sweep cell
 * does: opts.baseParams with D2M_NODES applied, and the measured and
 * warmup lengths from opts, D2M_INSTS_PER_CORE and D2M_WARMUP.
 */
CellSetup setUpCell(ConfigKind kind, const NamedWorkload &wl,
                    const SweepOptions &opts);

/** Run one benchmark on one configuration. */
Metrics runOne(ConfigKind kind, const NamedWorkload &wl,
               const SweepOptions &opts = {});

/** Run every (config, workload) pair. Rows grouped by workload. */
std::vector<Metrics> runSweep(const std::vector<ConfigKind> &configs,
                              const std::vector<NamedWorkload> &workloads,
                              const SweepOptions &opts = {});

/**
 * @return true when @p value matches the filter @p spec.
 *
 * @p spec is a comma-separated list of patterns; the value matches if
 * any pattern does. A pattern is a substring match, or an exact match
 * when prefixed with '=' ("=fft" matches "fft" but not "fft2d").
 * An empty spec (or one of only empty tokens) matches everything.
 */
bool matchesFilter(const std::string &value, const std::string &spec);

/** Filter by env D2M_SUITE_FILTER / D2M_BENCH_FILTER (each a
 * comma-separated pattern list, see matchesFilter()) and apply the
 * campaign-wide D2M_SEED workload-seed override when set. */
std::vector<NamedWorkload>
filteredWorkloads(std::vector<NamedWorkload> workloads);

/** Filter configuration kinds by env D2M_CONFIG_FILTER (matched
 * against configKindName(), same pattern syntax). */
std::vector<ConfigKind>
filteredConfigs(std::vector<ConfigKind> configs);

} // namespace d2m

#endif // D2M_HARNESS_RUNNER_HH
