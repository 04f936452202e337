/**
 * @file
 * Interval statistics: the time axis of the observability stack.
 *
 * A StatSnapshotter walks a StatGroup tree once at attach time,
 * flattening every statistic to its full dotted path, then snapshots
 * all counters each time the run crosses an interval boundary (every
 * N committed instructions) and emits the per-interval deltas as
 * IntervalRow records. The harness embeds the rows as an "intervals"
 * array in the D2M_STATS_JSON document.
 *
 * Interval semantics (DESIGN.md Section 11):
 *  - Rows carry absolute [start, end] instruction and tick stamps.
 *  - Rows completed before the warmup counter reset are flagged
 *    "warmup": the partial interval in flight when resetStats() fires
 *    is closed against the pre-reset values, then all baselines
 *    re-arm at zero (reset() zeroes every statistic), so post-warmup
 *    deltas sum exactly to the final counters.
 *  - The final partial interval is closed at run end.
 *
 * The per-access cost when disabled is one inlined null check
 * on RunOptions::snapshotter in the multicore loop.
 */

#ifndef D2M_OBS_SNAPSHOT_HH
#define D2M_OBS_SNAPSHOT_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"

namespace d2m::obs
{

/** Deltas of every tracked statistic over one interval. */
struct IntervalRow
{
    std::uint64_t idx = 0;       //!< Interval number within the run.
    bool warmup = false;         //!< Completed before the stats reset.
    std::uint64_t startInsts = 0;  //!< Absolute committed instructions.
    std::uint64_t endInsts = 0;
    Tick startTick = 0;
    Tick endTick = 0;
    /** Per-stat deltas, parallel to StatSnapshotter::paths(). */
    std::vector<std::uint64_t> deltas;
};

/** Walks a stats tree and emits per-interval counter deltas. */
class StatSnapshotter
{
  public:
    /** Attach to @p root with an interval of @p every_insts committed
     * instructions (>= 1); the stat set is frozen at this point. */
    StatSnapshotter(stats::StatGroup &root, std::uint64_t every_insts);

    StatSnapshotter(const StatSnapshotter &) = delete;
    StatSnapshotter &operator=(const StatSnapshotter &) = delete;

    /** Build a snapshotter from D2M_INTERVAL_INSTS, or null when
     * interval stats are disabled. */
    static std::unique_ptr<StatSnapshotter>
    fromEnv(stats::StatGroup &root);

    /** Progress hook; closes an interval when a boundary is crossed. */
    void tick(std::uint64_t insts, Tick now);

    /**
     * Called immediately BEFORE StatGroup::resetStats() at the warmup
     * boundary: closes the in-flight warmup interval against the
     * pre-reset values and re-arms every baseline at zero.
     */
    void statsReset(std::uint64_t insts, Tick now);

    /** Close the final partial interval at run end. */
    void finish(std::uint64_t insts, Tick now);

    /** Full dotted stat paths, index-aligned with IntervalRow::deltas. */
    const std::vector<std::string> &paths() const { return paths_; }
    const std::vector<IntervalRow> &rows() const { return rows_; }

    /** The accumulated rows as one JSON array (sparse delta objects). */
    std::string rowsJson() const;

  private:
    void closeInterval(std::uint64_t insts, Tick now, bool rearm_zero);

    std::uint64_t everyInsts_;
    std::vector<std::string> paths_;
    std::vector<const stats::StatBase *> stats_;
    std::vector<std::uint64_t> baseline_;
    std::vector<IntervalRow> rows_;
    bool warm_ = false;           //!< True once the stats reset passed.
    std::uint64_t nextIdx_ = 0;
    std::uint64_t startInsts_ = 0;
    Tick startTick_ = 0;
    std::uint64_t nextInstBoundary_;
};

// There is deliberately NO global snapshotter hook: each run carries
// its snapshotter through RunOptions::snapshotter (cpu/multicore.hh),
// which keeps concurrent sweep jobs fully independent. The execution
// driver null-checks the pointer per access, matching the one-branch
// cost the old global hook had.

} // namespace d2m::obs

#endif // D2M_OBS_SNAPSHOT_HH
