#include "obs/snapshot.hh"

#include "common/knobs.hh"
#include "common/logging.hh"
#include "obs/json.hh"

namespace d2m::obs
{

namespace
{

void
flatten(const stats::StatGroup &g,
        std::vector<std::string> &paths,
        std::vector<const stats::StatBase *> &stats)
{
    const std::string prefix = g.fullStatPath() + ".";
    for (const stats::StatBase *stat : g.stats()) {
        paths.push_back(prefix + stat->name());
        stats.push_back(stat);
    }
    for (const stats::StatGroup *child : g.children())
        flatten(*child, paths, stats);
}

} // namespace

StatSnapshotter::StatSnapshotter(stats::StatGroup &root,
                                 std::uint64_t every_insts)
    : everyInsts_(every_insts), nextInstBoundary_(every_insts)
{
    panic_if(every_insts == 0, "StatSnapshotter needs an interval");
    flatten(root, paths_, stats_);
    baseline_.assign(stats_.size(), 0);
    for (std::size_t i = 0; i < stats_.size(); ++i)
        baseline_[i] = stats_[i]->snapshotValue();
}

std::unique_ptr<StatSnapshotter>
StatSnapshotter::fromEnv(stats::StatGroup &root)
{
    const std::uint64_t every = knobU64(Knob::IntervalInsts);
    return every ? std::make_unique<StatSnapshotter>(root, every)
                 : nullptr;
}

void
StatSnapshotter::closeInterval(std::uint64_t insts, Tick now,
                               bool rearm_zero)
{
    IntervalRow row;
    row.deltas.resize(stats_.size());
    bool any = false;
    for (std::size_t i = 0; i < stats_.size(); ++i) {
        const std::uint64_t cur = stats_[i]->snapshotValue();
        // Guard against a stat that shrank outside a reset boundary
        // (should not happen: snapshotValue is monotonic).
        row.deltas[i] = cur >= baseline_[i] ? cur - baseline_[i] : 0;
        any |= row.deltas[i] != 0;
        baseline_[i] = rearm_zero ? 0 : cur;
    }
    if (!any && insts == startInsts_ && now == startTick_) {
        // Nothing happened (e.g. reset fired exactly on a boundary):
        // don't emit an empty row, just move the window forward.
        startInsts_ = insts;
        startTick_ = now;
        return;
    }
    row.idx = nextIdx_++;
    row.warmup = !warm_;
    row.startInsts = startInsts_;
    row.endInsts = insts;
    row.startTick = startTick_;
    row.endTick = now;
    rows_.push_back(std::move(row));
    startInsts_ = insts;
    startTick_ = now;
}

void
StatSnapshotter::tick(std::uint64_t insts, Tick now)
{
    if (insts < nextInstBoundary_)
        return;
    closeInterval(insts, now, /*rearm_zero=*/false);
    // Advance past the current position so a burst that crosses
    // several boundaries at once yields one covering row.
    while (nextInstBoundary_ <= insts)
        nextInstBoundary_ += everyInsts_;
}

void
StatSnapshotter::statsReset(std::uint64_t insts, Tick now)
{
    // Close the in-flight warmup interval against the pre-reset
    // values, then re-arm every baseline at zero: reset() returns all
    // statistics to their zeroed post-construction state, so from here
    // on deltas accumulate exactly onto the final counters.
    closeInterval(insts, now, /*rearm_zero=*/true);
    warm_ = true;
}

void
StatSnapshotter::finish(std::uint64_t insts, Tick now)
{
    closeInterval(insts, now, /*rearm_zero=*/false);
}

std::string
StatSnapshotter::rowsJson() const
{
    std::string out = "[";
    for (std::size_t r = 0; r < rows_.size(); ++r) {
        const IntervalRow &row = rows_[r];
        if (r)
            out += ",\n";
        out += "{\"idx\":" + json::number(row.idx);
        out += ",\"warmup\":";
        out += row.warmup ? "true" : "false";
        out += ",\"start_insts\":" + json::number(row.startInsts);
        out += ",\"end_insts\":" + json::number(row.endInsts);
        out += ",\"start_tick\":" +
               json::number(static_cast<std::uint64_t>(row.startTick));
        out += ",\"end_tick\":" +
               json::number(static_cast<std::uint64_t>(row.endTick));
        out += ",\"deltas\":{";
        bool first = true;
        for (std::size_t i = 0; i < row.deltas.size(); ++i) {
            if (!row.deltas[i])
                continue;  // sparse: zero deltas are implied
            if (!first)
                out += ",";
            first = false;
            out += json::quote(paths_[i]) + ":" +
                   json::number(row.deltas[i]);
        }
        out += "}}";
    }
    out += "]";
    return out;
}

} // namespace d2m::obs
