/**
 * @file
 * Tests for the multicore driver: warmup reset semantics, phase
 * timing, golden-value checking, late-hit accounting, and the
 * progress/cancel poll.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>

#include "cpu/multicore.hh"
#include "d2m/d2m_system.hh"
#include "harness/configs.hh"
#include "workload/suites.hh"

namespace d2m
{
namespace
{

WorkloadParams
tinyWorkload()
{
    WorkloadParams p;
    p.instructionsPerCore = 10'000;
    p.sharedFootprint = 64 * 1024;
    p.sharedFraction = 0.2;
    p.seed = 3;
    return p;
}

std::vector<std::unique_ptr<AccessStream>>
streamsFor(const WorkloadParams &p, unsigned cores)
{
    std::vector<std::unique_ptr<AccessStream>> v;
    for (unsigned c = 0; c < cores; ++c)
        v.push_back(std::make_unique<SyntheticStream>(p, c, 64));
    return v;
}

TEST(Multicore, RunsToCompletion)
{
    auto sys = makeSystem(ConfigKind::D2mNsR);
    auto streams = streamsFor(tinyWorkload(), 4);
    const RunResult r = runMulticore(*sys, streams);
    EXPECT_EQ(r.instructions, 4u * 10'000u);
    EXPECT_GT(r.cycles, 0u);
    EXPECT_EQ(r.valueErrors, 0u);
}

TEST(Multicore, TimesWarmupAndMeasuredPhases)
{
    auto sys = makeSystem(ConfigKind::Base2L);
    auto streams = streamsFor(tinyWorkload(), 4);
    RunOptions opts;
    opts.warmupInstsPerCore = 5'000;
    const RunResult r = runMulticore(*sys, streams, opts);
    EXPECT_GT(r.warmupWallSec, 0.0);
    EXPECT_GT(r.measureWallSec, 0.0);
    EXPECT_GT(r.simKips, 0.0);

    auto cold = makeSystem(ConfigKind::Base2L);
    auto cold_streams = streamsFor(tinyWorkload(), 4);
    EXPECT_EQ(runMulticore(*cold, cold_streams).warmupWallSec, 0.0)
        << "no warmup phase, no warmup time";
}

TEST(Multicore, WarmupResetsCountersButKeepsState)
{
    auto cold = makeSystem(ConfigKind::D2mFs);
    auto warm = makeSystem(ConfigKind::D2mFs);

    auto p = tinyWorkload();
    auto cold_streams = streamsFor(p, 4);
    const RunResult cold_r = runMulticore(*cold, cold_streams);

    RunOptions opts;
    opts.warmupInstsPerCore = 5'000;
    auto warm_streams = streamsFor(p, 4);
    const RunResult warm_r = runMulticore(*warm, warm_streams, opts);

    // Measured instructions exclude warmup.
    EXPECT_LT(warm_r.instructions, cold_r.instructions);
    EXPECT_GT(warm_r.instructions, 0u);
    EXPECT_LT(warm_r.cycles, cold_r.cycles);
    // A warmed hierarchy misses less per instruction than a cold one.
    auto *cs = dynamic_cast<D2mSystem *>(cold.get());
    auto *ws = dynamic_cast<D2mSystem *>(warm.get());
    const double cold_mpki =
        static_cast<double>(cs->hierStats().l1dMisses.value()) /
        cold_r.instructions;
    const double warm_mpki =
        static_cast<double>(ws->hierStats().l1dMisses.value()) /
        warm_r.instructions;
    EXPECT_LT(warm_mpki, cold_mpki * 1.05);
    EXPECT_EQ(warm_r.valueErrors, 0u);
}

TEST(Multicore, LateHitsAppearUnderMlp)
{
    // Streaming workloads produce hit-under-miss merges: consecutive
    // word accesses to a just-missed line land in its miss window.
    WorkloadParams p = tinyWorkload();
    p.instructionsPerCore = 30'000;
    p.streamFraction = 0.9;
    p.stackFraction = 0.0;
    p.sharedFraction = 0.0;
    p.privateFootprint = 8 << 20;
    auto sys = makeSystem(ConfigKind::Base2L);
    auto streams = streamsFor(p, 4);
    const RunResult r = runMulticore(*sys, streams);
    EXPECT_GT(r.lateHitsD, 0u);
}

TEST(Multicore, AllConfigsAgreeOnGoldenValues)
{
    // The same workload must produce zero value errors on every
    // system (each checks against its own interleaving order).
    auto p = tinyWorkload();
    for (ConfigKind kind : allConfigs()) {
        auto sys = makeSystem(kind);
        auto streams = streamsFor(p, 4);
        const RunResult r = runMulticore(*sys, streams);
        EXPECT_EQ(r.valueErrors, 0u) << configKindName(kind)
                                     << ": " << r.firstError;
    }
}

TEST(Multicore, InvariantChecksRun)
{
    auto sys = makeSystem(ConfigKind::D2mNsR);
    auto streams = streamsFor(tinyWorkload(), 4);
    RunOptions opts;
    opts.invariantCheckPeriod = 1'000;
    const RunResult r = runMulticore(*sys, streams, opts);
    EXPECT_EQ(r.invariantErrors, 0u) << r.firstError;
}

TEST(Multicore, ProgressPollReportsFinalTotals)
{
    auto sys = makeSystem(ConfigKind::D2mNsR);
    auto streams = streamsFor(tinyWorkload(), 4);
    std::atomic<std::uint64_t> progress{0};
    const std::atomic<int> cancel{0};
    RunOptions opts;
    opts.progress = &progress;
    opts.cancel = &cancel;
    const RunResult r = runMulticore(*sys, streams, opts);
    // No warmup: the final publish covers every access and every
    // committed instruction of the run.
    EXPECT_EQ(progress.load(), r.accesses + r.instructions + 1);
    EXPECT_EQ(r.instructions, 4u * 10'000u);
}

/** Aborts if the run loop ever asks it for a reference. */
class UntouchableStream : public AccessStream
{
  public:
    bool next(MemAccess &) override { std::abort(); }
};

TEST(MulticoreDeathTest, PreSetCancelAbortsBeforeFirstAccess)
{
    // The poll runs at iteration 0: an already-raised cancel flag
    // fires before any stream is consumed.
    auto sys = makeSystem(ConfigKind::Base2L);
    std::vector<std::unique_ptr<AccessStream>> streams;
    for (unsigned c = 0; c < sys->params().numNodes; ++c)
        streams.push_back(std::make_unique<UntouchableStream>());
    std::atomic<std::uint64_t> progress{0};
    const std::atomic<int> cancel{1};
    RunOptions opts;
    opts.progress = &progress;
    opts.cancel = &cancel;
    EXPECT_EXIT(runMulticore(*sys, streams, opts),
                testing::ExitedWithCode(1), "run cancelled");
}

} // namespace
} // namespace d2m
