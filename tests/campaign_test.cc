/**
 * @file
 * Campaign fault isolation: a run that fatal()s, stalls, or drains
 * must be recorded as failed/timeout/abandoned while the rest of the
 * grid completes; bounded retries rerun only the broken cell
 * (DESIGN.md §13).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <thread>

#include "common/logging.hh"
#include "harness/runner.hh"
#include "harness/watchdog.hh"

namespace d2m
{
namespace
{

std::vector<NamedWorkload>
smallWorkloads()
{
    WorkloadParams p;
    p.instructionsPerCore = 1'500;
    std::vector<NamedWorkload> v;
    for (int i = 0; i < 3; ++i) {
        p.seed = 100 + i;
        v.push_back({"ctest", "wl" + std::to_string(i), p});
    }
    return v;
}

SweepOptions
campaignOptions()
{
    SweepOptions opts;
    opts.verbose = false;
    opts.warmupInstsPerCore = 500;
    opts.jobs = 1;
    opts.runTimeoutMs = 0;  // no watchdog unless a test enables it
    opts.runRetries = 0;
    return opts;
}

const std::vector<ConfigKind> kTwoConfigs = {ConfigKind::Base2L,
                                             ConfigKind::D2mFs};

TEST(AbortCapture, ConvertsFatalToException)
{
    ScopedAbortCapture capture;
    ASSERT_TRUE(ScopedAbortCapture::active());
    bool caught = false;
    try {
        fatal("deliberate test failure %d", 42);
    } catch (const RunAbortError &e) {
        caught = true;
        EXPECT_NE(std::string(e.what()).find("deliberate test failure 42"),
                  std::string::npos);
        EXPECT_FALSE(e.isPanic());
    }
    EXPECT_TRUE(caught);
}

TEST(AbortCapture, ConvertsPanicToException)
{
    ScopedAbortCapture capture;
    EXPECT_THROW(panic("test panic"), RunAbortError);
    // Depth unwinds with the scope.
}

TEST(AbortCapture, InactiveOutsideScope)
{
    EXPECT_FALSE(ScopedAbortCapture::active());
    {
        ScopedAbortCapture outer;
        ScopedAbortCapture inner;
        EXPECT_TRUE(ScopedAbortCapture::active());
    }
    EXPECT_FALSE(ScopedAbortCapture::active());
}

TEST(AbortCaptureDeathTest, FatalStillDiesWithoutCapture)
{
    // Outside a ScopedAbortCapture, fatal() keeps its historical
    // behavior: print and exit(1) — campaigns opt in, nothing else
    // changes.
    EXPECT_EXIT(fatal("plain fatal %d", 7),
                ::testing::ExitedWithCode(1), "plain fatal 7");
}

TEST(CampaignIsolation, FatalRunFailsAloneGridCompletes)
{
    auto opts = campaignOptions();
    opts.preRunHook = [](const NamedWorkload &wl, unsigned) {
        if (wl.name == "wl1")
            fatal("injected failure in %s", wl.name.c_str());
    };
    const auto workloads = smallWorkloads();
    const auto rows = runSweep(kTwoConfigs, workloads, opts);
    ASSERT_EQ(rows.size(), 6u);
    std::size_t failed = 0;
    for (const auto &m : rows) {
        if (m.benchmark == "wl1") {
            EXPECT_EQ(m.status, "failed");
            EXPECT_EQ(m.attempts, 1u);
            EXPECT_NE(m.errorMessage.find("injected failure"),
                      std::string::npos);
            EXPECT_EQ(m.instructions, 0u) << "failure rows zero-filled";
            ++failed;
        } else {
            EXPECT_EQ(m.status, "ok");
            EXPECT_GT(m.instructions, 0u);
        }
    }
    EXPECT_EQ(failed, kTwoConfigs.size());

    const SweepOutcome &o = lastSweepOutcome();
    EXPECT_EQ(o.total, 6u);
    EXPECT_EQ(o.executed, 6u);
    EXPECT_EQ(o.ok, 4u);
    EXPECT_EQ(o.failed, 2u);
    EXPECT_FALSE(o.interrupted);
    EXPECT_EQ(campaignExitCode(o), kCampaignExitFailed);
}

TEST(CampaignIsolation, ParallelGridSurvivesFatalRun)
{
    auto opts = campaignOptions();
    opts.jobs = 4;
    opts.preRunHook = [](const NamedWorkload &wl, unsigned) {
        if (wl.name == "wl0")
            fatal("injected parallel failure");
    };
    const auto rows = runSweep(kTwoConfigs, smallWorkloads(), opts);
    ASSERT_EQ(rows.size(), 6u);
    for (const auto &m : rows)
        EXPECT_EQ(m.status, m.benchmark == "wl0" ? "failed" : "ok");
    EXPECT_EQ(lastSweepOutcome().failed, 2u);
}

TEST(CampaignRetry, TransientFailureRetriedToSuccess)
{
    auto opts = campaignOptions();
    opts.runRetries = 1;
    opts.preRunHook = [](const NamedWorkload &wl, unsigned attempt) {
        if (wl.name == "wl2" && attempt == 0)
            fatal("transient failure");
    };
    const auto rows = runSweep(kTwoConfigs, smallWorkloads(), opts);
    for (const auto &m : rows) {
        EXPECT_EQ(m.status, "ok") << m.benchmark;
        EXPECT_EQ(m.attempts, m.benchmark == "wl2" ? 2u : 1u);
    }
    EXPECT_EQ(lastSweepOutcome().failed, 0u);
    EXPECT_EQ(campaignExitCode(lastSweepOutcome()), kCampaignExitClean);
}

TEST(CampaignRetry, RetriesAreBounded)
{
    std::atomic<unsigned> calls{0};
    auto opts = campaignOptions();
    opts.runRetries = 2;
    opts.preRunHook = [&](const NamedWorkload &wl, unsigned) {
        if (wl.name == "wl0") {
            calls.fetch_add(1);
            fatal("permanent failure");
        }
    };
    const std::vector<NamedWorkload> one = {smallWorkloads()[0]};
    const auto rows =
        runSweep({ConfigKind::Base2L}, one, opts);
    ASSERT_EQ(rows.size(), 1u);
    EXPECT_EQ(rows[0].status, "failed");
    EXPECT_EQ(rows[0].attempts, 3u) << "1 try + 2 retries";
    EXPECT_EQ(calls.load(), 3u);
}

TEST(CampaignTimeout, StalledRunTimesOut)
{
    auto opts = campaignOptions();
    opts.runTimeoutMs = 50;
    opts.preRunHook = [](const NamedWorkload &wl, unsigned) {
        if (wl.name == "wl1") {
            // Simulate a stall: hold the cell with zero progress well
            // past the timeout; the watchdog cancels, and the run
            // aborts at its first progress poll.
            std::this_thread::sleep_for(std::chrono::milliseconds(400));
        }
    };
    const std::vector<NamedWorkload> two = {smallWorkloads()[0],
                                            smallWorkloads()[1]};
    const auto rows = runSweep({ConfigKind::Base2L}, two, opts);
    ASSERT_EQ(rows.size(), 2u);
    EXPECT_EQ(rows[0].status, "ok");
    EXPECT_EQ(rows[1].status, "timeout");
    EXPECT_NE(rows[1].errorMessage.find("D2M_RUN_TIMEOUT"),
              std::string::npos);
    EXPECT_EQ(lastSweepOutcome().timeout, 1u);
    EXPECT_EQ(campaignExitCode(lastSweepOutcome()), kCampaignExitFailed);
}

TEST(CampaignTimeout, StallRetriedToSuccess)
{
    auto opts = campaignOptions();
    opts.runTimeoutMs = 50;
    opts.runRetries = 1;
    opts.preRunHook = [](const NamedWorkload &wl, unsigned attempt) {
        if (wl.name == "wl0" && attempt == 0)
            std::this_thread::sleep_for(std::chrono::milliseconds(400));
    };
    const std::vector<NamedWorkload> one = {smallWorkloads()[0]};
    const auto rows = runSweep({ConfigKind::Base2L}, one, opts);
    ASSERT_EQ(rows.size(), 1u);
    EXPECT_EQ(rows[0].status, "ok");
    EXPECT_EQ(rows[0].attempts, 2u);
}

TEST(CampaignDrain, SigintAbandonsRemainingCells)
{
    std::atomic<unsigned> started{0};
    auto opts = campaignOptions();
    opts.preRunHook = [&](const NamedWorkload &, unsigned attempt) {
        if (attempt == 0 && started.fetch_add(1) + 1 == 2)
            std::raise(SIGINT);  // caught by the sweep's drain handler
    };
    const auto rows = runSweep(kTwoConfigs, smallWorkloads(), opts);
    const SweepOutcome o = lastSweepOutcome();
    resetDrain();  // don't poison later tests in this binary
    ASSERT_EQ(rows.size(), 6u);
    EXPECT_TRUE(o.interrupted);
    // Cell 1 completed before the signal; cells after the in-flight
    // one are abandoned at attempt start, deterministically.
    EXPECT_GE(o.ok, 1u);
    EXPECT_GE(o.abandoned, 4u);
    EXPECT_EQ(campaignExitCode(o), kCampaignExitPartial);
    for (const auto &m : rows) {
        if (m.status == "abandoned") {
            EXPECT_EQ(m.instructions, 0u);
        }
    }
}

} // namespace
} // namespace d2m
