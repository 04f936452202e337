/**
 * @file
 * Tests for the observability layer: debug flags (D2M_DEBUG parsing
 * and DTRACE emission), the JSON stats visitor, the rate-limited
 * warning helpers and the results-JSON row encoding.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <sstream>

#include "common/logging.hh"
#include "common/stats.hh"
#include "harness/results_json.hh"
#include "obs/debug.hh"
#include "obs/json.hh"

namespace d2m
{
namespace
{

// ---------------------------------------------------------------- debug

TEST(DebugFlags, ParseList)
{
    using debug::Flag;
    EXPECT_EQ(debug::parseFlags(""), 0u);
    EXPECT_EQ(debug::parseFlags("NoC"),
              static_cast<std::uint32_t>(Flag::NoC));
    EXPECT_EQ(debug::parseFlags("Coherence,NoC"),
              static_cast<std::uint32_t>(Flag::Coherence) |
                  static_cast<std::uint32_t>(Flag::NoC));
    // Empty tokens and trailing commas are tolerated.
    EXPECT_EQ(debug::parseFlags("MD,,Fault,"),
              static_cast<std::uint32_t>(Flag::MD) |
                  static_cast<std::uint32_t>(Flag::Fault));
}

TEST(DebugFlags, AllEnablesEverything)
{
    const std::uint32_t all = debug::parseFlags("All");
    for (auto f : {debug::Flag::MD, debug::Flag::Coherence,
                   debug::Flag::NoC, debug::Flag::Replacement,
                   debug::Flag::Fault, debug::Flag::NSLLC,
                   debug::Flag::Index, debug::Flag::Exec}) {
        EXPECT_NE(all & static_cast<std::uint32_t>(f), 0u)
            << debug::flagName(f);
    }
    EXPECT_EQ(debug::parseFlags("all"), all);
}

TEST(DebugFlagsDeathTest, UnknownFlagIsFatal)
{
    EXPECT_EXIT(debug::parseFlags("Coherence,Bogus"),
                testing::ExitedWithCode(1), "unknown debug flag");
}

TEST(DebugFlags, EnvRoundTrip)
{
    ::setenv("D2M_DEBUG", "Fault,Index", 1);
    debug::initFromEnv();
    EXPECT_TRUE(debug::enabled(debug::Flag::Fault));
    EXPECT_TRUE(debug::enabled(debug::Flag::Index));
    EXPECT_FALSE(debug::enabled(debug::Flag::NoC));
    ::unsetenv("D2M_DEBUG");
    debug::initFromEnv();
    EXPECT_FALSE(debug::enabled(debug::Flag::Fault));
}

TEST(DebugFlags, DtraceEmitsTickPathAndFlag)
{
    stats::StatGroup root("sys");
    stats::StatGroup noc("noc", &root);
    debug::setFlags(static_cast<std::uint32_t>(debug::Flag::NoC));
    debug::setCurTick(412036);
    testing::internal::CaptureStderr();
    DTRACE(NoC, &noc, "send %u -> %u", 2u, 4u);
    DTRACE(Coherence, &noc, "must not appear");
    const std::string err = testing::internal::GetCapturedStderr();
    debug::setFlags(0);
    EXPECT_NE(err.find("412036"), std::string::npos);
    EXPECT_NE(err.find("sys.noc"), std::string::npos);
    EXPECT_NE(err.find("[NoC]"), std::string::npos);
    EXPECT_NE(err.find("send 2 -> 4"), std::string::npos);
    EXPECT_EQ(err.find("must not appear"), std::string::npos);
}

// ----------------------------------------------------------- stats JSON

TEST(StatsJson, RoundTripsThroughParser)
{
    stats::StatGroup root("sys");
    stats::StatGroup child("noc", &root);
    stats::Counter a(&root, "accesses", "");
    stats::Counter b(&child, "messages", "");
    stats::Average lat(&root, "lat", "");
    stats::Histogram h(&root, "dist", "", 10, 2);
    a += 41;
    b += 3;
    lat.sample(10);
    lat.sample(20);
    h.sample(5);
    h.sample(25);

    std::ostringstream os;
    root.printJson(os);
    json::Value v;
    std::string err;
    ASSERT_TRUE(json::parse(os.str(), v, err)) << os.str() << ": " << err;
    EXPECT_EQ(v["accesses"].asNumber(), 41.0);
    EXPECT_EQ(v["noc"]["messages"].asNumber(), 3.0);
    EXPECT_DOUBLE_EQ(v["lat"]["mean"].asNumber(), 15.0);
    EXPECT_EQ(v["lat"]["count"].asNumber(), 2.0);
    EXPECT_EQ(v["dist"]["samples"].asNumber(), 2.0);
    ASSERT_EQ(v["dist"]["buckets"].array.size(), 3u);
    EXPECT_EQ(v["dist"]["buckets"].array[0].asNumber(), 1.0);
}

TEST(StatsJson, OutputIsDeterministic)
{
    // Registration order differs; the printed order must not.
    auto build = [](bool swap_order) {
        auto root = std::make_unique<stats::StatGroup>("sys");
        auto za = std::make_unique<stats::Counter>(root.get(), "zebra", "");
        auto ab = std::make_unique<stats::Counter>(root.get(), "aard", "");
        if (swap_order)
            std::swap(za, ab);
        std::ostringstream os;
        root->printJson(os);
        return os.str();
    };
    const std::string a = build(false);
    EXPECT_EQ(a, build(true));
    // Sorted: "aard" prints before "zebra".
    EXPECT_LT(a.find("aard"), a.find("zebra"));
}

TEST(StatsJson, FloatsUseFixedPrecision)
{
    EXPECT_EQ(json::number(1.0 / 3.0), "0.333333");
    EXPECT_EQ(json::number(0.0), "0.000000");
    EXPECT_EQ(json::number(std::uint64_t{7}), "7");
}

TEST(StatsLifetime, StatDestroyedBeforeGroupIsDeregistered)
{
    stats::StatGroup root("sys");
    {
        stats::Counter tmp(&root, "transient", "");
        tmp += 5;
    }
    // The destroyed stat must not dangle in the group's print paths.
    std::ostringstream os;
    root.printStats(os);
    EXPECT_EQ(os.str().find("transient"), std::string::npos);
    std::ostringstream js;
    root.printJson(js);
    EXPECT_EQ(js.str(), "{}");
    root.resetStats();  // must not touch freed memory either
}

TEST(StatsLifetime, GroupDestroyedBeforeStatIsSafe)
{
    auto root = std::make_unique<stats::StatGroup>("sys");
    stats::Counter c(root.get(), "orphaned", "");
    root.reset();  // group dies first; the stat must survive
    ++c;
    EXPECT_EQ(c.value(), 1u);
}

// ------------------------------------------------------------- warnings

TEST(Warnings, WarnLimitBudget)
{
    WarnLimit wl(3);
    testing::internal::CaptureStderr();
    int allowed = 0;
    for (int i = 0; i < 10; ++i)
        allowed += wl.allow() ? 1 : 0;
    const std::string err = testing::internal::GetCapturedStderr();
    EXPECT_EQ(allowed, 3);
    EXPECT_EQ(wl.count(), 10u);
    EXPECT_EQ(wl.suppressed(), 7u);
    EXPECT_NE(err.find("suppressing"), std::string::npos);
}

TEST(Warnings, WarnOnceFiresOnce)
{
    testing::internal::CaptureStderr();
    for (int i = 0; i < 3; ++i)
        warn_once("only once %d", 1);
    const std::string err = testing::internal::GetCapturedStderr();
    EXPECT_NE(err.find("only once"), std::string::npos);
    EXPECT_EQ(err.find("only once", err.find("only once") + 1),
              std::string::npos);
}

TEST(ResultsJson, MetricsRowIsValidJson)
{
    Metrics m;
    m.config = "D2M-NS-R";
    m.suite = "parallel";
    m.benchmark = "fft";
    m.instructions = 1000;
    m.ipc = 1.0 / 3.0;
    m.simKips = 250.5;
    json::Value v;
    std::string err;
    ASSERT_TRUE(json::parse(metricsToJson(m), v, err)) << err;
    EXPECT_EQ(v["config"].asString(), "D2M-NS-R");
    EXPECT_EQ(v["instructions"].asNumber(), 1000.0);
    EXPECT_NEAR(v["ipc"].asNumber(), 1.0 / 3.0, 1e-6);
    EXPECT_NEAR(v["sim_kips"].asNumber(), 250.5, 1e-6);
}

} // namespace
} // namespace d2m
