/**
 * @file
 * Tests for the observability layer: debug flags (D2M_DEBUG parsing
 * and DTRACE emission), the TraceSink ring buffer and its JSONL
 * output, the JSON stats visitor and the rate-limited warning helpers. The final test runs a small multicore
 * simulation with tracing attached and reconciles the trace's message
 * records against the interconnect's Stats counters.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "common/logging.hh"
#include "common/stats.hh"
#include "cpu/multicore.hh"
#include "harness/configs.hh"
#include "harness/results_json.hh"
#include "noc/message.hh"
#include "obs/debug.hh"
#include "obs/json.hh"
#include "obs/trace.hh"
#include "workload/suites.hh"

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

// ---------------------------------------------------------------- trace

TEST(TraceSink, MemoryRingWrapsDroppingOldest)
{
    obs::TraceSink sink("", /*capacity=*/4);
    for (std::uint64_t i = 0; i < 6; ++i)
        sink.record({/*tick=*/i, obs::TraceKind::NocSend, 0, 8, 1, 0});
    EXPECT_EQ(sink.recorded(), 6u);
    EXPECT_EQ(sink.buffered(), 4u);
    EXPECT_EQ(sink.dropped(), 2u);
    const auto snap = sink.snapshot();
    ASSERT_EQ(snap.size(), 4u);
    EXPECT_EQ(snap.front().tick, 2u);  // oldest two dropped
    EXPECT_EQ(snap.back().tick, 5u);
}

TEST(TraceSink, FileFlushesOnFullAndProducesValidJsonl)
{
    const std::string path = "obs_test_sink.jsonl";
    {
        obs::TraceSink sink(path, /*capacity=*/4);
        for (std::uint64_t i = 0; i < 10; ++i) {
            sink.record({i, obs::TraceKind::AccessIssue,
                         static_cast<std::uint32_t>(i % 3), 0x40 + i,
                         i % 2, 0});
        }
        EXPECT_EQ(sink.dropped(), 0u);  // file mode never drops
        EXPECT_GE(sink.flushed(), 8u);  // two full rings already out
    }  // dtor flushes the remainder
    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::string line;
    std::size_t lines = 0;
    while (std::getline(in, line)) {
        ++lines;
        std::string err;
        EXPECT_TRUE(json::valid(line, err)) << line << ": " << err;
    }
    EXPECT_EQ(lines, 10u);
    std::remove(path.c_str());
}

TEST(TraceSink, JsonEncodingIsKindSpecific)
{
    json::Value v;
    std::string err;
    ASSERT_TRUE(json::parse(
        obs::traceToJson({7, obs::TraceKind::NocSend, 2, 72, 4,
                          static_cast<std::uint64_t>(MsgType::DataResp)}),
        v, err))
        << err;
    EXPECT_EQ(v["kind"].asString(), "noc_send");
    EXPECT_EQ(v["tick"].asNumber(), 7.0);
    EXPECT_EQ(v["src"].asNumber(), 2.0);
    EXPECT_EQ(v["dst"].asNumber(), 4.0);
    EXPECT_EQ(v["bytes"].asNumber(), 72.0);
    EXPECT_EQ(v["msg"].asString(), msgTypeName(MsgType::DataResp));

    ASSERT_TRUE(json::parse(
        obs::traceToJson({9, obs::TraceKind::RegionClass, 1, 0x100, 1, 0}),
        v, err));
    EXPECT_EQ(v["kind"].asString(), "region_class");
    EXPECT_EQ(v["region"].asNumber(), 256.0);
    EXPECT_EQ(v["shared"].asNumber(), 1.0);
}

TEST(TraceSink, GlobalEventHelperStampsTick)
{
    obs::TraceSink sink("", 16);
    obs::TraceSink *old = obs::setGlobalSink(&sink);
    debug::setCurTick(1234);
    obs::traceEvent(obs::TraceKind::CohUpgrade, 3, 0x80, 'C');
    obs::setGlobalSink(old);
    const auto snap = sink.snapshot();
    ASSERT_EQ(snap.size(), 1u);
    EXPECT_EQ(snap[0].tick, 1234u);
    EXPECT_EQ(snap[0].node, 3u);
    // Detached again: recording is a no-op, not a crash.
    obs::traceEvent(obs::TraceKind::CohUpgrade, 3, 0x80, 'C');
    EXPECT_EQ(sink.recorded(), 1u);
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

// -------------------------------------------- trace <-> stats reconcile

WorkloadParams
tinyWorkload()
{
    WorkloadParams p;
    p.instructionsPerCore = 4'000;
    p.sharedFootprint = 64 * 1024;
    p.sharedFraction = 0.2;
    p.seed = 11;
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

/** Count noc_send lines in @p path, all and after the last stats_reset. */
void
countNocSends(const std::string &path, std::uint64_t &total,
              std::uint64_t &after_reset)
{
    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    total = after_reset = 0;
    std::string line;
    while (std::getline(in, line)) {
        std::string err;
        json::Value v;
        ASSERT_TRUE(json::parse(line, v, err)) << line << ": " << err;
        const std::string &kind = v["kind"].asString();
        if (kind == "stats_reset")
            after_reset = 0;
        else if (kind == "noc_send") {
            ++total;
            ++after_reset;
        }
    }
}

TEST(TraceReconcile, NocSendRecordsMatchStatsCounters)
{
    const std::string path = "obs_test_reconcile.jsonl";
    auto *sink = new obs::TraceSink(path, 4096);
    obs::TraceSink *old = obs::setGlobalSink(sink);

    auto sys = makeSystem(ConfigKind::D2mNsR);
    auto streams = streamsFor(tinyWorkload(), sys->params().numNodes);
    RunOptions opts;
    opts.warmupInstsPerCore = 2'000;
    const RunResult r = runMulticore(*sys, streams, opts);
    EXPECT_EQ(r.valueErrors, 0u);

    obs::setGlobalSink(old);
    delete sink;  // flushes the tail

    std::uint64_t total = 0, after_reset = 0;
    countNocSends(path, total, after_reset);
    // The counters were reset at the warmup boundary, where the trace
    // carries a stats_reset marker: post-marker records must match the
    // Stats counter exactly, and warmup traffic must exist.
    EXPECT_EQ(after_reset, sys->noc().totalMessages.value());
    EXPECT_GT(total, after_reset);
    std::remove(path.c_str());
}

// --------------------------------------------------- crash-time flush

/** Read @p path, requiring every line to be valid JSON. */
std::size_t
countJsonlLines(const std::string &path)
{
    std::ifstream in(path);
    EXPECT_TRUE(in.good()) << path;
    std::string line;
    std::size_t lines = 0;
    while (std::getline(in, line)) {
        ++lines;
        std::string err;
        EXPECT_TRUE(json::valid(line, err)) << line << ": " << err;
    }
    return lines;
}

TEST(TraceCrashFlushDeathTest, FatalFlushesBufferedRecords)
{
    const std::string path = "obs_test_crash_fatal.jsonl";
    std::remove(path.c_str());
    // The sink is created inside the death-test child so only that
    // process owns the file; the buffered records would be lost on
    // abnormal exit without the crash hook in fatal().
    EXPECT_EXIT(
        {
            auto *sink = new obs::TraceSink(path, /*capacity=*/4096);
            obs::setGlobalSink(sink);
            debug::setCurTick(99);
            for (int i = 0; i < 5; ++i)
                obs::traceEvent(obs::TraceKind::NocSend, 1, 64, 2);
            fatal("boom with %d records buffered", 5);
        },
        testing::ExitedWithCode(1), "boom with 5 records buffered");
    EXPECT_EQ(countJsonlLines(path), 5u);
    std::remove(path.c_str());
}

TEST(TraceCrashFlushDeathTest, AtexitFlushesOnPlainExit)
{
    const std::string path = "obs_test_crash_exit.jsonl";
    std::remove(path.c_str());
    // exit() skips the sink's destructor (it is heap-allocated and
    // never freed here); the std::atexit hook must flush instead.
    EXPECT_EXIT(
        {
            auto *sink = new obs::TraceSink(path, /*capacity=*/4096);
            obs::setGlobalSink(sink);
            debug::setCurTick(7);
            for (int i = 0; i < 3; ++i)
                obs::traceEvent(obs::TraceKind::CohUpgrade, 0, 0x40, 'B');
            std::exit(0);
        },
        testing::ExitedWithCode(0), "");
    EXPECT_EQ(countJsonlLines(path), 3u);
    std::remove(path.c_str());
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
