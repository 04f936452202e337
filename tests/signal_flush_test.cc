/**
 * @file
 * Signal-shutdown flushing: SIGINT/SIGTERM must flush the trace sink
 * tail (via the crash-hook registry) before the process dies, so an
 * interrupted run still leaves usable observability output.
 */

#include <gtest/gtest.h>

#include <csignal>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "obs/json.hh"
#include "obs/trace.hh"

namespace d2m
{
namespace
{

std::vector<std::string>
jsonlLines(const std::string &path)
{
    std::ifstream in(path);
    std::vector<std::string> lines;
    for (std::string line; std::getline(in, line);)
        if (!line.empty())
            lines.push_back(line);
    return lines;
}

void
checkFlushedTrace(const std::string &path, std::size_t expected)
{
    const auto lines = jsonlLines(path);
    ASSERT_EQ(lines.size(), expected)
        << "all buffered records must be flushed by the signal handler";
    for (const auto &line : lines) {
        json::Value v;
        std::string err;
        ASSERT_TRUE(json::parse(line, v, err)) << err << ": " << line;
        EXPECT_EQ(v["kind"].asString(), "run_end");
    }
}

using SignalFlushDeathTest = ::testing::Test;

TEST(SignalFlushDeathTest, SigtermFlushesTraceTail)
{
    const std::string path =
        testing::TempDir() + "signal_flush_term.jsonl";
    std::remove(path.c_str());
    EXPECT_EXIT(
        {
            obs::TraceSink sink(path, 1024);
            obs::setGlobalSink(&sink);
            for (int i = 0; i < 5; ++i)
                obs::traceEvent(obs::TraceKind::RunEnd, 0, i);
            // Nothing flushed yet: the ring holds all five records.
            if (sink.flushed() != 0)
                std::abort();
            std::raise(SIGTERM);
        },
        testing::KilledBySignal(SIGTERM), "");
    checkFlushedTrace(path, 5);
    std::remove(path.c_str());
}

TEST(SignalFlushDeathTest, SigintFlushesTraceTail)
{
    const std::string path =
        testing::TempDir() + "signal_flush_int.jsonl";
    std::remove(path.c_str());
    EXPECT_EXIT(
        {
            obs::TraceSink sink(path, 1024);
            obs::setGlobalSink(&sink);
            for (int i = 0; i < 3; ++i)
                obs::traceEvent(obs::TraceKind::RunEnd, 1, i);
            std::raise(SIGINT);
        },
        testing::KilledBySignal(SIGINT), "");
    checkFlushedTrace(path, 3);
    std::remove(path.c_str());
}

TEST(SignalFlush, RepeatInstallIsIdempotent)
{
    // Already installed at static init (obs/trace.cc); calling again
    // must be a harmless no-op, not a handler stack-up.
    installSignalFlushHandlers();
    installSignalFlushHandlers();
    SUCCEED();
}

TEST(SignalFlush, FatalStillDiesWithoutCapture)
{
    // Outside a ScopedAbortCapture, fatal() keeps its historical
    // behavior: print and exit(1) — campaigns opt in, nothing else
    // changes.
    EXPECT_EXIT(fatal("plain fatal %d", 7),
                ::testing::ExitedWithCode(1), "plain fatal 7");
}

} // namespace
} // namespace d2m
