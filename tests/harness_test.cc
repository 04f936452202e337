/**
 * @file
 * Tests for the harness pieces: geometry, golden memory, report
 * tables, metric extraction and workload filtering.
 */

#include <gtest/gtest.h>

#include <cstdlib>

#include "harness/report.hh"
#include "harness/runner.hh"
#include "mem/geometry.hh"
#include "mem/golden_memory.hh"

namespace d2m
{
namespace
{

TEST(Geometry, SetsAndIndexing)
{
    SetAssocGeometry g(512, 8, 6);  // 64 sets of 64B lines
    EXPECT_EQ(g.numSets(), 64u);
    EXPECT_EQ(g.assoc(), 8u);
    EXPECT_EQ(g.setIndex(0x0), 0u);
    EXPECT_EQ(g.setIndex(64), 1u);
    EXPECT_EQ(g.setIndex(64u * 64u), 0u);  // wraps at 64 sets
    EXPECT_NE(g.setIndex(64, /*scramble=*/5), g.setIndex(64, 0));
}

TEST(GoldenMemory, LastStoreWins)
{
    GoldenMemory g;
    EXPECT_EQ(g.load(0x10), 0u);
    g.store(0x10, 5);
    g.store(0x10, 7);
    g.store(0x11, 9);
    EXPECT_EQ(g.load(0x10), 7u);
    EXPECT_EQ(g.load(0x11), 9u);
    EXPECT_EQ(g.linesTouched(), 2u);
}

TEST(Report, TableAlignsColumns)
{
    TextTable t({"a", "bench"});
    t.addRow({"x", "1"});
    t.addSeparator();
    t.addRow({"longer", "2"});
    const std::string out = t.render();
    EXPECT_NE(out.find("a       bench"), std::string::npos);
    EXPECT_NE(out.find("longer  2"), std::string::npos);
    EXPECT_NE(out.find("---"), std::string::npos);
}

TEST(Report, FmtAndGeomean)
{
    EXPECT_EQ(fmt(3.14159, 2), "3.14");
    EXPECT_EQ(fmt(2.0, 0), "2");
    EXPECT_NEAR(geomean({2.0, 8.0}), 4.0, 1e-9);
    EXPECT_NEAR(geomean({1.0, 1.0, 1.0}), 1.0, 1e-9);
    EXPECT_EQ(geomean({}), 0.0);
    EXPECT_NEAR(geomean({0.0, 4.0}), 4.0, 1e-9);  // non-positive skipped
    EXPECT_EQ(fmtGeomeanRatio({0.5, 0.5}), "0.50x (-50%)");
    EXPECT_EQ(fmtGeomeanPct({1.1}), "+10.0%");
    EXPECT_EQ(fmtGeomeanRatio({}), "n/a");  // not "0.00x (-100%)"
    EXPECT_EQ(fmtGeomeanPct({0.0}), "n/a");
}

TEST(Report, FindRowAndSuiteMeans)
{
    std::vector<Metrics> rows(4);
    rows[0].benchmark = "a";
    rows[0].config = "X";
    rows[0].suite = "s";
    rows[0].ipc = 1.0;
    rows[1].benchmark = "b";
    rows[1].config = "X";
    rows[1].suite = "s";
    rows[1].ipc = 3.0;
    rows[2].benchmark = "a";
    rows[2].config = "Y";
    rows[2].suite = "s";
    rows[2].ipc = 9.0;
    rows[3].benchmark = "b";
    rows[3].config = "Y";
    rows[3].status = "failed";  // a failed cell is not a result
    EXPECT_EQ(findRow(rows, "a", "Y")->ipc, 9.0);
    EXPECT_EQ(findRow(rows, "c", "X"), nullptr);
    EXPECT_EQ(findRow(rows, "b", "Y"), nullptr);
    EXPECT_DOUBLE_EQ(
        *suiteMean(rows, "s", "X", [](const Metrics &m) { return m.ipc; }),
        2.0);
    const auto names = benchmarksIn(rows);
    ASSERT_EQ(names.size(), 2u);
    EXPECT_EQ(names[0], "a");
}

TEST(Report, SuiteMeanSkipsFailedRows)
{
    const auto ipc = [](const Metrics &m) { return m.ipc; };
    std::vector<Metrics> rows(2);
    rows[0].benchmark = "a";
    rows[0].config = "X";
    rows[0].suite = "s";
    rows[0].ipc = 4.0;
    // A failed cell comes back zero-filled; it must not read as 0.
    rows[1].benchmark = "b";
    rows[1].config = "X";
    rows[1].suite = "s";
    rows[1].status = "failed";
    EXPECT_DOUBLE_EQ(*suiteMean(rows, "s", "X", ipc), 4.0);
    // A suite with no ok row (filtered out, or all failed) has no mean.
    rows[0].status = "timeout";
    EXPECT_FALSE(suiteMean(rows, "s", "X", ipc).has_value());
    EXPECT_FALSE(suiteMean(rows, "other", "X", ipc).has_value());
}

TEST(Runner, FilterByEnv)
{
    setenv("D2M_SUITE_FILTER", "database", 1);
    const auto filtered = filteredWorkloads(allSuites());
    unsetenv("D2M_SUITE_FILTER");
    ASSERT_FALSE(filtered.empty());
    for (const auto &wl : filtered)
        EXPECT_EQ(wl.suite, "database");
}

TEST(Runner, MatchesFilterSubstringListAndExact)
{
    // Single substring pattern (historical behavior).
    EXPECT_TRUE(matchesFilter("database", "data"));
    EXPECT_FALSE(matchesFilter("database", "mobile"));

    // Comma-separated list: any pattern may match.
    EXPECT_TRUE(matchesFilter("mobile", "database,mobile"));
    EXPECT_TRUE(matchesFilter("database", "database,mobile"));
    EXPECT_FALSE(matchesFilter("hpc", "database,mobile"));

    // "=name" is exact: no substring spill-over.
    EXPECT_TRUE(matchesFilter("fft", "=fft"));
    EXPECT_FALSE(matchesFilter("fft2d", "=fft"));
    EXPECT_TRUE(matchesFilter("fft2d", "fft"));

    // Mixed forms and stray separators.
    EXPECT_TRUE(matchesFilter("fft2d", "=fft,2d"));
    EXPECT_FALSE(matchesFilter("hpc", "=fft,2d"));
    EXPECT_TRUE(matchesFilter("anything", ""));
    EXPECT_TRUE(matchesFilter("anything", ",,"));
    EXPECT_TRUE(matchesFilter("fft", ",=fft,"));
}

TEST(Runner, FilterByEnvCommaListAndExact)
{
    setenv("D2M_SUITE_FILTER", "database,mobile", 1);
    auto filtered = filteredWorkloads(allSuites());
    unsetenv("D2M_SUITE_FILTER");
    ASSERT_FALSE(filtered.empty());
    bool saw_database = false, saw_mobile = false;
    for (const auto &wl : filtered) {
        EXPECT_TRUE(wl.suite == "database" || wl.suite == "mobile")
            << wl.suite;
        saw_database |= wl.suite == "database";
        saw_mobile |= wl.suite == "mobile";
    }
    EXPECT_TRUE(saw_database);
    EXPECT_TRUE(saw_mobile);

    // Exact form: pick one concrete benchmark and expect only it.
    const auto all = allSuites();
    ASSERT_FALSE(all.empty());
    const std::string name = all.front().name;
    setenv("D2M_BENCH_FILTER", ("=" + name).c_str(), 1);
    filtered = filteredWorkloads(allSuites());
    unsetenv("D2M_BENCH_FILTER");
    ASSERT_FALSE(filtered.empty());
    for (const auto &wl : filtered)
        EXPECT_EQ(wl.name, name);
}

TEST(Runner, MetricsAreInternallyConsistent)
{
    WorkloadParams p;
    p.instructionsPerCore = 5'000;
    NamedWorkload wl{"t", "t", p};
    SweepOptions opts;
    opts.verbose = false;
    opts.warmupInstsPerCore = 1'000;
    const Metrics m = runOne(ConfigKind::D2mNsR, wl, opts);
    EXPECT_EQ(m.instructions, 4u * 5'000u);
    EXPECT_GT(m.cycles, 0u);
    EXPECT_GT(m.energyPj, 0.0);
    EXPECT_NEAR(m.edp, m.energyPj * static_cast<double>(m.cycles),
                1e-3 * m.edp);
    EXPECT_NEAR(m.ipc,
                static_cast<double>(m.instructions) /
                    static_cast<double>(m.cycles),
                1e-9);
}

} // namespace
} // namespace d2m
