/**
 * @file
 * Parallel-vs-serial sweep equivalence: the work-stealing pool must
 * produce bit-identical per-run results and the same output ordering
 * as the historical serial loop.
 *
 * Host-timing fields (sim_kips, warmup_wall_sec, measure_wall_sec)
 * are the one legitimate difference between two executions of the
 * same run, so comparisons zero them first — everything else must
 * match byte for byte.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "harness/results_json.hh"
#include "harness/runner.hh"

namespace d2m
{
namespace
{

std::vector<NamedWorkload>
smallWorkloads()
{
    WorkloadParams p;
    p.instructionsPerCore = 1'500;
    p.sharedFootprint = 32 * 1024;
    p.sharedFraction = 0.3;
    std::vector<NamedWorkload> v;
    for (int i = 0; i < 3; ++i) {
        p.seed = 100 + i;
        v.push_back({"ptest", "wl" + std::to_string(i), p});
    }
    return v;
}

SweepOptions
sweepOptions(unsigned jobs)
{
    SweepOptions opts;
    opts.verbose = false;
    opts.warmupInstsPerCore = 500;
    opts.jobs = jobs;
    return opts;
}

/** metricsToJson with the host-timing fields zeroed. */
std::string
normalizedRow(Metrics m)
{
    m.simKips = 0;
    m.warmupWallSec = 0;
    m.measureWallSec = 0;
    return metricsToJson(m);
}

/** Zero the numeric value following every @p key in a JSON string. */
void
zeroJsonField(std::string &doc, const std::string &key)
{
    const std::string needle = "\"" + key + "\":";
    std::size_t pos = 0;
    while ((pos = doc.find(needle, pos)) != std::string::npos) {
        const std::size_t start = pos + needle.size();
        std::size_t end = start;
        while (end < doc.size() && doc[end] != ',' && doc[end] != '}')
            ++end;
        doc.replace(start, end - start, "0");
        pos = start;
    }
}

std::string
normalizedDoc(std::string doc)
{
    zeroJsonField(doc, "sim_kips");
    zeroJsonField(doc, "warmup_wall_sec");
    zeroJsonField(doc, "measure_wall_sec");
    return doc;
}

const std::vector<ConfigKind> kConfigs = {
    ConfigKind::Base2L, ConfigKind::D2mFs, ConfigKind::D2mNsR};

TEST(ParallelSweep, RowsMatchSerialBitForBit)
{
    // The stats-JSON document for this whole binary accumulates into
    // one file; point it somewhere inspectable before the first run.
    const std::string json_path =
        testing::TempDir() + "parallel_sweep_stats.json";
    ::setenv("D2M_STATS_JSON", json_path.c_str(), 1);

    const auto workloads = smallWorkloads();
    const auto serial = runSweep(kConfigs, workloads, sweepOptions(1));
    const auto parallel = runSweep(kConfigs, workloads, sweepOptions(4));

    ASSERT_EQ(serial.size(), kConfigs.size() * workloads.size());
    ASSERT_EQ(parallel.size(), serial.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        // Same row, same position: identity plus ordering in one shot.
        EXPECT_EQ(serial[i].config, parallel[i].config) << i;
        EXPECT_EQ(serial[i].benchmark, parallel[i].benchmark) << i;
        EXPECT_EQ(normalizedRow(serial[i]), normalizedRow(parallel[i]))
            << "row " << i << " (" << serial[i].config << "/"
            << serial[i].benchmark << ")";
    }

    // Rows come out workload-major exactly like the serial loop wrote
    // them historically.
    std::size_t i = 0;
    for (const auto &wl : workloads) {
        for (ConfigKind kind : kConfigs) {
            EXPECT_EQ(parallel[i].benchmark, wl.name);
            EXPECT_EQ(parallel[i].config, configKindName(kind));
            ++i;
        }
    }

    // The D2M_STATS_JSON document now holds both sweeps, serial rows
    // first (slots are reserved sweep-by-sweep). After zeroing the
    // host-timing fields the parallel half must equal the serial half
    // byte for byte — content AND order.
    std::ifstream in(json_path);
    ASSERT_TRUE(in.good()) << json_path;
    std::vector<std::string> lines;
    for (std::string line; std::getline(in, line);)
        lines.push_back(line);
    // Layout: header "{"runs":[", one row per line, footer "]}".
    ASSERT_EQ(lines.size(), 2 * serial.size() + 2);
    auto row_at = [&](std::size_t idx) {
        std::string row = lines[1 + idx];
        if (!row.empty() && row.back() == ',')
            row.pop_back();
        return normalizedDoc(std::move(row));
    };
    for (std::size_t r = 0; r < serial.size(); ++r)
        EXPECT_EQ(row_at(r), row_at(serial.size() + r)) << "row " << r;

    std::remove(json_path.c_str());
    ::unsetenv("D2M_STATS_JSON");
}

TEST(ParallelSweep, AutoJobsRespectsExplicitOption)
{
    // jobs=2 on a 2-run sweep: exercises the pool path end to end on
    // the narrowest possible sweep.
    const auto workloads = smallWorkloads();
    const std::vector<NamedWorkload> one = {workloads[0]};
    const std::vector<ConfigKind> two = {ConfigKind::Base2L,
                                         ConfigKind::D2mFs};
    const auto serial = runSweep(two, one, sweepOptions(1));
    const auto parallel = runSweep(two, one, sweepOptions(2));
    ASSERT_EQ(serial.size(), 2u);
    ASSERT_EQ(parallel.size(), 2u);
    for (std::size_t i = 0; i < 2; ++i)
        EXPECT_EQ(normalizedRow(serial[i]), normalizedRow(parallel[i]));
}

TEST(ParallelSweep, RepeatedParallelSweepsAreDeterministic)
{
    const auto workloads = smallWorkloads();
    const auto a = runSweep(kConfigs, workloads, sweepOptions(4));
    const auto b = runSweep(kConfigs, workloads, sweepOptions(4));
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i)
        EXPECT_EQ(normalizedRow(a[i]), normalizedRow(b[i])) << i;
}

} // namespace
} // namespace d2m
