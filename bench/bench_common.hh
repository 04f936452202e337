/**
 * @file
 * Shared scaffolding for the table/figure reproduction binaries.
 *
 * Each bench_* binary regenerates one table or figure of the paper
 * (see DESIGN.md Section 5). Run length is controlled by
 * D2M_INSTS_PER_CORE (measured instructions per core) and D2M_WARMUP
 * (warmup before measurement; equal to the measured count when unset)
 * — the default keeps every binary in the minutes range; raise it for
 * tighter numbers.
 */

#ifndef D2M_BENCH_BENCH_COMMON_HH
#define D2M_BENCH_BENCH_COMMON_HH

#include <cstdio>
#include <string>
#include <vector>

#include "common/knobs.hh"
#include "harness/report.hh"
#include "harness/results_json.hh"
#include "harness/runner.hh"
#include "obs/json.hh"

namespace d2m::bench
{

/** Default measured instructions per core for bench sweeps. */
inline std::uint64_t
benchInsts()
{
    if (const std::uint64_t env = instsPerCoreOverride())
        return env;
    return 100'000;
}

/** Warmup instructions per core: D2M_WARMUP, else benchInsts(). */
inline std::uint64_t
benchWarmup()
{
    return knobSet(Knob::Warmup) ? knobU64(Knob::Warmup) : benchInsts();
}

/** Progress lines to stderr unless D2M_QUIET is non-zero. */
inline bool
benchVerbose()
{
    return knobU64(Knob::Quiet) == 0;
}

/** Sweep options shared by the bench binaries. */
inline SweepOptions
benchOptions()
{
    SweepOptions opts;
    opts.instsPerCore = benchInsts();
    opts.warmupInstsPerCore = benchWarmup();
    return opts;
}

/** Print the standard bench banner. */
inline void
banner(const char *what, const char *paper_ref)
{
    std::printf("==================================================="
                "=========================\n");
    std::printf("%s\n", what);
    std::printf("Reproduces: %s\n", paper_ref);
    std::printf("Measured instructions/core: %llu (+ %llu warmup); "
                "override with D2M_INSTS_PER_CORE / D2M_WARMUP\n",
                static_cast<unsigned long long>(benchInsts()),
                static_cast<unsigned long long>(benchWarmup()));
    std::printf("==================================================="
                "=========================\n\n");
}

/** Workloads after env filtering (D2M_SUITE_FILTER / D2M_BENCH_FILTER). */
inline std::vector<NamedWorkload>
benchWorkloads()
{
    return filteredWorkloads(allSuites());
}

/** A run that keeps the system alive for event-counter inspection. */
struct RawRun
{
    std::unique_ptr<MemorySystem> system;
    RunResult result;
};

/** Like runOne but returns the system (for D2M event counters). */
inline RawRun
runRaw(ConfigKind kind, const NamedWorkload &wl,
       const SweepOptions &opts = benchOptions())
{
    CellSetup cell = setUpCell(kind, wl, opts);
    RawRun out;
    out.result = runMulticore(*cell.system, cell.streams, cell.runOptions);
    out.system = std::move(cell.system);
    return out;
}

/**
 * Write the sweep's Metrics rows as BENCH_<name>.json into the
 * directory named by D2M_BENCH_JSON_DIR (no-op when unset), so CI and
 * plotting scripts consume the same numbers the tables print.
 */
inline void
writeBenchJson(const char *name, const std::vector<Metrics> &rows)
{
    const std::string dir = knobStr(Knob::BenchJsonDir);
    if (dir.empty())
        return;
    const std::string path = dir + "/BENCH_" + name + ".json";
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f) {
        std::fprintf(stderr, "warn: cannot write %s\n", path.c_str());
        return;
    }
    std::fputs("{\"bench\":", f);
    std::fputs(json::quote(name).c_str(), f);
    std::fputs(",\"rows\":[\n", f);
    for (std::size_t i = 0; i < rows.size(); ++i) {
        std::fputs(metricsToJson(rows[i]).c_str(), f);
        std::fputs(i + 1 < rows.size() ? ",\n" : "\n", f);
    }
    std::fputs("]}\n", f);
    std::fclose(f);
    std::fprintf(stderr, "wrote %s (%zu rows)\n", path.c_str(),
                 rows.size());
}

/**
 * Process exit code reflecting every sweep this binary ran: 0 clean,
 * 2 when cells failed or timed out, 3 when a drain interrupted the
 * campaign (see kCampaignExit* in harness/runner.hh). Bench mains
 * return this so CI distinguishes "figures are complete" from
 * "figures have holes".
 */
inline int
benchExitCode()
{
    return campaignExitCode();
}

/** One representative benchmark per suite (for expensive ablations). */
inline std::vector<NamedWorkload>
representativeWorkloads()
{
    std::vector<NamedWorkload> reps;
    for (const auto &wl : benchWorkloads()) {
        bool have = false;
        for (const auto &r : reps)
            have |= r.suite == wl.suite;
        if (!have)
            reps.push_back(wl);
    }
    return reps;
}

} // namespace d2m::bench

#endif // D2M_BENCH_BENCH_COMMON_HH
