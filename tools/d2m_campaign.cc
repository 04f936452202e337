/**
 * @file
 * Campaign driver: the full (configs x workloads) grid as one
 * crash-safe, resumable run (DESIGN.md §13).
 *
 * Usage: d2m_campaign
 *
 * The D2M_* environment configures the campaign. `--help` prints
 * every knob from the knob table (common/knobs.hh), including the
 * D2M_CAMPAIGN_* hooks that tests/ and CI use to exercise crash
 * paths.
 *
 * Exit code: 0 all cells ok, 2 some cells failed or timed out,
 * 3 interrupted (drained) before the grid completed.
 */

#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstring>

#include <sys/types.h>
#include <unistd.h>

#include "common/knobs.hh"
#include "common/logging.hh"
#include "harness/runner.hh"
#include "workload/suites.hh"

namespace
{

void
usage(std::FILE *out)
{
    std::fprintf(out,
                 "usage: d2m_campaign\n\n"
                 "Runs the full (configs x workloads) grid as one "
                 "crash-safe, resumable campaign.\n\n"
                 "Knobs (environment variables):\n");
    for (const d2m::KnobRow &k : d2m::knobTable()) {
        std::fprintf(out, "  %s%s\n      %s\n", k.env,
                     k.kind == d2m::KnobKind::U64 ? " (integer)" : "",
                     k.help);
    }
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace d2m;

    if (argc > 1) {
        const bool help = std::strcmp(argv[1], "--help") == 0 ||
                          std::strcmp(argv[1], "-h") == 0;
        if (!help)
            std::fprintf(stderr, "d2m_campaign: unknown argument '%s'\n",
                         argv[1]);
        usage(help ? stdout : stderr);
        return help ? 0 : 1;
    }

    SweepOptions opts;

    const std::uint64_t killAfter = knobU64(Knob::CampaignKillAfter);
    const std::uint64_t intAfter = knobU64(Knob::CampaignSigintAfter);
    const std::string failBench = knobStr(Knob::CampaignFailBench);
    if (killAfter || intAfter || !failBench.empty()) {
        static std::atomic<std::uint64_t> started{0};
        opts.preRunHook = [=](const NamedWorkload &wl, unsigned attempt) {
            const std::uint64_t n =
                attempt == 0 ? started.fetch_add(1) + 1 : started.load();
            if (killAfter && attempt == 0 && n == killAfter)
                ::kill(::getpid(), SIGKILL);
            if (intAfter && attempt == 0 && n == intAfter)
                std::raise(SIGINT);
            if (!failBench.empty() && wl.name == failBench)
                fatal("injected campaign failure for benchmark '%s'",
                      failBench.c_str());
        };
    }

    const auto configs = filteredConfigs(allConfigs());
    const auto workloads = filteredWorkloads(allSuites());
    std::fprintf(stderr, "d2m_campaign: %zu configs x %zu workloads\n",
                 configs.size(), workloads.size());

    runSweep(configs, workloads, opts);

    const SweepOutcome &o = lastSweepOutcome();
    std::fprintf(stderr,
                 "d2m_campaign: %zu cells (%zu executed, %zu resumed): "
                 "%zu ok, %zu failed, %zu timeout, %zu abandoned%s\n",
                 o.total, o.executed, o.fromStore, o.ok, o.failed,
                 o.timeout, o.abandoned,
                 o.interrupted ? " [interrupted]" : "");
    return campaignExitCode(o);
}
