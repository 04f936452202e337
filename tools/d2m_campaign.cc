/**
 * @file
 * Campaign driver: the full (configs x workloads) grid as one
 * crash-safe, resumable run (DESIGN.md §13).
 *
 * Usage: d2m_campaign [--manifest=FILE]
 *
 * A manifest (harness/manifest.hh) declares the whole campaign in one
 * file; applying it seeds the environment, and variables already set
 * in the environment win over manifest values — so a manifest-driven
 * campaign is exactly the equivalent env-var-driven one. `--help`
 * prints every knob from the knob table (common/knobs.hh), including
 * the D2M_CAMPAIGN_* hooks that tests/ and CI use to exercise crash
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
#include "harness/manifest.hh"
#include "harness/runner.hh"
#include "harness/store.hh"
#include "workload/suites.hh"

namespace
{

void
usage(std::FILE *out)
{
    std::fprintf(out,
                 "usage: d2m_campaign [--manifest=FILE]\n\n"
                 "Runs the full (configs x workloads) grid as one "
                 "crash-safe, resumable campaign.\nA manifest seeds "
                 "the D2M_* environment (already-set variables win).\n\n"
                 "Knobs ([section] key -> variable):\n");
    const char *section = "";
    for (const d2m::KnobRow &k : d2m::knobTable()) {
        const char *s = k.section ? k.section : "environment only";
        if (std::strcmp(section, s) != 0) {
            section = s;
            std::fprintf(out, "  [%s]\n", section);
        }
        std::fprintf(out, "    %-17s -> %s%s\n        %s\n",
                     k.key ? k.key : "", k.env,
                     k.kind == d2m::KnobKind::U64 ? " (integer)" : "",
                     k.help);
    }
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace d2m;

    std::string manifestPath;
    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        if (std::strcmp(arg, "--help") == 0 ||
            std::strcmp(arg, "-h") == 0) {
            usage(stdout);
            return 0;
        } else if (std::strncmp(arg, "--manifest=", 11) == 0) {
            manifestPath = arg + 11;
        } else if (std::strcmp(arg, "--manifest") == 0 &&
                   i + 1 < argc) {
            manifestPath = argv[++i];
        } else {
            std::fprintf(stderr, "d2m_campaign: unknown argument '%s'\n",
                         arg);
            usage(stderr);
            return 1;
        }
    }
    if (!manifestPath.empty()) {
        Manifest m = parseManifestFile(manifestPath);
        applyManifest(m, knobU64(Knob::Quiet) == 0);
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
