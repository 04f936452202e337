/**
 * @file
 * Ablation study over the D2M design points DESIGN.md calls out (one
 * representative benchmark per suite):
 *   - the optimization ladder FS -> NS -> NS+replication -> NS-R
 *     (replication + dynamic indexing),
 *   - MD2 pruning on/off (Section IV-A),
 *   - NS placement: paper's pressure heuristic vs always-local.
 */

#include "bench_common.hh"

#include "d2m/d2m_system.hh"

namespace
{

using namespace d2m;
using namespace d2m::bench;

Metrics
runVariant(const NamedWorkload &wl, const SystemParams &params)
{
    auto sys = std::make_unique<D2mSystem>("d2m", params);
    auto streams = makeStreams(wl, params.numNodes, params.lineSize,
                               2 * benchInsts());
    RunOptions ropts;
    ropts.warmupInstsPerCore = benchInsts();
    const RunResult run = runMulticore(*sys, streams, ropts);
    return collectMetrics(ConfigKind::D2mNsR, wl.suite, wl.name, *sys,
                          run);
}

} // namespace

int
main()
{
    using namespace d2m;
    using namespace d2m::bench;

    banner("Ablation: optimization ladder, pruning, placement",
           "Sembrant et al., HPCA'17, Sections IV-A..IV-D "
           "(marginal contributions)");

    struct Variant
    {
        const char *name;
        SystemParams params;
    };
    std::vector<Variant> variants;
    {
        SystemParams fs = paramsFor(ConfigKind::D2mFs);
        variants.push_back({"FS (base D2M)", fs});
        SystemParams ns = paramsFor(ConfigKind::D2mNs);
        variants.push_back({"NS (placement)", ns});
        SystemParams nsr = ns;
        nsr.replication = true;
        variants.push_back({"NS + replication", nsr});
        SystemParams full = paramsFor(ConfigKind::D2mNsR);
        variants.push_back({"NS-R (+ dyn. indexing)", full});
        SystemParams noprune = full;
        noprune.md2Pruning = false;
        variants.push_back({"NS-R, pruning off", noprune});
        SystemParams local_only = full;
        local_only.nsRemoteAllocShare = 0.0;
        variants.push_back({"NS-R, always-local alloc", local_only});
        SystemParams bypass = full;
        bypass.llcBypass = true;
        variants.push_back({"NS-R + LLC bypass (ext.)", bypass});
    }

    for (const auto &wl : representativeWorkloads()) {
        const Metrics base =
            runOne(ConfigKind::Base2L, wl, benchOptions());
        std::printf("%s / %s (vs Base-2L):\n", wl.suite.c_str(),
                    wl.name.c_str());
        TextTable table({"variant", "speedup", "traffic", "EDP",
                         "priv miss %", "NS local %"});
        for (const auto &v : variants) {
            if (benchVerbose()) {
                std::fprintf(stderr, "  %s: %s...\n", wl.name.c_str(),
                             v.name);
            }
            const Metrics m = runVariant(wl, v.params);
            table.addRow(
                {v.name,
                 fmt(base.ipc > 0 ? 100.0 * (m.ipc / base.ipc - 1) : 0,
                     1) + "%",
                 fmt(base.msgsPerKiloInst > 0
                         ? m.msgsPerKiloInst / base.msgsPerKiloInst
                         : 0, 2) + "x",
                 fmt(base.edp > 0 ? m.edp / base.edp : 0, 2) + "x",
                 fmt(m.privateMissPct, 0), fmt(m.nsLocalPct, 0)});
        }
        std::printf("%s\n", table.render().c_str());
    }
    return 0;
}
