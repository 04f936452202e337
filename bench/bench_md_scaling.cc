/**
 * @file
 * Footnote 5: scaling the metadata stores. The paper scales MD1 / MD2
 * / MD3 entries from 1x (128, 4K, 16K) to 2x and 4x: average speedup
 * goes 8.5% -> 9.5% while direct NS-LLC accesses rise from 78% to 86%.
 */

#include "bench_common.hh"

#include "d2m/d2m_system.hh"

int
main()
{
    using namespace d2m;
    using namespace d2m::bench;

    banner("Footnote 5: metadata store scaling (1x / 2x / 4x)",
           "Sembrant et al., HPCA'17, footnote 5");

    const auto workloads = benchWorkloads();

    // Base-2L IPC reference per workload.
    std::vector<double> base_ipc;
    for (const auto &wl : workloads) {
        base_ipc.push_back(runOne(ConfigKind::Base2L, wl,
                                  benchOptions()).ipc);
    }

    TextTable table({"scale", "MD1/MD2/MD3", "speedup vs B-2L",
                     "MD1 hit %", "direct access %", "NS local %"});
    for (unsigned scale : {1u, 2u, 4u}) {
        SweepOptions opts = benchOptions();
        opts.baseParams.md1Entries = 128 * scale;
        opts.baseParams.md2Entries = 4096 * scale;
        opts.baseParams.md3Entries = 16384 * scale;

        std::vector<double> ratios;
        double md1 = 0, md2 = 0, md3 = 0, direct = 0, local = 0;
        unsigned n = 0;
        for (size_t i = 0; i < workloads.size(); ++i) {
            if (benchVerbose()) {
                std::fprintf(stderr, "  %ux: %s/%s...\n", scale,
                             workloads[i].suite.c_str(),
                             workloads[i].name.c_str());
            }
            RawRun run = runRaw(ConfigKind::D2mNsR, workloads[i], opts);
            auto *sys = dynamic_cast<D2mSystem *>(run.system.get());
            const Metrics m =
                collectMetrics(ConfigKind::D2mNsR, workloads[i].suite,
                               workloads[i].name, *sys, run.result);
            if (base_ipc[i] > 0)
                ratios.push_back(m.ipc / base_ipc[i]);
            const auto &ev = sys->events();
            md1 += static_cast<double>(ev.md1Hits.value());
            md2 += static_cast<double>(ev.md2Hits.value());
            md3 += static_cast<double>(ev.md3Lookups.value());
            direct += m.directAccessPct;
            local += m.nsLocalPct;
            ++n;
        }
        const double lookups = md1 + md2 + md3;
        table.addRow({std::to_string(scale) + "x",
                      std::to_string(128 * scale) + "/" +
                          std::to_string(4096 * scale) + "/" +
                          std::to_string(16384 * scale),
                      fmtGeomeanPct(ratios),
                      fmt(lookups > 0 ? 100.0 * md1 / lookups : 0, 1),
                      fmt(n ? direct / n : 0, 1),
                      fmt(n ? local / n : 0, 1)});
    }
    std::printf("%s\n", table.render().c_str());
    std::printf("[paper: 1x -> 2x raises average speedup 8.5%% -> 9.5%%; "
                "direct NS-LLC accesses 78%% -> 86%%]\n");
    return 0;
}
