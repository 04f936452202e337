/**
 * @file
 * Figure 5: interconnect network traffic in messages per thousand
 * instructions, per benchmark, for Base-2L / Base-3L / D2M-FS /
 * D2M-NS / D2M-NS-R; D2M-only metadata traffic reported separately
 * (the paper's light bars). The paper's headline: D2M-NS-R reduces
 * traffic by ~70% on average, with canneal and streamcluster as
 * outliers.
 */

#include "bench_common.hh"

int
main()
{
    using namespace d2m;
    using namespace d2m::bench;

    banner("Figure 5: network traffic (messages / 1000 instructions)",
           "Sembrant et al., HPCA'17, Figure 5");

    const auto workloads = benchWorkloads();
    const auto configs = filteredConfigs(allConfigs());
    const auto rows = runSweep(configs, workloads, benchOptions());
    writeBenchJson("fig5_traffic", rows);

    TextTable table({"suite", "benchmark", "B-2L", "B-3L", "D2M-FS",
                     "D2M-NS", "D2M-NS-R", "NS-R d2m-only",
                     "NS-R vs B-2L"});
    std::string last_suite;
    for (const auto &name : benchmarksIn(rows)) {
        const Metrics *b2 = findRow(rows, name, "Base-2L");
        const Metrics *nsr = findRow(rows, name, "D2M-NS-R");
        if (!b2 || !nsr)
            continue;
        if (b2->suite != last_suite && !last_suite.empty())
            table.addSeparator();
        last_suite = b2->suite;
        std::vector<std::string> cells{b2->suite, name};
        for (const auto kind : configs) {
            const Metrics *m = findRow(rows, name, configKindName(kind));
            cells.push_back(m ? fmt(m->msgsPerKiloInst) : "-");
        }
        cells.push_back(fmt(nsr->d2mMsgsPerKiloInst));
        cells.push_back(fmt(nsr->msgsPerKiloInst /
                            std::max(1e-9, b2->msgsPerKiloInst), 2) + "x");
        table.addRow(std::move(cells));
    }
    std::printf("%s\n", table.render().c_str());

    // Suite and overall geomeans of the traffic ratio.
    std::printf("Traffic of D2M-NS-R relative to Base-2L (geomean):\n");
    std::vector<double> all_ratios;
    for (const auto &suite : suiteNames()) {
        std::vector<double> ratios;
        for (const auto &name : benchmarksIn(rows)) {
            const Metrics *b2 = findRow(rows, name, "Base-2L");
            const Metrics *nsr = findRow(rows, name, "D2M-NS-R");
            if (b2 && nsr && b2->suite == suite &&
                b2->msgsPerKiloInst > 0) {
                ratios.push_back(nsr->msgsPerKiloInst /
                                 b2->msgsPerKiloInst);
                all_ratios.push_back(ratios.back());
            }
        }
        if (!ratios.empty()) {
            std::printf("  %-10s %s\n", suite.c_str(),
                        fmtGeomeanRatio(ratios).c_str());
        }
    }
    std::printf("  %-10s %s   [paper: -70%% average]\n", "ALL",
                fmtGeomeanRatio(all_ratios).c_str());
    return d2m::bench::benchExitCode();
}
