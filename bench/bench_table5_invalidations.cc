/**
 * @file
 * Table V: received invalidations (including false invalidations) for
 * D2M-NS-R normalized to Base-2L, and the percentage of misses to
 * regions classified private (paper: 68% on average; Server 100%).
 */

#include "bench_common.hh"

int
main()
{
    using namespace d2m;
    using namespace d2m::bench;

    banner("Table V: invalidations vs Base-2L and private-region misses",
           "Sembrant et al., HPCA'17, Table V (avg 68% of misses to "
           "private regions)");

    const auto workloads = benchWorkloads();
    const std::vector<ConfigKind> configs{ConfigKind::Base2L,
                                          ConfigKind::D2mNsR};
    const auto rows = runSweep(configs, workloads, benchOptions());
    writeBenchJson("table5_invalidations", rows);

    TextTable table({"suite", "benchmark", "inv B-2L", "inv NS-R",
                     "NS-R/B-2L %", "private miss %"});
    std::string last_suite;
    for (const auto &name : benchmarksIn(rows)) {
        const Metrics *b2 = findRow(rows, name, "Base-2L");
        const Metrics *nsr = findRow(rows, name, "D2M-NS-R");
        if (!b2 || !nsr)
            continue;
        if (b2->suite != last_suite && !last_suite.empty())
            table.addSeparator();
        last_suite = b2->suite;
        const double rel =
            b2->invalidationsReceived
                ? 100.0 * static_cast<double>(nsr->invalidationsReceived) /
                      static_cast<double>(b2->invalidationsReceived)
                : 0.0;
        table.addRow({b2->suite, name,
                      std::to_string(b2->invalidationsReceived),
                      std::to_string(nsr->invalidationsReceived),
                      fmt(rel, 0), fmt(nsr->privateMissPct, 0)});
    }
    std::printf("%s\n", table.render().c_str());

    double private_sum = 0;
    unsigned n = 0;
    for (const auto &suite : suiteNames()) {
        const auto pct = suiteMean(rows, suite, "D2M-NS-R",
                                   [](const Metrics &m) {
                                       return m.privateMissPct;
                                   });
        if (!pct)
            continue;  // filtered out or failed: not a 0% suite
        std::printf("  %-10s misses to private regions: %.0f%%\n",
                    suite.c_str(), *pct);
        private_sum += *pct;
        ++n;
    }
    std::printf("  %-10s misses to private regions: %s   "
                "[paper: 68%% average, Server 100%%]\n",
                "AVERAGE",
                n ? (fmt(private_sum / n, 0) + "%").c_str() : "n/a");
    return d2m::bench::benchExitCode();
}
