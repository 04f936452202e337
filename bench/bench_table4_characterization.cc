/**
 * @file
 * Table IV: workload characterization — L1 miss ratios and late hits
 * (per instruction, Base-2L), and near-side hit ratios: L2 hits for
 * Base-3L, local NS-slice hits for D2M-NS / D2M-NS-R.
 */

#include "bench_common.hh"

int
main()
{
    using namespace d2m;
    using namespace d2m::bench;

    banner("Table IV: L1 miss ratios, late hits, near-side hit ratios",
           "Sembrant et al., HPCA'17, Table IV");

    const auto workloads = benchWorkloads();
    const auto configs = filteredConfigs(allConfigs());
    const auto rows = runSweep(configs, workloads, benchOptions());
    writeBenchJson("table4_characterization", rows);

    TextTable table({"suite", "L1I miss%", "L1D miss%", "lateI%",
                     "lateD%", "B-3L I", "B-3L D", "NS I", "NS D",
                     "NS-R I", "NS-R D"});
    for (const auto &suite : suiteNames()) {
        bool present = false;
        for (const auto &m : rows)
            present |= m.suite == suite;
        if (!present)
            continue;
        // Mean over the suite's ok rows of @p cfg; "-" when there are
        // none (the config is filtered out or every cell failed).
        auto mean = [&](const char *cfg, double Metrics::*field,
                        int decimals) {
            double sum = 0;
            unsigned n = 0;
            for (const auto &m : rows) {
                if (m.suite == suite && m.config == cfg &&
                    m.status == "ok") {
                    sum += m.*field;
                    ++n;
                }
            }
            return n ? fmt(sum / n, decimals) : std::string("-");
        };
        table.addRow({suite,
                      mean("Base-2L", &Metrics::l1iMissPct, 1),
                      mean("Base-2L", &Metrics::l1dMissPct, 1),
                      mean("Base-2L", &Metrics::lateHitIPct, 1),
                      mean("Base-2L", &Metrics::lateHitDPct, 1),
                      mean("Base-3L", &Metrics::nearHitRatioI, 0),
                      mean("Base-3L", &Metrics::nearHitRatioD, 0),
                      mean("D2M-NS", &Metrics::nearHitRatioI, 0),
                      mean("D2M-NS", &Metrics::nearHitRatioD, 0),
                      mean("D2M-NS-R", &Metrics::nearHitRatioI, 0),
                      mean("D2M-NS-R", &Metrics::nearHitRatioD, 0)});
    }
    std::printf("%s\n", table.render().c_str());
    std::printf(
        "Paper Table IV (for comparison):\n"
        "  suite     L1I/L1D miss%%  lateI/lateD%%  B-3L I/D  NS I/D  "
        "NS-R I/D\n"
        "  Parallel  0.2/1.9        0.1/2.9        67/57     28/51   "
        "82/71\n"
        "  HPC       0.0/2.2        0.0/4.6        27/69     17/54   "
        "44/79\n"
        "  Server    0.4/3.6        0.3/9.5        100/78    82/83   "
        "95/83\n"
        "  Mobile    2.2/1.3        1.8/3.0        76/59     56/66   "
        "96/73\n"
        "  Database  8.8/3.3        6.2/4.2        59/41     26/34   "
        "97/72\n");
    return d2m::bench::benchExitCode();
}
