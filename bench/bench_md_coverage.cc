/**
 * @file
 * Section II-A (D2D tracking study): the fraction of accesses whose
 * metadata was found in MD1, by the level that served the data.
 *
 *   paper: MD1 tracks 99.7% / 87.2% / 75.6% of L1 / L2 / memory hits,
 *   98.8% of all accesses combined.
 *
 * Measured on D2M-FS over every workload (the LLC plays the role of
 * the evaluated machines' second data level).
 */

#include "bench_common.hh"

#include "d2m/d2m_system.hh"

int
main()
{
    using namespace d2m;
    using namespace d2m::bench;

    banner("Section II-A: MD1 coverage by data level",
           "Sembrant et al., HPCA'17, Section II-A (99.7/87.2/75.6%, "
           "98.8% combined)");

    // [md level][data level] accumulated over all workloads.
    double matrix[3][5] = {};
    for (const auto &wl : benchWorkloads()) {
        if (benchVerbose()) {
            std::fprintf(stderr, "  running %s/%s...\n", wl.suite.c_str(),
                         wl.name.c_str());
        }
        RawRun run = runRaw(ConfigKind::D2mFs, wl);
        auto *sys = dynamic_cast<D2mSystem *>(run.system.get());
        for (int md = 0; md < 3; ++md)
            for (int lvl = 0; lvl < 5; ++lvl)
                matrix[md][lvl] += static_cast<double>(
                    sys->events().coverageMatrix[md][lvl]);
    }

    const char *levels[5] = {"L1 hit", "L2 hit", "LLC", "memory",
                             "remote node"};
    TextTable table({"data served from", "MD1 %", "MD2 %", "MD3 %",
                     "accesses"});
    double md1_total = 0, total = 0;
    for (int lvl = 0; lvl < 5; ++lvl) {
        const double col =
            matrix[0][lvl] + matrix[1][lvl] + matrix[2][lvl];
        if (col == 0)
            continue;
        table.addRow({levels[lvl],
                      fmt(100.0 * matrix[0][lvl] / col, 1),
                      fmt(100.0 * matrix[1][lvl] / col, 1),
                      fmt(100.0 * matrix[2][lvl] / col, 1),
                      std::to_string(static_cast<std::uint64_t>(col))});
        md1_total += matrix[0][lvl];
        total += col;
    }
    std::printf("%s\n", table.render().c_str());
    std::printf("Combined MD1 coverage of all accesses: %.1f%%   "
                "[paper: 98.8%%]\n",
                total > 0 ? 100.0 * md1_total / total : 0.0);
    std::printf("Paper per-level MD1 coverage: L1 99.7%%, next level "
                "87.2%%, memory 75.6%%\n");
    return 0;
}
