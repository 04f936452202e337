/**
 * @file
 * Appendix: protocol-event frequencies in events per kilo memory
 * operation (PKMO) on the basic D2M-FS architecture, averaged across
 * all application categories, mirroring the Appendix's accounting:
 *
 *   paper: A (read miss, MD hit) 12.5 = MD1 9.2 + MD2 3.3, served
 *   from LLC 8.9 / memory 2.7 / remote node 0.8; B 1.7; C 0.72;
 *   D 0.82 = D1 0.32 + D2 0.02 + D3 0.14 + D4 0.34; ~90% of misses
 *   (cases A and B) need no directory interaction.
 */

#include "bench_common.hh"

#include "d2m/d2m_system.hh"

int
main()
{
    using namespace d2m;
    using namespace d2m::bench;

    banner("Appendix: D2M-FS protocol events per kilo memory operation",
           "Sembrant et al., HPCA'17, Appendix (cases A-F, D1-D4)");

    struct Acc
    {
        double aMd1 = 0, aMd2 = 0, aLlc = 0, aMem = 0, aRemote = 0;
        double b = 0, c = 0, d1 = 0, d2 = 0, d3 = 0, d4 = 0;
        double e = 0, f = 0, direct_pct = 0;
        unsigned n = 0;
    } acc;

    for (const auto &wl : benchWorkloads()) {
        if (benchVerbose()) {
            std::fprintf(stderr, "  running %s/%s on D2M-FS...\n",
                         wl.suite.c_str(), wl.name.c_str());
        }
        RawRun run = runRaw(ConfigKind::D2mFs, wl);
        auto *sys = dynamic_cast<D2mSystem *>(run.system.get());
        const auto &ev = sys->events();
        const auto &hs = sys->hierStats();
        const double kmo =
            std::max<double>(1.0, static_cast<double>(hs.accesses.value()))
            / 1000.0;
        acc.aMd1 += ev.aMd1.value() / kmo;
        acc.aMd2 += ev.aMd2.value() / kmo;
        acc.aLlc += ev.aMasterLlc.value() / kmo;
        acc.aMem += ev.aMasterMem.value() / kmo;
        acc.aRemote += ev.aMasterRemote.value() / kmo;
        acc.b += ev.b.value() / kmo;
        acc.c += ev.c.value() / kmo;
        acc.d1 += ev.d1.value() / kmo;
        acc.d2 += ev.d2.value() / kmo;
        acc.d3 += ev.d3.value() / kmo;
        acc.d4 += ev.d4.value() / kmo;
        acc.e += ev.e.value() / kmo;
        acc.f += ev.f.value() / kmo;
        const double misses = static_cast<double>(
            hs.l1iMisses.value() + hs.l1dMisses.value());
        if (misses > 0) {
            acc.direct_pct +=
                100.0 * ev.directAccesses.value() / misses;
        }
        ++acc.n;
    }

    const double n = acc.n ? acc.n : 1;
    TextTable table({"event", "measured PKMO", "paper PKMO"});
    table.addRow({"A: read miss, MD1 hit", fmt(acc.aMd1 / n, 2), "9.2"});
    table.addRow({"A: read miss, MD2 hit", fmt(acc.aMd2 / n, 2), "3.3"});
    table.addRow({"A served from LLC", fmt(acc.aLlc / n, 2), "8.9"});
    table.addRow({"A served from memory", fmt(acc.aMem / n, 2), "2.7"});
    table.addRow({"A served from remote node", fmt(acc.aRemote / n, 2),
                  "0.8"});
    table.addRow({"B: write miss, private", fmt(acc.b / n, 2), "1.7"});
    table.addRow({"C: write miss, shared", fmt(acc.c / n, 2), "0.72"});
    table.addRow({"D1: untracked->private", fmt(acc.d1 / n, 2), "0.32"});
    table.addRow({"D2: private->shared", fmt(acc.d2 / n, 2), "0.02"});
    table.addRow({"D3: shared->shared", fmt(acc.d3 / n, 2), "0.14"});
    table.addRow({"D4: uncached->private", fmt(acc.d4 / n, 2), "0.34"});
    table.addRow({"E: private master eviction", fmt(acc.e / n, 2), "-"});
    table.addRow({"F: shared master eviction", fmt(acc.f / n, 2), "-"});
    std::printf("%s\n", table.render().c_str());

    std::printf("Misses served without MD3/directory interaction "
                "(cases A+B): %.0f%%   [paper: ~90%%]\n",
                acc.direct_pct / n);
    return 0;
}
