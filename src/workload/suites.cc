#include "workload/suites.hh"

#include <cstdlib>

#include "common/knobs.hh"

namespace d2m
{

namespace
{

constexpr std::uint64_t KiB = 1024;
constexpr std::uint64_t MiB = 1024 * 1024;

/** Common baseline for a suite, tweaked per benchmark. */
WorkloadParams
base(std::uint64_t seed)
{
    WorkloadParams p;
    p.seed = seed;
    return p;
}

NamedWorkload
wl(const char *suite, const char *name, WorkloadParams p)
{
    return NamedWorkload{suite, name, p};
}

} // namespace

std::vector<NamedWorkload>
parallelSuite()
{
    std::vector<NamedWorkload> v;
    // Parsec-like: modest code, shared heaps, varied data locality.
    {   // blackscholes: small working set, little sharing.
        auto p = base(101);
        p.codeFootprint = 24 * KiB;
        p.privateFootprint = 512 * KiB;
        p.sharedFootprint = 256 * KiB;
        p.sharedFraction = 0.04;
        p.streamFraction = 0.5;
        v.push_back(wl("parallel", "blackscholes", p));
    }
    {   // bodytrack: moderate sharing on a medium heap.
        auto p = base(102);
        p.codeFootprint = 48 * KiB;
        p.privateFootprint = 1 * MiB;
        p.sharedFootprint = 1 * MiB;
        p.sharedFraction = 0.12;
        v.push_back(wl("parallel", "bodytrack", p));
    }
    {   // canneal: huge, nearly random footprint — the paper's MD2-miss
        // outlier.
        auto p = base(103);
        p.codeFootprint = 32 * KiB;
        p.privateFootprint = 24 * MiB;
        p.sharedFootprint = 8 * MiB;
        p.sharedFraction = 0.25;
        p.streamFraction = 0.05;
        p.stackFraction = 0.15;
        p.hotDataFraction = 0.78;
        p.hotSharedFraction = 0.6;
        v.push_back(wl("parallel", "canneal", p));
    }
    {   // dedup: pipeline with shared queues.
        auto p = base(104);
        p.codeFootprint = 64 * KiB;
        p.privateFootprint = 2 * MiB;
        p.sharedFootprint = 1 * MiB;
        p.sharedFraction = 0.18;
        p.storeFraction = 0.35;
        v.push_back(wl("parallel", "dedup", p));
    }
    {   // ferret: similarity search, read-mostly sharing.
        auto p = base(105);
        p.codeFootprint = 96 * KiB;
        p.privateFootprint = 2 * MiB;
        p.sharedFootprint = 2 * MiB;
        p.sharedFraction = 0.15;
        p.storeFraction = 0.15;
        v.push_back(wl("parallel", "ferret", p));
    }
    {   // fluidanimate: neighbor exchanges, fine-grain sharing.
        auto p = base(106);
        p.codeFootprint = 40 * KiB;
        p.privateFootprint = 1 * MiB;
        p.sharedFootprint = 512 * KiB;
        p.sharedFraction = 0.2;
        p.storeFraction = 0.4;
        v.push_back(wl("parallel", "fluidanimate", p));
    }
    {   // streamcluster: streaming misses straight to memory — the
        // paper's other outlier (latency win, no traffic win).
        auto p = base(107);
        p.codeFootprint = 24 * KiB;
        p.privateFootprint = 32 * MiB;
        p.sharedFootprint = 256 * KiB;
        p.sharedFraction = 0.03;
        p.streamFraction = 0.95;
        p.stackFraction = 0.1;
        v.push_back(wl("parallel", "streamcluster", p));
    }
    {   // swaptions: tiny working set, embarrassingly parallel.
        auto p = base(108);
        p.codeFootprint = 24 * KiB;
        p.privateFootprint = 256 * KiB;
        p.sharedFootprint = 64 * KiB;
        p.sharedFraction = 0.02;
        v.push_back(wl("parallel", "swaptions", p));
    }
    {   // x264: medium code, sliding-window reuse, some sharing.
        auto p = base(109);
        p.codeFootprint = 160 * KiB;
        p.branchiness = 0.25;
        p.privateFootprint = 4 * MiB;
        p.sharedFootprint = 2 * MiB;
        p.sharedFraction = 0.1;
        v.push_back(wl("parallel", "x264", p));
    }
    return v;
}

std::vector<NamedWorkload>
hpcSuite()
{
    std::vector<NamedWorkload> v;
    {   // barnes: tree walks, pointer-chasing sharing.
        auto p = base(201);
        p.codeFootprint = 32 * KiB;
        p.privateFootprint = 2 * MiB;
        p.sharedFootprint = 2 * MiB;
        p.sharedFraction = 0.22;
        p.streamFraction = 0.2;
        v.push_back(wl("hpc", "barnes", p));
    }
    {   // cholesky: blocked factorization.
        auto p = base(202);
        p.codeFootprint = 24 * KiB;
        p.privateFootprint = 4 * MiB;
        p.sharedFootprint = 2 * MiB;
        p.sharedFraction = 0.15;
        p.streamFraction = 0.45;
        v.push_back(wl("hpc", "cholesky", p));
    }
    {   // fft: butterfly exchanges with large strides.
        auto p = base(203);
        p.codeFootprint = 16 * KiB;
        p.privateFootprint = 8 * MiB;
        p.sharedFootprint = 4 * MiB;
        p.sharedFraction = 0.2;
        p.streamFraction = 0.5;
        p.storeFraction = 0.4;
        v.push_back(wl("hpc", "fft", p));
    }
    {   // lu: the paper's dynamic-indexing example — power-of-two
        // strides cause conflict misses under conventional indexing.
        auto p = base(204);
        p.codeFootprint = 16 * KiB;
        p.privateFootprint = 8 * MiB;
        p.sharedFootprint = 1 * MiB;
        p.sharedFraction = 0.08;
        p.stridedPattern = true;
        p.strideBytes = 256 * KiB;
        p.stackFraction = 0.1;
        p.streamFraction = 0.2;
        v.push_back(wl("hpc", "lu", p));
    }
    {   // ocean: stencil sweeps over big grids.
        auto p = base(205);
        p.codeFootprint = 32 * KiB;
        p.privateFootprint = 16 * MiB;
        p.sharedFootprint = 4 * MiB;
        p.sharedFraction = 0.12;
        p.streamFraction = 0.6;
        p.storeFraction = 0.45;
        v.push_back(wl("hpc", "ocean", p));
    }
    {   // radix: scatter writes across a shared histogram.
        auto p = base(206);
        p.codeFootprint = 12 * KiB;
        p.privateFootprint = 8 * MiB;
        p.sharedFootprint = 2 * MiB;
        p.sharedFraction = 0.3;
        p.streamFraction = 0.5;
        p.storeFraction = 0.5;
        v.push_back(wl("hpc", "radix", p));
    }
    {   // raytrace: shared scene, read-mostly.
        auto p = base(207);
        p.codeFootprint = 64 * KiB;
        p.privateFootprint = 1 * MiB;
        p.sharedFootprint = 8 * MiB;
        p.sharedFraction = 0.35;
        p.storeFraction = 0.08;
        p.streamFraction = 0.1;
        v.push_back(wl("hpc", "raytrace", p));
    }
    {   // water: small molecular dynamics, high locality.
        auto p = base(208);
        p.codeFootprint = 24 * KiB;
        p.privateFootprint = 512 * KiB;
        p.sharedFootprint = 256 * KiB;
        p.sharedFraction = 0.12;
        v.push_back(wl("hpc", "water", p));
    }
    return v;
}

std::vector<NamedWorkload>
mobileSuite()
{
    // Chrome-like: large instruction footprints dominate (Table IV:
    // 2.2% L1-I miss ratio), modest data, shared library code.
    const char *sites[] = {"amazon", "booking",  "cnn",       "ebay",
                           "facebook", "google", "reddit",    "twitter",
                           "wikipedia", "youtube"};
    std::vector<NamedWorkload> v;
    std::uint64_t seed = 301;
    for (const char *site : sites) {
        auto p = base(seed);
        // Hot code per site: ~0.6-1.1 MiB, sized so the replicated
        // instruction working set fits an NS-LLC slice (the paper's
        // mobile runs reach 96% near-side instruction hits, implying
        // slice-resident code).
        p.codeFootprint = (640 * KiB) + (seed % 5) * 128 * KiB;
        p.branchiness = 0.4;
        p.hotCodeFraction = 0.80;
        p.warmCodeFraction = 0.17;
        p.avgRunLength = 9;
        p.privateFootprint = 2 * MiB;
        p.sharedFootprint = 512 * KiB;
        p.sharedFraction = 0.05;
        p.memOpsPerInst = 0.3;
        p.streamFraction = 0.12;
        p.hotDataFraction = 0.90;
        // Chrome is multi-process: private data spaces, shared text.
        p.disjointAsids = true;
        p.sharedCode = true;
        ++seed;
        v.push_back(wl("mobile", site, p));
    }
    // cnn gets extra data pressure: the paper singles it out as the
    // case where the naive NS placement heuristic misfires.
    v[2].params.privateFootprint = 12 * MiB;
    v[2].params.streamFraction = 0.2;
    return v;
}

std::vector<NamedWorkload>
serverSuite()
{
    // SPEC CPU2006 mixes: one independent program per core (disjoint
    // address spaces), so all data is private (Table V: 100%).
    std::vector<NamedWorkload> v;
    struct Mix { const char *name; std::uint64_t data; double stream; };
    const Mix mixes[] = {
        {"mix1", 2 * MiB, 0.4},   // cpu-bound integer mix
        {"mix2", 8 * MiB, 0.6},   // streaming fp mix
        {"mix3", 16 * MiB, 0.25},  // memory-bound pointer mix
        {"mix4", 4 * MiB, 0.35},   // balanced mix
    };
    std::uint64_t seed = 401;
    for (const auto &m : mixes) {
        auto p = base(seed++);
        p.codeFootprint = 320 * KiB;
        p.branchiness = 0.3;
        p.hotCodeFraction = 0.98;
        p.avgRunLength = 12;
        p.privateFootprint = m.data;
        p.streamFraction = m.stream;
        p.sharedFootprint = 0;
        p.sharedFraction = 0.0;
        p.disjointAsids = true;
        p.sharedCode = false;  // four distinct binaries
        p.memOpsPerInst = 0.4;
        v.push_back(wl("server", m.name, p));
    }
    return v;
}

std::vector<NamedWorkload>
databaseSuite()
{
    // TPC-C on MySQL/InnoDB: a huge instruction footprint (Table IV:
    // 8.8% L1-I misses on Base-2L) plus a shared buffer pool.
    std::vector<NamedWorkload> v;
    auto p = base(501);
    p.codeFootprint = 6 * MiB;
    p.branchiness = 0.5;
    p.hotCodeFraction = 0.50;
    p.warmCodeFraction = 0.38;
    p.avgRunLength = 6;
    p.privateFootprint = 2 * MiB;
    p.sharedFootprint = 8 * MiB;
    p.sharedFraction = 0.15;
    p.storeFraction = 0.2;
    p.memOpsPerInst = 0.4;
    p.streamFraction = 0.1;
    v.push_back(wl("database", "tpcc", p));
    return v;
}

std::vector<NamedWorkload>
allSuites()
{
    std::vector<NamedWorkload> all;
    for (auto f : {parallelSuite, hpcSuite, mobileSuite, serverSuite,
                   databaseSuite}) {
        auto s = f();
        all.insert(all.end(), s.begin(), s.end());
    }
    return all;
}

std::vector<std::string>
suiteNames()
{
    return {"parallel", "hpc", "mobile", "server", "database"};
}

std::uint64_t
instsPerCoreOverride()
{
    return knobU64(Knob::InstsPerCore);
}

std::vector<std::unique_ptr<AccessStream>>
makeStreams(const NamedWorkload &wl_in, unsigned num_cores,
            unsigned line_size, std::uint64_t insts_override)
{
    WorkloadParams p = wl_in.params;
    if (insts_override)
        p.instructionsPerCore = insts_override;
    else if (const std::uint64_t env = instsPerCoreOverride())
        p.instructionsPerCore = env;
    std::vector<std::unique_ptr<AccessStream>> streams;
    streams.reserve(num_cores);
    for (unsigned c = 0; c < num_cores; ++c)
        streams.push_back(
            std::make_unique<SyntheticStream>(p, c, line_size));
    return streams;
}

} // namespace d2m
