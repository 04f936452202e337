/**
 * @file
 * Fixed-work benchmark of the D2M simulator: host speed, the modelled
 * D2M-NS-R / Base-2L ratios, a correctness gate, and (with --trace 1)
 * per-layer costs from a separate traced run. perfbench/README.md
 * describes the workloads and metrics; perfbench/run.py builds this
 * binary and runs it.
 *
 * Each workload is one fixed unit of work, repeated until --seconds
 * is used up; an untraced run reports the best repeat (see bestOf), a
 * traced run the median repeat. The last stdout line is the result:
 *   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
 */

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "harness/configs.hh"
#include "harness/metrics.hh"
#include "harness/runner.hh"
#include "obs/json.hh"
#include "traced_run.hh"
#include "workload/suites.hh"

extern char **environ;

namespace
{

using namespace d2m;
using perfbench::Layer;
using Clock = std::chrono::steady_clock;

/** D2M caps at 8 nodes (LI encoding); single-run pairs use all 8. */
constexpr unsigned kPairNodes = 8;
/** Sweep pool size, further capped by the host's thread count. */
constexpr unsigned kMaxJobs = 4;
/** Traced run: one access in this many is timed. */
constexpr unsigned kSampleEvery = 64;
/** Spans kept in memory for the span file (8 per sampled access). */
constexpr std::size_t kSpanCapacity = std::size_t(1) << 15;
/** Repeats of the unit of work in an untraced run, at least. */
constexpr std::size_t kMinReps = 3;
/** Set-ups timed per repeat for setup_s (median taken). */
constexpr std::size_t kSetupRepeats = 11;

constexpr ConfigKind kPair[] = {ConfigKind::D2mNsR, ConfigKind::Base2L};

struct Options
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 10;
    bool trace = false;
    std::uint64_t insts = 0;  //!< Measured insts/core; 0 = workload's.
    bool faultControl = false;
    std::string outDir;
    std::string commit = "unknown";
    std::string sourceHash = "unknown";
};

[[noreturn]] void
usage(const std::string &why)
{
    std::fprintf(
        stderr,
        "perfbench: %s\n"
        "usage: perfbench --workload fig_sweep|private_hits|data_misses|"
        "shared_writes --seed N --seconds S --trace 0|1\n"
        "                 [--insts N] [--fault-control] [--out-dir DIR]\n"
        "                 [--commit ID] [--source-hash HASH]\n",
        why.c_str());
    std::exit(2);
}

std::uint64_t
parseU64(const std::string &flag, const char *text)
{
    char *end = nullptr;
    errno = 0;
    const unsigned long long v = std::strtoull(text, &end, 10);
    if (errno || end == text || *end || text[0] == '-')
        usage(flag + " wants a non-negative integer, got \"" + text + "\"");
    return v;
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        const auto value = [&]() -> const char * {
            if (i + 1 >= argc)
                usage(a + " needs a value");
            return argv[++i];
        };
        if (a == "--workload") {
            o.workload = value();
        } else if (a == "--seed") {
            o.seed = parseU64(a, value());
        } else if (a == "--seconds") {
            o.seconds = static_cast<double>(parseU64(a, value()));
        } else if (a == "--trace") {
            const std::uint64_t t = parseU64(a, value());
            if (t > 1)
                usage("--trace is 0 or 1");
            o.trace = t == 1;
        } else if (a == "--insts") {
            o.insts = parseU64(a, value());
        } else if (a == "--fault-control") {
            o.faultControl = true;
        } else if (a == "--out-dir") {
            o.outDir = value();
        } else if (a == "--commit") {
            o.commit = value();
        } else if (a == "--source-hash") {
            o.sourceHash = value();
        } else {
            usage("unknown argument " + a);
        }
    }
    if (o.workload.empty())
        usage("--workload is required");
    if (o.seconds < 1)
        usage("--seconds must be at least 1");
    return o;
}

/** Names of the D2M_* variables set in the environment. */
std::vector<std::string>
d2mEnvironment()
{
    std::vector<std::string> set;
    for (char **e = environ; *e; ++e) {
        if (std::strncmp(*e, "D2M_", 4) == 0)
            set.emplace_back(*e, std::strcspn(*e, "="));
    }
    return set;
}

// ---------------------------------------------------------------- inputs

/** Seed 0 keeps each input's own seed; any other seed is mixed in. */
std::uint64_t
reseed(std::uint64_t own, std::uint64_t seed)
{
    if (seed == 0)
        return own;
    std::uint64_t z = own + 0x9E3779B97F4A7C15ull * seed;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
}

/** The write-sharing input: the coherence path's workload. */
NamedWorkload
sharedWritesInput()
{
    constexpr std::uint64_t KiB = 1024;
    WorkloadParams p;
    p.codeFootprint = 32 * KiB;
    p.privateFootprint = 512 * KiB;
    p.sharedFootprint = 1024 * KiB;
    p.sharedFraction = 0.5;
    p.sharedStoreFraction = 0.5;
    p.sharedChunkRefs = 50;
    p.storeFraction = 0.4;
    p.seed = 11;
    return {"perfbench", "shared_writes", p};
}

NamedWorkload
presetInput(const std::string &name)
{
    for (const auto &wl : allSuites()) {
        if (wl.name == name)
            return wl;
    }
    usage("no suite preset named " + name);
}

/** One workload: its inputs, run length and system parameters. */
struct Workload
{
    std::string name;
    bool sweep = false;  //!< All 5 configs x inputs through runSweep.
    std::vector<NamedWorkload> inputs;
    std::uint64_t insts = 0;  //!< Measured insts/core; equal warmup.
    SystemParams base;
    unsigned jobs = 1;  //!< Sweep pool size.

    std::vector<ConfigKind>
    configs() const
    {
        return sweep ? allConfigs()
                     : std::vector<ConfigKind>(std::begin(kPair),
                                               std::end(kPair));
    }

    /** Simulated instructions of one unit of work, warmup included. */
    double
    totalInsts() const
    {
        return 2.0 * static_cast<double>(insts) * base.numNodes *
               static_cast<double>(inputs.size() * configs().size());
    }
};

Workload
makeWorkload(const Options &o)
{
    Workload w;
    w.name = o.workload;
    if (w.name == "fig_sweep") {
        w.sweep = true;
        w.inputs = allSuites();
        w.insts = 100'000;
        const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
        w.jobs = std::min(kMaxJobs, hw);
    } else {
        w.base.numNodes = kPairNodes;
        if (w.name == "private_hits") {
            w.inputs = {presetInput("swaptions")};
            w.insts = 400'000;
        } else if (w.name == "data_misses") {
            w.inputs = {presetInput("canneal")};
            w.insts = 300'000;
        } else if (w.name == "shared_writes") {
            w.inputs = {sharedWritesInput()};
            w.insts = 400'000;
        } else {
            usage("unknown workload " + w.name);
        }
    }
    for (auto &in : w.inputs)
        in.params.seed = reseed(in.params.seed, o.seed);
    if (o.insts)
        w.insts = o.insts;
    if (o.faultControl) {
        // bench_fault_resilience's "no ECC" control: faults injected,
        // detection off, so wrong values reach the golden check.
        FaultParams &f = w.base.fault;
        f.enabled = true;
        f.metaFlipsPerMillion = f.dataFlipsPerMillion = 100;
        f.dataLossPerMillion = 20;
        f.nocDropPerMillion = f.nocDelayPerMillion = 100;
        f.parityDetection = false;
    }
    return w;
}

// ---------------------------------------------------------------- timing

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** User + system CPU seconds of this process, all threads. */
double
cpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    const auto tv = [](const timeval &t) {
        return static_cast<double>(t.tv_sec) + t.tv_usec / 1e6;
    };
    return tv(ru.ru_utime) + tv(ru.ru_stime);
}

/**
 * Start a fresh resident-set high-water mark: hand freed heap back to
 * the OS and reset VmHWM, so each repeat's peak is its own and not the
 * allocator's leftovers from earlier repeats.
 */
void
resetPeakRss()
{
    malloc_trim(0);
    std::ofstream("/proc/self/clear_refs") << "5";
}

/** Peak resident set since the last resetPeakRss(), in MiB. */
double
peakRssMib()
{
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

/** Wall and CPU time of a region. */
struct Stopwatch
{
    Clock::time_point wall0 = Clock::now();
    double cpu0 = cpuSeconds();

    double wall() const { return secondsSince(wall0); }
    double cpu() const { return cpuSeconds() - cpu0; }
};

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const std::size_t h = v.size() / 2;
    return v.size() % 2 ? v[h] : 0.5 * (v[h - 1] + v[h]);
}

// ------------------------------------------------------ correctness gate

/** FNV-1a over raw bytes. */
std::uint64_t
fnv(std::uint64_t h, const void *data, std::size_t len)
{
    const auto *p = static_cast<const unsigned char *>(data);
    for (std::size_t i = 0; i < len; ++i)
        h = (h ^ p[i]) * 0x100000001B3ull;
    return h;
}

constexpr std::uint64_t kFnvBasis = 0xCBF29CE484222325ull;

/** Digest of every simulated (host-independent) field of @p m. */
std::uint64_t
metricsDigest(const Metrics &m)
{
    std::uint64_t h = kFnvBasis;
    const auto u = [&h](std::uint64_t v) { h = fnv(h, &v, sizeof v); };
    const auto d = [&h](double v) { h = fnv(h, &v, sizeof v); };
    for (const std::string *s : {&m.config, &m.suite, &m.benchmark})
        h = fnv(h, s->data(), s->size());
    u(m.instructions); u(m.cycles); u(m.accesses);
    d(m.msgsPerKiloInst); d(m.d2mMsgsPerKiloInst); d(m.bytesPerKiloInst);
    d(m.energyPj); d(m.edp);
    d(m.l1iMissPct); d(m.l1dMissPct); d(m.lateHitIPct); d(m.lateHitDPct);
    d(m.nearHitRatioI); d(m.nearHitRatioD);
    d(m.avgMissLatency); d(m.missLatencyP50); d(m.missLatencyP95);
    d(m.missLatencyP99); d(m.accessLatencyP99); d(m.nocDelayP99);
    d(m.avgLiHops); d(m.liHopsP99);
    u(m.invalidationsReceived); d(m.privateMissPct);
    u(m.dirOrMd3Accesses); u(m.md2Accesses); u(m.l2TagAccesses);
    u(m.llcTagAccesses); d(m.directAccessPct); d(m.nsLocalPct);
    u(m.valueErrors); u(m.invariantErrors);
    u(m.faultsInjected); u(m.faultsDetected);
    return h;
}

/** Digest of the whole stats tree of @p system plus @p m. */
std::uint64_t
cellDigest(const MemorySystem &system, const Metrics &m)
{
    std::ostringstream os;
    system.printStats(os);
    const std::string text = os.str();
    const std::uint64_t md = metricsDigest(m);
    return fnv(fnv(kFnvBasis, text.data(), text.size()), &md, sizeof md);
}

/**
 * Counts attempted and failed checks. A cell fails when its status is
 * not ok, it saw value or invariant errors, the final invariant check
 * failed (@p invariant_error non-empty), or its digest differs from an
 * earlier run of the same cell and seed. Cross-checks between two runs
 * of one cell count as attempts of their own.
 */
class Gate
{
  public:
    void
    cell(const std::string &id, const Metrics &m, std::uint64_t digest,
         const std::string &invariant_error = "")
    {
        ++attempted_;
        std::string err;
        if (m.status != "ok")
            err = "status " + m.status + ": " + m.errorMessage;
        else if (m.valueErrors)
            err = std::to_string(m.valueErrors) + " value errors";
        else if (m.invariantErrors)
            err = std::to_string(m.invariantErrors) + " invariant errors";
        else if (!invariant_error.empty())
            err = "final invariant check: " + invariant_error;
        const auto [it, fresh] = digests_.emplace(id, digest);
        if (err.empty() && !fresh && it->second != digest)
            err = "stats digest differs from an earlier repeat";
        if (!err.empty())
            fail(id + ": " + err);
    }

    /** Two runs that must agree (traced vs untraced, sweep vs single). */
    void
    same(const std::string &what, std::uint64_t a, std::uint64_t b)
    {
        ++attempted_;
        if (a != b)
            fail(what + ": stats digests differ");
    }

    void
    fail(const std::string &msg)
    {
        ++failed_;
        if (errors_.size() < 20)
            errors_.push_back(msg);
        std::fprintf(stderr, "perfbench: FAIL %s\n", msg.c_str());
    }

    std::uint64_t attempted() const { return attempted_; }
    std::uint64_t failed() const { return failed_; }
    const std::vector<std::string> &errors() const { return errors_; }

  private:
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
    std::vector<std::string> errors_;
    std::map<std::string, std::uint64_t> digests_;
};

std::string
cellId(ConfigKind kind, const NamedWorkload &wl)
{
    return std::string(configKindName(kind)) + "/" + wl.name;
}

// ------------------------------------------------------------------ cells

/** A built system and its streams, with the time each took. */
struct Setup
{
    std::unique_ptr<MemorySystem> system;
    std::vector<std::unique_ptr<AccessStream>> streams;
    double makeSystemS = 0;
    double makeStreamsS = 0;
};

Setup
setUp(ConfigKind kind, const NamedWorkload &wl, const Workload &w)
{
    Setup s;
    Clock::time_point t = Clock::now();
    s.system = makeSystem(kind, w.base);
    s.makeSystemS = secondsSince(t);
    t = Clock::now();
    s.streams = makeStreams(wl, s.system->params().numNodes,
                            s.system->params().lineSize, 2 * w.insts);
    s.makeStreamsS = secondsSince(t);
    return s;
}

/** One single-run cell, untraced or traced. */
struct Cell
{
    Metrics m;
    std::uint64_t digest = 0;
    double wallS = 0;  //!< Setup + run + metric collection.
    double cpuS = 0;
    double makeSystemS = 0;
    double makeStreamsS = 0;
    perfbench::LayerCounts layers;  //!< Traced cells only.
    std::uint64_t goldenLines = 0;  //!< Traced cells only.
};

Cell
runCell(ConfigKind kind, const NamedWorkload &wl, const Workload &w,
        Gate &gate, perfbench::SpanBuffer *spans, double timer_ns)
{
    Cell c;
    const Stopwatch sw;
    Setup s = setUp(kind, wl, w);
    RunResult run;
    if (spans) {
        perfbench::TracedRun t =
            perfbench::runTraced(*s.system, s.streams, w.insts,
                                 kSampleEvery, timer_ns, *spans);
        run = t.run;
        c.layers = t.layers;
        c.goldenLines = t.goldenLines;
    } else {
        RunOptions ro;
        ro.warmupInstsPerCore = w.insts;
        run = runMulticore(*s.system, s.streams, ro);
    }
    c.m = collectMetrics(kind, wl.suite, wl.name, *s.system, run);
    c.wallS = sw.wall();
    c.cpuS = sw.cpu();
    c.makeSystemS = s.makeSystemS;
    c.makeStreamsS = s.makeStreamsS;

    // The checks are the benchmark's, not the user's: untimed.
    if (!run.firstError.empty())
        std::fprintf(stderr, "perfbench: %s: %s\n",
                     cellId(kind, wl).c_str(), run.firstError.c_str());
    std::string why;
    if (!s.system->checkInvariants(why) && why.empty())
        why = "failed";
    c.digest = cellDigest(*s.system, c.m);
    gate.cell(cellId(kind, wl) + (spans ? "/traced" : ""), c.m, c.digest,
              why);
    return c;
}

SweepOptions
sweepOptions(const Workload &w)
{
    SweepOptions opts;
    opts.baseParams = w.base;
    opts.instsPerCore = w.insts;
    opts.warmupInstsPerCore = w.insts;
    opts.verbose = false;
    opts.jobs = w.jobs;
    opts.runTimeoutMs = 0;
    opts.runRetries = 0;
    return opts;
}

/** Seconds in makeSystem and in makeStreams for every cell of a
 * workload, built serially; each the median of kSetupRepeats. */
struct SetupTimes
{
    double system = 0;
    double streams = 0;
};

SetupTimes
timeSetups(const Workload &w)
{
    std::vector<double> sys, streams;
    for (std::size_t i = 0; i < kSetupRepeats; ++i) {
        SetupTimes t;
        for (const auto &wl : w.inputs) {
            for (ConfigKind kind : w.configs()) {
                const Setup s = setUp(kind, wl, w);
                t.system += s.makeSystemS;
                t.streams += s.makeStreamsS;
            }
        }
        sys.push_back(t.system);
        streams.push_back(t.streams);
    }
    return {median(sys), median(streams)};
}

// ---------------------------------------------------------------- metrics

struct Ratios
{
    double speedup = 0, traffic = 0, edp = 0;
};

/**
 * Geomeans over inputs of the D2M-NS-R vs Base-2L ratios, computed as
 * bench_fig5_traffic / fig6_edp / fig7_speedup do (speedup is the IPC
 * ratio, i.e. Base-2L cycles / D2M-NS-R cycles at equal instructions).
 */
Ratios
ratiosOf(const std::vector<Metrics> &rows)
{
    std::vector<double> sp, tr, edp;
    for (const Metrics &n : rows) {
        if (n.config != configKindName(ConfigKind::D2mNsR))
            continue;
        for (const Metrics &b : rows) {
            if (b.config != configKindName(ConfigKind::Base2L) ||
                b.benchmark != n.benchmark)
                continue;
            if (b.ipc > 0)
                sp.push_back(n.ipc / b.ipc);
            if (b.msgsPerKiloInst > 0)
                tr.push_back(n.msgsPerKiloInst / b.msgsPerKiloInst);
            if (b.edp > 0)
                edp.push_back(n.edp / b.edp);
        }
    }
    return {geomean(sp), geomean(tr), geomean(edp)};
}

/** One printed metric. */
struct Metric
{
    double value = 0;
    const char *unit = "";
};

using MetricMap = std::map<std::string, Metric>;

/** Per-metric median over the repeats. */
MetricMap
medians(const std::vector<MetricMap> &reps)
{
    std::map<std::string, std::vector<double>> cols;
    MetricMap out;
    for (const auto &rep : reps) {
        for (const auto &[k, m] : rep) {
            cols[k].push_back(m.value);
            out[k].unit = m.unit;
        }
    }
    for (auto &[k, v] : cols)
        out[k].value = median(std::move(v));
    return out;
}

/**
 * The untraced result. Host time and peak RSS take the best repeat:
 * other processes on the host only ever add time, in phases of several
 * seconds. Repeats of identical data_misses work ranged 1.31-1.85 s on
 * a shared 4-thread host, and over seeds 1-10 the median repeat's
 * spread (IQR / median) was 0.11 against 0.03 for the fastest; peak
 * RSS picks up 2 MiB huge-page steps on later repeats. setup_s stays
 * the median of every set-up in the run, and the modelled ratios are
 * the same in every repeat (the gate checks the digests).
 */
MetricMap
bestOf(const std::vector<MetricMap> &reps, double total_insts)
{
    MetricMap out = medians(reps);
    for (const char *k : {"wall_s", "cpu_s", "peak_rss_mb"}) {
        for (const MetricMap &rep : reps)
            out[k].value = std::min(out[k].value, rep.at(k).value);
    }
    out["sim_mips"] = {total_insts / out["wall_s"].value / 1e6, "Minst/s"};
    return out;
}

/** The cells of one config family (D2M-NS-R or Base-2L). */
struct Family
{
    const char *name;  //!< Module name: "d2m" or "baseline".
    ConfigKind kind;
    std::vector<const Cell *> cells;
    perfbench::LayerCounts layers;

    /** Mean of @p field over the cells. */
    template <typename F>
    double
    mean(F field) const
    {
        double s = 0;
        for (const Cell *c : cells)
            s += static_cast<double>(field(*c));
        return cells.empty() ? 0.0 : s / static_cast<double>(cells.size());
    }

    /** Sum of @p field over the cells. */
    template <typename F>
    double
    sum(F field) const
    {
        return mean(field) * static_cast<double>(cells.size());
    }

    /** "<metric>.<family>", for metrics both families report. */
    std::string
    key(const char *metric) const
    {
        return std::string(metric) + "." + name;
    }
};

/** Work counts from Metrics: deterministic, per family. */
void
addWorkCounts(MetricMap &out, const Family &f)
{
    out[f.key("noc.msgs_per_kinst")] = {
        f.mean([](const Cell &c) { return c.m.msgsPerKiloInst; }),
        "msgs/kinst"};
    out[f.key("noc.bytes_per_kinst")] = {
        f.mean([](const Cell &c) { return c.m.bytesPerKiloInst; }),
        "B/kinst"};
    out[f.key("noc.delay_p99")] = {
        f.mean([](const Cell &c) { return c.m.nocDelayP99; }), "cycles"};
    out[f.key("cache.l1i_miss_pct")] = {
        f.mean([](const Cell &c) { return c.m.l1iMissPct; }), "%"};
    out[f.key("cache.l1d_miss_pct")] = {
        f.mean([](const Cell &c) { return c.m.l1dMissPct; }), "%"};
    out[f.key("coherence.invalidations")] = {
        f.sum([](const Cell &c) { return c.m.invalidationsReceived; }),
        "count"};
    out[f.key("coherence.private_miss_pct")] = {
        f.mean([](const Cell &c) { return c.m.privateMissPct; }), "%"};
    out[f.key("cpu.miss_latency_p50")] = {
        f.mean([](const Cell &c) { return c.m.missLatencyP50; }), "cycles"};
    out[f.key("cpu.miss_latency_p99")] = {
        f.mean([](const Cell &c) { return c.m.missLatencyP99; }), "cycles"};
    out[f.key("energy.pj_per_kinst")] = {
        f.mean([](const Cell &c) {
            return c.m.energyPj /
                   std::max(1.0, static_cast<double>(c.m.instructions) / 1e3);
        }),
        "pJ/kinst"};
    out[f.key("mem.golden_lines")] = {
        f.sum([](const Cell &c) { return c.goldenLines; }), "lines"};
}

/** Timed layers: mean ns per call and call count, per family. */
void
addLayerCosts(MetricMap &out, const Family &f)
{
    static const std::pair<Layer, const char *> kDriverLayers[] = {
        {Layer::Workload, "workload.next"},
        {Layer::Translate, "mem.translate"},
        {Layer::Golden, "mem.golden"},
        {Layer::Core, "cpu.core"},
    };
    const auto calls = [&f](Layer l) {
        return static_cast<double>(
            f.layers.calls[static_cast<std::size_t>(l)]);
    };
    for (const auto &[layer, name] : kDriverLayers) {
        const std::string n = name;
        out[f.key((n + "_ns").c_str())] = {f.layers.meanNs(layer), "ns"};
        out[f.key((n + "_calls").c_str())] = {calls(layer), "count"};
    }
    // MemorySystem::access, under the family's own module name.
    const std::string m = f.name;
    out[m + ".access_hit_ns"] = {f.layers.meanNs(Layer::AccessHit), "ns"};
    out[m + ".access_miss_ns"] = {f.layers.meanNs(Layer::AccessMiss), "ns"};
    out[m + ".access_hit_calls"] = {calls(Layer::AccessHit), "count"};
    out[m + ".access_miss_calls"] = {calls(Layer::AccessMiss), "count"};
}

/** Per-layer metrics of one traced repeat. */
MetricMap
layerMetrics(const std::vector<Cell> &traced, double traced_wall,
             double untraced_wall)
{
    Family fam[] = {{"d2m", ConfigKind::D2mNsR, {}, {}},
                    {"baseline", ConfigKind::Base2L, {}, {}}};
    double setup = 0;
    for (const Cell &c : traced) {
        Family &f = c.m.config == configKindName(fam[0].kind) ? fam[0]
                                                                : fam[1];
        f.cells.push_back(&c);
        f.layers.add(c.layers);
        setup += c.makeSystemS + c.makeStreamsS;
    }
    const Family &d2m = fam[0];
    const Family &base = fam[1];

    MetricMap out;
    for (const Family &f : fam) {
        addWorkCounts(out, f);
        addLayerCosts(out, f);
    }
    out["d2m.md2_accesses"] = {
        d2m.sum([](const Cell &c) { return c.m.md2Accesses; }), "count"};
    out["d2m.md3_accesses"] = {
        d2m.sum([](const Cell &c) { return c.m.dirOrMd3Accesses; }),
        "count"};
    out["d2m.direct_access_pct"] = {
        d2m.mean([](const Cell &c) { return c.m.directAccessPct; }), "%"};
    out["d2m.li_hops_avg"] = {
        d2m.mean([](const Cell &c) { return c.m.avgLiHops; }), "hops"};
    out["d2m.ns_local_pct"] = {
        d2m.mean([](const Cell &c) { return c.m.nsLocalPct; }), "%"};
    out["baseline.dir_accesses"] = {
        base.sum([](const Cell &c) { return c.m.dirOrMd3Accesses; }),
        "count"};
    out["baseline.llc_tag_accesses"] = {
        base.sum([](const Cell &c) { return c.m.llcTagAccesses; }),
        "count"};

    // Self time per layer as a share of the traced wall time.
    perfbench::LayerCounts all = d2m.layers;
    all.add(base.layers);
    const auto self = [&all](Layer l) { return all.selfSeconds(l); };
    const auto access = [](const Family &f) {
        return f.layers.selfSeconds(Layer::AccessHit) +
               f.layers.selfSeconds(Layer::AccessMiss);
    };
    const std::pair<const char *, double> shares[] = {
        {"harness", setup},
        {"driver", self(Layer::Sched)},
        {"workload", self(Layer::Workload)},
        {"mem.translate", self(Layer::Translate)},
        {"cpu", self(Layer::Core)},
        {"d2m", access(d2m)},
        {"baseline", access(base)},
        {"mem.golden", self(Layer::Golden)},
    };
    double covered = 0;
    for (const auto &[name, secs] : shares) {
        out[std::string(name) + ".share_pct"] = {
            100.0 * secs / traced_wall, "%"};
        covered += secs;
    }
    out["trace.coverage_pct"] = {100.0 * covered / traced_wall, "%"};
    out["trace.overhead_pct"] = {
        100.0 * (traced_wall / untraced_wall - 1), "%"};
    return out;
}

// ------------------------------------------------------------------ runs

/** Repeats @p rep until the time budget is spent. */
template <typename Rep>
std::vector<MetricMap>
repeat(const Options &o, std::size_t min_reps, Rep rep)
{
    std::vector<MetricMap> reps;
    std::vector<double> took;
    const Clock::time_point start = Clock::now();
    for (;;) {
        const Clock::time_point t = Clock::now();
        reps.push_back(rep());
        took.push_back(secondsSince(t));
        if (reps.size() >= min_reps &&
            secondsSince(start) + median(took) > o.seconds)
            break;
    }
    return reps;
}

/** One untraced unit of work. */
MetricMap
untracedRep(const Workload &w, Gate &gate)
{
    std::vector<Metrics> rows;
    double wall = 0, cpu = 0;
    resetPeakRss();
    if (w.sweep) {
        const Stopwatch sw;
        rows = runSweep(w.configs(), w.inputs, sweepOptions(w));
        wall = sw.wall();
        cpu = sw.cpu();
        for (std::size_t i = 0; i < rows.size(); ++i) {
            const NamedWorkload &wl = w.inputs[i / w.configs().size()];
            gate.cell("sweep:" +
                          cellId(w.configs()[i % w.configs().size()], wl),
                      rows[i], metricsDigest(rows[i]));
        }
    } else {
        for (const auto &wl : w.inputs) {
            for (ConfigKind kind : w.configs()) {
                const Cell c = runCell(kind, wl, w, gate, nullptr, 0);
                wall += c.wallS;
                cpu += c.cpuS;
                rows.push_back(c.m);
            }
        }
    }
    MetricMap r;
    r["wall_s"] = {wall, "s"};
    r["cpu_s"] = {cpu, "s"};
    r["peak_rss_mb"] = {peakRssMib(), "MiB"};
    const SetupTimes setup = timeSetups(w);
    r["setup_s"] = {setup.system + setup.streams, "s"};
    const Ratios q = ratiosOf(rows);
    r["speedup_vs_base2l"] = {q.speedup, "x"};
    r["traffic_vs_base2l"] = {q.traffic, "x"};
    r["edp_vs_base2l"] = {q.edp, "x"};
    return r;
}

/**
 * One traced repeat: every D2M-NS-R and Base-2L cell runs untraced,
 * then through the traced driver; both digests must match. A sweep
 * workload also runs its sweep once for the pool utilisation and
 * checks the single runs against the sweep's rows.
 */
MetricMap
tracedRep(const Workload &w, Gate &gate, perfbench::SpanBuffer &spans,
          double timer_ns)
{
    std::vector<Metrics> sweepRows;
    double pool_util = 0;
    if (w.sweep) {
        const Stopwatch sw;
        sweepRows = runSweep(w.configs(), w.inputs, sweepOptions(w));
        const double wall = sw.wall();
        double busy = 0;
        for (const Metrics &m : sweepRows)
            busy += m.warmupWallSec + m.measureWallSec;
        pool_util = busy / (w.jobs * wall);
    }
    std::vector<Cell> traced;
    double untraced_wall = 0, traced_wall = 0;
    for (const auto &wl : w.inputs) {
        for (ConfigKind kind : kPair) {
            const Cell u = runCell(kind, wl, w, gate, nullptr, 0);
            Cell t = runCell(kind, wl, w, gate, &spans, timer_ns);
            gate.same(cellId(kind, wl) + " traced vs runMulticore",
                      u.digest, t.digest);
            for (const Metrics &row : sweepRows) {
                if (row.config == u.m.config && row.benchmark == wl.name)
                    gate.same(cellId(kind, wl) + " single run vs sweep",
                              metricsDigest(row), metricsDigest(u.m));
            }
            untraced_wall += u.wallS;
            traced_wall += t.wallS;
            traced.push_back(std::move(t));
        }
    }
    MetricMap r = layerMetrics(traced, traced_wall, untraced_wall);
    r["harness.pool_util"] = {pool_util, "ratio"};
    // Every cell of the workload, as setup_s counts them.
    const SetupTimes setup = timeSetups(w);
    r["harness.make_system_s"] = {setup.system, "s"};
    r["harness.make_streams_s"] = {setup.streams, "s"};
    return r;
}

// ----------------------------------------------------------------- output

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) == 0) {
            const std::size_t colon = line.find(':');
            if (colon != std::string::npos)
                return line.substr(line.find_first_not_of(' ', colon + 1));
        }
    }
    return "unknown";
}

std::string
hostJson(const Options &o, const Workload &w)
{
    std::string s = "{";
    s += "\"nproc\":" +
         std::to_string(std::thread::hardware_concurrency());
    s += ",\"cpu_model\":" + json::quote(cpuModel());
    s += ",\"compiler\":" + json::quote(PERFBENCH_COMPILER);
    s += ",\"build_type\":" + json::quote(PERFBENCH_BUILD_TYPE);
    s += ",\"commit\":" + json::quote(o.commit);
    s += ",\"source_hash\":" + json::quote(o.sourceHash);
    s += ",\"pool_jobs\":" + std::to_string(w.jobs);
    s += ",\"nodes\":" + std::to_string(w.base.numNodes);
    s += ",\"insts_per_core\":" + std::to_string(w.insts);
    s += ",\"warmup_per_core\":" + std::to_string(w.insts);
    s += "}";
    return s;
}

std::string
num(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.10g", std::isfinite(v) ? v : 0.0);
    return buf;
}

std::string
resultJson(const Gate &gate, const MetricMap &metrics)
{
    std::string s = "{\"correct\": ";
    s += gate.failed() == 0 && gate.attempted() > 0 ? "true" : "false";
    s += ", \"attempted\": " + std::to_string(gate.attempted());
    s += ", \"failed\": " + std::to_string(gate.failed());
    s += ", \"metrics\": {";
    bool first = true;
    for (const auto &[name, m] : metrics) {
        s += first ? "" : ", ";
        first = false;
        s += json::quote(name) + ": {\"value\": " + num(m.value) +
             ", \"unit\": " + json::quote(m.unit) + "}";
    }
    return s + "}}";
}

/** "<out-dir>/<workload>-seed<N><what>". */
std::string
outPath(const Options &o, const char *what)
{
    return o.outDir + "/" + o.workload + "-seed" + std::to_string(o.seed) +
           what;
}

/** The run's record: host, gate, every repeat and the result. */
void
writeRecord(const Options &o, const Workload &w, const Gate &gate,
            const std::vector<MetricMap> &reps, const MetricMap &metrics,
            const std::string &host)
{
    const std::string path =
        outPath(o, o.trace ? "-trace1.json" : "-trace0.json");
    std::ofstream f(path);
    f << "{\"workload\":" << json::quote(w.name) << ",\"seed\":" << o.seed
      << ",\"seconds\":" << num(o.seconds) << ",\"host\":" << host
      << ",\"fail_frac\":"
      << num(gate.attempted() ? static_cast<double>(gate.failed()) /
                                    static_cast<double>(gate.attempted())
                              : 1.0)
      << ",\"errors\":[";
    for (std::size_t i = 0; i < gate.errors().size(); ++i)
        f << (i ? "," : "") << json::quote(gate.errors()[i]);
    f << "],\"repeats\":[";
    for (std::size_t i = 0; i < reps.size(); ++i) {
        f << (i ? "," : "") << "{";
        bool first = true;
        for (const auto &[k, m] : reps[i]) {
            f << (first ? "" : ",") << json::quote(k) << ":" << num(m.value);
            first = false;
        }
        f << "}";
    }
    f << "],\"result\":" << resultJson(gate, metrics) << "}\n";
    if (!f)
        std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    const Options o = parseArgs(argc, argv);
    // A D2M_* knob would change what is measured (D2M_STORE_DIR alone
    // replays stored results and times nothing).
    if (const auto set = d2mEnvironment(); !set.empty()) {
        std::string names;
        for (const auto &n : set)
            names += " " + n;
        std::fprintf(stderr,
                     "perfbench: refusing to run with D2M_* variables "
                     "set:%s\n",
                     names.c_str());
        return 2;
    }
    const Workload w = makeWorkload(o);
    const std::string host = hostJson(o, w);
    std::printf("host %s\n", host.c_str());
    std::fflush(stdout);

    Gate gate;
    std::vector<MetricMap> reps;
    MetricMap metrics;
    if (o.trace) {
        perfbench::SpanBuffer spans(kSpanCapacity);
        const double timer_ns = perfbench::measureTimerNs();
        reps = repeat(o, 1, [&] {
            return tracedRep(w, gate, spans, timer_ns);
        });
        metrics = medians(reps);
        if (!o.outDir.empty()) {
            const std::string path = outPath(o, ".spans.json");
            if (!spans.writeChromeJson(path))
                std::fprintf(stderr, "perfbench: cannot write %s\n",
                             path.c_str());
            std::fprintf(stderr,
                         "perfbench: %zu spans (%llu not kept) in %s; "
                         "timer %.1f ns/read\n",
                         spans.spans.size(),
                         static_cast<unsigned long long>(spans.dropped),
                         path.c_str(), timer_ns);
        }
    } else {
        reps = repeat(o, kMinReps, [&] { return untracedRep(w, gate); });
        metrics = bestOf(reps, w.totalInsts());
    }
    std::fprintf(stderr, "perfbench: %s seed %llu: %zu repeats\n",
                 w.name.c_str(), static_cast<unsigned long long>(o.seed),
                 reps.size());
    if (!o.outDir.empty())
        writeRecord(o, w, gate, reps, metrics, host);
    std::printf("%s\n", resultJson(gate, metrics).c_str());
    return gate.failed() == 0 ? 0 : 1;
}
