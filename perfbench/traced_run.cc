#include "traced_run.hh"

#include <algorithm>
#include <chrono>
#include <cstdio>

#include "common/logging.hh"
#include "common/rng.hh"
#include "cpu/ooo_model.hh"
#include "mem/golden_memory.hh"
#include "obs/debug.hh"

namespace perfbench
{

using Clock = std::chrono::steady_clock;

namespace
{

/** Process-wide span epoch, so spans of successive runs line up. */
const Clock::time_point kEpoch = Clock::now();

std::uint64_t
sinceEpochNs(Clock::time_point t)
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t - kEpoch)
            .count());
}

} // namespace

const char *
layerName(Layer layer)
{
    switch (layer) {
      case Layer::Access: return "access";
      case Layer::Sched: return "driver.sched";
      case Layer::Workload: return "workload.next";
      case Layer::Translate: return "mem.translate";
      case Layer::Core: return "cpu.core";
      case Layer::AccessHit: return "memsys.access_hit";
      case Layer::AccessMiss: return "memsys.access_miss";
      case Layer::Golden: return "mem.golden";
      case Layer::Count: break;
    }
    return "?";
}

SpanBuffer::SpanBuffer(std::size_t cap) : capacity(cap)
{
    spans.reserve(cap);
}

bool
SpanBuffer::writeChromeJson(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    std::fputs("[\n", f);
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        std::fprintf(f,
                     "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                     "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%u,"
                     "\"parent\":%u}}%s\n",
                     layerName(s.layer), s.startNs / 1e3,
                     (s.endNs - s.startNs) / 1e3, s.id, s.parent,
                     i + 1 < spans.size() ? "," : "");
    }
    std::fputs("]\n", f);
    return std::fclose(f) == 0;
}

double
LayerCounts::meanNs(Layer layer) const
{
    const auto i = static_cast<std::size_t>(layer);
    return sampled[i] ? sampledNs[i] / static_cast<double>(sampled[i])
                      : 0.0;
}

double
LayerCounts::selfSeconds(Layer layer) const
{
    return meanNs(layer) *
           static_cast<double>(calls[static_cast<std::size_t>(layer)]) /
           1e9;
}

void
LayerCounts::add(const LayerCounts &other)
{
    for (std::size_t i = 0; i < kLayers; ++i) {
        calls[i] += other.calls[i];
        sampled[i] += other.sampled[i];
        sampledNs[i] += other.sampledNs[i];
    }
}

double
measureTimerNs()
{
    constexpr int kReads = 1 << 16;
    const Clock::time_point start = Clock::now();
    Clock::time_point last = start;
    for (int i = 0; i < kReads; ++i)
        last = Clock::now();
    return std::chrono::duration<double, std::nano>(last - start).count() /
           kReads;
}

TracedRun
runTraced(d2m::MemorySystem &system,
          std::vector<std::unique_ptr<d2m::AccessStream>> &streams,
          std::uint64_t warmup_insts_per_core, unsigned sample_every,
          double timer_ns, SpanBuffer &buf)
{
    using namespace d2m;

    const unsigned n = system.params().numNodes;
    std::vector<OooModel> cores;
    cores.reserve(n);
    for (unsigned i = 0; i < n; ++i)
        cores.emplace_back(system.params().core);
    std::vector<bool> active(n, true);
    GoldenMemory golden;

    TracedRun out;
    RunResult &result = out.run;
    LayerCounts &lc = out.layers;
    const auto count = [&lc](Layer l) {
        ++lc.calls[static_cast<std::size_t>(l)];
    };

    const std::uint64_t warmup_total = warmup_insts_per_core * n;
    bool warm = warmup_total == 0;
    std::uint64_t insts_at_reset = 0;
    Tick cycles_at_reset = 0;
    std::uint64_t total_committed = 0;
    unsigned remaining = n;
    const unsigned line_shift = system.params().lineShift();

    // Gaps uniform in [1, 2N-1]: mean N, and no fixed stride for the
    // cores' issue order to alias with.
    Rng sampler(0x5eedull);
    const std::uint64_t max_gap = 2 * std::uint64_t(sample_every) - 1;
    const auto next_gap = [&] { return 1 + sampler.below(max_gap); };
    std::uint64_t countdown = next_gap();

    while (remaining > 0) {
        if (!warm && total_committed >= warmup_total) {
            warm = true;
            system.resetStats();
            insts_at_reset = total_committed;
            for (const auto &core : cores)
                cycles_at_reset = std::max(cycles_at_reset,
                                           core.finishTime());
            result.accesses = 0;
            result.totalAccessLatency = 0;
            result.lateHitsI = result.lateHitsD = 0;
            result.mergedMissesI = result.mergedMissesD = 0;
        }

        const bool sample = --countdown == 0;
        if (sample)
            countdown = next_gap();
        // Boundaries: sched | next | translate | core | access | core
        // | golden; each child span runs from one stamp to the next.
        std::array<Clock::time_point, 8> t;
        if (sample)
            t[0] = Clock::now();

        unsigned best = n;
        for (unsigned i = 0; i < n; ++i) {
            if (active[i] &&
                (best == n || cores[i].now() < cores[best].now())) {
                best = i;
            }
        }
        count(Layer::Sched);
        OooModel &core = cores[best];
        if (sample)
            t[1] = Clock::now();

        MemAccess acc;
        count(Layer::Workload);
        if (!streams[best]->next(acc)) {
            active[best] = false;
            --remaining;
            continue;  // an exhausted stream's sample is dropped
        }
        if (sample)
            t[2] = Clock::now();

        const Addr paddr = system.pageTable().translate(acc.asid,
                                                        acc.vaddr);
        count(Layer::Translate);
        if (sample)
            t[3] = Clock::now();

        const Addr line_addr = paddr >> line_shift;
        const bool merged = core.wouldBeLateHit(line_addr);
        if (acc.instCount > 0) {
            core.issueInstructions(acc.instCount);
            core.countInstructions(acc.instCount);
            total_committed += acc.instCount;
        }
        count(Layer::Core);
        if (sample)
            t[4] = Clock::now();

        debug::setCurTick(core.now());
        const AccessResult res = system.access(best, acc, core.now());
        const Layer access_layer =
            res.l1Miss ? Layer::AccessMiss : Layer::AccessHit;
        count(access_layer);
        if (sample)
            t[5] = Clock::now();

        ++result.accesses;
        result.totalAccessLatency += res.latency;
        if (merged) {
            if (isIFetch(acc.type)) {
                ++result.lateHitsI;
                if (res.l1Miss)
                    ++result.mergedMissesI;
            } else {
                ++result.lateHitsD;
                if (res.l1Miss)
                    ++result.mergedMissesD;
            }
        }
        core.issueMemAccess(line_addr, res.latency, res.l1Miss,
                            isIFetch(acc.type));
        count(Layer::Core);
        if (sample)
            t[6] = Clock::now();

        if (isWrite(acc.type)) {
            golden.store(line_addr, acc.storeValue);
        } else {
            const std::uint64_t expect = golden.load(line_addr);
            if (res.loadValue != expect) {
                ++result.valueErrors;
                if (result.firstError.empty()) {
                    result.firstError = vformat(
                        "value mismatch at line 0x%llx: got %llu, "
                        "expected %llu",
                        static_cast<unsigned long long>(line_addr),
                        static_cast<unsigned long long>(res.loadValue),
                        static_cast<unsigned long long>(expect));
                }
            }
        }
        count(Layer::Golden);

        if (sample) {
            t[7] = Clock::now();
            static constexpr Layer kChild[7] = {
                Layer::Sched,  Layer::Workload,   Layer::Translate,
                Layer::Core,   Layer::AccessHit,  Layer::Core,
                Layer::Golden};
            const std::uint32_t root = buf.nextId++;
            const bool keep = buf.spans.size() + 8 <= buf.capacity;
            if (keep) {
                buf.spans.push_back({root, root, Layer::Access,
                                     sinceEpochNs(t[0]),
                                     sinceEpochNs(t[7])});
            } else {
                buf.dropped += 8;
            }
            for (int i = 0; i < 7; ++i) {
                const Layer layer = i == 4 ? access_layer : kChild[i];
                const auto li = static_cast<std::size_t>(layer);
                const double ns =
                    std::chrono::duration<double, std::nano>(t[i + 1] -
                                                             t[i])
                        .count();
                ++lc.sampled[li];
                lc.sampledNs[li] += std::max(0.0, ns - timer_ns);
                if (keep) {
                    buf.spans.push_back({buf.nextId++, root, layer,
                                         sinceEpochNs(t[i]),
                                         sinceEpochNs(t[i + 1])});
                }
            }
        }
    }

    if (auto *fi = system.faultInjector(); fi && fi->detectionEnabled())
        fi->sweep();
    for (auto &core : cores) {
        result.cycles = std::max(result.cycles, core.finishTime());
        result.instructions += core.instructions();
    }
    result.cycles -= std::min(result.cycles, cycles_at_reset);
    result.instructions -= std::min(result.instructions, insts_at_reset);
    debug::setCurTick(result.cycles);
    out.goldenLines = golden.linesTouched();
    return out;
}

} // namespace perfbench
