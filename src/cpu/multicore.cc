#include "cpu/multicore.hh"

#include <algorithm>
#include <chrono>

#include "common/logging.hh"
#include "obs/debug.hh"
#include "obs/snapshot.hh"

namespace d2m
{

RunResult
runMulticore(MemorySystem &system,
             std::vector<std::unique_ptr<AccessStream>> &streams,
             const RunOptions &opts)
{
    const unsigned n = system.params().numNodes;
    fatal_if(streams.size() != n,
             "need one stream per node (%u streams, %u nodes)",
             static_cast<unsigned>(streams.size()), n);

    std::vector<OooModel> cores;
    cores.reserve(n);
    for (unsigned i = 0; i < n; ++i)
        cores.emplace_back(system.params().core);

    std::vector<bool> active(n, true);
    GoldenMemory golden;
    RunResult result;

    const std::uint64_t warmup_total = opts.warmupInstsPerCore * n;
    bool warm = warmup_total == 0;
    std::uint64_t insts_at_reset = 0;
    Tick cycles_at_reset = 0;

    // Host wall clock of the warmup and measured phases.
    using Clock = std::chrono::steady_clock;
    const Clock::time_point start = Clock::now();
    Clock::time_point measure_start = start;
    std::uint64_t total_committed = 0;

    unsigned remaining = n;

    // Liveness report for a campaign monitor. The progress value just
    // has to keep moving; accesses-so-far (plus one so the very first
    // poll already differs from the rearmed zero) is the cheapest
    // monotone.
    auto publishProgress = [&] {
        opts.progress->store(result.accesses + total_committed + 1,
                             std::memory_order_relaxed);
    };

    std::uint64_t iter = 0;
    while (remaining > 0) {
        if (iter++ % kPollEvery == 0 && opts.progress) [[unlikely]] {
            publishProgress();
            if (opts.cancel &&
                opts.cancel->load(std::memory_order_relaxed) != 0) {
                fatal("run cancelled by campaign watchdog/drain "
                      "(timeout or shutdown requested)");
            }
        }
        if (!warm && total_committed >= warmup_total) {
            warm = true;
            // Close the in-flight warmup interval against the
            // pre-reset counters before they vanish.
            if (opts.snapshotter) [[unlikely]]
                opts.snapshotter->statsReset(total_committed,
                                             debug::curTick);
            system.resetStats();
            measure_start = Clock::now();
            insts_at_reset = total_committed;
            for (const auto &core : cores) {
                cycles_at_reset =
                    std::max(cycles_at_reset, core.finishTime());
            }
            result.accesses = 0;
            result.totalAccessLatency = 0;
            result.lateHitsI = result.lateHitsD = 0;
            result.mergedMissesI = result.mergedMissesD = 0;
        }
        // Pick the active core with the smallest issue clock.
        unsigned best = n;
        for (unsigned i = 0; i < n; ++i) {
            if (active[i] && (best == n ||
                              cores[i].now() < cores[best].now())) {
                best = i;
            }
        }
        OooModel &core = cores[best];

        MemAccess acc;
        if (!streams[best]->next(acc)) {
            active[best] = false;
            --remaining;
            continue;
        }

        // Late-hit detection needs the physical line address, which is
        // stable under repeated translation.
        const Addr paddr = system.pageTable().translate(acc.asid, acc.vaddr);
        const Addr line_addr = paddr >> system.params().lineShift();
        const bool merged = core.wouldBeLateHit(line_addr);

        if (acc.instCount > 0) {
            core.issueInstructions(acc.instCount);
            core.countInstructions(acc.instCount);
            total_committed += acc.instCount;
        }

        debug::setCurTick(core.now());
        DTRACE(Exec, &system, "node%u %s line 0x%llx", best,
               isIFetch(acc.type)  ? "ifetch"
               : isWrite(acc.type) ? "store"
                                   : "load",
               static_cast<unsigned long long>(line_addr));
        const AccessResult res = system.access(best, acc, core.now());
        ++result.accesses;
        result.totalAccessLatency += res.latency;
        if (opts.snapshotter) [[unlikely]]
            opts.snapshotter->tick(total_committed, core.now());

        if (merged) {
            // Access landed in an open miss window: a "late hit"
            // (MSHR merge), whether the hierarchy reported hit or miss.
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

        // Golden-memory value checking: the global interleaving is the
        // architectural order.
        if (opts.checkValues) {
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
        }

        if (opts.invariantCheckPeriod &&
            result.accesses % opts.invariantCheckPeriod == 0) {
            // The checker reads raw state, so give the detection layer
            // a chance to heal pending corruption first -- exactly what
            // a real design's background scrubber guarantees.
            if (auto *fi = system.faultInjector();
                fi && fi->detectionEnabled()) {
                fi->sweep();
            }
            std::string why;
            if (!system.checkInvariants(why)) {
                ++result.invariantErrors;
                if (result.firstError.empty())
                    result.firstError = why;
            }
        }
    }

    // Monitors see the finished run's totals, not the last poll's.
    if (opts.progress)
        publishProgress();

    // Heal anything still marked so post-run invariant checks and stat
    // reports see a scrubbed hierarchy.
    if (auto *fi = system.faultInjector(); fi && fi->detectionEnabled())
        fi->sweep();

    for (auto &core : cores) {
        result.cycles = std::max(result.cycles, core.finishTime());
        result.instructions += core.instructions();
    }
    // Close the last partial interval with absolute stamps (before
    // the warmup offsets are subtracted below) so interval tick/inst
    // ranges stay monotonic across the whole run.
    if (opts.snapshotter) [[unlikely]]
        opts.snapshotter->finish(total_committed, result.cycles);
    result.cycles -= std::min(result.cycles, cycles_at_reset);
    result.instructions -= std::min(result.instructions, insts_at_reset);

    const auto seconds = [](Clock::duration d) {
        return std::chrono::duration<double>(d).count();
    };
    result.warmupWallSec = seconds(measure_start - start);
    result.measureWallSec = seconds(Clock::now() - measure_start);
    result.simKips = result.measureWallSec > 0.0
                         ? static_cast<double>(result.instructions) /
                               result.measureWallSec / 1000.0
                         : 0.0;
    return result;
}

} // namespace d2m
