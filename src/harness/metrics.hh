/**
 * @file
 * Per-run metric extraction: everything the paper's tables and
 * figures report, computed from system counters and the run result.
 */

#ifndef D2M_HARNESS_METRICS_HH
#define D2M_HARNESS_METRICS_HH

#include <string>
#include <vector>

#include "cpu/mem_system.hh"
#include "cpu/multicore.hh"
#include "harness/configs.hh"

namespace d2m
{

/** Collected results of one (config, benchmark) run. */
struct Metrics
{
    std::string config;
    std::string suite;
    std::string benchmark;

    std::uint64_t instructions = 0;
    Tick cycles = 0;
    std::uint64_t accesses = 0;
    double ipc = 0;

    // Figure 5: network traffic.
    double msgsPerKiloInst = 0;
    double d2mMsgsPerKiloInst = 0;
    double bytesPerKiloInst = 0;

    // Figure 6: energy / EDP (absolute; normalize against Base-2L).
    double energyPj = 0;
    double edp = 0;

    // Table IV: characterization.
    double l1iMissPct = 0;   //!< True misses (late hits excluded).
    double l1dMissPct = 0;
    double lateHitIPct = 0;
    double lateHitDPct = 0;
    double nearHitRatioI = 0;  //!< L2 (3L) / local NS slice hit ratio.
    double nearHitRatioD = 0;

    // Section V-D: latency. Percentiles come from the log2 histograms
    // (stats::Histogram2) so D2M vs. Base-2L/3L tails are comparable.
    double avgMissLatency = 0;
    double missLatencyP50 = 0;
    double missLatencyP95 = 0;
    double missLatencyP99 = 0;
    double accessLatencyP99 = 0;  //!< All demand accesses incl. L1 hits.
    double nocDelayP99 = 0;       //!< Per-message NoC delay tail.
    double avgLiHops = 0;         //!< D2M: LI hops per miss (0 for base).
    double liHopsP99 = 0;

    // Table V.
    std::uint64_t invalidationsReceived = 0;
    double privateMissPct = 0;

    // Section V-B: SRAM pressure.
    std::uint64_t dirOrMd3Accesses = 0;
    std::uint64_t md2Accesses = 0;
    std::uint64_t l2TagAccesses = 0;
    std::uint64_t llcTagAccesses = 0;

    // D2M extras (zero for baselines).
    double directAccessPct = 0;  //!< Misses served without MD3.
    double nsLocalPct = 0;       //!< LLC services from the local slice.
    std::uint64_t valueErrors = 0;
    std::uint64_t invariantErrors = 0;

    // Fault injection / detection / recovery (zero with faults off).
    std::uint64_t faultsInjected = 0;
    std::uint64_t faultsDetected = 0;
    std::uint64_t faultsRecovered = 0;
    std::uint64_t faultsCorrected = 0;   //!< ECC data corrections.
    std::uint64_t linesRefetched = 0;
    std::uint64_t nocDropped = 0;
    std::uint64_t nocRetries = 0;
    std::uint64_t recoveryMessages = 0;
    std::uint64_t recoveryCycles = 0;
    double avgDetectionLatency = 0;      //!< Accesses, injection->detect.

    // Host wall clock of the run (RunResult, timed by runMulticore).
    double simKips = 0;          //!< Kilo-insts per host second.
    double warmupWallSec = 0;
    double measureWallSec = 0;

    // Campaign outcome (harness/store.hh, DESIGN.md §13). "ok" rows
    // serialize exactly as before; non-ok rows additionally carry
    // status / attempts / error so failures are visible downstream.
    std::string status = "ok";   //!< ok | failed | timeout | abandoned.
    std::uint64_t attempts = 1;  //!< Executions including retries.
    std::string errorMessage;    //!< Diagnostic for non-ok outcomes.
};

/** Extract metrics after a run. */
Metrics collectMetrics(ConfigKind kind, const std::string &suite,
                       const std::string &benchmark, MemorySystem &system,
                       const RunResult &run);

/** Geometric mean of @p values (ignores non-positive entries). */
double geomean(const std::vector<double> &values);

} // namespace d2m

#endif // D2M_HARNESS_METRICS_HH
