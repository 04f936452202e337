/**
 * @file
 * The seeded fault injector and its statistics.
 *
 * The injector is the system-agnostic half of the fault subsystem: it
 * owns the fault RNG, rolls the per-access / per-message injection
 * dice, and keeps all fault accounting. The system-specific halves
 * (what a "metadata entry" or "data slot" even is) live behind the
 * FaultHost interface, implemented by D2mFaultModel and
 * BaseFaultModel.
 */

#ifndef D2M_FAULT_FAULT_INJECTOR_HH
#define D2M_FAULT_FAULT_INJECTOR_HH

#include <algorithm>
#include <cstdint>

#include "common/logging.hh"
#include "common/rng.hh"
#include "common/stats.hh"
#include "fault/fault_model.hh"
#include "obs/debug.hh"
#include "sim/sim_object.hh"

namespace d2m
{

/** Counters for the fault-injection / detection / recovery loop. */
class FaultStats : public SimObject
{
  public:
    FaultStats(std::string name, SimObject *parent)
        : SimObject(std::move(name), parent),
          injectedMeta(this, "injectedMeta",
                       "metadata entry corruptions injected"),
          injectedData(this, "injectedData",
                       "data-slot bit flips injected"),
          injectedLoss(this, "injectedLoss",
                       "clean data slots lost (uncorrectable)"),
          detectedMeta(this, "detectedMeta",
                       "metadata corruptions caught by parity"),
          correctedData(this, "correctedData",
                        "data flips corrected by ECC"),
          recoveredRegions(this, "recoveredRegions",
                           "node region LI vectors rebuilt"),
          recoveredMd3(this, "recoveredMd3",
                       "MD3 entries rebuilt"),
          linesRefetched(this, "linesRefetched",
                         "lines refetched from memory (ambiguous "
                         "reconstruction or uncorrectable loss)"),
          recoveryMessages(this, "recoveryMessages",
                           "NoC messages spent on scrub/recovery"),
          recoveryCycles(this, "recoveryCycles",
                         "cycles spent rebuilding state (background)"),
          nocDropped(this, "nocDropped", "interconnect messages dropped"),
          nocDelayed(this, "nocDelayed", "interconnect messages delayed"),
          nocRetries(this, "nocRetries",
                     "retransmissions after dropped messages"),
          scrubSweeps(this, "scrubSweeps", "background scrub sweeps run"),
          detectionLatency(this, "detectionLatency",
                           "accesses between injection and detection")
    {}

    /**
     * Fault accounting spans the whole campaign, warmup included: the
     * post-warmup stats reset would orphan faults injected before the
     * reset but detected after it, leaving detected() > injected().
     */
    void resetStats() override {}

    stats::Counter injectedMeta, injectedData, injectedLoss;
    stats::Counter detectedMeta, correctedData;
    stats::Counter recoveredRegions, recoveredMd3, linesRefetched;
    stats::Counter recoveryMessages, recoveryCycles;
    stats::Counter nocDropped, nocDelayed, nocRetries;
    stats::Counter scrubSweeps;
    stats::Average detectionLatency;

    std::uint64_t
    injected() const
    {
        return injectedMeta.value() + injectedData.value() +
               injectedLoss.value();
    }
    std::uint64_t
    detected() const
    {
        return detectedMeta.value() + correctedData.value() +
               injectedLoss.value();
    }
    std::uint64_t
    recovered() const
    {
        return recoveredRegions.value() + recoveredMd3.value() +
               linesRefetched.value();
    }
};

/** System-specific fault surface (implemented per memory system). */
class FaultHost
{
  public:
    virtual ~FaultHost() = default;

    /** Corrupt one randomly chosen metadata entry. @return false when
     * no valid target exists (nothing injected). */
    virtual bool injectMetaFault(Rng &rng, std::uint64_t access_no) = 0;

    /** Flip one bit in (or, with @p loss, lose) a random data slot. */
    virtual bool injectDataFault(Rng &rng, std::uint64_t access_no,
                                 bool loss) = 0;

    /** Walk every array, detecting and repairing marked corruption. */
    virtual void faultSweep() = 0;
};

/** Deterministic, seeded fault injector. */
class FaultInjector
{
  public:
    FaultInjector(const FaultParams &params, FaultStats &stats)
        : params_(params), stats_(stats), rng_(params.seed)
    {}

    void bindHost(FaultHost *host) { host_ = host; }

    const FaultParams &params() const { return params_; }
    FaultStats &stats() { return stats_; }
    const FaultStats &stats() const { return stats_; }
    std::uint64_t accessNo() const { return accessNo_; }
    bool detectionEnabled() const { return params_.parityDetection; }

    /**
     * Per-access hook: advance the access clock, roll the structure
     * fault dice, and run the periodic scrub sweep.
     */
    void
    onAccess()
    {
        ++accessNo_;
        const double m = 1e-6;
        // Metadata and loss faults are only survivable with the
        // parity/ECC layer modeled (see FaultParams::parityDetection).
        if (params_.parityDetection) {
            if (params_.metaFlipsPerMillion > 0 &&
                rng_.chance(params_.metaFlipsPerMillion * m) &&
                host_->injectMetaFault(rng_, accessNo_)) {
                ++stats_.injectedMeta;
                noteInjected(FaultClass::Meta);
            }
            if (params_.dataLossPerMillion > 0 &&
                rng_.chance(params_.dataLossPerMillion * m) &&
                host_->injectDataFault(rng_, accessNo_, true)) {
                ++stats_.injectedLoss;
                noteInjected(FaultClass::Loss);
            }
        }
        if (params_.dataFlipsPerMillion > 0 &&
            rng_.chance(params_.dataFlipsPerMillion * m) &&
            host_->injectDataFault(rng_, accessNo_, false)) {
            ++stats_.injectedData;
            noteInjected(FaultClass::DataFlip);
        }
        if (params_.sweepPeriod && params_.parityDetection &&
            accessNo_ % params_.sweepPeriod == 0) {
            sweep();
        }
    }

    /** Run one scrub sweep over all arrays. */
    void
    sweep()
    {
        ++stats_.scrubSweeps;
        DTRACE(Fault, &stats_, "scrub sweep %llu at access %llu",
               static_cast<unsigned long long>(stats_.scrubSweeps.value()),
               static_cast<unsigned long long>(accessNo_));
        host_->faultSweep();
    }

    /** Outcome of the link-fault roll for one NoC message. */
    struct NocFault
    {
        unsigned retries = 0;  //!< Retransmissions to re-count.
        Cycles extraLatency = 0;
    };

    /**
     * Per-message hook: decide whether this message is delayed or
     * dropped (and retransmitted with exponential backoff). The caller
     * (Interconnect::send) re-counts one message per retry.
     */
    NocFault
    onNocSend()
    {
        NocFault f;
        const double m = 1e-6;
        if (params_.nocDelayPerMillion > 0 &&
            rng_.chance(params_.nocDelayPerMillion * m)) {
            ++stats_.nocDelayed;
            f.extraLatency += hopLatency_ *
                              rng_.range(1, params_.nocMaxDelayHops);
        }
        if (params_.nocDropPerMillion > 0) {
            const double p = params_.nocDropPerMillion * m;
            while (f.retries < params_.nocMaxRetries && rng_.chance(p)) {
                // Timeout expires, sender retransmits; backoff doubles.
                ++stats_.nocDropped;
                ++stats_.nocRetries;
                f.extraLatency +=
                    params_.nocRetryTimeout << std::min(f.retries, 5u);
                ++f.retries;
            }
        }
        return f;
    }

    void setHopLatency(Cycles hop) { hopLatency_ = hop; }

    /** Fault classes, printed by number in the Fault DTRACE lines. */
    enum class FaultClass : std::uint64_t
    {
        Meta = 0, DataFlip = 1, Loss = 2,
        RegionRebuild = 3, Md3Rebuild = 4, Refetch = 5,
    };

    /** Record a metadata detection (called by the host's recovery). */
    void
    noteMetaDetected(std::uint64_t fault_access)
    {
        ++stats_.detectedMeta;
        std::uint64_t latency = 0;
        if (fault_access && accessNo_ >= fault_access) {
            latency = accessNo_ - fault_access;
            stats_.detectionLatency.sample(static_cast<double>(latency));
        }
        DTRACE(Fault, &stats_,
               "metadata corruption detected (latency %llu accesses)",
               static_cast<unsigned long long>(latency));
    }

    /** Record an ECC data correction. */
    void
    noteDataCorrected(std::uint64_t fault_access)
    {
        ++stats_.correctedData;
        std::uint64_t latency = 0;
        if (fault_access && accessNo_ >= fault_access) {
            latency = accessNo_ - fault_access;
            stats_.detectionLatency.sample(static_cast<double>(latency));
        }
        DTRACE(Fault, &stats_,
               "ECC corrected a data flip (latency %llu accesses)",
               static_cast<unsigned long long>(latency));
    }

    /** Record a completed recovery action (host rebuild / refetch). */
    void
    noteRecovered(FaultClass what, std::uint64_t detail = 0)
    {
        DTRACE(Fault, &stats_, "recovery action %llu (detail %llu)",
               static_cast<unsigned long long>(what),
               static_cast<unsigned long long>(detail));
    }

    /**
     * ECC scrub of one data slot: corrects the stored single-bit fault
     * mask on any read. Templated so the tag-less and classic line
     * types share the hot-path helper; both carry `faultMask`,
     * `faultAccess` and `value` fields.
     */
    template <typename Line>
    void
    scrubLine(Line &line)
    {
        if (!params_.parityDetection)
            return;  // no ECC: corruption flows to the consumer
        noteDataCorrected(line.faultAccess);
        line.value ^= line.faultMask;
        line.faultMask = 0;
        line.faultAccess = 0;
    }

  private:
    /** Shared injection bookkeeping: one-time activation warning plus
     * the per-fault debug line. */
    void
    noteInjected(FaultClass what)
    {
        warn_once("fault injection active (seed %llu); stats below "
                  "include injected faults",
                  static_cast<unsigned long long>(params_.seed));
        DTRACE(Fault, &stats_, "injected fault class %llu at access %llu",
               static_cast<unsigned long long>(what),
               static_cast<unsigned long long>(accessNo_));
    }

    FaultParams params_;
    FaultStats &stats_;
    Rng rng_;
    FaultHost *host_ = nullptr;
    std::uint64_t accessNo_ = 0;
    Cycles hopLatency_ = 12;
};

} // namespace d2m

#endif // D2M_FAULT_FAULT_INJECTOR_HH
