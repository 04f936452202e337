/**
 * @file
 * The on-chip interconnect.
 *
 * A single-hop crossbar connecting all nodes with the far side (LLC,
 * directory / MD3, memory controller). Endpoint ids 0..N-1 are nodes;
 * endpoint N is the far side. A transfer between a node and itself
 * (e.g. a near-side LLC slice access) costs no interconnect traffic
 * and no hop latency — that asymmetry is the heart of the NS-LLC
 * optimization (Section IV-B).
 *
 * The interconnect performs all message/byte accounting used by
 * Figure 5 and feeds per-byte transfer energy into the energy model.
 */

#ifndef D2M_NOC_INTERCONNECT_HH
#define D2M_NOC_INTERCONNECT_HH

#include <array>
#include <cstdint>
#include <vector>

#include "common/logging.hh"
#include "common/types.hh"
#include "fault/fault_injector.hh"
#include "noc/message.hh"
#include "obs/debug.hh"
#include "sim/sim_object.hh"

namespace d2m
{

/** Endpoint id of the far side (LLC / directory / MD3 / memory). */
constexpr std::uint32_t farSideEndpoint(unsigned num_nodes)
{
    return num_nodes;
}

/** Crossbar interconnect with per-message-type accounting. */
class Interconnect : public SimObject
{
  public:
    Interconnect(std::string name, SimObject *parent, unsigned num_nodes,
                 unsigned line_size, Cycles hop_latency)
        : SimObject(std::move(name), parent),
          totalMessages(this, "messages", "total interconnect messages"),
          totalBytes(this, "bytes", "total interconnect bytes"),
          d2mMessages(this, "d2mMessages",
                      "D2M-only metadata messages (Fig 5 light bars)"),
          dataBytes(this, "dataBytes", "bytes of line-data payload"),
          sendDelay(this, "sendDelay",
                    "per-message NoC delay distribution (hop latency "
                    "plus fault-injected queuing/retransmission delay)"),
          numNodes_(num_nodes), lineSize_(line_size),
          hopLatency_(hop_latency)
    {
        perType_.fill(0);
    }

    /**
     * Send one message from endpoint @p src to endpoint @p dst.
     * @return the latency contribution (0 for same-endpoint transfers).
     */
    Cycles
    send(std::uint32_t src, std::uint32_t dst, MsgType type)
    {
        panic_if(src > numNodes_ || dst > numNodes_,
                 "bad interconnect endpoint %u -> %u", src, dst);
        if (src == dst)
            return 0;  // near-side access: never crosses the NoC
        const unsigned bytes = msgBytes(type, lineSize_);
        ++totalMessages;
        totalBytes += bytes;
        if (isD2mOnly(type))
            ++d2mMessages;
        if (carriesData(type))
            dataBytes += lineSize_;
        ++perType_[static_cast<size_t>(type)];
        DTRACE(NoC, this, "send %u -> %u %s (%uB)", src, dst,
               msgTypeName(type), bytes);
        Cycles lat = hopLatency_;
        if (faults_) [[unlikely]] {
            // Link faults: each retransmission of a dropped message is
            // real traffic and is re-counted in full.
            const FaultInjector::NocFault f = faults_->onNocSend();
            if (f.retries > 0) {
                warn_limited("NoC message %s %u -> %u dropped %u "
                             "time(s); retransmitted",
                             msgTypeName(type), src, dst, f.retries);
            }
            for (unsigned r = 0; r < f.retries; ++r) {
                ++totalMessages;
                totalBytes += bytes;
                if (isD2mOnly(type))
                    ++d2mMessages;
                if (carriesData(type))
                    dataBytes += lineSize_;
                ++perType_[static_cast<size_t>(type)];
                DTRACE(NoC, this, "retry %u/%u %u -> %u %s", r + 1,
                       f.retries, src, dst, msgTypeName(type));
            }
            lat += f.extraLatency;
        }
        sendDelay.sample(lat);
        return lat;
    }

    /** Bind the fault injector modeling link drops/delays. */
    void setFaultInjector(FaultInjector *faults) { faults_ = faults; }

    /**
     * Multicast @p type from @p src to every node whose bit is set in
     * @p dest_mask (excluding @p src itself).
     * @return the one-hop latency if anything was sent, else 0.
     */
    Cycles
    multicast(std::uint32_t src, std::uint64_t dest_mask, MsgType type)
    {
        Cycles lat = 0;
        for (std::uint32_t n = 0; n < numNodes_; ++n) {
            if (n == src || !((dest_mask >> n) & 1))
                continue;
            lat = std::max(lat, send(src, n, type));
        }
        return lat;
    }

    std::uint64_t
    countOf(MsgType type) const
    {
        return perType_[static_cast<size_t>(type)];
    }

    Cycles hopLatency() const { return hopLatency_; }
    unsigned numNodes() const { return numNodes_; }

    void
    resetStats() override
    {
        StatGroup::resetStats();
        perType_.fill(0);
    }

    stats::Counter totalMessages;
    stats::Counter totalBytes;
    stats::Counter d2mMessages;
    stats::Counter dataBytes;
    stats::Histogram2 sendDelay;

  private:
    unsigned numNodes_;
    unsigned lineSize_;
    Cycles hopLatency_;
    FaultInjector *faults_ = nullptr;
    std::array<std::uint64_t, static_cast<size_t>(MsgType::NUM_TYPES)>
        perType_;
};

} // namespace d2m

#endif // D2M_NOC_INTERCONNECT_HH
