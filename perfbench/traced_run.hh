/**
 * @file
 * The benchmark's traced driver loop.
 *
 * runTraced() mirrors runMulticore()'s per-access loop (pick the core
 * with the smallest clock, AccessStream::next, PageTable::translate,
 * the OooModel calls, MemorySystem::access, the golden check) through
 * public calls only, so the simulator itself carries no tracing code.
 * It counts every call into each layer and records spans for one
 * simulated access in N (chosen pseudo-randomly, so the sample cannot
 * alias with the cores' issue pattern). A layer's mean cost per call
 * comes from the sampled spans; its self time is that mean times its
 * exact call count.
 */

#ifndef D2M_PERFBENCH_TRACED_RUN_HH
#define D2M_PERFBENCH_TRACED_RUN_HH

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cpu/mem_system.hh"
#include "cpu/multicore.hh"
#include "workload/stream.hh"

namespace perfbench
{

/** The layers one simulated access crosses, in call order. */
enum class Layer : std::uint8_t
{
    Access,      //!< Root span of one simulated access (request).
    Sched,       //!< Driver: pick the core with the smallest clock.
    Workload,    //!< AccessStream::next.
    Translate,   //!< PageTable::translate.
    Core,        //!< OooModel late-hit check, issue and retire calls.
    AccessHit,   //!< MemorySystem::access that hit in the L1.
    AccessMiss,  //!< MemorySystem::access that missed in the L1.
    Golden,      //!< GoldenMemory::load / store.
    Count
};

inline constexpr std::size_t kLayers =
    static_cast<std::size_t>(Layer::Count);

/** Span name of @p layer ("workload.next", ...). */
const char *layerName(Layer layer);

/** One timed interval; spans of one access share its root's id. */
struct Span
{
    std::uint32_t id = 0;
    std::uint32_t parent = 0;  //!< Root span id (the request id).
    Layer layer = Layer::Access;
    std::uint64_t startNs = 0;  //!< Since the buffer's epoch.
    std::uint64_t endNs = 0;
};

/**
 * In-memory span store, written out once when the benchmark ends.
 * Holds at most @ref capacity spans; later samples still feed the
 * layer statistics but are not kept.
 */
struct SpanBuffer
{
    explicit SpanBuffer(std::size_t capacity);

    std::size_t capacity;
    std::vector<Span> spans;
    std::uint32_t nextId = 1;
    std::uint64_t dropped = 0;

    /** Write the kept spans as a Chrome trace-event JSON array. */
    bool writeChromeJson(const std::string &path) const;
};

/** Per-layer totals of one traced run. */
struct LayerCounts
{
    std::array<std::uint64_t, kLayers> calls{};     //!< Every call.
    std::array<std::uint64_t, kLayers> sampled{};   //!< Timed calls.
    std::array<double, kLayers> sampledNs{};        //!< Their time.

    /** Mean ns per call from the sampled spans (0 if none). */
    double meanNs(Layer layer) const;
    /** Estimated total self time: mean per call x every call. */
    double selfSeconds(Layer layer) const;
    void add(const LayerCounts &other);
};

/** Outcome of one traced run. */
struct TracedRun
{
    d2m::RunResult run;
    LayerCounts layers;
    std::uint64_t goldenLines = 0;  //!< Lines in the golden image.
};

/**
 * Drive @p streams to completion on @p system like runMulticore()
 * with value checking on and @p warmup_insts_per_core of warmup.
 *
 * @param sample_every mean sampling period N (one access in N timed).
 * @param timer_ns     cost of one clock read, subtracted per span.
 */
TracedRun
runTraced(d2m::MemorySystem &system,
          std::vector<std::unique_ptr<d2m::AccessStream>> &streams,
          std::uint64_t warmup_insts_per_core, unsigned sample_every,
          double timer_ns, SpanBuffer &spans);

/** Mean cost in ns of one steady_clock read on this host. */
double measureTimerNs();

} // namespace perfbench

#endif // D2M_PERFBENCH_TRACED_RUN_HH
