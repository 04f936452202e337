/**
 * @file
 * gem5-style debug-flag tracing.
 *
 * Each hierarchy component guards its trace output with a per-component
 * flag (MD, Coherence, NoC, Replacement, Fault, NSLLC, Index, Exec).
 * Flags are enabled at runtime through the D2M_DEBUG environment
 * variable ("D2M_DEBUG=Coherence,NoC"; "All" enables everything; an
 * unknown name is a fatal configuration error). Every line is stamped
 * with the current simulated tick and the emitting object's full stat
 * path:
 *
 *     412036: d2m.noc: [NoC] send 2 -> 4 DataResp (72B)
 *
 * Cost when disabled is a single branch on a cached global bitmask, so
 * DTRACE() can sit on hot paths.
 */

#ifndef D2M_OBS_DEBUG_HH
#define D2M_OBS_DEBUG_HH

#include <cstdint>
#include <string>

#include "common/logging.hh"
#include "common/types.hh"

namespace d2m::stats { class StatGroup; }

namespace d2m::debug
{

/** One bit per traceable component. */
enum class Flag : std::uint32_t
{
    MD          = 1u << 0,  //!< Metadata lookups (MD1/MD2/MD3), LI chains.
    Coherence   = 1u << 1,  //!< Protocol cases, upgrades, invalidations.
    NoC         = 1u << 2,  //!< Interconnect message sends.
    Replacement = 1u << 3,  //!< Evictions, victim relocation.
    Fault       = 1u << 4,  //!< Fault injection / detection / recovery.
    NSLLC       = 1u << 5,  //!< Near-side slice placement / replication.
    Index       = 1u << 6,  //!< Dynamic index scrambling.
    Exec        = 1u << 7,  //!< Per-access issue/complete (very chatty).
};

/** Cached bitmask of enabled flags (parsed once from D2M_DEBUG). */
extern std::uint32_t enabledMask;

/** @return true when tracing for @p f is enabled. */
inline bool
enabled(Flag f)
{
    return (enabledMask & static_cast<std::uint32_t>(f)) != 0;
}

/**
 * Parse a comma-separated flag list ("Coherence,NoC", "All", "").
 * An unknown flag name is a fatal() configuration error.
 */
std::uint32_t parseFlags(const std::string &spec);

/** Replace the enabled set (tests; normal runs parse D2M_DEBUG once). */
void setFlags(std::uint32_t mask);

/** Re-read D2M_DEBUG into the cached mask. Called once at startup. */
void initFromEnv();

/** Printable name of a single flag bit. */
const char *flagName(Flag f);

/** All flag names, comma separated (for error messages / docs). */
const char *allFlagNames();

/**
 * The current simulated tick, maintained by the execution driver
 * (cpu/multicore.cc) so trace lines can be stamped from anywhere
 * without threading a clock through every call.
 * thread_local: each parallel sweep job (harness/pool.hh) drives its
 * own system with its own clock.
 */
extern thread_local Tick curTick;

inline void setCurTick(Tick t) { curTick = t; }

/** Emit one formatted trace line to stderr (slow path; call through
 * the DTRACE macro only). @p obj may be null for global context. */
void traceLine(Flag f, const stats::StatGroup *obj,
               const std::string &msg);

} // namespace d2m::debug

/**
 * Emit a trace line when debug flag @p flag is enabled.
 *
 * @p obj is a SimObject / StatGroup pointer naming the emitter (null
 * for global context); the remaining arguments are printf-style.
 */
#define DTRACE(flag, obj, ...)                                          \
    do {                                                                \
        if (::d2m::debug::enabled(::d2m::debug::Flag::flag))            \
            [[unlikely]]                                                \
        {                                                               \
            ::d2m::debug::traceLine(::d2m::debug::Flag::flag, (obj),    \
                                    ::d2m::vformat(__VA_ARGS__));       \
        }                                                               \
    } while (0)

#endif // D2M_OBS_DEBUG_HH
