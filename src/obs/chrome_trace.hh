/**
 * @file
 * Chrome trace_event export: turns the TraceSink JSONL (obs/trace.hh,
 * DESIGN.md Section 10) into a Chrome "trace_event" JSON document
 * loadable in chrome://tracing and Perfetto (ui.perfetto.dev), giving
 * runs a visual timeline: one track per core (access slices whose
 * width is the service latency, instants for LI hops, region
 * reclassifications, upgrades and invalidations), one track per NoC
 * endpoint, a fault track, and a sim track carrying the stats-reset
 * and run-end markers.
 *
 * Mapping (DESIGN.md Section 11):
 *   pid 1 "cores"  tid=node      access_complete -> "X" slices
 *                                (name "miss"/"hit", dur = latency),
 *                                li_hop/region_class/coh_* -> "i"
 *   pid 2 "noc"    tid=endpoint  noc_send/noc_recv -> "i"
 *   pid 3 "faults" tid=0         fault_* -> "i"
 *   pid 4 "sim"    tid=0         stats_reset/run_end -> "i" (global)
 * access_issue records are dropped (the completion slice carries the
 * same information); ts is the simulated tick, presented as
 * microseconds. Events are stably sorted by ts, so every track is
 * monotonically non-decreasing regardless of record interleaving.
 */

#ifndef D2M_OBS_CHROME_TRACE_HH
#define D2M_OBS_CHROME_TRACE_HH

#include <iosfwd>
#include <string>

namespace d2m::obs
{

/**
 * Convert JSONL trace records from @p in into one Chrome trace_event
 * JSON document on @p out.
 * @return false (with @p err set) on a malformed input line; unknown
 * record kinds are skipped so newer traces stay convertible.
 */
bool chromeTraceFromJsonl(std::istream &in, std::ostream &out,
                          std::string &err);

/** File-path convenience wrapper around chromeTraceFromJsonl(). */
bool convertTraceFile(const std::string &jsonl_path,
                      const std::string &out_path, std::string &err);

} // namespace d2m::obs

#endif // D2M_OBS_CHROME_TRACE_HH
