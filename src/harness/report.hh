/**
 * @file
 * Plain-text table/series printers used by the bench binaries to emit
 * paper-style rows (one printer per table/figure shape).
 */

#ifndef D2M_HARNESS_REPORT_HH
#define D2M_HARNESS_REPORT_HH

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "harness/metrics.hh"

namespace d2m
{

/** A fixed-width text table builder. */
class TextTable
{
  public:
    explicit TextTable(std::vector<std::string> headers);

    void addRow(std::vector<std::string> cells);
    void addSeparator();

    /** Render with aligned columns. */
    std::string render() const;

  private:
    std::vector<std::string> headers_;
    std::vector<std::vector<std::string>> rows_;  // empty row = separator
};

/** Format @p v with @p decimals digits. */
std::string fmt(double v, int decimals = 1);

/** "0.73x (-27%)": geomean of @p ratios; "n/a" with no positive one. */
std::string fmtGeomeanRatio(const std::vector<double> &ratios);

/** "+3.1%": geomean of @p ratios as a change; "n/a" with none. */
std::string fmtGeomeanPct(const std::vector<double> &ratios);

/** The "ok" row for one (benchmark, config); null when the cell is
 * missing or failed, so a failed cell never reads as a result. */
const Metrics *findRow(const std::vector<Metrics> &rows,
                       const std::string &benchmark,
                       const std::string &config);

/** Mean of a metric over a suite's "ok" rows for one config; empty
 * when the suite has none (filtered out, or every cell failed). */
std::optional<double>
suiteMean(const std::vector<Metrics> &rows, const std::string &suite,
          const std::string &config,
          const std::function<double(const Metrics &)> &get);

/** Distinct benchmark names (in order) of @p rows. */
std::vector<std::string> benchmarksIn(const std::vector<Metrics> &rows);

/**
 * Tail-latency table (Section V-D): per benchmark and config, mean /
 * p50 / p95 / p99 L1 miss latency plus the p99 ratio against
 * @p base_config. Rendered from the Histogram2 percentiles in Metrics.
 */
std::string tailLatencyTable(const std::vector<Metrics> &rows,
                             const std::string &base_config = "Base-2L");

} // namespace d2m

#endif // D2M_HARNESS_REPORT_HH
