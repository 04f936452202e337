#include "harness/report.hh"

#include <algorithm>
#include <cstdio>
#include <sstream>

#include "common/logging.hh"

namespace d2m
{

TextTable::TextTable(std::vector<std::string> headers)
    : headers_(std::move(headers))
{}

void
TextTable::addRow(std::vector<std::string> cells)
{
    cells.resize(headers_.size());
    rows_.push_back(std::move(cells));
}

void
TextTable::addSeparator()
{
    rows_.emplace_back();
}

std::string
TextTable::render() const
{
    std::vector<size_t> widths(headers_.size());
    for (size_t c = 0; c < headers_.size(); ++c)
        widths[c] = headers_[c].size();
    for (const auto &row : rows_) {
        for (size_t c = 0; c < row.size(); ++c)
            widths[c] = std::max(widths[c], row[c].size());
    }

    std::ostringstream oss;
    auto emit = [&](const std::vector<std::string> &cells) {
        for (size_t c = 0; c < headers_.size(); ++c) {
            const std::string &cell = c < cells.size() ? cells[c] : "";
            oss << (c == 0 ? "" : "  ");
            oss << cell;
            oss << std::string(widths[c] - cell.size(), ' ');
        }
        oss << "\n";
    };
    emit(headers_);
    size_t total = headers_.size() - 1;
    for (size_t w : widths)
        total += w + 1;
    oss << std::string(total, '-') << "\n";
    for (const auto &row : rows_) {
        if (row.empty())
            oss << std::string(total, '-') << "\n";
        else
            emit(row);
    }
    return oss.str();
}

std::string
fmt(double v, int decimals)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f", decimals, v);
    return buf;
}

std::string
fmtGeomeanRatio(const std::vector<double> &ratios)
{
    const double g = geomean(ratios);
    return g > 0 ? vformat("%.2fx (%+.0f%%)", g, 100.0 * (g - 1)) : "n/a";
}

std::string
fmtGeomeanPct(const std::vector<double> &ratios)
{
    const double g = geomean(ratios);
    return g > 0 ? vformat("%+.1f%%", 100.0 * (g - 1)) : "n/a";
}

const Metrics *
findRow(const std::vector<Metrics> &rows, const std::string &benchmark,
        const std::string &config)
{
    for (const auto &m : rows) {
        if (m.benchmark == benchmark && m.config == config &&
            m.status == "ok")
            return &m;
    }
    return nullptr;
}

std::optional<double>
suiteMean(const std::vector<Metrics> &rows, const std::string &suite,
          const std::string &config,
          const std::function<double(const Metrics &)> &get)
{
    double sum = 0;
    unsigned n = 0;
    for (const auto &m : rows) {
        if (m.suite == suite && m.config == config && m.status == "ok") {
            sum += get(m);
            ++n;
        }
    }
    if (!n)
        return std::nullopt;
    return sum / n;
}

std::string
tailLatencyTable(const std::vector<Metrics> &rows,
                 const std::string &base_config)
{
    TextTable table({"suite", "benchmark", "config", "mean", "p50",
                     "p95", "p99", "p99 vs " + base_config});
    bool first_bench = true;
    for (const auto &name : benchmarksIn(rows)) {
        if (!first_bench)
            table.addSeparator();
        first_bench = false;
        const Metrics *base = findRow(rows, name, base_config);
        for (const auto &m : rows) {
            if (m.benchmark != name)
                continue;
            std::vector<std::string> cells{
                m.suite, name, m.config, fmt(m.avgMissLatency),
                fmt(m.missLatencyP50, 0), fmt(m.missLatencyP95, 0),
                fmt(m.missLatencyP99, 0)};
            if (base && base->missLatencyP99 > 0) {
                cells.push_back(
                    fmt(m.missLatencyP99 / base->missLatencyP99, 2) +
                    "x");
            } else {
                cells.push_back("-");
            }
            table.addRow(std::move(cells));
        }
    }
    return table.render();
}

std::vector<std::string>
benchmarksIn(const std::vector<Metrics> &rows)
{
    std::vector<std::string> names;
    for (const auto &m : rows) {
        if (std::find(names.begin(), names.end(), m.benchmark) ==
            names.end()) {
            names.push_back(m.benchmark);
        }
    }
    return names;
}

} // namespace d2m
