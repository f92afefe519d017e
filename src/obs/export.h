// Metric exporters: Prometheus text exposition and a JSON dump, both
// rendered from a MetricsSnapshot so one export is internally
// consistent.

#ifndef KPEF_OBS_EXPORT_H_
#define KPEF_OBS_EXPORT_H_

#include <string>

#include "common/status.h"
#include "obs/metrics.h"

namespace kpef::obs {

/// Prometheus text format. Metric names are sanitized ('.' and other
/// non-[a-zA-Z0-9_:] characters become '_'); histograms expand into the
/// conventional cumulative _bucket{le=...}/_sum/_count series. Every
/// pipeline instrument gets its table row's `# HELP` line, and the rows
/// flagged for quantiles additionally export a `<id>_quantile` summary
/// family with p50/p95/p99 derived from the bucket snapshot (see
/// HistogramQuantile).
std::string ExportPrometheusText(const MetricsSnapshot& snapshot);
std::string ExportPrometheusText();  // Global registry.

/// Estimates quantile `q` in [0, 1] from a bucketed snapshot by linear
/// interpolation inside the bucket holding the target rank (lower edge 0
/// for the first bucket). Observations in the overflow bucket clamp to
/// the highest finite bound — the reason serve latencies use the wide
/// LatencyHistogramBounds(). Returns 0 for an empty histogram.
double HistogramQuantile(const MetricsSnapshot::HistogramData& data,
                         double q);

/// Escapes a Prometheus label value (backslash, double quote, newline).
std::string EscapeLabelValue(const std::string& value);

/// JSON document:
///   {"counters": {name: integer, ...},
///    "gauges": {name: number, ...},
///    "histograms": {name: {"count": n, "sum": s,
///                          "buckets": [{"le": bound|"+Inf",
///                                       "count": n}, ...]}, ...}}
/// Bucket counts are cumulative, mirroring the Prometheus exposition.
std::string ExportMetricsJson(const MetricsSnapshot& snapshot);
std::string ExportMetricsJson();  // Global registry.

/// Writes the global registry to `path`: Prometheus text when the path
/// ends in ".prom" or ".txt", JSON otherwise.
Status WriteMetricsFile(const std::string& path);

}  // namespace kpef::obs

#endif  // KPEF_OBS_EXPORT_H_
