#include "obs/export.h"

#include <algorithm>
#include <cctype>
#include <cinttypes>
#include <cstdio>
#include <fstream>

#include "common/json_string.h"
#include "obs/pipeline_metrics.h"

namespace kpef::obs {
namespace {

constexpr double kQuantiles[] = {0.5, 0.95, 0.99};

std::string Sanitize(const std::string& name) {
  std::string out = name;
  for (char& c : out) {
    if (!std::isalnum(static_cast<unsigned char>(c)) && c != '_' && c != ':') {
      c = '_';
    }
  }
  if (!out.empty() && std::isdigit(static_cast<unsigned char>(out[0]))) {
    out.insert(out.begin(), '_');
  }
  return out;
}

std::string FormatU64(uint64_t value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%" PRIu64, value);
  return buf;
}

void AppendHelp(std::string* out, const std::string& name,
                const std::string& id) {
  if (const PipelineMetric* metric = FindPipelineMetric(name)) {
    *out += "# HELP " + id + " " + metric->help + "\n";
  }
}

}  // namespace

double HistogramQuantile(const MetricsSnapshot::HistogramData& data,
                         double q) {
  if (data.total_count == 0 || data.upper_bounds.empty()) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double rank = q * static_cast<double>(data.total_count);
  uint64_t cumulative = 0;
  for (size_t i = 0; i < data.bucket_counts.size(); ++i) {
    const uint64_t prev = cumulative;
    cumulative += data.bucket_counts[i];
    if (static_cast<double>(cumulative) >= rank && data.bucket_counts[i] > 0) {
      if (i >= data.upper_bounds.size()) return data.upper_bounds.back();
      const double lo = i == 0 ? 0.0 : data.upper_bounds[i - 1];
      const double hi = data.upper_bounds[i];
      const double frac = std::clamp(
          (rank - static_cast<double>(prev)) /
              static_cast<double>(data.bucket_counts[i]),
          0.0, 1.0);
      return lo + (hi - lo) * frac;
    }
  }
  return data.upper_bounds.back();
}

std::string EscapeLabelValue(const std::string& value) {
  std::string out;
  out.reserve(value.size());
  for (char c : value) {
    switch (c) {
      case '\\':
        out += "\\\\";
        break;
      case '"':
        out += "\\\"";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out += c;
    }
  }
  return out;
}

std::string ExportPrometheusText(const MetricsSnapshot& snapshot) {
  std::string out;
  for (const auto& [name, value] : snapshot.counters) {
    const std::string id = Sanitize(name);
    AppendHelp(&out, name, id);
    out += "# TYPE " + id + " counter\n";
    out += id + " " + FormatU64(value) + "\n";
  }
  for (const auto& [name, value] : snapshot.gauges) {
    const std::string id = Sanitize(name);
    AppendHelp(&out, name, id);
    out += "# TYPE " + id + " gauge\n";
    out += id + " " + JsonNumber(value) + "\n";
  }
  for (const auto& [name, data] : snapshot.histograms) {
    const std::string id = Sanitize(name);
    AppendHelp(&out, name, id);
    out += "# TYPE " + id + " histogram\n";
    uint64_t cumulative = 0;
    for (size_t i = 0; i < data.bucket_counts.size(); ++i) {
      cumulative += data.bucket_counts[i];
      const std::string le = i < data.upper_bounds.size()
                                 ? JsonNumber(data.upper_bounds[i])
                                 : "+Inf";
      out += id + "_bucket{le=\"" + le + "\"} " + FormatU64(cumulative) + "\n";
    }
    out += id + "_sum " + JsonNumber(data.sum) + "\n";
    out += id + "_count " + FormatU64(data.total_count) + "\n";
  }
  // Summary-style tail quantiles for the rows that ask for them,
  // derived from the same snapshot so they agree with the buckets above.
  for (const PipelineMetric& metric : kPipelineMetrics) {
    if (!metric.quantiles) continue;
    auto it = snapshot.histograms.find(metric.name);
    if (it == snapshot.histograms.end()) continue;
    const auto& data = it->second;
    const std::string id = Sanitize(metric.name) + "_quantile";
    out += "# HELP " + id + " " + metric.help +
           " (tail quantiles derived from the histogram)\n";
    out += "# TYPE " + id + " summary\n";
    for (double q : kQuantiles) {
      char qbuf[16];
      std::snprintf(qbuf, sizeof(qbuf), "%g", q);
      out += id + "{quantile=\"" + qbuf + "\"} " +
             JsonNumber(HistogramQuantile(data, q)) + "\n";
    }
    out += id + "_sum " + JsonNumber(data.sum) + "\n";
    out += id + "_count " + FormatU64(data.total_count) + "\n";
  }
  return out;
}

std::string ExportPrometheusText() {
  return ExportPrometheusText(MetricsRegistry::Global().Snapshot());
}

std::string ExportMetricsJson(const MetricsSnapshot& snapshot) {
  std::string out = "{\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, value] : snapshot.counters) {
    out += first ? "\n" : ",\n";
    out += "    \"" + name + "\": " + FormatU64(value);
    first = false;
  }
  out += first ? "},\n" : "\n  },\n";
  out += "  \"gauges\": {";
  first = true;
  for (const auto& [name, value] : snapshot.gauges) {
    out += first ? "\n" : ",\n";
    out += "    \"" + name + "\": " + JsonNumber(value);
    first = false;
  }
  out += first ? "},\n" : "\n  },\n";
  out += "  \"histograms\": {";
  first = true;
  for (const auto& [name, data] : snapshot.histograms) {
    out += first ? "\n" : ",\n";
    out += "    \"" + name + "\": {\"count\": " + FormatU64(data.total_count) +
           ", \"sum\": " + JsonNumber(data.sum) + ", \"buckets\": [";
    uint64_t cumulative = 0;
    for (size_t i = 0; i < data.bucket_counts.size(); ++i) {
      cumulative += data.bucket_counts[i];
      if (i > 0) out += ", ";
      out += "{\"le\": ";
      out += i < data.upper_bounds.size()
                 ? JsonNumber(data.upper_bounds[i])
                 : std::string("\"+Inf\"");
      out += ", \"count\": " + FormatU64(cumulative) + "}";
    }
    out += "]}";
    first = false;
  }
  out += first ? "}\n" : "\n  }\n";
  out += "}\n";
  return out;
}

std::string ExportMetricsJson() {
  return ExportMetricsJson(MetricsRegistry::Global().Snapshot());
}

Status WriteMetricsFile(const std::string& path) {
  const bool prometheus = path.size() >= 5 && (path.ends_with(".prom") ||
                                               path.ends_with(".txt"));
  std::ofstream out(path);
  if (!out) return Status::IOError("cannot open " + path + " for writing");
  out << (prometheus ? ExportPrometheusText() : ExportMetricsJson());
  out.close();
  if (!out) return Status::IOError("flush failed for " + path);
  return Status::OK();
}

}  // namespace kpef::obs
