#include "obs/metrics.h"

#include <algorithm>

#include "common/logging.h"

namespace kpef::obs {

const std::vector<double>& DefaultHistogramBounds() {
  static const std::vector<double>* bounds = [] {
    auto* b = new std::vector<double>();
    for (double v = 1.0; v <= 1048576.0; v *= 2.0) b->push_back(v);
    return b;
  }();
  return *bounds;
}

const std::vector<double>& LatencyHistogramBounds() {
  static const std::vector<double>* bounds = new std::vector<double>{
      0.05, 0.1,  0.25, 0.5,   1.0,   2.5,   5.0,    10.0,    25.0,   50.0,
      100.0, 250.0, 500.0, 1000.0, 2500.0, 5000.0, 10000.0, 30000.0, 60000.0};
  return *bounds;
}

Histogram::Histogram(std::vector<double> upper_bounds)
    : bounds_(std::move(upper_bounds)) {
  if (bounds_.empty()) bounds_ = DefaultHistogramBounds();
  KPEF_CHECK(std::is_sorted(bounds_.begin(), bounds_.end()))
      << "histogram bounds must be increasing";
  counts_ = std::make_unique<std::atomic<uint64_t>[]>(bounds_.size() + 1);
  for (size_t i = 0; i <= bounds_.size(); ++i) counts_[i].store(0);
}

void Histogram::Observe(double value) {
  const size_t bucket =
      std::lower_bound(bounds_.begin(), bounds_.end(), value) -
      bounds_.begin();
  counts_[bucket].fetch_add(1, std::memory_order_relaxed);
  total_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(value, std::memory_order_relaxed);
}

void Histogram::Reset() {
  for (size_t i = 0; i <= bounds_.size(); ++i) {
    counts_[i].store(0, std::memory_order_relaxed);
  }
  total_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
}

MetricsRegistry& MetricsRegistry::Global() {
  // Leaked on purpose: instrument references handed out by the registry
  // must stay valid through static destruction.
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

Counter& MetricsRegistry::GetCounter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& MetricsRegistry::GetGauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& MetricsRegistry::GetHistogram(const std::string& name,
                                         std::vector<double> upper_bounds) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = histograms_[name];
  if (!slot) slot = std::make_unique<Histogram>(std::move(upper_bounds));
  return *slot;
}

void MetricsRegistry::ResetValues() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto& [name, counter] : counters_) counter->Reset();
  for (auto& [name, gauge] : gauges_) gauge->Reset();
  for (auto& [name, histogram] : histograms_) histogram->Reset();
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  MetricsSnapshot snap;
  for (const auto& [name, counter] : counters_) {
    snap.counters[name] = counter->Value();
  }
  for (const auto& [name, gauge] : gauges_) {
    snap.gauges[name] = gauge->Value();
  }
  for (const auto& [name, histogram] : histograms_) {
    MetricsSnapshot::HistogramData data;
    data.upper_bounds = histogram->upper_bounds();
    data.bucket_counts.reserve(histogram->NumBuckets());
    for (size_t i = 0; i < histogram->NumBuckets(); ++i) {
      data.bucket_counts.push_back(histogram->BucketCount(i));
    }
    data.total_count = histogram->TotalCount();
    data.sum = histogram->Sum();
    snap.histograms[name] = std::move(data);
  }
  return snap;
}

}  // namespace kpef::obs
