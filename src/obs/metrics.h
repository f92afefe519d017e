// Process-wide metrics: thread-safe counters, gauges, and fixed-bucket
// latency/size histograms behind a global MetricsRegistry.
//
// Design rules (see DESIGN.md §Observability):
//  - Instruments are registered once and never deleted, so references
//    returned by the registry stay valid for the process lifetime. The
//    KPEF_COUNTER_ADD / KPEF_GAUGE_SET / KPEF_HISTOGRAM_OBSERVE macros
//    cache that reference in a function-local static, so the steady-state
//    cost of an instrumented site is one relaxed atomic RMW.
//  - Hot loops must NOT call the macros per iteration; they accumulate
//    into a stack-local counter and merge once at the end (the same
//    pattern that keeps per-query stats race-free across concurrent
//    queries).

#ifndef KPEF_OBS_METRICS_H_
#define KPEF_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace kpef::obs {

/// Monotonically increasing event count.
class Counter {
 public:
  void Add(uint64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  uint64_t Value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// Last-write-wins scalar (e.g. most recent epoch loss).
class Gauge {
 public:
  void Set(double value) { value_.store(value, std::memory_order_relaxed); }
  double Value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { Set(0.0); }

 private:
  std::atomic<double> value_{0.0};
};

/// Fixed-bucket histogram: bucket i counts observations <= bounds[i]
/// (exclusive of lower buckets); one overflow bucket catches the rest.
/// Observe() is wait-free (relaxed atomics), so concurrent observers
/// never block; cross-field reads (count vs. sum) are only guaranteed
/// consistent once writers are quiescent, which is when exports happen.
class Histogram {
 public:
  /// `upper_bounds` must be strictly increasing and non-empty.
  explicit Histogram(std::vector<double> upper_bounds);

  void Observe(double value);

  const std::vector<double>& upper_bounds() const { return bounds_; }
  /// Buckets = upper_bounds().size() + 1; the last is the overflow bucket.
  size_t NumBuckets() const { return bounds_.size() + 1; }
  uint64_t BucketCount(size_t bucket) const {
    return counts_[bucket].load(std::memory_order_relaxed);
  }
  uint64_t TotalCount() const {
    return total_.load(std::memory_order_relaxed);
  }
  double Sum() const { return sum_.load(std::memory_order_relaxed); }
  void Reset();

 private:
  std::vector<double> bounds_;
  std::unique_ptr<std::atomic<uint64_t>[]> counts_;
  std::atomic<uint64_t> total_{0};
  std::atomic<double> sum_{0.0};
};

/// Default histogram bounds: powers of two 1, 2, 4, ..., 2^20. Suitable
/// for the count-valued distributions the pipeline records (search hops,
/// list entries, queue sizes) and acceptable for millisecond latencies.
const std::vector<double>& DefaultHistogramBounds();

/// Bounds for millisecond-valued latency histograms: sub-millisecond
/// resolution at the low end (serve-path queries complete in tens of
/// microseconds on small corpora) through 60 s at the top, so tail
/// percentiles derived from the snapshot are not saturated in one
/// bucket. Pass to the registry at warm-up; the creating call wins.
const std::vector<double>& LatencyHistogramBounds();

/// Immutable copy of every instrument's current value, taken under the
/// registration lock (values themselves are relaxed-atomic reads).
struct MetricsSnapshot {
  struct HistogramData {
    std::vector<double> upper_bounds;
    /// Per-bucket (non-cumulative) counts; size = upper_bounds + 1.
    std::vector<uint64_t> bucket_counts;
    uint64_t total_count = 0;
    double sum = 0.0;
  };
  std::map<std::string, uint64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, HistogramData> histograms;
};

/// Name -> instrument map. Registration is mutex-guarded; instrument
/// updates are lock-free. Counters, gauges, and histograms live in
/// separate namespaces, so one name can back at most one of each kind
/// (pipeline names never overlap in practice).
class MetricsRegistry {
 public:
  /// The process-wide registry (created on first use, never destroyed).
  static MetricsRegistry& Global();

  /// Returns the instrument registered under `name`, creating it on
  /// first use. The returned reference is valid forever.
  Counter& GetCounter(const std::string& name);
  Gauge& GetGauge(const std::string& name);
  /// `upper_bounds` is honoured only by the call that creates the
  /// histogram; later calls return the existing instrument unchanged.
  Histogram& GetHistogram(const std::string& name,
                          std::vector<double> upper_bounds = {});

  /// Zeroes every instrument's value, keeping registrations (and thus
  /// outstanding references) intact. Test/benchmark isolation aid.
  void ResetValues();

  MetricsSnapshot Snapshot() const;

 private:
  MetricsRegistry() = default;

  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

}  // namespace kpef::obs

// --- Instrumentation macros -------------------------------------------
//
// `name` must be a string literal (the registry reference is cached in a
// function-local static keyed by the call site).

#define KPEF_COUNTER_ADD(name, delta)                              \
  do {                                                             \
    static ::kpef::obs::Counter& kpef_metrics_counter_ =           \
        ::kpef::obs::MetricsRegistry::Global().GetCounter(name);   \
    kpef_metrics_counter_.Add(delta);                              \
  } while (0)

#define KPEF_GAUGE_SET(name, value)                                \
  do {                                                             \
    static ::kpef::obs::Gauge& kpef_metrics_gauge_ =               \
        ::kpef::obs::MetricsRegistry::Global().GetGauge(name);     \
    kpef_metrics_gauge_.Set(value);                                \
  } while (0)

#define KPEF_HISTOGRAM_OBSERVE(name, value)                        \
  do {                                                             \
    static ::kpef::obs::Histogram& kpef_metrics_histogram_ =       \
        ::kpef::obs::MetricsRegistry::Global().GetHistogram(name); \
    kpef_metrics_histogram_.Observe(                               \
        static_cast<double>(value));                               \
  } while (0)

#endif  // KPEF_OBS_METRICS_H_
