// Tests for the observability subsystem: instrument correctness under
// concurrency, span nesting, and exporter round-trips.

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/thread_pool.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/pipeline_metrics.h"
#include "obs/trace.h"

namespace kpef {
namespace {

using obs::MetricsRegistry;
using obs::MetricsSnapshot;

// --- Minimal JSON reader for exporter round-trip checks. Supports the
// subset the exporters emit: objects, arrays, strings, numbers.
class JsonValue {
 public:
  enum class Kind { kNull, kNumber, kString, kObject, kArray };

  Kind kind = Kind::kNull;
  double number = 0.0;
  std::string str;
  std::map<std::string, JsonValue> object;
  std::vector<JsonValue> array;

  const JsonValue& operator[](const std::string& key) const {
    static const JsonValue kNullValue;
    auto it = object.find(key);
    return it == object.end() ? kNullValue : it->second;
  }
  bool Has(const std::string& key) const { return object.count(key) > 0; }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  bool Parse(JsonValue* out) {
    pos_ = 0;
    return ParseValue(out) && (SkipSpace(), pos_ == text_.size());
  }

 private:
  void SkipSpace() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    SkipSpace();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool ParseString(std::string* out) {
    if (!Consume('"')) return false;
    out->clear();
    while (pos_ < text_.size() && text_[pos_] != '"') {
      if (text_[pos_] == '\\' && pos_ + 1 < text_.size()) ++pos_;
      out->push_back(text_[pos_++]);
    }
    return Consume('"');
  }

  bool ParseValue(JsonValue* out) {
    SkipSpace();
    if (pos_ >= text_.size()) return false;
    const char c = text_[pos_];
    if (c == '{') return ParseObject(out);
    if (c == '[') return ParseArray(out);
    if (c == '"') {
      out->kind = JsonValue::Kind::kString;
      return ParseString(&out->str);
    }
    // Literals: booleans read back as 1/0 numbers, null as kNull.
    for (const auto& [literal, kind, number] :
         {std::tuple<const char*, JsonValue::Kind, double>{
              "true", JsonValue::Kind::kNumber, 1.0},
          {"false", JsonValue::Kind::kNumber, 0.0},
          {"null", JsonValue::Kind::kNull, 0.0}}) {
      const size_t len = std::char_traits<char>::length(literal);
      if (text_.compare(pos_, len, literal) == 0) {
        out->kind = kind;
        out->number = number;
        pos_ += len;
        return true;
      }
    }
    // Number.
    size_t end = pos_;
    while (end < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[end])) ||
            text_[end] == '-' || text_[end] == '+' || text_[end] == '.' ||
            text_[end] == 'e' || text_[end] == 'E')) {
      ++end;
    }
    if (end == pos_) return false;
    out->kind = JsonValue::Kind::kNumber;
    out->number = std::stod(text_.substr(pos_, end - pos_));
    pos_ = end;
    return true;
  }

  bool ParseObject(JsonValue* out) {
    if (!Consume('{')) return false;
    out->kind = JsonValue::Kind::kObject;
    SkipSpace();
    if (Consume('}')) return true;
    while (true) {
      std::string key;
      if (!ParseString(&key)) return false;
      if (!Consume(':')) return false;
      JsonValue value;
      if (!ParseValue(&value)) return false;
      out->object.emplace(std::move(key), std::move(value));
      if (Consume(',')) continue;
      return Consume('}');
    }
  }

  bool ParseArray(JsonValue* out) {
    if (!Consume('[')) return false;
    out->kind = JsonValue::Kind::kArray;
    SkipSpace();
    if (Consume(']')) return true;
    while (true) {
      JsonValue value;
      if (!ParseValue(&value)) return false;
      out->array.push_back(std::move(value));
      if (Consume(',')) continue;
      return Consume(']');
    }
  }

  const std::string& text_;
  size_t pos_ = 0;
};

JsonValue ParseJsonOrDie(const std::string& text) {
  JsonValue value;
  JsonParser parser(text);
  EXPECT_TRUE(parser.Parse(&value)) << "unparseable JSON: " << text;
  return value;
}

TEST(CounterTest, AddAndReset) {
  obs::Counter counter;
  EXPECT_EQ(counter.Value(), 0u);
  counter.Add();
  counter.Add(41);
  EXPECT_EQ(counter.Value(), 42u);
  counter.Reset();
  EXPECT_EQ(counter.Value(), 0u);
}

TEST(GaugeTest, LastWriteWins) {
  obs::Gauge gauge;
  gauge.Set(1.5);
  gauge.Set(-3.25);
  EXPECT_DOUBLE_EQ(gauge.Value(), -3.25);
  gauge.Reset();
  EXPECT_DOUBLE_EQ(gauge.Value(), 0.0);
}

TEST(HistogramTest, BucketsCountAndSum) {
  obs::Histogram hist({1.0, 10.0, 100.0});
  ASSERT_EQ(hist.NumBuckets(), 4u);
  hist.Observe(0.5);    // bucket 0 (<= 1)
  hist.Observe(1.0);    // bucket 0 (boundary is inclusive)
  hist.Observe(5.0);    // bucket 1
  hist.Observe(100.0);  // bucket 2
  hist.Observe(1e6);    // overflow bucket
  EXPECT_EQ(hist.BucketCount(0), 2u);
  EXPECT_EQ(hist.BucketCount(1), 1u);
  EXPECT_EQ(hist.BucketCount(2), 1u);
  EXPECT_EQ(hist.BucketCount(3), 1u);
  EXPECT_EQ(hist.TotalCount(), 5u);
  EXPECT_DOUBLE_EQ(hist.Sum(), 0.5 + 1.0 + 5.0 + 100.0 + 1e6);
  hist.Reset();
  EXPECT_EQ(hist.TotalCount(), 0u);
  EXPECT_DOUBLE_EQ(hist.Sum(), 0.0);
}

TEST(MetricsRegistryTest, SameNameSameInstrument) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  obs::Counter& a = registry.GetCounter("obs_test.same_name");
  obs::Counter& b = registry.GetCounter("obs_test.same_name");
  EXPECT_EQ(&a, &b);
  // Histogram bounds are honoured only at creation.
  obs::Histogram& h1 = registry.GetHistogram("obs_test.hist", {1.0, 2.0});
  obs::Histogram& h2 = registry.GetHistogram("obs_test.hist", {99.0});
  EXPECT_EQ(&h1, &h2);
  EXPECT_EQ(h2.upper_bounds().size(), 2u);
}

TEST(MetricsRegistryTest, MacrosFeedGlobalRegistry) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  registry.GetCounter("obs_test.macro_counter").Reset();
  registry.GetGauge("obs_test.macro_gauge").Reset();
  registry.GetHistogram("obs_test.macro_hist").Reset();
  for (int i = 0; i < 3; ++i) KPEF_COUNTER_ADD("obs_test.macro_counter", 2);
  KPEF_GAUGE_SET("obs_test.macro_gauge", 2.5);
  KPEF_HISTOGRAM_OBSERVE("obs_test.macro_hist", 7);
  const MetricsSnapshot snapshot = registry.Snapshot();
  EXPECT_EQ(snapshot.counters.at("obs_test.macro_counter"), 6u);
  EXPECT_DOUBLE_EQ(snapshot.gauges.at("obs_test.macro_gauge"), 2.5);
  EXPECT_EQ(snapshot.histograms.at("obs_test.macro_hist").total_count, 1u);
}

TEST(MetricsRegistryTest, ConcurrentIncrementsAreExact) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  obs::Counter& counter = registry.GetCounter("obs_test.concurrent");
  obs::Histogram& hist = registry.GetHistogram("obs_test.concurrent_hist");
  counter.Reset();
  hist.Reset();
  constexpr size_t kTasks = 64;
  constexpr size_t kIncrementsPerTask = 1000;
  ThreadPool pool(8);
  TaskGroup group(pool);
  for (size_t t = 0; t < kTasks; ++t) {
    group.Submit([&counter, &hist] {
      for (size_t i = 0; i < kIncrementsPerTask; ++i) {
        counter.Add(1);
        hist.Observe(3.0);
      }
    });
  }
  group.Wait();
  EXPECT_EQ(counter.Value(), kTasks * kIncrementsPerTask);
  EXPECT_EQ(hist.TotalCount(), kTasks * kIncrementsPerTask);
  EXPECT_DOUBLE_EQ(hist.Sum(), 3.0 * kTasks * kIncrementsPerTask);
}

TEST(MetricsRegistryTest, ResetValuesKeepsRegistrations) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  obs::Counter& counter = registry.GetCounter("obs_test.reset_me");
  counter.Add(5);
  registry.ResetValues();
  EXPECT_EQ(counter.Value(), 0u);
  const MetricsSnapshot snapshot = registry.Snapshot();
  EXPECT_TRUE(snapshot.counters.count("obs_test.reset_me"));
}

TEST(PipelineMetricsTest, WarmRegistersCanonicalSchema) {
  obs::WarmPipelineMetrics();
  const MetricsSnapshot snapshot = MetricsRegistry::Global().Snapshot();
  EXPECT_TRUE(snapshot.counters.count(obs::kKpcoreNodesPruned));
  EXPECT_TRUE(snapshot.counters.count(obs::kPgindexDistanceComputations));
  EXPECT_TRUE(snapshot.counters.count(obs::kTaEntriesAccessed));
  EXPECT_TRUE(snapshot.counters.count(obs::kTaEarlyTerminationTotal));
  EXPECT_TRUE(snapshot.histograms.count(obs::kPgindexSearchHops));
  EXPECT_TRUE(snapshot.gauges.count(obs::kTrainerEpochLoss));
}

TEST(PipelineMetricsTest, EveryRowExportsItsHelpLine) {
  obs::WarmPipelineMetrics();
  const std::string text = obs::ExportPrometheusText();
  std::set<std::string> names;
  for (const obs::PipelineMetric& metric : obs::kPipelineMetrics) {
    EXPECT_TRUE(names.insert(metric.name).second)
        << "duplicate row " << metric.name;
    EXPECT_EQ(obs::FindPipelineMetric(metric.name), &metric);
    std::string id = metric.name;
    std::replace(id.begin(), id.end(), '.', '_');
    EXPECT_NE(text.find("# HELP " + id + " " + metric.help + "\n"),
              std::string::npos)
        << metric.name;
    if (metric.quantiles) {
      EXPECT_NE(text.find("# TYPE " + id + "_quantile summary\n"),
                std::string::npos)
          << metric.name;
    }
  }
  EXPECT_EQ(obs::FindPipelineMetric("obs_test.not_a_row"), nullptr);
}

TEST(TracerTest, SpansNestPerThread) {
  obs::Tracer& tracer = obs::Tracer::Global();
  tracer.Clear();
  tracer.SetEnabled(true);
  {
    KPEF_TRACE_SPAN("obs_test.outer");
    {
      KPEF_TRACE_SPAN("obs_test.inner");
    }
  }
  tracer.SetEnabled(false);
  const std::vector<obs::SpanRecord> spans = tracer.Snapshot();
  ASSERT_EQ(spans.size(), 2u);
  // Inner closes first.
  EXPECT_STREQ(spans[0].name, "obs_test.inner");
  EXPECT_STREQ(spans[1].name, "obs_test.outer");
  EXPECT_EQ(spans[0].depth, spans[1].depth + 1);
  EXPECT_EQ(spans[0].thread_id, spans[1].thread_id);
  // The inner span is contained in the outer's window.
  EXPECT_GE(spans[0].start_ns, spans[1].start_ns);
  EXPECT_LE(spans[0].start_ns + spans[0].duration_ns,
            spans[1].start_ns + spans[1].duration_ns);
  tracer.Clear();
}

TEST(TracerTest, DisabledSpansRecordNothing) {
  obs::Tracer& tracer = obs::Tracer::Global();
  tracer.Clear();
  tracer.SetEnabled(false);
  {
    KPEF_TRACE_SPAN("obs_test.should_not_appear");
  }
  EXPECT_EQ(tracer.NumSpans(), 0u);
}

TEST(TracerTest, DumpJsonParses) {
  obs::Tracer& tracer = obs::Tracer::Global();
  tracer.Clear();
  tracer.SetEnabled(true);
  {
    KPEF_TRACE_SPAN("obs_test.dump");
  }
  tracer.SetEnabled(false);
  const JsonValue doc = ParseJsonOrDie(tracer.DumpJson());
  ASSERT_EQ(doc.kind, JsonValue::Kind::kObject);
  ASSERT_TRUE(doc.Has("spans"));
  EXPECT_EQ(doc["dropped"].number, 0.0);
  ASSERT_EQ(doc["spans"].array.size(), 1u);
  const JsonValue& span = doc["spans"].array[0];
  EXPECT_EQ(span["name"].str, "obs_test.dump");
  EXPECT_GE(span["dur_us"].number, 0.0);
  tracer.Clear();
}

TEST(ExportTest, JsonRoundTrip) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  registry.GetCounter("obs_test.export_counter").Reset();
  registry.GetCounter("obs_test.export_counter").Add(12);
  registry.GetGauge("obs_test.export_gauge").Set(0.75);
  obs::Histogram& hist =
      registry.GetHistogram("obs_test.export_hist", {2.0, 8.0});
  hist.Reset();
  hist.Observe(1.0);
  hist.Observe(4.0);
  hist.Observe(100.0);

  const JsonValue doc = ParseJsonOrDie(obs::ExportMetricsJson());
  EXPECT_EQ(doc["counters"]["obs_test.export_counter"].number, 12.0);
  EXPECT_DOUBLE_EQ(doc["gauges"]["obs_test.export_gauge"].number, 0.75);
  const JsonValue& h = doc["histograms"]["obs_test.export_hist"];
  EXPECT_EQ(h["count"].number, 3.0);
  EXPECT_DOUBLE_EQ(h["sum"].number, 105.0);
  // Buckets are cumulative; the last ("+Inf") equals the total count.
  ASSERT_EQ(h["buckets"].array.size(), 3u);
  EXPECT_EQ(h["buckets"].array[0]["count"].number, 1.0);
  EXPECT_EQ(h["buckets"].array[1]["count"].number, 2.0);
  EXPECT_EQ(h["buckets"].array[2]["le"].str, "+Inf");
  EXPECT_EQ(h["buckets"].array[2]["count"].number, 3.0);
}

TEST(ExportTest, PrometheusTextShape) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  registry.GetCounter("obs_test.prom_counter").Reset();
  registry.GetCounter("obs_test.prom_counter").Add(7);
  obs::Histogram& hist = registry.GetHistogram("obs_test.prom_hist", {5.0});
  hist.Reset();
  hist.Observe(3.0);
  const std::string text = obs::ExportPrometheusText();
  // '.' is sanitized to '_'.
  EXPECT_NE(text.find("obs_test_prom_counter 7"), std::string::npos);
  EXPECT_NE(text.find("obs_test_prom_hist_bucket{le=\"5\"} 1"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("obs_test_prom_hist_bucket{le=\"+Inf\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("obs_test_prom_hist_count 1"), std::string::npos);
}

// --- Request-scoped tracing (PR 6) ------------------------------------

/// Restores tracer state so request-trace tests do not leak into each
/// other (the tracer is a process-global singleton).
class RequestTraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::Tracer& tracer = obs::Tracer::Global();
    tracer.Clear();
    tracer.ClearRequestTraces();
    tracer.SetEnabled(false);
    tracer.SetMode(obs::TraceMode::kSampled);
  }
  void TearDown() override {
    obs::Tracer& tracer = obs::Tracer::Global();
    tracer.SetMode(obs::TraceMode::kOff);
    tracer.ClearRequestTraces();
    tracer.Clear();
  }
};

TEST_F(RequestTraceTest, OffModeReturnsZeroKey) {
  obs::Tracer& tracer = obs::Tracer::Global();
  tracer.SetMode(obs::TraceMode::kOff);
  EXPECT_EQ(tracer.BeginTrace("req-off", true), 0u);
  // Downstream calls on key 0 are safe no-ops.
  tracer.AppendToTrace(0, obs::SpanRecord{});
  tracer.EndTrace(0, true);
  obs::TraceSnapshot snapshot;
  EXPECT_FALSE(tracer.FindRetained("req-off", &snapshot));
}

TEST_F(RequestTraceTest, HeadSampledTraceIsRetained) {
  obs::Tracer& tracer = obs::Tracer::Global();
  const uint64_t key = tracer.BeginTrace("req-head", /*head_sampled=*/true);
  ASSERT_NE(key, 0u);
  EXPECT_EQ(tracer.ActiveTraceCount(), 1u);
  {
    obs::ScopedTraceContext scope(key);
    KPEF_TRACE_SPAN("obs_test.request_work");
  }
  tracer.EndTrace(key, /*keep_tail=*/false);
  EXPECT_EQ(tracer.ActiveTraceCount(), 0u);
  obs::TraceSnapshot snapshot;
  ASSERT_TRUE(tracer.FindRetained("req-head", &snapshot));
  EXPECT_TRUE(snapshot.head_sampled);
  EXPECT_FALSE(snapshot.kept_tail);
  ASSERT_EQ(snapshot.spans.size(), 1u);
  EXPECT_STREQ(snapshot.spans[0].name, "obs_test.request_work");
  EXPECT_EQ(snapshot.spans[0].trace_key, key);
  // Request-scoped spans never touch the global buffer.
  EXPECT_EQ(tracer.NumSpans(), 0u);
}

TEST_F(RequestTraceTest, UnsampledFastTraceIsDropped) {
  obs::Tracer& tracer = obs::Tracer::Global();
  const uint64_t key = tracer.BeginTrace("req-fast", /*head_sampled=*/false);
  ASSERT_NE(key, 0u);
  {
    obs::ScopedTraceContext scope(key);
    KPEF_TRACE_SPAN("obs_test.fast");
  }
  tracer.EndTrace(key, /*keep_tail=*/false);
  obs::TraceSnapshot snapshot;
  EXPECT_FALSE(tracer.FindRetained("req-fast", &snapshot));
}

TEST_F(RequestTraceTest, TailKeepRetainsUnsampledTrace) {
  obs::Tracer& tracer = obs::Tracer::Global();
  const uint64_t key = tracer.BeginTrace("req-slow", /*head_sampled=*/false);
  ASSERT_NE(key, 0u);
  obs::RecordSpan(key, "obs_test.slow_phase", 100, 50);
  tracer.EndTrace(key, /*keep_tail=*/true);
  obs::TraceSnapshot snapshot;
  ASSERT_TRUE(tracer.FindRetained("req-slow", &snapshot));
  EXPECT_FALSE(snapshot.head_sampled);
  EXPECT_TRUE(snapshot.kept_tail);
  ASSERT_EQ(snapshot.spans.size(), 1u);
  EXPECT_EQ(snapshot.spans[0].start_ns, 100u);
  EXPECT_EQ(snapshot.spans[0].duration_ns, 50u);
}

TEST_F(RequestTraceTest, AlwaysOnRetainsEverything) {
  obs::Tracer& tracer = obs::Tracer::Global();
  tracer.SetMode(obs::TraceMode::kAlwaysOn);
  const uint64_t key = tracer.BeginTrace("req-always", /*head_sampled=*/false);
  ASSERT_NE(key, 0u);
  tracer.EndTrace(key, /*keep_tail=*/false);
  obs::TraceSnapshot snapshot;
  EXPECT_TRUE(tracer.FindRetained("req-always", &snapshot));
}

TEST_F(RequestTraceTest, FindRetainedReturnsNewestForDuplicateIds) {
  obs::Tracer& tracer = obs::Tracer::Global();
  const uint64_t first = tracer.BeginTrace("req-dup", true);
  obs::RecordSpan(first, "obs_test.first", 1, 1);
  tracer.EndTrace(first, false);
  const uint64_t second = tracer.BeginTrace("req-dup", true);
  obs::RecordSpan(second, "obs_test.second", 2, 2);
  tracer.EndTrace(second, false);
  obs::TraceSnapshot snapshot;
  ASSERT_TRUE(tracer.FindRetained("req-dup", &snapshot));
  ASSERT_EQ(snapshot.spans.size(), 1u);
  EXPECT_STREQ(snapshot.spans[0].name, "obs_test.second");
}

TEST_F(RequestTraceTest, RetainedRingIsBounded) {
  obs::Tracer& tracer = obs::Tracer::Global();
  for (size_t i = 0; i < obs::Tracer::kMaxRetainedTraces + 8; ++i) {
    const uint64_t key =
        tracer.BeginTrace("req-ring-" + std::to_string(i), true);
    tracer.EndTrace(key, false);
  }
  EXPECT_EQ(tracer.RetainedSnapshots().size(),
            obs::Tracer::kMaxRetainedTraces);
  obs::TraceSnapshot snapshot;
  // The oldest 8 were evicted; the newest survive.
  EXPECT_FALSE(tracer.FindRetained("req-ring-0", &snapshot));
  EXPECT_TRUE(tracer.FindRetained(
      "req-ring-" + std::to_string(obs::Tracer::kMaxRetainedTraces + 7),
      &snapshot));
}

TEST_F(RequestTraceTest, PerTraceSpanCapCountsDrops) {
  obs::Tracer& tracer = obs::Tracer::Global();
  const uint64_t key = tracer.BeginTrace("req-cap", true);
  for (size_t i = 0; i < obs::Tracer::kMaxSpansPerTrace + 10; ++i) {
    obs::RecordSpan(key, "obs_test.flood", i, 1);
  }
  tracer.EndTrace(key, false);
  obs::TraceSnapshot snapshot;
  ASSERT_TRUE(tracer.FindRetained("req-cap", &snapshot));
  EXPECT_EQ(snapshot.spans.size(), obs::Tracer::kMaxSpansPerTrace);
  EXPECT_EQ(snapshot.dropped_spans, 10u);
}

TEST_F(RequestTraceTest, ScopedContextRestoresPreviousKey) {
  EXPECT_EQ(obs::CurrentTraceKey(), 0u);
  {
    obs::ScopedTraceContext outer(7);
    EXPECT_EQ(obs::CurrentTraceKey(), 7u);
    {
      obs::ScopedTraceContext inner(9);
      EXPECT_EQ(obs::CurrentTraceKey(), 9u);
    }
    EXPECT_EQ(obs::CurrentTraceKey(), 7u);
  }
  EXPECT_EQ(obs::CurrentTraceKey(), 0u);
}

TEST_F(RequestTraceTest, GlobalPlaneUnaffectedByRequestPlane) {
  obs::Tracer& tracer = obs::Tracer::Global();
  tracer.SetEnabled(true);
  const uint64_t key = tracer.BeginTrace("req-mixed", true);
  {
    // With a request context installed the span goes to the request.
    obs::ScopedTraceContext scope(key);
    KPEF_TRACE_SPAN("obs_test.request_span");
  }
  {
    // Without one it goes to the global buffer.
    KPEF_TRACE_SPAN("obs_test.global_span");
  }
  tracer.EndTrace(key, false);
  tracer.SetEnabled(false);
  const std::vector<obs::SpanRecord> global_spans = tracer.Snapshot();
  ASSERT_EQ(global_spans.size(), 1u);
  EXPECT_STREQ(global_spans[0].name, "obs_test.global_span");
  obs::TraceSnapshot snapshot;
  ASSERT_TRUE(tracer.FindRetained("req-mixed", &snapshot));
  ASSERT_EQ(snapshot.spans.size(), 1u);
  EXPECT_STREQ(snapshot.spans[0].name, "obs_test.request_span");
}

TEST_F(RequestTraceTest, ExportTraceJsonParses) {
  obs::Tracer& tracer = obs::Tracer::Global();
  const uint64_t key = tracer.BeginTrace("req-export", true);
  obs::RecordSpan(key, "obs_test.phase_a", 1000, 2000);
  obs::RecordSpan(key, "obs_test.phase_b", 1500, 400);
  tracer.EndTrace(key, true);
  obs::TraceSnapshot snapshot;
  ASSERT_TRUE(tracer.FindRetained("req-export", &snapshot));
  const JsonValue doc = ParseJsonOrDie(obs::ExportTraceJson(snapshot));
  EXPECT_EQ(doc["trace_id"].str, "req-export");
  EXPECT_EQ(doc["dropped_spans"].number, 0.0);
  ASSERT_EQ(doc["spans"].array.size(), 2u);
  // Ordered by start time.
  EXPECT_EQ(doc["spans"].array[0]["name"].str, "obs_test.phase_a");
  EXPECT_EQ(doc["spans"].array[1]["name"].str, "obs_test.phase_b");
  EXPECT_DOUBLE_EQ(doc["spans"].array[0]["start_us"].number, 1.0);
  EXPECT_DOUBLE_EQ(doc["spans"].array[0]["dur_us"].number, 2.0);
}

TEST_F(RequestTraceTest, ExportChromeTraceParses) {
  obs::Tracer& tracer = obs::Tracer::Global();
  const uint64_t key = tracer.BeginTrace("req-chrome", true);
  obs::RecordSpan(key, "obs_test.chrome_span", 3000, 1000);
  tracer.EndTrace(key, true);
  obs::TraceSnapshot snapshot;
  ASSERT_TRUE(tracer.FindRetained("req-chrome", &snapshot));
  const JsonValue doc = ParseJsonOrDie(obs::ExportChromeTrace(snapshot));
  ASSERT_TRUE(doc.Has("traceEvents"));
  ASSERT_EQ(doc["traceEvents"].array.size(), 1u);
  const JsonValue& event = doc["traceEvents"].array[0];
  EXPECT_EQ(event["ph"].str, "X");
  EXPECT_EQ(event["name"].str, "obs_test.chrome_span");
  EXPECT_DOUBLE_EQ(event["ts"].number, 3.0);
  EXPECT_DOUBLE_EQ(event["dur"].number, 1.0);
  EXPECT_EQ(doc["displayTimeUnit"].str, "ms");
}

// --- Quantile estimation and exposition format (PR 6) -----------------

TEST(QuantileTest, EmptyHistogramIsZero) {
  MetricsSnapshot::HistogramData data;
  data.upper_bounds = {1.0, 2.0};
  data.bucket_counts = {0, 0, 0};
  EXPECT_DOUBLE_EQ(obs::HistogramQuantile(data, 0.5), 0.0);
}

TEST(QuantileTest, InterpolatesWithinBucket) {
  MetricsSnapshot::HistogramData data;
  data.upper_bounds = {10.0, 20.0, 40.0};
  // 10 observations <= 10, 10 in (10, 20], none beyond.
  data.bucket_counts = {10, 10, 0, 0};
  data.total_count = 20;
  // Median rank = 10 lands exactly at the first bucket's upper edge.
  EXPECT_NEAR(obs::HistogramQuantile(data, 0.5), 10.0, 1e-9);
  // p75 -> rank 15: halfway through the (10, 20] bucket.
  EXPECT_NEAR(obs::HistogramQuantile(data, 0.75), 15.0, 1e-9);
  // p100 caps at the highest populated bound.
  EXPECT_NEAR(obs::HistogramQuantile(data, 1.0), 20.0, 1e-9);
}

TEST(QuantileTest, OverflowBucketClampsToHighestBound) {
  MetricsSnapshot::HistogramData data;
  data.upper_bounds = {10.0, 20.0};
  data.bucket_counts = {0, 0, 5};  // everything overflowed
  data.total_count = 5;
  EXPECT_DOUBLE_EQ(obs::HistogramQuantile(data, 0.99), 20.0);
}

TEST(ExportTest, EscapeLabelValue) {
  EXPECT_EQ(obs::EscapeLabelValue("plain"), "plain");
  EXPECT_EQ(obs::EscapeLabelValue("a\"b"), "a\\\"b");
  EXPECT_EQ(obs::EscapeLabelValue("a\\b"), "a\\\\b");
  EXPECT_EQ(obs::EscapeLabelValue("a\nb"), "a\\nb");
}

TEST(ExportTest, PrometheusHelpAndTypeForCanonicalMetrics) {
  obs::WarmPipelineMetrics();
  const std::string text = obs::ExportPrometheusText();
  EXPECT_NE(text.find("# HELP serve_e2e_ms "), std::string::npos);
  EXPECT_NE(text.find("# TYPE serve_e2e_ms histogram"), std::string::npos);
  EXPECT_NE(text.find("# HELP process_rss_bytes "), std::string::npos);
  EXPECT_NE(text.find("# TYPE process_rss_bytes gauge"), std::string::npos);
  EXPECT_NE(text.find("# TYPE serve_requests counter"), std::string::npos);
}

TEST(ExportTest, PrometheusQuantileSummaries) {
  obs::WarmPipelineMetrics();
  MetricsRegistry& registry = MetricsRegistry::Global();
  obs::Histogram& hist = registry.GetHistogram(obs::kServeE2eMs);
  hist.Reset();
  for (int i = 0; i < 100; ++i) hist.Observe(0.2);
  const std::string text = obs::ExportPrometheusText();
  EXPECT_NE(text.find("# TYPE serve_e2e_ms_quantile summary"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("serve_e2e_ms_quantile{quantile=\"0.5\"}"),
            std::string::npos);
  EXPECT_NE(text.find("serve_e2e_ms_quantile{quantile=\"0.95\"}"),
            std::string::npos);
  EXPECT_NE(text.find("serve_e2e_ms_quantile{quantile=\"0.99\"}"),
            std::string::npos);
  EXPECT_NE(text.find("serve_e2e_ms_quantile_count 100"), std::string::npos);
  // The widened buckets resolve sub-millisecond latencies: with every
  // observation at 0.2ms the p99 estimate must stay near 0.25, not be
  // flattened into a 1ms-wide first bucket.
  const MetricsSnapshot snapshot = registry.Snapshot();
  const double p99 =
      obs::HistogramQuantile(snapshot.histograms.at(obs::kServeE2eMs), 0.99);
  EXPECT_LE(p99, 0.25);
  EXPECT_GT(p99, 0.0);
}

TEST(ExportTest, PrometheusBucketsAreMonotonic) {
  obs::WarmPipelineMetrics();
  MetricsRegistry& registry = MetricsRegistry::Global();
  obs::Histogram& hist = registry.GetHistogram(obs::kServeQueueWaitMs);
  hist.Reset();
  const double values[] = {0.01, 0.3, 1.7, 9.0, 80.0, 999.0, 1e5};
  for (double v : values) hist.Observe(v);
  const std::string text = obs::ExportPrometheusText();
  // Walk every _bucket series in the exposition: cumulative counts must
  // be non-decreasing within a metric and end at the +Inf bucket.
  size_t pos = 0;
  std::string current_metric;
  uint64_t last_count = 0;
  bool saw_any_bucket = false;
  while (pos < text.size()) {
    size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) eol = text.size();
    const std::string line = text.substr(pos, eol - pos);
    pos = eol + 1;
    const size_t bucket_at = line.find("_bucket{le=\"");
    if (bucket_at == std::string::npos) continue;
    saw_any_bucket = true;
    const std::string metric = line.substr(0, bucket_at);
    const size_t space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    const uint64_t count = std::stoull(line.substr(space + 1));
    if (metric != current_metric) {
      current_metric = metric;
      last_count = 0;
    }
    EXPECT_GE(count, last_count) << "non-monotonic buckets: " << line;
    last_count = count;
  }
  EXPECT_TRUE(saw_any_bucket);
}

// Bucket bounds print in their shortest round-trip form, so a rule
// keyed on le="0.05" matches the exported series.
TEST(ExportTest, LatencyBucketBoundsExportShortestForm) {
  obs::WarmPipelineMetrics();
  const std::string text = obs::ExportPrometheusText();
  EXPECT_NE(text.find("serve_queue_wait_ms_bucket{le=\"0.05\"} "),
            std::string::npos);
  EXPECT_NE(text.find("serve_queue_wait_ms_bucket{le=\"0.1\"} "),
            std::string::npos);
  EXPECT_EQ(text.find("0.050000000000000003"), std::string::npos);
}

// Projection builds take well under a millisecond on small graphs; the
// latency bounds resolve them, the power-of-two count bounds did not.
TEST(PipelineMetricsTest, ProjectionBuildMsHasSubMillisecondBuckets) {
  obs::WarmPipelineMetrics();
  const obs::Histogram& hist =
      MetricsRegistry::Global().GetHistogram(obs::kProjectionBuildMs);
  ASSERT_FALSE(hist.upper_bounds().empty());
  EXPECT_LT(hist.upper_bounds().front(), 1.0);
}

}  // namespace
}  // namespace kpef
