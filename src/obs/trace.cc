#include "obs/trace.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

#include "common/json_string.h"

namespace kpef::obs {
namespace {

// Dense thread numbering for trace records.
uint32_t CurrentThreadNumber() {
  static std::atomic<uint32_t> next{0};
  thread_local const uint32_t id = next.fetch_add(1);
  return id;
}

// Per-thread nesting depth of currently-open spans.
thread_local uint32_t tls_span_depth = 0;

// Request trace key installed on this thread (0 = none).
thread_local uint64_t tls_trace_key = 0;

void AppendSpanJson(std::string* out, const SpanRecord& s, bool first) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "%s\n  {\"name\": \"%s\", \"thread\": %" PRIu32
                ", \"depth\": %" PRIu32
                ", \"start_us\": %.3f, \"dur_us\": %.3f}",
                first ? "" : ",", s.name, s.thread_id, s.depth,
                static_cast<double>(s.start_ns) / 1e3,
                static_cast<double>(s.duration_ns) / 1e3);
  *out += buf;
}

}  // namespace

Tracer& Tracer::Global() {
  // Leaked: ScopedSpan destructors may run during static teardown.
  static Tracer* tracer = new Tracer();
  return *tracer;
}

uint64_t Tracer::NowNanos() const {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - epoch_)
          .count());
}

void Tracer::Record(const SpanRecord& span) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (spans_.size() >= kMaxSpans) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  spans_.push_back(span);
}

std::vector<SpanRecord> Tracer::Snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

size_t Tracer::NumSpans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_.size();
}

void Tracer::Clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.clear();
  dropped_.store(0, std::memory_order_relaxed);
}

std::string Tracer::DumpJson() const {
  std::vector<SpanRecord> spans = Snapshot();
  std::sort(spans.begin(), spans.end(),
            [](const SpanRecord& a, const SpanRecord& b) {
              if (a.thread_id != b.thread_id) return a.thread_id < b.thread_id;
              if (a.start_ns != b.start_ns) return a.start_ns < b.start_ns;
              return a.depth < b.depth;
            });
  std::string out = "{\"spans\": [";
  for (size_t i = 0; i < spans.size(); ++i) {
    AppendSpanJson(&out, spans[i], i == 0);
  }
  out += "\n], \"dropped\": ";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%" PRIu64 "}", NumDropped());
  out += buf;
  return out;
}

uint64_t Tracer::BeginTrace(std::string external_id, bool head_sampled) {
  if (mode() == TraceMode::kOff) return 0;
  if (active_count_.load(std::memory_order_relaxed) >= kMaxActiveTraces) {
    return 0;
  }
  const uint64_t key = next_key_.fetch_add(1, std::memory_order_relaxed);
  ActiveTrace trace;
  trace.id = std::move(external_id);
  trace.head_sampled = head_sampled;
  trace.spans.reserve(16);
  Shard& shard = ShardFor(key);
  {
    std::lock_guard<std::mutex> lock(shard.mutex);
    shard.active.emplace(key, std::move(trace));
  }
  active_count_.fetch_add(1, std::memory_order_relaxed);
  return key;
}

void Tracer::AppendToTrace(uint64_t key, const SpanRecord& span) {
  if (key == 0) return;
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mutex);
  auto it = shard.active.find(key);
  if (it == shard.active.end()) return;
  if (it->second.spans.size() >= kMaxSpansPerTrace) {
    ++it->second.dropped;
    return;
  }
  it->second.spans.push_back(span);
}

void Tracer::EndTrace(uint64_t key, bool keep_tail) {
  if (key == 0) return;
  ActiveTrace trace;
  {
    Shard& shard = ShardFor(key);
    std::lock_guard<std::mutex> lock(shard.mutex);
    auto it = shard.active.find(key);
    if (it == shard.active.end()) return;
    trace = std::move(it->second);
    shard.active.erase(it);
  }
  active_count_.fetch_sub(1, std::memory_order_relaxed);
  const bool keep = trace.head_sampled || keep_tail ||
                    mode() == TraceMode::kAlwaysOn;
  if (!keep) return;
  TraceSnapshot snapshot;
  snapshot.key = key;
  snapshot.id = std::move(trace.id);
  snapshot.head_sampled = trace.head_sampled;
  snapshot.kept_tail = keep_tail;
  snapshot.dropped_spans = trace.dropped;
  snapshot.spans = std::move(trace.spans);
  std::sort(snapshot.spans.begin(), snapshot.spans.end(),
            [](const SpanRecord& a, const SpanRecord& b) {
              if (a.start_ns != b.start_ns) return a.start_ns < b.start_ns;
              return a.depth < b.depth;
            });
  retained_total_.fetch_add(1, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(retained_mutex_);
  retained_.push_back(std::move(snapshot));
  while (retained_.size() > kMaxRetainedTraces) retained_.pop_front();
}

bool Tracer::FindRetained(std::string_view external_id,
                          TraceSnapshot* out) const {
  std::lock_guard<std::mutex> lock(retained_mutex_);
  for (auto it = retained_.rbegin(); it != retained_.rend(); ++it) {
    if (it->id == external_id) {
      *out = *it;
      return true;
    }
  }
  return false;
}

std::vector<TraceSnapshot> Tracer::RetainedSnapshots() const {
  std::lock_guard<std::mutex> lock(retained_mutex_);
  return {retained_.begin(), retained_.end()};
}

void Tracer::ClearRequestTraces() {
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mutex);
    shard.active.clear();
  }
  active_count_.store(0, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(retained_mutex_);
  retained_.clear();
}

uint64_t CurrentTraceKey() { return tls_trace_key; }

ScopedTraceContext::ScopedTraceContext(uint64_t key) : prev_(tls_trace_key) {
  tls_trace_key = key;
}

ScopedTraceContext::~ScopedTraceContext() { tls_trace_key = prev_; }

void RecordSpan(uint64_t trace_key, const char* name, uint64_t start_ns,
                uint64_t duration_ns) {
  if (trace_key == 0) return;
  SpanRecord record;
  record.name = name;
  record.trace_key = trace_key;
  record.start_ns = start_ns;
  record.duration_ns = duration_ns;
  record.thread_id = CurrentThreadNumber();
  record.depth = 0;
  Tracer::Global().AppendToTrace(trace_key, record);
}

std::string ExportTraceJson(const TraceSnapshot& trace) {
  std::string out = "{\"trace_id\": ";
  AppendJsonString(trace.id, &out);
  out += ", \"head_sampled\": ";
  out += trace.head_sampled ? "true" : "false";
  out += ", \"kept_tail\": ";
  out += trace.kept_tail ? "true" : "false";
  char buf[64];
  std::snprintf(buf, sizeof(buf), ", \"dropped_spans\": %" PRIu64,
                trace.dropped_spans);
  out += buf;
  out += ", \"spans\": [";
  for (size_t i = 0; i < trace.spans.size(); ++i) {
    AppendSpanJson(&out, trace.spans[i], i == 0);
  }
  out += "\n]}";
  return out;
}

std::string ExportChromeTrace(const TraceSnapshot& trace) {
  std::string out = "{\"traceEvents\": [";
  char buf[256];
  for (size_t i = 0; i < trace.spans.size(); ++i) {
    const SpanRecord& s = trace.spans[i];
    std::string name;
    AppendJsonString(s.name, &name);
    std::snprintf(buf, sizeof(buf),
                  "%s\n  {\"name\": %s, \"cat\": \"kpef\", \"ph\": \"X\", "
                  "\"ts\": %.3f, \"dur\": %.3f, \"pid\": 1, \"tid\": %" PRIu32
                  ", \"args\": {\"depth\": %" PRIu32 "}}",
                  i == 0 ? "" : ",", name.c_str(),
                  static_cast<double>(s.start_ns) / 1e3,
                  static_cast<double>(s.duration_ns) / 1e3, s.thread_id,
                  s.depth);
    out += buf;
  }
  out += "\n], \"displayTimeUnit\": \"ms\", \"otherData\": {\"trace_id\": ";
  AppendJsonString(trace.id, &out);
  out += "}}";
  return out;
}

ScopedSpan::ScopedSpan(const char* name) : name_(name) {
  Tracer& tracer = Tracer::Global();
  trace_key_ = tls_trace_key;
  if (trace_key_ == 0 && !tracer.enabled()) return;
  active_ = true;
  depth_ = tls_span_depth++;
  start_ns_ = tracer.NowNanos();
}

ScopedSpan::~ScopedSpan() {
  if (!active_) return;
  Tracer& tracer = Tracer::Global();
  SpanRecord record;
  record.name = name_;
  record.trace_key = trace_key_;
  record.start_ns = start_ns_;
  record.duration_ns = tracer.NowNanos() - start_ns_;
  record.thread_id = CurrentThreadNumber();
  record.depth = depth_;
  --tls_span_depth;
  if (trace_key_ != 0) {
    tracer.AppendToTrace(trace_key_, record);
  } else {
    tracer.Record(record);
  }
}

}  // namespace kpef::obs
