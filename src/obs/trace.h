// Context-keyed span tracer (DESIGN.md §12).
//
// Two recording planes share one clock and one ScopedSpan type:
//
//  - Process-global spans (the PR 1 model, kept for kpef_cli
//    --trace-out): SetEnabled(true) makes every KPEF_TRACE_SPAN record
//    into one bounded global buffer; DumpJson() reconstructs the flame
//    shape of an offline run.
//  - Request-scoped spans: the serving layer calls BeginTrace() per
//    request, and the engine installs the returned key as the thread's
//    current trace context (ScopedTraceContext) inside that query's own
//    pool task. Every span opened while a context is installed lands in
//    that request's private buffer, so one request's flame is
//    reconstructable even when its work interleaves with 15 batchmates
//    across the pool. EndTrace() either retains the buffer
//    (head-sampled, tail-slow, or always-on mode) in a bounded ring
//    queryable by external id, or drops it.
//
// Costs: with mode kOff and tracing disabled a span is one thread-local
// read plus one relaxed atomic load. An active request span adds two
// steady_clock reads and one sharded-mutex append. Span names must be
// string literals (records keep the pointer).

#ifndef KPEF_OBS_TRACE_H_
#define KPEF_OBS_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace kpef::obs {

/// One completed span. Times are nanoseconds since the tracer's epoch
/// (process-local, monotonic).
struct SpanRecord {
  const char* name = "";
  /// Owning request trace (0 = process-global span).
  uint64_t trace_key = 0;
  uint64_t start_ns = 0;
  uint64_t duration_ns = 0;
  /// Dense per-process thread number (0, 1, ...), not the OS tid.
  uint32_t thread_id = 0;
  /// Nesting depth within the thread at the time the span opened.
  uint32_t depth = 0;
};

/// Request-tracing policy. kSampled and kAlwaysOn record identically
/// (tail-based keep needs the spans before it knows the request was
/// slow); they differ only in retention — kAlwaysOn keeps every
/// completed trace, kSampled keeps head-sampled and tail-slow ones.
enum class TraceMode { kOff, kSampled, kAlwaysOn };

/// One completed, retained request trace.
struct TraceSnapshot {
  uint64_t key = 0;
  /// External id (sanitized X-Request-Id or generated).
  std::string id;
  bool head_sampled = false;
  /// Retained because a tail rule fired (slow / deadline), not heads.
  bool kept_tail = false;
  /// Spans dropped once the per-trace cap was hit.
  uint64_t dropped_spans = 0;
  std::vector<SpanRecord> spans;
};

class Tracer {
 public:
  static Tracer& Global();

  // --- Process-global plane (offline runs, kpef_cli --trace-out).

  /// Turns global span recording on/off. Clearing/dumping work either
  /// way. Does not affect request-scoped recording (see SetMode).
  void SetEnabled(bool enabled) {
    enabled_.store(enabled, std::memory_order_relaxed);
  }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Appends a completed global span; drops it (counting the drop) once
  /// the buffer holds kMaxSpans records.
  void Record(const SpanRecord& span);

  std::vector<SpanRecord> Snapshot() const;
  size_t NumSpans() const;
  uint64_t NumDropped() const {
    return dropped_.load(std::memory_order_relaxed);
  }
  void Clear();

  /// Flame-style JSON: {"spans": [{"name", "thread", "depth",
  /// "start_us", "dur_us"}, ...]} ordered by (thread, start). A span's
  /// children are exactly the later spans with depth+1 nested inside its
  /// [start, start+dur) window on the same thread.
  std::string DumpJson() const;

  /// Nanoseconds since the tracer epoch (first use in the process).
  uint64_t NowNanos() const;

  // --- Request-scoped plane (serving layer).

  /// Request-tracing policy.
  void SetMode(TraceMode mode) {
    mode_.store(mode, std::memory_order_relaxed);
  }
  TraceMode mode() const { return mode_.load(std::memory_order_relaxed); }

  /// Opens a request trace and returns its key (0 when mode is kOff or
  /// the active-trace table is full — all downstream calls no-op on 0).
  /// `external_id` is the client-visible id used for retained lookup.
  uint64_t BeginTrace(std::string external_id, bool head_sampled);

  /// Appends a completed span to an active trace; no-op for key 0 or an
  /// unknown key. Spans beyond kMaxSpansPerTrace are counted as dropped.
  void AppendToTrace(uint64_t key, const SpanRecord& span);

  /// Closes a trace. The buffer is retained (bounded ring, oldest
  /// evicted) when head-sampled, `keep_tail` is true, or the mode is
  /// kAlwaysOn; otherwise it is discarded.
  void EndTrace(uint64_t key, bool keep_tail);

  /// Most recent retained trace with `external_id`; false if none.
  bool FindRetained(std::string_view external_id, TraceSnapshot* out) const;

  std::vector<TraceSnapshot> RetainedSnapshots() const;
  size_t ActiveTraceCount() const {
    return active_count_.load(std::memory_order_relaxed);
  }
  uint64_t TracesRetained() const {
    return retained_total_.load(std::memory_order_relaxed);
  }

  /// Drops every active and retained request trace (test isolation).
  void ClearRequestTraces();

  static constexpr size_t kMaxSpans = 1 << 20;
  static constexpr size_t kMaxSpansPerTrace = 512;
  static constexpr size_t kMaxRetainedTraces = 64;
  static constexpr size_t kMaxActiveTraces = 4096;

 private:
  /// A request trace still in flight.
  struct ActiveTrace {
    std::string id;
    bool head_sampled = false;
    uint64_t dropped = 0;
    std::vector<SpanRecord> spans;
  };
  /// Sharded by key so 16 batchmates appending concurrently rarely
  /// contend on one mutex.
  struct Shard {
    mutable std::mutex mutex;
    std::unordered_map<uint64_t, ActiveTrace> active;
  };
  static constexpr size_t kShards = 8;

  Tracer() : epoch_(std::chrono::steady_clock::now()) {}

  Shard& ShardFor(uint64_t key) { return shards_[key % kShards]; }

  std::atomic<bool> enabled_{false};
  std::atomic<TraceMode> mode_{TraceMode::kOff};
  std::atomic<uint64_t> dropped_{0};
  std::atomic<uint64_t> next_key_{1};
  std::atomic<size_t> active_count_{0};
  std::atomic<uint64_t> retained_total_{0};
  mutable std::mutex mutex_;
  std::vector<SpanRecord> spans_;
  Shard shards_[kShards];
  mutable std::mutex retained_mutex_;
  std::deque<TraceSnapshot> retained_;
  const std::chrono::steady_clock::time_point epoch_;
};

// --- Thread-local trace context ---------------------------------------

/// Trace key installed on the calling thread (0 = none).
uint64_t CurrentTraceKey();

/// RAII: installs a trace key on the calling thread for the enclosing
/// scope (restores the previous key on exit). Key 0 uninstalls. This is
/// the only way a key reaches a thread: code that fans one request's
/// work out to other threads installs the key in each task itself.
class ScopedTraceContext {
 public:
  explicit ScopedTraceContext(uint64_t key);
  ~ScopedTraceContext();

  ScopedTraceContext(const ScopedTraceContext&) = delete;
  ScopedTraceContext& operator=(const ScopedTraceContext&) = delete;

 private:
  uint64_t prev_;
};

/// Appends a manually-timed span (phases measured by timers rather than
/// scopes, e.g. the per-query share of a batched index search). No-op
/// when `trace_key` is 0. `name` must be a string literal.
void RecordSpan(uint64_t trace_key, const char* name, uint64_t start_ns,
                uint64_t duration_ns);

// --- Trace exports -----------------------------------------------------

/// {"trace_id", "head_sampled", "kept_tail", "dropped_spans",
///  "spans": [{"name", "thread", "depth", "start_us", "dur_us"}, ...]}
/// with spans ordered by start time.
std::string ExportTraceJson(const TraceSnapshot& trace);

/// Chrome trace-event JSON (load in chrome://tracing or Perfetto):
/// {"traceEvents": [{"name", "cat", "ph": "X", "ts", "dur", "pid",
///  "tid", "args": {...}}, ...], "displayTimeUnit": "ms"}.
std::string ExportChromeTrace(const TraceSnapshot& trace);

/// RAII span: records itself on destruction into the thread's current
/// request trace (when one is installed) or the global buffer (when
/// global tracing was enabled at construction time).
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name);
  ~ScopedSpan();

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  const char* name_;
  uint64_t trace_key_ = 0;
  uint64_t start_ns_ = 0;
  uint32_t depth_ = 0;
  bool active_ = false;
};

}  // namespace kpef::obs

#define KPEF_TRACE_CONCAT_INNER_(a, b) a##b
#define KPEF_TRACE_CONCAT_(a, b) KPEF_TRACE_CONCAT_INNER_(a, b)

/// Opens a span covering the rest of the enclosing scope.
#define KPEF_TRACE_SPAN(name)                                     \
  ::kpef::obs::ScopedSpan KPEF_TRACE_CONCAT_(kpef_trace_span_,    \
                                             __LINE__)(name)

#endif  // KPEF_OBS_TRACE_H_
