// In-memory span log of the traced benchmark run. Spans are recorded by
// the benchmark's own code around calls into the program's layers; the
// layer of a span is its name up to the first '.', so "ann.search"
// belongs to layer "ann". Written out as JSON when the run ends.

#ifndef SERVEBENCH_TRACE_H_
#define SERVEBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace servebench {

using Clock = std::chrono::steady_clock;

class SpanLog {
 public:
  /// A disabled log records nothing and Begin() returns -1.
  explicit SpanLog(bool enabled, Clock::time_point epoch)
      : enabled_(enabled), epoch_(epoch) {}

  bool enabled() const { return enabled_; }

  /// Opens a span now; `parent` is a Begin() result or -1 for a root.
  /// `alt` marks a call on an alternative path (a reference or ablation
  /// the serving path does not take): it is written to the trace but
  /// left out of the self-time accounting.
  int64_t Begin(const char* name, int64_t parent,
                const std::string& request_id = {}, bool alt = false);
  void End(int64_t span);

  /// Records a span whose bounds were measured elsewhere (microseconds
  /// since the epoch), e.g. phases the server reports in its response.
  int64_t Add(const char* name, double start_us, double end_us, int64_t parent,
              const std::string& request_id = {}, bool alt = false);

  /// Self time per layer in milliseconds over the serving-path spans:
  /// each span's duration minus the part of its interval covered by its
  /// children, summed by layer.
  std::map<std::string, double> SelfMsByLayer() const;

  /// Writes {"spans":[{name,start_us,end_us,parent,request_id},...]}.
  bool WriteJson(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    double start_us;
    double end_us;
    int64_t parent;
    std::string request_id;
    bool alt;
  };

  double NowUs() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - epoch_)
        .count();
  }

  bool enabled_;
  Clock::time_point epoch_;
  std::vector<Span> spans_;
};

/// RAII span; a no-op on a disabled log.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, int64_t parent = -1,
             const std::string& request_id = {}, bool alt = false)
      : log_(log), id_(log->Begin(name, parent, request_id, alt)) {}
  ~ScopedSpan() { log_->End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int64_t id() const { return id_; }

 private:
  SpanLog* log_;
  int64_t id_;
};

}  // namespace servebench

#endif  // SERVEBENCH_TRACE_H_
