// JSON-lines structured access log: one line per served request with the
// trace id, status, batching facts, and the encode/search/ranking latency
// split, so a grep over the log attributes any slow response without
// re-running it. The sink is pluggable (tests capture lines in memory;
// kpef_serve appends to a file or stdout). The same record, rendered by
// the same writer, is what the slow-request ring keeps.

#ifndef KPEF_OBS_REQUEST_LOG_H_
#define KPEF_OBS_REQUEST_LOG_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <memory>
#include <mutex>
#include <string>

namespace kpef::obs {

/// One finished request: an access-log line, and a /v1/debug/slow entry
/// when it was slow.
struct RequestRecord {
  /// Wall-clock completion time ("ts").
  std::chrono::system_clock::time_point time;
  std::string trace_id;
  /// Query text, kept only for slow-ring entries ("" = not rendered).
  std::string query;
  int status = 0;
  size_t top_n = 0;
  size_t batch_size = 0;
  double e2e_ms = 0.0;
  double queue_wait_ms = 0.0;
  /// Stage split from QueryStats (0 when the engine was never reached).
  double encode_ms = 0.0;
  double search_ms = 0.0;
  double ranking_ms = 0.0;
  bool shed = false;
  bool deadline_exceeded = false;
  /// Head-sampling decision and whether the trace was retained.
  bool sampled = false;
  bool trace_kept = false;
};

/// Appends `record` as one JSON object (no trailing newline).
void AppendRequestJson(const RequestRecord& record, std::string* out);

/// Thread-safe JSON-lines writer. Each line is a self-contained object;
/// the first line (WriteHeader) identifies the process and build so a
/// rotated log segment is attributable on its own.
class RequestLog {
 public:
  using Sink = std::function<void(const std::string& line)>;

  /// Lines go to `sink` (already newline-terminated).
  explicit RequestLog(Sink sink) : sink_(std::move(sink)) {}
  ~RequestLog();

  RequestLog(const RequestLog&) = delete;
  RequestLog& operator=(const RequestLog&) = delete;

  /// Opens an append-mode file log ("-" = stdout). Null when the file
  /// cannot be opened.
  static std::unique_ptr<RequestLog> Open(const std::string& path);

  /// {"event":"start","service":...,"git":...,"build":...}
  void WriteHeader(const std::string& service);

  void Write(const RequestRecord& record);

  uint64_t lines_written() const { return lines_; }

 private:
  RequestLog() = default;

  void Emit(std::string line);

  std::mutex mutex_;
  Sink sink_;
  FILE* file_ = nullptr;
  bool owns_file_ = false;
  uint64_t lines_ = 0;
};

}  // namespace kpef::obs

#endif  // KPEF_OBS_REQUEST_LOG_H_
