#include "obs/request_log.h"

#include <cinttypes>
#include <ctime>

#include "common/build_info.h"
#include "common/json_string.h"

namespace kpef::obs {
namespace {

// ISO-8601 UTC with millisecond precision ("2026-08-08T12:34:56.789Z").
std::string FormatIso8601(std::chrono::system_clock::time_point time) {
  const auto ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                      time.time_since_epoch())
                      .count();
  const std::time_t seconds = static_cast<std::time_t>(ms / 1000);
  std::tm tm{};
  gmtime_r(&seconds, &tm);
  char buf[40];
  const size_t n = std::strftime(buf, sizeof(buf), "%Y-%m-%dT%H:%M:%S", &tm);
  std::snprintf(buf + n, sizeof(buf) - n, ".%03dZ",
                static_cast<int>(ms % 1000));
  return buf;
}

void AppendKey(std::string* out, const char* key, bool* first) {
  *out += *first ? "{\"" : ",\"";
  *first = false;
  *out += key;
  *out += "\":";
}

void AppendField(std::string* out, const char* key, const std::string& value,
                 bool* first) {
  AppendKey(out, key, first);
  AppendJsonString(value, out);
}

void AppendRawField(std::string* out, const char* key,
                    const std::string& raw, bool* first) {
  AppendKey(out, key, first);
  *out += raw;
}

void AppendBoolField(std::string* out, const char* key, bool value,
                     bool* first) {
  AppendRawField(out, key, value ? "true" : "false", first);
}

std::string FormatMs(double value) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.3f", value);
  return buf;
}

}  // namespace

void AppendRequestJson(const RequestRecord& r, std::string* out) {
  bool first = true;
  AppendField(out, "ts", FormatIso8601(r.time), &first);
  AppendField(out, "trace_id", r.trace_id, &first);
  if (!r.query.empty()) AppendField(out, "query", r.query, &first);
  AppendRawField(out, "status", std::to_string(r.status), &first);
  AppendRawField(out, "top_n", std::to_string(r.top_n), &first);
  AppendRawField(out, "batch_size", std::to_string(r.batch_size), &first);
  AppendRawField(out, "e2e_ms", FormatMs(r.e2e_ms), &first);
  AppendRawField(out, "queue_wait_ms", FormatMs(r.queue_wait_ms), &first);
  AppendRawField(out, "encode_ms", FormatMs(r.encode_ms), &first);
  AppendRawField(out, "search_ms", FormatMs(r.search_ms), &first);
  AppendRawField(out, "ranking_ms", FormatMs(r.ranking_ms), &first);
  AppendBoolField(out, "shed", r.shed, &first);
  AppendBoolField(out, "deadline_exceeded", r.deadline_exceeded, &first);
  AppendBoolField(out, "sampled", r.sampled, &first);
  AppendBoolField(out, "trace_kept", r.trace_kept, &first);
  *out += '}';
}

RequestLog::~RequestLog() {
  if (file_ != nullptr) {
    std::fflush(file_);
    if (owns_file_) std::fclose(file_);
  }
}

std::unique_ptr<RequestLog> RequestLog::Open(const std::string& path) {
  FILE* file = nullptr;
  bool owns = false;
  if (path == "-") {
    file = stdout;
  } else {
    file = std::fopen(path.c_str(), "a");
    if (file == nullptr) return nullptr;
    owns = true;
  }
  std::unique_ptr<RequestLog> log(new RequestLog());
  log->file_ = file;
  log->owns_file_ = owns;
  return log;
}

void RequestLog::WriteHeader(const std::string& service) {
  std::string line;
  bool first = true;
  AppendField(&line, "event", "start", &first);
  AppendField(&line, "ts", FormatIso8601(std::chrono::system_clock::now()),
              &first);
  AppendField(&line, "service", service, &first);
  AppendField(&line, "git", BuildGitHash(), &first);
  AppendField(&line, "build", BuildType(), &first);
  line += "}\n";
  Emit(std::move(line));
}

void RequestLog::Write(const RequestRecord& record) {
  std::string line;
  AppendRequestJson(record, &line);
  line += '\n';
  Emit(std::move(line));
}

void RequestLog::Emit(std::string line) {
  std::lock_guard<std::mutex> lock(mutex_);
  ++lines_;
  if (sink_) {
    sink_(line);
    return;
  }
  if (file_ != nullptr) {
    std::fwrite(line.data(), 1, line.size(), file_);
    std::fflush(file_);
  }
}

}  // namespace kpef::obs
