// ExpertSearchService: HTTP endpoint contracts over the engine
// (DESIGN.md §11, observability in §12).
//
//   POST /v1/find_experts   {"query": "...", "n": 10, "deadline_ms": 50}
//     200 {"experts":[{"id":..,"name":"..","score":..},...],
//          "stats":{...}, "batch_size":.., "queue_wait_ms":..,
//          "trace_id":".."}
//     400 malformed HTTP/JSON (incl. non-UTF-8 bodies)
//     429 admission queue full (Retry-After header)
//     504 per-request deadline missed ("partial": true, any results the
//         engine finished before the deadline are included)
//     Every response echoes the request's trace id in an x-request-id
//     header (client-supplied X-Request-Id is sanitized; otherwise one
//     is generated).
//   GET /healthz             200 {"status":"ok", ...engine summary,
//                                 "git":"..","build":".."}
//   GET /metrics             200 Prometheus text exposition (process
//                                self-metrics sampled on each scrape)
//   GET /v1/debug/slow       200 recent slow queries, newest first
//   GET /v1/debug/trace?id=X 200 retained span tree for trace id X
//                                (&format=chrome for trace-event JSON);
//                                404 when not retained
//   POST /v1/admin/ingest    {"papers":[{"text":"..","authors":[".."],
//                             "venue":"..","topics":[".."],
//                             "cites":[".."]},...]}
//     200 {"applied":N,"duplicates":D,"generation":G,"merged":bool,
//          "pending_delta_edges":P} after the batch is WAL-durable,
//         folded into the staging state, and published as a new
//         generation; queries in flight keep draining on the old one
//     400 malformed JSON or batch shape
//     409 another ingest is already in progress
//     503 service running without an ingest coordinator (--wal unset)
//   POST /v1/admin/reload    {"dir":"path"} (body optional; falls back
//                            to ServiceConfig::reload_dir, then the
//                            serving directory)
//     200 {"generation":N,"load_seconds":S} after the new generation is
//         published; in-flight queries drain on the old one
//     409 another reload is already in progress
//     500 load failed (old generation keeps serving)
//     503 service built without a reload hook (also while an ingest
//         coordinator is wired: a reload would drop ingested papers)
//
// The service talks to the engine exclusively through a BatchExecuteFn,
// so tests wire a fake engine; ExecuteFor() adapts an EngineGroup, and
// ForEngineGroup() also wires the group's admin hooks.
// Expert names are rendered with the label view the execute call
// returns, i.e. from the data (generation) that answered the request.

#ifndef KPEF_SERVE_SERVICE_H_
#define KPEF_SERVE_SERVICE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <thread>

#include "core/engine.h"
#include "core/engine_group.h"
#include "ingest/coordinator.h"
#include "obs/request_log.h"
#include "obs/slow_query_ring.h"
#include "obs/trace.h"
#include "serve/batcher.h"
#include "serve/http_server.h"

namespace kpef::serve {

struct ServiceConfig {
  BatcherConfig batcher;
  /// "n" when the request omits it (must not exceed max_top_n).
  size_t default_top_n = 10;
  /// Hard cap on a request's "n": a larger one is answered with
  /// max_top_n experts and counted in serve.top_n_clamped.
  size_t max_top_n = 400;
  /// Deadline applied when the request omits deadline_ms (<= 0: none).
  double default_deadline_ms = 0.0;
  /// Requested deadlines are clamped to this.
  double max_deadline_ms = 60000.0;
  /// Retry-After value on 429 responses, seconds.
  int retry_after_seconds = 1;

  // --- Request-scoped tracing (DESIGN.md §12).
  /// Installed on the global tracer at construction. kSampled records
  /// every request and retains heads + tails; kAlwaysOn retains all.
  obs::TraceMode trace_mode = obs::TraceMode::kSampled;
  /// Head sampling: every Nth find_experts request is retained
  /// unconditionally (1 = all, 0 = heads off; tail rules still apply).
  uint32_t trace_head_every = 64;
  /// Tail-based keep + slow-query-ring thresholds: a request whose e2e
  /// latency or queue wait crosses these (or that missed its deadline)
  /// has its trace retained and lands in /v1/debug/slow.
  double slow_e2e_ms = 100.0;
  double slow_queue_wait_ms = 50.0;
  /// Slow-query ring capacity.
  size_t slow_ring_capacity = 128;

  // --- Structured access log (JSON lines).
  /// "" = disabled, "-" = stdout, otherwise a file appended to.
  std::string access_log_path;
  /// Test seam: when set, lines go here instead of access_log_path.
  obs::RequestLog::Sink access_log_sink;

  /// Artifact directory /v1/admin/reload falls back to when the request
  /// body names none ("" = reload whatever directory is serving now).
  std::string reload_dir;
};

/// Optional live hooks behind the service (EngineGroup wiring). All may
/// be null: info falls back to the static EngineInfo, reload answers
/// 503, sample is skipped.
struct ServiceHooks {
  /// Fresh serving summary per /healthz call (generation, tallies, ...).
  std::function<EngineInfo()> info;
  /// Builds + publishes a new generation from the directory; returns
  /// the new generation id. Runs on a background thread — must be
  /// thread-safe against concurrent queries.
  std::function<StatusOr<uint64_t>(const std::string& dir)> reload;
  /// Called on each /metrics scrape before export (generation gauges).
  std::function<void()> sample;
  /// Applies one streaming-ingest batch (WAL append + staging apply +
  /// generation publish). Runs on a background thread — must be
  /// thread-safe against concurrent queries. Null => ingest answers 503.
  std::function<StatusOr<IngestApplyResult>(const IngestBatch& batch)> ingest;
  /// Fresh ingest state for /healthz (WAL position, pending deltas).
  std::function<IngestStats()> ingest_stats;
};

class ExpertSearchService {
 public:
  ExpertSearchService(ServiceConfig config, EngineInfo info,
                      BatchExecuteFn execute, ServiceHooks hooks = {});
  ~ExpertSearchService();

  /// group->FindExpertsBatch on the current generation, labelled from
  /// that same generation (the label view keeps it alive). The group
  /// must outlive the returned function.
  static BatchExecuteFn ExecuteFor(EngineGroup* group);

  /// Wires an EngineGroup: queries go to the current generation,
  /// /healthz reads live generation info, POST /v1/admin/reload
  /// hot-swaps artifacts, and /metrics samples the generation gauges.
  /// The group must outlive the service.
  /// `ingest` (optional) additionally enables POST /v1/admin/ingest and
  /// the /healthz ingest fields, and disables reload (503); it must
  /// outlive the service.
  static std::unique_ptr<ExpertSearchService> ForEngineGroup(
      EngineGroup* group, ServiceConfig config,
      IngestCoordinator* ingest = nullptr);

  /// HttpServer::Handler entry point.
  void Handle(const HttpRequest& request, HttpServer::Responder respond);

  /// Stops admission and flushes queued queries (callbacks still fire),
  /// and joins any in-flight reload. Call before the HTTP server's
  /// graceful drain completes so in-flight requests get real responses.
  void Drain();

  const ServiceConfig& config() const { return config_; }
  const obs::SlowQueryRing& slow_ring() const { return slow_ring_; }
  /// Queries admitted but not yet dispatched to the engine.
  size_t PendingForTest() const { return batcher_.PendingForTest(); }

 private:
  void HandleFindExperts(const HttpRequest& request,
                         HttpServer::Responder respond);
  void HandleReload(const HttpRequest& request,
                    HttpServer::Responder respond);
  void HandleIngest(const HttpRequest& request,
                    HttpServer::Responder respond);
  void HandleDebugSlow(HttpServer::Responder respond);
  void HandleDebugTrace(const HttpRequest& request,
                        HttpServer::Responder respond);

  /// Sanitized client X-Request-Id, or a generated id when absent/empty
  /// after sanitization.
  std::string RequestIdFor(const HttpRequest& request);

  /// Tail rule: did this completed request cross a slow threshold?
  bool IsSlow(double e2e_ms, const BatchResponse& result) const;

  void WriteAccessLog(const obs::RequestRecord& record);

  const ServiceConfig config_;
  const EngineInfo info_;
  const ServiceHooks hooks_;
  std::unique_ptr<obs::RequestLog> access_log_;
  obs::SlowQueryRing slow_ring_;
  /// find_experts sequence number, drives head sampling and id
  /// generation.
  std::atomic<uint64_t> request_seq_{0};
  /// At most one artifact reload runs at a time (extra requests 409).
  std::atomic<bool> reload_in_flight_{false};
  /// The loader thread of the current/last reload. Started and reaped
  /// on the event-loop thread (Handle), joined finally by Drain().
  std::thread reload_thread_;
  /// Same single-flight pattern for streaming ingest: one batch applies
  /// at a time (the coordinator serializes anyway; the gate keeps the
  /// event loop from stacking up worker threads).
  std::atomic<bool> ingest_in_flight_{false};
  std::thread ingest_thread_;
  MicroBatcher batcher_;
};

}  // namespace kpef::serve

#endif  // KPEF_SERVE_SERVICE_H_
