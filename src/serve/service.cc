#include "serve/service.h"

#include <algorithm>
#include <cctype>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <utility>

#include "common/build_info.h"
#include "common/timer.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/pipeline_metrics.h"
#include "obs/process_metrics.h"
#include "serve/json_util.h"

namespace kpef::serve {

namespace {

HttpResponse JsonError(int status, std::string_view message) {
  HttpResponse response;
  response.status = status;
  response.body.append("{\"error\":");
  AppendJsonString(message, &response.body);
  response.body.append("}\n");
  return response;
}

/// Keeps [A-Za-z0-9._-] up to 64 bytes; everything else (control bytes,
/// UTF-8 junk, separators a hostile client might use for header or log
/// injection) is dropped, not escaped — the id round-trips through a
/// response header, the access log, and a query parameter.
std::string SanitizeRequestId(const std::string& raw) {
  std::string out;
  out.reserve(std::min<size_t>(raw.size(), 64));
  for (char c : raw) {
    if (std::isalnum(static_cast<unsigned char>(c)) || c == '-' || c == '_' ||
        c == '.') {
      out.push_back(c);
      if (out.size() == 64) break;
    }
  }
  return out;
}

uint64_t MsToNs(double ms) {
  return ms <= 0.0 ? 0 : static_cast<uint64_t>(ms * 1e6);
}

/// The record of a finished find_experts request, shared by the 400, 429
/// and completion paths. Without an engine `result` the stage fields
/// stay zero.
obs::RequestRecord RecordFor(const std::string& trace_id, int status,
                             double e2e_ms, bool sampled,
                             const BatchResponse* result = nullptr,
                             size_t top_n = 0, bool trace_kept = false) {
  obs::RequestRecord record;
  record.time = std::chrono::system_clock::now();
  record.trace_id = trace_id;
  record.status = status;
  record.top_n = top_n;
  record.e2e_ms = e2e_ms;
  record.shed = status == 429;
  record.sampled = sampled;
  record.trace_kept = trace_kept;
  if (result != nullptr) {
    record.batch_size = result->batch_size;
    record.queue_wait_ms = result->queue_wait_ms;
    record.encode_ms = result->stats.encode_ms;
    record.search_ms =
        std::max(0.0, result->stats.retrieval_ms - result->stats.encode_ms);
    record.ranking_ms = result->stats.ranking_ms;
    record.deadline_exceeded = result->deadline_exceeded;
  }
  return record;
}

/// {"papers":[{"text":..,"authors":[..],"venue":..,"topics":[..],
/// "cites":[..]}]} -> IngestBatch. Every field but "text" is optional;
/// anything of the wrong shape is a 400, not a silent skip.
StatusOr<IngestBatch> IngestBatchFromJson(const JsonValue& doc) {
  if (!doc.is_object()) {
    return Status::InvalidArgument("body must be a JSON object");
  }
  const JsonValue* papers = doc.Find("papers");
  if (papers == nullptr || papers->type != JsonValue::Type::kArray) {
    return Status::InvalidArgument("\"papers\" must be an array");
  }
  const auto string_list =
      [](const JsonValue& paper, std::string_view key,
         std::vector<std::string>* out) -> Status {
    const JsonValue* list = paper.Find(key);
    if (list == nullptr) return Status::OK();
    if (list->type != JsonValue::Type::kArray) {
      return Status::InvalidArgument(std::string(key) + " must be an array");
    }
    out->reserve(list->array_items.size());
    for (const JsonValue& item : list->array_items) {
      if (!item.is_string()) {
        return Status::InvalidArgument(std::string(key) +
                                       " entries must be strings");
      }
      out->push_back(item.string_value);
    }
    return Status::OK();
  };
  IngestBatch batch;
  batch.papers.reserve(papers->array_items.size());
  for (const JsonValue& entry : papers->array_items) {
    if (!entry.is_object()) {
      return Status::InvalidArgument("papers entries must be objects");
    }
    IngestPaper paper;
    const JsonValue* text = entry.Find("text");
    if (text == nullptr || !text->is_string() || text->string_value.empty()) {
      return Status::InvalidArgument(
          "every paper needs a non-empty \"text\"");
    }
    paper.text = text->string_value;
    if (const JsonValue* venue = entry.Find("venue")) {
      if (!venue->is_string()) {
        return Status::InvalidArgument("venue must be a string");
      }
      paper.venue = venue->string_value;
    }
    KPEF_RETURN_IF_ERROR(string_list(entry, "authors", &paper.authors));
    KPEF_RETURN_IF_ERROR(string_list(entry, "topics", &paper.topics));
    KPEF_RETURN_IF_ERROR(string_list(entry, "cites", &paper.cites));
    batch.papers.push_back(std::move(paper));
  }
  return batch;
}

}  // namespace

ExpertSearchService::ExpertSearchService(ServiceConfig config, EngineInfo info,
                                         BatchExecuteFn execute,
                                         ServiceHooks hooks)
    : config_(std::move(config)),
      info_(std::move(info)),
      hooks_(std::move(hooks)),
      slow_ring_(config_.slow_ring_capacity),
      batcher_(config_.batcher, std::move(execute)) {
  // Register the full metric schema (latency histograms get their wide
  // bounds) before the first request observes anything.
  obs::WarmPipelineMetrics();
  obs::Tracer::Global().SetMode(config_.trace_mode);
  if (config_.access_log_sink) {
    access_log_ = std::make_unique<obs::RequestLog>(config_.access_log_sink);
  } else if (!config_.access_log_path.empty()) {
    access_log_ = obs::RequestLog::Open(config_.access_log_path);
  }
  if (access_log_) {
    access_log_->WriteHeader(info_.display_name.empty() ? "kpef_serve"
                                                        : info_.display_name);
  }
}

BatchExecuteFn ExpertSearchService::ExecuteFor(EngineGroup* group) {
  return [group](const std::vector<std::string>& texts, size_t top_n,
                 const BatchQueryOptions& options) {
    BatchResult result;
    std::shared_ptr<const EngineGroup::Generation> answered;
    result.experts = group->FindExpertsBatch(texts, top_n, options,
                                             &result.stats, &answered);
    // Names come from the generation that scored the batch, held until
    // the last completion has rendered: streaming ingest may publish a
    // grown generation at any moment, and its graph is not this one.
    result.label = [gen = std::move(answered)](NodeId id) {
      return gen->engine->dataset().graph.Label(id);
    };
    return result;
  };
}

std::unique_ptr<ExpertSearchService> ExpertSearchService::ForEngineGroup(
    EngineGroup* group, ServiceConfig config, IngestCoordinator* ingest) {
  ServiceHooks hooks;
  hooks.info = [group] { return group->Info(); };
  hooks.sample = [group] { group->SampleMetrics(); };
  if (ingest == nullptr) {
    hooks.reload = [group](const std::string& dir) -> StatusOr<uint64_t> {
      KPEF_RETURN_IF_ERROR(group->Reload(dir));
      return group->generation();
    };
  } else {
    // No reload hook while ingest is live: a reload would publish the
    // base artifacts without the ingested papers, and the next ingest
    // publish would silently undo it. Reload answers 503 instead.
    hooks.ingest = [ingest](const IngestBatch& batch) {
      return ingest->Apply(batch);
    };
    hooks.ingest_stats = [ingest] { return ingest->Stats(); };
  }
  return std::make_unique<ExpertSearchService>(
      config, group->Info(), ExecuteFor(group), std::move(hooks));
}

ExpertSearchService::~ExpertSearchService() { Drain(); }

void ExpertSearchService::Drain() {
  batcher_.Shutdown();
  if (reload_thread_.joinable()) reload_thread_.join();
  if (ingest_thread_.joinable()) ingest_thread_.join();
}

void ExpertSearchService::Handle(const HttpRequest& request,
                                 HttpServer::Responder respond) {
  KPEF_COUNTER_ADD(obs::kServeRequests, 1);
  const std::string_view path = request.Path();

  if (path == "/healthz") {
    if (request.method != "GET") {
      respond(JsonError(405, "use GET"));
      return;
    }
    // Live info (generation, per-generation tallies) when an
    // EngineGroup is behind the service; the construction-time summary
    // otherwise.
    const EngineInfo info = hooks_.info ? hooks_.info() : info_;
    HttpResponse response;
    response.body.append("{\"status\":\"ok\",\"engine\":");
    AppendJsonString(info.display_name, &response.body);
    response.body.append(",\"papers\":");
    response.body.append(std::to_string(info.num_papers));
    response.body.append(",\"experts\":");
    response.body.append(std::to_string(info.num_experts));
    response.body.append(",\"dim\":");
    response.body.append(std::to_string(info.embedding_dim));
    response.body.append(",\"pg_index\":");
    response.body.append(info.has_index ? "true" : "false");
    response.body.append(",\"generation\":");
    response.body.append(std::to_string(info.generation));
    response.body.append(",\"generation_queries\":");
    response.body.append(std::to_string(info.generation_queries));
    response.body.append(",\"artifact_dir\":");
    AppendJsonString(info.artifact_dir, &response.body);
    // Streaming-ingest state: the live coordinator numbers when the
    // hook is wired, all zeros on a static deployment.
    const IngestStats ingest =
        hooks_.ingest_stats ? hooks_.ingest_stats() : IngestStats();
    response.body.append(",\"ingest_records\":");
    response.body.append(std::to_string(ingest.records_applied));
    response.body.append(",\"ingest_wal_bytes\":");
    response.body.append(std::to_string(ingest.wal_bytes));
    response.body.append(",\"ingest_pending_delta_edges\":");
    response.body.append(std::to_string(ingest.pending_delta_edges));
    response.body.append(",\"ingest_last_merge_generation\":");
    response.body.append(std::to_string(ingest.last_merge_generation));
    response.body.append(",\"git\":");
    AppendJsonString(
        info.git_hash.empty() ? BuildGitHash() : info.git_hash.c_str(),
        &response.body);
    response.body.append(",\"build\":");
    AppendJsonString(
        info.build_type.empty() ? BuildType() : info.build_type.c_str(),
        &response.body);
    response.body.append(",\"draining\":false}\n");
    respond(std::move(response));
    return;
  }

  if (path == "/metrics") {
    if (request.method != "GET") {
      respond(JsonError(405, "use GET"));
      return;
    }
    // Gauges like RSS and pool occupancy are meaningful at scrape time,
    // not at event time, so they are sampled here.
    obs::SampleProcessMetrics(config_.batcher.pool);
    if (hooks_.sample) hooks_.sample();
    HttpResponse response;
    response.content_type = "text/plain; version=0.0.4";
    response.body = obs::ExportPrometheusText();
    respond(std::move(response));
    return;
  }

  if (path == "/v1/admin/ingest") {
    if (request.method != "POST") {
      respond(JsonError(405, "use POST"));
      return;
    }
    HandleIngest(request, std::move(respond));
    return;
  }

  if (path == "/v1/admin/reload") {
    if (request.method != "POST") {
      respond(JsonError(405, "use POST"));
      return;
    }
    HandleReload(request, std::move(respond));
    return;
  }

  if (path == "/v1/debug/slow") {
    if (request.method != "GET") {
      respond(JsonError(405, "use GET"));
      return;
    }
    HandleDebugSlow(std::move(respond));
    return;
  }

  if (path == "/v1/debug/trace") {
    if (request.method != "GET") {
      respond(JsonError(405, "use GET"));
      return;
    }
    HandleDebugTrace(request, std::move(respond));
    return;
  }

  if (path == "/v1/find_experts") {
    if (request.method != "POST") {
      respond(JsonError(405, "use POST"));
      return;
    }
    HandleFindExperts(request, std::move(respond));
    return;
  }

  respond(JsonError(404, "unknown endpoint"));
}

std::string ExpertSearchService::RequestIdFor(const HttpRequest& request) {
  if (const std::string* raw = request.FindHeader("x-request-id")) {
    std::string id = SanitizeRequestId(*raw);
    if (!id.empty()) return id;
  }
  static std::atomic<uint64_t> generated{0};
  char buf[32];
  std::snprintf(buf, sizeof(buf), "req-%016" PRIx64,
                generated.fetch_add(1, std::memory_order_relaxed));
  return buf;
}

bool ExpertSearchService::IsSlow(double e2e_ms,
                                 const BatchResponse& result) const {
  return result.deadline_exceeded ||
         (config_.slow_e2e_ms > 0.0 && e2e_ms >= config_.slow_e2e_ms) ||
         (config_.slow_queue_wait_ms > 0.0 &&
          result.queue_wait_ms >= config_.slow_queue_wait_ms);
}

void ExpertSearchService::WriteAccessLog(const obs::RequestRecord& record) {
  if (access_log_) access_log_->Write(record);
}

void ExpertSearchService::HandleFindExperts(const HttpRequest& request,
                                            HttpServer::Responder respond) {
  obs::Tracer& tracer = obs::Tracer::Global();
  const uint64_t t0_ns = tracer.NowNanos();
  auto started = std::make_shared<Timer>();
  const std::string trace_id = RequestIdFor(request);
  const uint64_t seq = request_seq_.fetch_add(1, std::memory_order_relaxed);
  const bool head = config_.trace_head_every > 0 &&
                    seq % config_.trace_head_every == 0;
  const uint64_t trace_key = tracer.BeginTrace(trace_id, head);
  if (trace_key != 0) KPEF_COUNTER_ADD(obs::kServeTracesStarted, 1);

  const auto reject = [&](std::string_view message) {
    KPEF_COUNTER_ADD(obs::kServeBadRequests, 1);
    tracer.EndTrace(trace_key, false);
    WriteAccessLog(RecordFor(trace_id, 400, started->ElapsedMillis(), head));
    HttpResponse response = JsonError(400, message);
    response.extra_headers.emplace_back("x-request-id", trace_id);
    respond(std::move(response));
  };

  JsonValue doc;
  std::string parse_error;
  if (!ParseJson(request.body, &doc, &parse_error) || !doc.is_object()) {
    reject(parse_error.empty() ? "body must be a JSON object" : parse_error);
    return;
  }
  const JsonValue* query = doc.Find("query");
  if (query == nullptr || !query->is_string() ||
      query->string_value.empty()) {
    reject("\"query\" must be a non-empty string");
    return;
  }

  BatchRequest batch_request;
  batch_request.query = query->string_value;
  batch_request.top_n = config_.default_top_n;
  batch_request.trace_key = trace_key;
  if (const JsonValue* n = doc.Find("n")) {
    if (!n->is_number() || n->number_value < 1.0 ||
        n->number_value != std::floor(n->number_value)) {
      reject("\"n\" must be a positive integer");
      return;
    }
    // The one cap on n: the engine runs a coalesced batch at the max n
    // over its riders, so one oversized request would inflate ranking
    // work for every rider. Clamp before the cast: a double past
    // size_t's range (e.g. 1e300) has no size_t value.
    if (n->number_value > static_cast<double>(config_.max_top_n)) {
      batch_request.top_n = config_.max_top_n;
      KPEF_COUNTER_ADD(obs::kServeTopNClamped, 1);
    } else {
      batch_request.top_n = static_cast<size_t>(n->number_value);
    }
  }
  double deadline_ms = config_.default_deadline_ms;
  if (const JsonValue* d = doc.Find("deadline_ms")) {
    if (!d->is_number() || d->number_value <= 0.0) {
      reject("\"deadline_ms\" must be a positive number");
      return;
    }
    deadline_ms = std::min(d->number_value, config_.max_deadline_ms);
  }
  if (deadline_ms > 0.0) {
    batch_request.deadline =
        std::chrono::steady_clock::now() +
        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
            std::chrono::duration<double, std::milli>(deadline_ms));
  }

  // Completion runs on the pool worker that ran the batch; the
  // responder routes the rendered response back to the event loop. A copy stays
  // behind for the shed path (Submit never invokes `done` on failure).
  HttpServer::Responder respond_on_shed = respond;
  auto done = [this, respond = std::move(respond), started, trace_id,
               trace_key, head, t0_ns, query_text = batch_request.query,
               top_n = batch_request.top_n](BatchResponse result) {
    const double e2e_ms = started->ElapsedMillis();
    const bool slow = IsSlow(e2e_ms, result);
    obs::Tracer& tracer = obs::Tracer::Global();

    bool kept = false;
    if (trace_key != 0) {
      // The server/queue/batch phases are measured by timers (the queue
      // wait has no thread to scope a span on), so they are recorded
      // manually; together with the engine-phase spans they form the
      // server -> queue -> batch -> encode/search/ranking tree.
      const uint64_t e2e_ns = MsToNs(e2e_ms);
      const uint64_t queue_ns =
          std::min(MsToNs(result.queue_wait_ms), e2e_ns);
      obs::RecordSpan(trace_key, "server.request", t0_ns, e2e_ns);
      obs::RecordSpan(trace_key, "serve.queue", t0_ns, queue_ns);
      obs::RecordSpan(trace_key, "serve.batch", t0_ns + queue_ns,
                      e2e_ns - queue_ns);
      kept = head || slow || tracer.mode() == obs::TraceMode::kAlwaysOn;
      tracer.EndTrace(trace_key, slow);
      if (kept) KPEF_COUNTER_ADD(obs::kServeTracesRetained, 1);
    }

    const int status = result.deadline_exceeded ? 504 : 200;
    obs::RequestRecord record =
        RecordFor(trace_id, status, e2e_ms, head, &result, top_n, kept);
    // Log before responding so a client that saw the response can rely
    // on the line existing.
    WriteAccessLog(record);
    if (slow) {
      KPEF_COUNTER_ADD(obs::kServeSlowQueries, 1);
      record.query = query_text;
      slow_ring_.Push(std::move(record));
    }

    HttpResponse response;
    response.status = status;
    response.extra_headers.emplace_back("x-request-id", trace_id);
    std::string& body = response.body;
    body.push_back('{');
    if (result.deadline_exceeded) {
      body.append("\"error\":\"deadline exceeded\",\"partial\":true,");
    }
    body.append("\"experts\":[");
    for (size_t i = 0; i < result.experts.size(); ++i) {
      if (i > 0) body.push_back(',');
      body.append("{\"id\":");
      body.append(std::to_string(result.experts[i].author));
      body.append(",\"name\":");
      AppendJsonString(
          result.label ? result.label(result.experts[i].author) : "", &body);
      body.append(",\"score\":");
      body.append(JsonNumber(result.experts[i].score));
      body.push_back('}');
    }
    body.append("],\"stats\":{\"retrieval_ms\":");
    body.append(JsonNumber(result.stats.retrieval_ms));
    body.append(",\"encode_ms\":");
    body.append(JsonNumber(result.stats.encode_ms));
    body.append(",\"ranking_ms\":");
    body.append(JsonNumber(result.stats.ranking_ms));
    body.append(",\"distance_computations\":");
    body.append(std::to_string(result.stats.distance_computations));
    body.append(",\"ranking_entries_accessed\":");
    body.append(std::to_string(result.stats.ranking_entries_accessed));
    body.append(",\"deadline_exceeded\":");
    body.append(result.deadline_exceeded ? "true" : "false");
    body.append("},\"batch_size\":");
    body.append(std::to_string(result.batch_size));
    body.append(",\"queue_wait_ms\":");
    body.append(JsonNumber(result.queue_wait_ms));
    body.append(",\"trace_id\":");
    AppendJsonString(trace_id, &body);
    body.append("}\n");
    KPEF_HISTOGRAM_OBSERVE(obs::kServeE2eMs, e2e_ms);
    respond(std::move(response));
  };

  if (!batcher_.Submit(std::move(batch_request), std::move(done))) {
    // Shed (or draining): tell the client when to come back.
    tracer.EndTrace(trace_key, false);
    WriteAccessLog(RecordFor(trace_id, 429, started->ElapsedMillis(), head));
    HttpResponse response = JsonError(429, "server overloaded, retry later");
    response.extra_headers.emplace_back(
        "retry-after", std::to_string(config_.retry_after_seconds));
    response.extra_headers.emplace_back("x-request-id", trace_id);
    respond_on_shed(std::move(response));
  }
}

void ExpertSearchService::HandleReload(const HttpRequest& request,
                                       HttpServer::Responder respond) {
  if (!hooks_.reload) {
    respond(JsonError(503, "reload not supported by this deployment"));
    return;
  }
  std::string dir = config_.reload_dir;
  if (!request.body.empty()) {
    JsonValue doc;
    std::string parse_error;
    if (!ParseJson(request.body, &doc, &parse_error) || !doc.is_object()) {
      KPEF_COUNTER_ADD(obs::kServeBadRequests, 1);
      respond(JsonError(400, parse_error.empty()
                                 ? "body must be a JSON object"
                                 : parse_error));
      return;
    }
    if (const JsonValue* d = doc.Find("dir")) {
      if (!d->is_string() || d->string_value.empty()) {
        KPEF_COUNTER_ADD(obs::kServeBadRequests, 1);
        respond(JsonError(400, "\"dir\" must be a non-empty string"));
        return;
      }
      dir = d->string_value;
    }
  }
  if (reload_in_flight_.exchange(true)) {
    respond(JsonError(409, "a reload is already in progress"));
    return;
  }
  // The previous loader thread (if any) has finished — the in-flight
  // flag was false — so reaping it here cannot block the event loop.
  if (reload_thread_.joinable()) reload_thread_.join();
  // The load itself (artifact IO) runs off the event loop; the
  // Responder is thread-safe and routes the response back through the
  // loop's eventfd.
  auto reload = hooks_.reload;
  reload_thread_ = std::thread([this, reload = std::move(reload),
                                dir = std::move(dir),
                                respond = std::move(respond)]() mutable {
    Timer timer;
    StatusOr<uint64_t> swapped = reload(dir);
    if (swapped.ok()) {
      KPEF_COUNTER_ADD(obs::kServeReloads, 1);
      HttpResponse response;
      response.body.append("{\"generation\":");
      response.body.append(std::to_string(*swapped));
      response.body.append(",\"load_seconds\":");
      response.body.append(JsonNumber(timer.ElapsedSeconds()));
      response.body.append("}\n");
      // Release the gate before responding so a client that saw the 200
      // can trigger the next reload without bouncing off a stale flag.
      reload_in_flight_.store(false);
      respond(std::move(response));
    } else {
      KPEF_COUNTER_ADD(obs::kServeReloadFailures, 1);
      reload_in_flight_.store(false);
      respond(JsonError(500, swapped.status().ToString()));
    }
  });
}

void ExpertSearchService::HandleIngest(const HttpRequest& request,
                                       HttpServer::Responder respond) {
  if (!hooks_.ingest) {
    respond(JsonError(503, "ingest not enabled (start with --wal)"));
    return;
  }
  JsonValue doc;
  std::string parse_error;
  if (!ParseJson(request.body, &doc, &parse_error)) {
    KPEF_COUNTER_ADD(obs::kServeBadRequests, 1);
    respond(JsonError(400, parse_error));
    return;
  }
  StatusOr<IngestBatch> batch = IngestBatchFromJson(doc);
  if (!batch.ok()) {
    KPEF_COUNTER_ADD(obs::kServeBadRequests, 1);
    KPEF_COUNTER_ADD(obs::kIngestRejected, 1);
    respond(JsonError(400, batch.status().ToString()));
    return;
  }
  if (ingest_in_flight_.exchange(true)) {
    respond(JsonError(409, "an ingest is already in progress"));
    return;
  }
  // Same thread discipline as HandleReload: the previous worker has
  // finished (the flag was false), so the join cannot block the loop,
  // and the apply (WAL fsync + index insertion + engine assembly) runs
  // off the event loop.
  if (ingest_thread_.joinable()) ingest_thread_.join();
  auto ingest = hooks_.ingest;
  ingest_thread_ = std::thread([this, ingest = std::move(ingest),
                                batch = std::move(batch).value(),
                                respond = std::move(respond)]() mutable {
    StatusOr<IngestApplyResult> applied = ingest(batch);
    if (applied.ok()) {
      HttpResponse response;
      response.body.append("{\"applied\":");
      response.body.append(std::to_string(applied->applied));
      response.body.append(",\"duplicates\":");
      response.body.append(std::to_string(applied->duplicates));
      response.body.append(",\"generation\":");
      response.body.append(std::to_string(applied->generation));
      response.body.append(",\"merged\":");
      response.body.append(applied->merged ? "true" : "false");
      if (hooks_.ingest_stats) {
        response.body.append(",\"pending_delta_edges\":");
        response.body.append(
            std::to_string(hooks_.ingest_stats().pending_delta_edges));
      }
      response.body.append("}\n");
      // Release the gate before responding: a client that has its 200
      // may post the next batch immediately (the steady-state ingest
      // pattern) and must not bounce off a stale in-flight flag.
      ingest_in_flight_.store(false);
      respond(std::move(response));
    } else {
      KPEF_COUNTER_ADD(obs::kIngestRejected, 1);
      ingest_in_flight_.store(false);
      respond(JsonError(500, applied.status().ToString()));
    }
  });
}

void ExpertSearchService::HandleDebugSlow(HttpServer::Responder respond) {
  HttpResponse response;
  std::string& body = response.body;
  body.append("{\"total_recorded\":");
  body.append(std::to_string(slow_ring_.TotalPushed()));
  body.append(",\"slow\":[");
  bool first = true;
  for (const obs::RequestRecord& record : slow_ring_.SnapshotNewestFirst()) {
    if (!first) body.push_back(',');
    first = false;
    obs::AppendRequestJson(record, &body);
  }
  body.append("]}\n");
  respond(std::move(response));
}

void ExpertSearchService::HandleDebugTrace(const HttpRequest& request,
                                           HttpServer::Responder respond) {
  const std::string_view id = QueryParam(request.target, "id");
  if (id.empty()) {
    respond(JsonError(400, "missing id parameter"));
    return;
  }
  obs::TraceSnapshot snapshot;
  if (!obs::Tracer::Global().FindRetained(id, &snapshot)) {
    respond(JsonError(
        404, "trace not retained (sampled out, expired, or unknown id)"));
    return;
  }
  HttpResponse response;
  if (QueryParam(request.target, "format") == "chrome") {
    response.body = obs::ExportChromeTrace(snapshot);
  } else {
    response.body = obs::ExportTraceJson(snapshot);
  }
  response.body.push_back('\n');
  respond(std::move(response));
}

}  // namespace kpef::serve
