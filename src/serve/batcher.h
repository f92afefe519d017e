// Dynamic micro-batching scheduler: coalesces concurrent find_experts
// requests into FindExpertsBatch calls (DESIGN.md §11).
//
// Requests enter a bounded queue. Batches run as tasks on the serving
// pool, at most one per pool worker at once; each in-flight batch holds
// one *slot*. Submit starts a slot task whenever a slot is free, and a
// slot task keeps cutting batches (oldest first, capped at
// max_batch_size) until the queue is empty, then frees its slot. So the
// batcher is work-conserving: there is no timer, a lone request on an
// idle server goes straight to the engine, and under load a batch is
// what queued while every slot was busy. A batcher without a pool runs
// on a private one-worker pool: one batch in flight.
// Admission control is synchronous: Submit() fails immediately when the
// queue is full, so the caller can shed load (HTTP 429) without ever
// blocking the event loop. Per-request deadlines propagate into the
// engine call per slot (BatchQueryOptions::deadlines), so the engine
// stops spending time on a query the moment its own budget expires;
// requests that miss their deadline come back flagged (HTTP 504) instead
// of wedging the batch.
//
// The batcher is a pure unit: it executes batches through an injected
// function, so tests drive it with a fake engine and no sockets.

#ifndef KPEF_SERVE_BATCHER_H_
#define KPEF_SERVE_BATCHER_H_

#include <chrono>
#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "core/engine.h"
#include "ranking/expert_score.h"

namespace kpef::serve {

struct BatcherConfig {
  /// Most requests one engine call takes; a longer queue is cut into
  /// consecutive batches, oldest first.
  size_t max_batch_size = 16;
  /// Admission bound (>= 1): Submit() sheds once this many requests are
  /// queued (requests already dispatched to the engine do not count).
  size_t max_pending = 256;
  /// Pool the batches run on, one in flight per worker; also forwarded
  /// to BatchQueryOptions. nullptr = a private one-worker pool, and the
  /// engine's default pool for the queries.
  ThreadPool* pool = nullptr;
};

/// One enqueued query.
struct BatchRequest {
  std::string query;
  size_t top_n = 10;
  /// Absolute per-request deadline (time_point::max() = none).
  std::chrono::steady_clock::time_point deadline =
      std::chrono::steady_clock::time_point::max();
  /// Request-trace key (obs::Tracer::BeginTrace; 0 = untraced). Forwarded
  /// into BatchQueryOptions::trace_keys so engine-phase spans land in
  /// this request's trace.
  uint64_t trace_key = 0;
};

/// Maps an expert NodeId to its display name.
using LabelFn = std::function<std::string(NodeId)>;

/// What one engine call hands back: one expert list and one QueryStats
/// per query, plus the names of the data that answered them.
struct BatchResult {
  std::vector<std::vector<ExpertScore>> experts;
  std::vector<QueryStats> stats;
  /// Resolves names against the data that scored this batch (for an
  /// EngineGroup, pinned to the answering generation, so a publish
  /// between the engine call and rendering cannot change them). Null
  /// renders empty names.
  LabelFn label;
};

/// Delivered to the completion callback, on the pool worker that ran the
/// batch.
struct BatchResponse {
  std::vector<ExpertScore> experts;
  QueryStats stats;
  /// The answering batch's BatchResult::label (null when the request
  /// never reached the engine).
  LabelFn label;
  /// True when the request missed its deadline (results may be empty or
  /// partial — the partial flag for the HTTP 504 body).
  bool deadline_exceeded = false;
  /// Milliseconds the request sat queued before its batch was cut (the
  /// wait for a free slot).
  double queue_wait_ms = 0.0;
  /// Size of the engine batch this request rode in (0 when the request
  /// expired before dispatch or the batcher shut down mid-drain).
  size_t batch_size = 0;
};

/// One FindExpertsBatch call — injected so unit tests substitute a fake
/// engine.
using BatchExecuteFn = std::function<BatchResult(
    const std::vector<std::string>& texts, size_t top_n,
    const BatchQueryOptions& options)>;

class MicroBatcher {
 public:
  using CompletionFn = std::function<void(BatchResponse)>;

  MicroBatcher(BatcherConfig config, BatchExecuteFn execute);
  /// Drains (equivalent to Shutdown()).
  ~MicroBatcher();

  MicroBatcher(const MicroBatcher&) = delete;
  MicroBatcher& operator=(const MicroBatcher&) = delete;

  /// Enqueues a request; `done` is invoked exactly once, on the thread
  /// that runs its batch (a pool worker, or a Shutdown() caller helping
  /// drain). Returns false (without invoking `done`) when the queue is
  /// full — the caller sheds the request. Returns false after Shutdown()
  /// began.
  bool Submit(BatchRequest request, CompletionFn done);

  /// Stops admission and returns once every queued request was answered
  /// (their callbacks ran) and every slot is free; no slot task runs
  /// after it returns. Idempotent and safe to call concurrently.
  void Shutdown();

  /// Requests queued but not yet dispatched (admission-control gauge).
  size_t PendingForTest() const;

 private:
  struct Pending {
    BatchRequest request;
    CompletionFn done;
    std::chrono::steady_clock::time_point enqueue_time;
  };

  /// One slot task: cuts and runs batches until the queue is empty, then
  /// frees its slot. Nothing may escape it (an engine exception ends the
  /// process, as it would on any serving thread).
  void RunSlot() noexcept;
  /// Runs one cut batch as one engine call, invoking completions.
  /// Caller must NOT hold mutex_.
  void RunBatch(std::vector<Pending> batch);

  const BatcherConfig config_;
  const BatchExecuteFn execute_;
  /// The private one-worker pool of a batcher configured without one.
  const std::unique_ptr<ThreadPool> own_pool_;
  ThreadPool& pool_;
  /// Slot tasks in flight on pool_; Shutdown() joins it.
  TaskGroup slot_tasks_;

  mutable std::mutex mutex_;
  std::deque<Pending> queue_;
  /// Slots holding a submitted-or-running slot task (<= pool width).
  size_t busy_slots_ = 0;
  bool draining_ = false;
};

}  // namespace kpef::serve

#endif  // KPEF_SERVE_BATCHER_H_
