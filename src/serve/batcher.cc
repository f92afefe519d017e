#include "serve/batcher.h"

#include <algorithm>
#include <utility>

#include "obs/metrics.h"
#include "obs/pipeline_metrics.h"

namespace kpef::serve {

namespace {

using Clock = std::chrono::steady_clock;

double MillisBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

}  // namespace

MicroBatcher::MicroBatcher(BatcherConfig config, BatchExecuteFn execute)
    : config_(config),
      execute_(std::move(execute)),
      own_pool_(config.pool == nullptr ? std::make_unique<ThreadPool>(1)
                                       : nullptr),
      pool_(config.pool != nullptr ? *config.pool : *own_pool_),
      slot_tasks_(pool_) {}

MicroBatcher::~MicroBatcher() { Shutdown(); }

bool MicroBatcher::Submit(BatchRequest request, CompletionFn done) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (draining_ || queue_.size() >= config_.max_pending) {
    if (!draining_) KPEF_COUNTER_ADD(obs::kServeShed, 1);
    return false;
  }
  queue_.push_back(Pending{std::move(request), std::move(done),
                           Clock::now()});
  // A free slot starts a slot task now. It is submitted under the lock,
  // so a Shutdown() that follows always finds it in slot_tasks_.
  if (busy_slots_ < pool_.num_threads()) {
    ++busy_slots_;
    slot_tasks_.Submit([this] { RunSlot(); });
  }
  return true;
}

void MicroBatcher::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    draining_ = true;
  }
  // Every slot task keeps cutting until the queue is empty; joining them
  // (the join may run a not-yet-started one on this thread) drains it.
  slot_tasks_.Wait();
}

size_t MicroBatcher::PendingForTest() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return queue_.size();
}

void MicroBatcher::RunSlot() noexcept {
  std::unique_lock<std::mutex> lock(mutex_);
  while (!queue_.empty()) {
    // Cut the batch now: whatever queued while every slot was busy,
    // oldest first.
    const size_t take = std::min(queue_.size(), config_.max_batch_size);
    std::vector<Pending> batch;
    batch.reserve(take);
    for (size_t i = 0; i < take; ++i) {
      batch.push_back(std::move(queue_.front()));
      queue_.pop_front();
    }
    lock.unlock();
    RunBatch(std::move(batch));
    lock.lock();
  }
  --busy_slots_;
}

void MicroBatcher::RunBatch(std::vector<Pending> batch) {
  const auto dispatch_time = Clock::now();

  // Requests whose deadline already passed never reach the engine: they
  // complete immediately as expired, and do not shrink the batch others
  // ride in (they were admitted, so their slot was real).
  std::vector<size_t> live;  // indices into batch
  live.reserve(batch.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    const Pending& p = batch[i];
    if (dispatch_time >= p.request.deadline) {
      BatchResponse response;
      response.deadline_exceeded = true;
      response.queue_wait_ms = MillisBetween(p.enqueue_time, dispatch_time);
      KPEF_COUNTER_ADD(obs::kServeDeadlineExceeded, 1);
      KPEF_HISTOGRAM_OBSERVE(obs::kServeQueueWaitMs, response.queue_wait_ms);
      if (p.done) p.done(std::move(response));
    } else {
      live.push_back(i);
    }
  }
  if (live.empty()) return;

  // One engine call for the whole batch. top_n is the max over the
  // batch (the service caps each request's n); per-request lists are
  // truncated afterwards (ranking is exact, so the top-n' of a top-n
  // list with n' <= n is the same list). Deadlines propagate per slot:
  // the engine skips a query's remaining stages once that query's own
  // budget expires.
  size_t top_n = 0;
  bool any_deadline = false;
  std::vector<std::string> texts;
  texts.reserve(live.size());
  for (const size_t i : live) {
    const BatchRequest& r = batch[i].request;
    top_n = std::max(top_n, r.top_n);
    texts.push_back(r.query);
    any_deadline |= r.deadline != Clock::time_point::max();
  }
  BatchQueryOptions options;
  options.pool = config_.pool;
  if (any_deadline) {
    options.deadlines.reserve(live.size());
    for (const size_t i : live) {
      options.deadlines.push_back(batch[i].request.deadline);
    }
  }
  bool any_traced = false;
  for (const size_t i : live) {
    if (batch[i].request.trace_key != 0) {
      any_traced = true;
      break;
    }
  }
  if (any_traced) {
    options.trace_keys.reserve(live.size());
    for (const size_t i : live) {
      options.trace_keys.push_back(batch[i].request.trace_key);
    }
  }

  KPEF_COUNTER_ADD(obs::kServeBatches, 1);
  KPEF_HISTOGRAM_OBSERVE(obs::kServeBatchSize, live.size());

  BatchResult result = execute_(texts, top_n, options);
  const auto completion_time = Clock::now();

  for (size_t slot = 0; slot < live.size(); ++slot) {
    Pending& p = batch[live[slot]];
    BatchResponse response;
    response.batch_size = live.size();
    response.queue_wait_ms = MillisBetween(p.enqueue_time, dispatch_time);
    if (slot < result.experts.size()) {
      response.experts = std::move(result.experts[slot]);
    }
    if (slot < result.stats.size()) response.stats = result.stats[slot];
    response.label = result.label;
    if (response.experts.size() > p.request.top_n) {
      response.experts.resize(p.request.top_n);
    }
    response.deadline_exceeded =
        response.stats.deadline_exceeded ||
        completion_time >= p.request.deadline;
    if (response.deadline_exceeded) {
      KPEF_COUNTER_ADD(obs::kServeDeadlineExceeded, 1);
    }
    KPEF_HISTOGRAM_OBSERVE(obs::kServeQueueWaitMs, response.queue_wait_ms);
    if (p.done) p.done(std::move(response));
  }
}

}  // namespace kpef::serve
