// MicroBatcher as a pure unit: work-conserving dispatch (a lone request
// goes straight in; whatever queued behind a busy engine rides the next
// batch, FIFO, split at max_batch_size), per-request deadline
// propagation into BatchQueryOptions, shed-when-full, and
// drain-on-shutdown — all against a fake engine function, no sockets
// involved (the top-n cap test goes through ExpertSearchService::Handle,
// where the cap is applied). Coalescing is forced with a gated engine,
// never with a timing window.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/thread_pool.h"
#include "serve/batcher.h"
#include "serve/json_util.h"
#include "serve/service.h"

namespace kpef::serve {
namespace {

using Clock = std::chrono::steady_clock;

/// Records every engine call; optionally blocks until released and/or
/// sleeps to simulate slow batches (the sleep is read when a call
/// enters, so changing it affects later calls only).
struct FakeEngine {
  std::mutex mutex;
  std::condition_variable cv;
  bool blocked = false;
  double sleep_ms = 0.0;
  std::vector<size_t> batch_sizes;
  std::vector<std::vector<std::string>> texts_seen;
  std::vector<size_t> top_ns;
  std::vector<BatchQueryOptions> options_seen;

  BatchExecuteFn AsFn() {
    return [this](const std::vector<std::string>& texts, size_t top_n,
                  const BatchQueryOptions& options) {
      double sleep = 0.0;
      {
        std::unique_lock<std::mutex> lock(mutex);
        batch_sizes.push_back(texts.size());
        texts_seen.push_back(texts);
        top_ns.push_back(top_n);
        options_seen.push_back(options);
        sleep = sleep_ms;
        cv.notify_all();
        cv.wait(lock, [this] { return !blocked; });
      }
      if (sleep > 0.0) {
        std::this_thread::sleep_for(
            std::chrono::duration<double, std::milli>(sleep));
      }
      BatchResult result;
      result.stats.assign(texts.size(), QueryStats());
      result.experts.resize(texts.size());
      for (size_t q = 0; q < texts.size(); ++q) {
        for (size_t i = 0; i < top_n; ++i) {
          result.experts[q].push_back(
              ExpertScore{static_cast<NodeId>(i), 1.0 / (1.0 + i)});
        }
      }
      return result;
    };
  }

  void Block() {
    std::lock_guard<std::mutex> lock(mutex);
    blocked = true;
  }
  void Release() {
    {
      std::lock_guard<std::mutex> lock(mutex);
      blocked = false;
    }
    cv.notify_all();
  }
  void SetSleepMs(double ms) {
    std::lock_guard<std::mutex> lock(mutex);
    sleep_ms = ms;
  }
  size_t NumCalls() {
    std::lock_guard<std::mutex> lock(mutex);
    return batch_sizes.size();
  }
  /// Blocks until `n` engine calls have entered (no timing assumption:
  /// the bound only keeps a broken batcher from hanging the test).
  bool WaitForCalls(size_t n) {
    std::unique_lock<std::mutex> lock(mutex);
    return cv.wait_for(lock, std::chrono::seconds(5),
                       [&] { return batch_sizes.size() >= n; });
  }
};

/// Collects completions with a latch-style wait.
struct Collector {
  std::mutex mutex;
  std::condition_variable cv;
  std::vector<BatchResponse> responses;

  MicroBatcher::CompletionFn Fn() {
    return [this](BatchResponse response) {
      // Notify while holding the lock: the waiter may destroy this
      // Collector the moment the predicate holds, so an unlocked
      // notify_all could touch a dead condvar.
      std::lock_guard<std::mutex> lock(mutex);
      responses.push_back(std::move(response));
      cv.notify_all();
    };
  }

  bool WaitForCount(size_t n, double timeout_ms = 5000.0) {
    std::unique_lock<std::mutex> lock(mutex);
    return cv.wait_for(
        lock, std::chrono::duration<double, std::milli>(timeout_ms),
        [&] { return responses.size() >= n; });
  }
};

BatchRequest Request(const std::string& query, size_t top_n = 5) {
  BatchRequest request;
  request.query = query;
  request.top_n = top_n;
  return request;
}

/// "q0", "q1", ... (built by append: GCC 12 raises a false -Wrestrict
/// on the inlined `"q" + std::to_string(i)`).
std::string Numbered(int i) {
  return std::string("q").append(std::to_string(i));
}

/// Wedges the batcher's one slot inside the engine on a "plug" request
/// (these tests run without a pool, so one batch is in flight), so every
/// request submitted afterwards queues until engine.Release(); the next
/// engine call then takes exactly those (up to max_batch_size). The
/// plug's own completion lands in `plug_done`.
void PlugEngine(MicroBatcher* batcher, FakeEngine* engine,
                Collector* plug_done) {
  engine->Block();
  ASSERT_TRUE(batcher->Submit(Request("plug"), plug_done->Fn()));
  ASSERT_TRUE(engine->WaitForCalls(1));
  ASSERT_EQ(batcher->PendingForTest(), 0u);
}

TEST(MicroBatcherTest, FlushOnSizeCoalescesIntoOneEngineCall) {
  FakeEngine engine;
  BatcherConfig config;
  config.max_batch_size = 4;
  MicroBatcher batcher(config, engine.AsFn());
  Collector plug;
  PlugEngine(&batcher, &engine, &plug);
  Collector collector;
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(batcher.Submit(Request(Numbered(i)), collector.Fn()));
  }
  engine.Release();
  ASSERT_TRUE(collector.WaitForCount(4));
  ASSERT_EQ(engine.NumCalls(), 2u);  // the plug, then all four at once
  EXPECT_EQ(engine.batch_sizes[1], 4u);
  for (const BatchResponse& r : collector.responses) {
    EXPECT_EQ(r.batch_size, 4u);
    EXPECT_FALSE(r.deadline_exceeded);
    EXPECT_GE(r.queue_wait_ms, 0.0);
  }
}

// Work conservation: an idle batcher hands a lone request to the engine
// at once. Nothing else is ever submitted, so if the batcher waited for
// company (or a timer) the engine would never be entered.
TEST(MicroBatcherTest, IdleBatcherDispatchesLoneRequestAtOnce) {
  FakeEngine engine;
  engine.Block();  // hold the call open so its entry is observable
  BatcherConfig config;
  config.max_batch_size = 64;
  MicroBatcher batcher(config, engine.AsFn());
  Collector collector;
  ASSERT_TRUE(batcher.Submit(Request("lonely"), collector.Fn()));
  EXPECT_TRUE(engine.WaitForCalls(1));
  EXPECT_EQ(batcher.PendingForTest(), 0u);
  engine.Release();
  ASSERT_TRUE(collector.WaitForCount(1));
  ASSERT_EQ(engine.NumCalls(), 1u);
  EXPECT_EQ(engine.batch_sizes[0], 1u);
  EXPECT_EQ(collector.responses[0].batch_size, 1u);
}

// Requests that queue while a batch runs ride the next engine call
// together, in arrival order, cut into max_batch_size pieces.
TEST(MicroBatcherTest, RequestsQueuedBehindBusyEngineRideNextBatchesInOrder) {
  FakeEngine engine;
  BatcherConfig config;
  config.max_batch_size = 3;
  MicroBatcher batcher(config, engine.AsFn());
  Collector plug;
  PlugEngine(&batcher, &engine, &plug);
  Collector collector;
  constexpr int kQueued = 7;
  for (int i = 0; i < kQueued; ++i) {
    ASSERT_TRUE(batcher.Submit(Request(Numbered(i)), collector.Fn()));
  }
  EXPECT_EQ(batcher.PendingForTest(), static_cast<size_t>(kQueued));
  engine.Release();
  ASSERT_TRUE(collector.WaitForCount(kQueued));
  ASSERT_TRUE(plug.WaitForCount(1));

  // The plug, then 3 + 3 + 1: each cut took the queue's head.
  EXPECT_EQ(engine.batch_sizes, (std::vector<size_t>{1, 3, 3, 1}));
  std::vector<std::string> order;
  for (size_t call = 1; call < engine.texts_seen.size(); ++call) {
    order.insert(order.end(), engine.texts_seen[call].begin(),
                 engine.texts_seen[call].end());
  }
  EXPECT_EQ(order, (std::vector<std::string>{"q0", "q1", "q2", "q3", "q4",
                                             "q5", "q6"}));
  // Completions report the batch each request rode in.
  std::vector<size_t> rode;
  for (const BatchResponse& r : collector.responses) {
    rode.push_back(r.batch_size);
  }
  EXPECT_EQ(rode, (std::vector<size_t>{3, 3, 3, 3, 3, 3, 1}));
}

TEST(MicroBatcherTest, TopNIsBatchMaxAndResultsAreTruncatedPerRequest) {
  FakeEngine engine;
  BatcherConfig config;
  config.max_batch_size = 2;
  MicroBatcher batcher(config, engine.AsFn());
  Collector plug;
  PlugEngine(&batcher, &engine, &plug);
  Collector collector;
  ASSERT_TRUE(batcher.Submit(Request("small", 3), collector.Fn()));
  ASSERT_TRUE(batcher.Submit(Request("large", 50), collector.Fn()));
  engine.Release();
  ASSERT_TRUE(collector.WaitForCount(2));
  ASSERT_EQ(engine.top_ns.size(), 2u);
  EXPECT_EQ(engine.top_ns[1], 50u);  // engine ran at the batch max
  // Each request got its own n back.
  std::vector<size_t> sizes;
  for (const BatchResponse& r : collector.responses) {
    sizes.push_back(r.experts.size());
  }
  std::sort(sizes.begin(), sizes.end());
  EXPECT_EQ(sizes, (std::vector<size_t>{3, 50}));
}

TEST(MicroBatcherTest, DeadlinePropagatesIntoBatchQueryOptions) {
  FakeEngine engine;
  BatcherConfig config;
  config.max_batch_size = 2;
  MicroBatcher batcher(config, engine.AsFn());
  Collector plug;
  PlugEngine(&batcher, &engine, &plug);
  Collector collector;
  BatchRequest a = Request("a");
  a.deadline = Clock::now() + std::chrono::seconds(30);
  BatchRequest b = Request("b");
  b.deadline = Clock::now() + std::chrono::seconds(60);
  const auto a_deadline = a.deadline;
  const auto b_deadline = b.deadline;
  ASSERT_TRUE(batcher.Submit(std::move(a), collector.Fn()));
  ASSERT_TRUE(batcher.Submit(std::move(b), collector.Fn()));
  engine.Release();
  ASSERT_TRUE(collector.WaitForCount(2));
  ASSERT_EQ(engine.options_seen.size(), 2u);
  // Each slot carries its own request's deadline, in batch order.
  EXPECT_EQ(engine.options_seen[1].deadlines,
            (std::vector<Clock::time_point>{a_deadline, b_deadline}));
  for (const BatchResponse& r : collector.responses) {
    EXPECT_FALSE(r.deadline_exceeded);
  }
}

TEST(MicroBatcherTest, UnboundedRiderGetsNoSlotDeadline) {
  FakeEngine engine;
  BatcherConfig config;
  config.max_batch_size = 2;
  MicroBatcher batcher(config, engine.AsFn());
  Collector plug;
  PlugEngine(&batcher, &engine, &plug);
  Collector collector;
  BatchRequest a = Request("a");
  a.deadline = Clock::now() + std::chrono::seconds(30);
  const auto a_deadline = a.deadline;
  ASSERT_TRUE(batcher.Submit(std::move(a), collector.Fn()));
  ASSERT_TRUE(batcher.Submit(Request("b"), collector.Fn()));  // no deadline
  engine.Release();
  ASSERT_TRUE(collector.WaitForCount(2));
  ASSERT_EQ(engine.options_seen.size(), 2u);
  // The unbounded request's slot never expires, so the engine cannot
  // stop it at the bounded request's deadline.
  EXPECT_EQ(engine.options_seen[1].deadlines,
            (std::vector<Clock::time_point>{a_deadline,
                                            Clock::time_point::max()}));
}

TEST(MicroBatcherTest, ExpiredRequestsNeverReachTheEngine) {
  FakeEngine engine;
  BatcherConfig config;
  config.max_batch_size = 2;
  MicroBatcher batcher(config, engine.AsFn());
  Collector plug;
  PlugEngine(&batcher, &engine, &plug);
  Collector collector;
  BatchRequest expired = Request("expired");
  expired.deadline = Clock::now() - std::chrono::milliseconds(1);
  ASSERT_TRUE(batcher.Submit(std::move(expired), collector.Fn()));
  ASSERT_TRUE(batcher.Submit(Request("live"), collector.Fn()));
  engine.Release();
  ASSERT_TRUE(collector.WaitForCount(2));
  // Both were cut into one batch, but the engine saw only the live one.
  ASSERT_EQ(engine.batch_sizes.size(), 2u);
  EXPECT_EQ(engine.texts_seen[1], (std::vector<std::string>{"live"}));
  size_t expired_count = 0;
  for (const BatchResponse& r : collector.responses) {
    if (r.deadline_exceeded) {
      ++expired_count;
      EXPECT_TRUE(r.experts.empty());
      EXPECT_EQ(r.batch_size, 0u);
    }
  }
  EXPECT_EQ(expired_count, 1u);
}

TEST(MicroBatcherTest, MissedDeadlineFlaggedAfterSlowBatch) {
  FakeEngine engine;
  engine.sleep_ms = 30.0;
  BatcherConfig config;
  config.max_batch_size = 1;
  MicroBatcher batcher(config, engine.AsFn());
  Collector collector;
  BatchRequest tight = Request("tight");
  tight.deadline = Clock::now() + std::chrono::milliseconds(5);
  ASSERT_TRUE(batcher.Submit(std::move(tight), collector.Fn()));
  ASSERT_TRUE(collector.WaitForCount(1));
  EXPECT_TRUE(collector.responses[0].deadline_exceeded);
}

TEST(MicroBatcherTest, ShedsWhenQueueFull) {
  FakeEngine engine;
  engine.Block();  // first batch wedges the only slot
  BatcherConfig config;
  config.max_batch_size = 1;
  config.max_pending = 2;
  MicroBatcher batcher(config, engine.AsFn());
  Collector collector;
  // First submit is cut into a batch (blocked in the engine);
  // wait until it is inside before filling the queue.
  ASSERT_TRUE(batcher.Submit(Request("in-engine"), collector.Fn()));
  EXPECT_TRUE(engine.WaitForCalls(1));
  ASSERT_TRUE(batcher.Submit(Request("q1"), collector.Fn()));
  ASSERT_TRUE(batcher.Submit(Request("q2"), collector.Fn()));
  // Queue is at max_pending: admission control sheds, callback not run.
  EXPECT_FALSE(batcher.Submit(Request("q3"), collector.Fn()));
  EXPECT_EQ(collector.responses.size(), 0u);
  engine.Release();
  ASSERT_TRUE(collector.WaitForCount(3));
  EXPECT_EQ(collector.responses.size(), 3u);
  batcher.Shutdown();
}

TEST(MicroBatcherTest, ShutdownDrainsEveryQueuedRequest) {
  FakeEngine engine;
  BatcherConfig config;
  config.max_batch_size = 2;
  config.max_pending = 64;
  MicroBatcher batcher(config, engine.AsFn());
  Collector plug;
  PlugEngine(&batcher, &engine, &plug);
  Collector collector;
  for (int i = 0; i < 7; ++i) {
    ASSERT_TRUE(batcher.Submit(Request(Numbered(i)), collector.Fn()));
  }
  // Shutdown begins with all 7 queued behind the wedged engine and must
  // still run every one of them (the release only unwedges the plug).
  std::thread release([&engine] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    engine.Release();
  });
  batcher.Shutdown();
  release.join();
  EXPECT_EQ(plug.responses.size(), 1u);
  ASSERT_EQ(collector.responses.size(), 7u);
  EXPECT_EQ(engine.batch_sizes, (std::vector<size_t>{1, 2, 2, 2, 1}));
  for (const BatchResponse& r : collector.responses) {
    EXPECT_FALSE(r.deadline_exceeded);
    EXPECT_EQ(r.experts.size(), 5u);  // real engine answers, not drops
  }
  // After shutdown, admission is closed (and sheds without callback).
  EXPECT_FALSE(batcher.Submit(Request("late"), collector.Fn()));
  EXPECT_EQ(collector.responses.size(), 7u);
}

TEST(MicroBatcherTest, DestructorDrains) {
  FakeEngine engine;
  Collector collector;
  {
    BatcherConfig config;
    config.max_batch_size = 8;
    MicroBatcher batcher(config, engine.AsFn());
    for (int i = 0; i < 3; ++i) {
      ASSERT_TRUE(batcher.Submit(Request("q"), collector.Fn()));
    }
  }
  EXPECT_EQ(collector.responses.size(), 3u);
}

TEST(MicroBatcherTest, ConcurrentSubmittersAllComplete) {
  FakeEngine engine;
  BatcherConfig config;
  config.max_batch_size = 8;
  config.max_pending = 1024;
  MicroBatcher batcher(config, engine.AsFn());
  Collector collector;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 50;
  std::atomic<int> accepted{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) {
        if (batcher.Submit(Request("q"), collector.Fn())) {
          accepted.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  ASSERT_TRUE(collector.WaitForCount(static_cast<size_t>(accepted.load())));
  EXPECT_EQ(collector.responses.size(),
            static_cast<size_t>(accepted.load()));
  EXPECT_EQ(accepted.load(), kThreads * kPerThread);  // queue never filled
}

// Batches run one per pool worker: on a 3-worker pool three lone
// requests enter the engine together, and a fourth waits in the queue
// until a slot frees, then rides the next batch alone.
TEST(MicroBatcherTest, RunsOneBatchPerPoolWorkerAtOnce) {
  FakeEngine engine;
  engine.Block();
  ThreadPool pool(3);
  BatcherConfig config;
  config.max_batch_size = 8;
  config.pool = &pool;
  MicroBatcher batcher(config, engine.AsFn());
  Collector collector;
  // Each request is submitted once the previous one is inside the
  // engine, so it arrives alone; EXPECT, not ASSERT, so the engine is
  // released whatever happens.
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(batcher.Submit(Request(Numbered(i)), collector.Fn()));
    EXPECT_TRUE(engine.WaitForCalls(static_cast<size_t>(i) + 1));
  }
  EXPECT_EQ(batcher.PendingForTest(), 0u);
  ASSERT_TRUE(batcher.Submit(Request("q3"), collector.Fn()));
  EXPECT_EQ(batcher.PendingForTest(), 1u);  // every slot is busy
  engine.Release();
  ASSERT_TRUE(collector.WaitForCount(4));
  ASSERT_EQ(engine.NumCalls(), 4u);
  EXPECT_EQ(engine.batch_sizes, (std::vector<size_t>{1, 1, 1, 1}));
  EXPECT_EQ(engine.texts_seen[3], (std::vector<std::string>{"q3"}));
  for (const BatchResponse& r : collector.responses) {
    EXPECT_EQ(r.batch_size, 1u);
  }
}

// Shutdown with every slot wedged and more requests queued behind them:
// it returns only after each callback ran exactly once, and none runs
// after it returned.
TEST(MicroBatcherTest, ShutdownWaitsForEverySlot) {
  constexpr size_t kSlots = 3;
  constexpr int kQueued = 5;
  FakeEngine engine;
  engine.Block();
  ThreadPool pool(kSlots);
  BatcherConfig config;
  config.max_batch_size = 2;
  config.pool = &pool;
  MicroBatcher batcher(config, engine.AsFn());
  constexpr size_t kTotal = kSlots + kQueued;
  std::vector<std::atomic<int>> calls(kTotal);
  std::atomic<bool> returned{false};
  std::atomic<int> late{0};
  auto done_for = [&](size_t i) {
    return [&, i](BatchResponse) {
      if (returned.load()) late.fetch_add(1);
      calls[i].fetch_add(1);
    };
  };
  for (size_t i = 0; i < kSlots; ++i) {
    ASSERT_TRUE(batcher.Submit(Request(Numbered(static_cast<int>(i))),
                               done_for(i)));
    EXPECT_TRUE(engine.WaitForCalls(i + 1));  // one batch per slot
  }
  for (size_t i = kSlots; i < kTotal; ++i) {
    ASSERT_TRUE(batcher.Submit(Request(Numbered(static_cast<int>(i))),
                               done_for(i)));
  }
  EXPECT_EQ(batcher.PendingForTest(), static_cast<size_t>(kQueued));
  std::thread release([&engine] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    engine.Release();
  });
  batcher.Shutdown();
  returned.store(true);
  release.join();
  for (size_t i = 0; i < kTotal; ++i) {
    EXPECT_EQ(calls[i].load(), 1) << "request " << i;
  }
  EXPECT_EQ(late.load(), 0);
  EXPECT_EQ(batcher.PendingForTest(), 0u);
  EXPECT_FALSE(batcher.Submit(Request("late"), done_for(0)));
}

// Submit racing Shutdown (and the destructor racing slot tasks that are
// still starting or finishing): every accepted request is answered once,
// before Shutdown or the destructor returns.
TEST(MicroBatcherTest, SubmitRacingShutdownAnswersEveryAcceptedRequest) {
  FakeEngine engine;
  ThreadPool shared_pool(2);
  for (int round = 0; round < 200; ++round) {
    const bool via_shutdown = round % 2 == 0;
    BatcherConfig config;
    config.max_batch_size = 3;
    config.max_pending = 1024;
    // Odd rounds run on the batcher's private one-worker pool.
    config.pool = via_shutdown ? &shared_pool : nullptr;
    auto batcher = std::make_unique<MicroBatcher>(config, engine.AsFn());
    std::atomic<int> accepted{0};
    std::atomic<int> answered{0};
    std::atomic<bool> returned{false};
    std::atomic<int> late{0};
    auto done = [&](BatchResponse) {
      if (returned.load()) late.fetch_add(1);
      answered.fetch_add(1);
    };
    if (via_shutdown) {
      std::thread submitter([&] {
        for (int i = 0; i < 64; ++i) {
          if (!batcher->Submit(Request("q"), done)) break;
          accepted.fetch_add(1);
        }
      });
      batcher->Shutdown();
      returned.store(true);
      submitter.join();
      batcher.reset();
    } else {
      for (int i = 0; i < round % 7 + 1; ++i) {
        ASSERT_TRUE(batcher->Submit(Request("q"), done));
        accepted.fetch_add(1);
      }
      batcher.reset();
      returned.store(true);
    }
    ASSERT_EQ(answered.load(), accepted.load()) << "round " << round;
    ASSERT_EQ(late.load(), 0) << "round " << round;
  }
}

// Regression (PR 8): a short-deadline request batched with an unbounded
// one used to inherit the batch's LATEST deadline — the engine kept
// working on it long past its own budget and the caller got a late 200
// instead of a timely 504. Per-slot deadlines fix both sides: the
// engine sees each slot's own budget, and the unbounded rider is
// unaffected.
TEST(MicroBatcherTest, MixedDeadlinesPropagatePerSlot) {
  FakeEngine engine;
  BatcherConfig config;
  config.max_batch_size = 2;
  MicroBatcher batcher(config, engine.AsFn());
  Collector plug;
  PlugEngine(&batcher, &engine, &plug);
  engine.SetSleepMs(100.0);  // the next batch outlives the tight deadline
  Collector collector;
  BatchRequest tight = Request("tight");
  // Far enough out to survive queueing, well inside the engine sleep.
  const auto tight_deadline = Clock::now() + std::chrono::milliseconds(25);
  tight.deadline = tight_deadline;
  ASSERT_TRUE(batcher.Submit(std::move(tight), collector.Fn()));
  ASSERT_TRUE(batcher.Submit(Request("unbounded"), collector.Fn()));
  engine.Release();
  ASSERT_TRUE(collector.WaitForCount(2));

  ASSERT_EQ(engine.options_seen.size(), 2u);
  const BatchQueryOptions& options = engine.options_seen[1];
  // Each slot's own budget rode along; the unbounded rider's never
  // expires, so it finishes.
  ASSERT_EQ(options.deadlines.size(), 2u);
  EXPECT_EQ(options.deadlines[0], tight_deadline);
  EXPECT_EQ(options.deadlines[1], Clock::time_point::max());

  // Exactly the tight request is flagged; the unbounded one is whole.
  size_t exceeded = 0;
  for (const BatchResponse& r : collector.responses) {
    if (r.deadline_exceeded) {
      ++exceeded;
    } else {
      EXPECT_EQ(r.experts.size(), 5u);
    }
  }
  EXPECT_EQ(exceeded, 1u);
}

TEST(MicroBatcherTest, NoDeadlinesMeansNoSlotDeadlineVector) {
  FakeEngine engine;
  BatcherConfig config;
  config.max_batch_size = 2;
  MicroBatcher batcher(config, engine.AsFn());
  Collector plug;
  PlugEngine(&batcher, &engine, &plug);
  Collector collector;
  ASSERT_TRUE(batcher.Submit(Request("a"), collector.Fn()));
  ASSERT_TRUE(batcher.Submit(Request("b"), collector.Fn()));
  engine.Release();
  ASSERT_TRUE(collector.WaitForCount(2));
  ASSERT_EQ(engine.options_seen.size(), 2u);
  EXPECT_EQ(engine.batch_sizes[1], 2u);
  EXPECT_TRUE(engine.options_seen[1].deadlines.empty());
}

// Regression: the engine used to run the coalesced batch at the
// unclamped max top_n, so one n=100000 request inflated ranking work for
// every rider. The one cap is ServiceConfig::max_top_n, applied when the
// request is parsed, so no oversized n ever reaches the batcher.
TEST(MicroBatcherTest, OversizedTopNIsClampedToConfigCap) {
  FakeEngine engine;
  ServiceConfig config;
  config.batcher.max_batch_size = 2;
  config.max_top_n = 50;
  std::mutex mutex;
  std::condition_variable cv;
  std::vector<HttpResponse> responses;
  ExpertSearchService service(config, EngineInfo(), engine.AsFn());
  auto find_experts = [&](const std::string& body) {
    HttpRequest request;
    request.method = "POST";
    request.target = "/v1/find_experts";
    request.body = body;
    service.Handle(request, [&](HttpResponse response) {
      std::lock_guard<std::mutex> lock(mutex);
      responses.push_back(std::move(response));
      cv.notify_all();
    });
  };
  // Plug the engine so the next two requests coalesce into one batch.
  engine.Block();
  find_experts(R"({"query":"plug","n":1})");
  ASSERT_TRUE(engine.WaitForCalls(1));
  find_experts(R"({"query":"huge","n":100000})");
  find_experts(R"({"query":"small","n":3})");
  ASSERT_EQ(service.PendingForTest(), 2u);
  engine.Release();
  {
    std::unique_lock<std::mutex> lock(mutex);
    ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(5),
                            [&] { return responses.size() >= 3; }));
  }
  service.Drain();
  ASSERT_EQ(engine.top_ns.size(), 2u);
  EXPECT_EQ(engine.batch_sizes[1], 2u);
  EXPECT_EQ(engine.top_ns[1], 50u);  // clamped batch max, not 100000
  std::vector<size_t> sizes;
  for (const HttpResponse& r : responses) {
    ASSERT_EQ(r.status, 200) << r.body;
    JsonValue doc;
    std::string error;
    ASSERT_TRUE(ParseJson(r.body, &doc, &error)) << error;
    const JsonValue* experts = doc.Find("experts");
    ASSERT_NE(experts, nullptr);
    sizes.push_back(experts->array_items.size());
  }
  std::sort(sizes.begin(), sizes.end());
  // The oversized request is answered with the cap, not its ask.
  EXPECT_EQ(sizes, (std::vector<size_t>{1, 3, 50}));
}

// ROADMAP leftover (PR 7 → PR 8): the batcher must hand its configured
// pool to the engine, so the per-query tasks actually fan out over it
// instead of silently falling back to the engine's default pool.
TEST(MicroBatcherTest, ConfiguredPoolReachesBatchQueryOptions) {
  FakeEngine engine;
  ThreadPool pool(2);
  BatcherConfig config;
  config.max_batch_size = 1;
  config.pool = &pool;
  MicroBatcher batcher(config, engine.AsFn());
  Collector collector;
  ASSERT_TRUE(batcher.Submit(Request("q"), collector.Fn()));
  ASSERT_TRUE(collector.WaitForCount(1));
  ASSERT_EQ(engine.options_seen.size(), 1u);
  EXPECT_EQ(engine.options_seen[0].pool, &pool);
}

}  // namespace
}  // namespace kpef::serve
