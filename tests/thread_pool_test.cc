#include <atomic>
#include <chrono>
#include <numeric>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/thread_pool.h"

namespace kpef {
namespace {

TEST(ThreadPoolTest, RunsSubmittedTasks) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.num_threads(), 3u);
  std::atomic<int> counter{0};
  TaskGroup group(pool);
  for (int i = 0; i < 50; ++i) {
    group.Submit([&counter] { counter.fetch_add(1); });
  }
  group.Wait();
  EXPECT_EQ(counter.load(), 50);
}

TEST(ThreadPoolTest, WaitOnIdlePoolReturnsImmediately) {
  ThreadPool pool(2);
  TaskGroup group(pool);
  group.Wait();
  SUCCEED();
}

TEST(ThreadPoolTest, DestructorJoinsCleanly) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(4);
    TaskGroup group(pool);
    for (int i = 0; i < 20; ++i) group.Submit([&counter] { ++counter; });
    group.Wait();
  }
  EXPECT_EQ(counter.load(), 20);
}

// A submit wakes the most recently parked worker, so sequential tasks on
// an otherwise idle pool all run on one (cache-warm) worker instead of
// rotating across the pool. Each task is awaited without helping, and
// the next is submitted only once its worker has parked again.
TEST(ThreadPoolTest, IdlePoolWakesMostRecentlyBusyWorker) {
  constexpr size_t kWorkers = 4;
  ThreadPool pool(kWorkers);
  auto all_parked = [&pool] {
    for (int i = 0; i < 5000; ++i) {
      if (pool.IdleWorkersForTest() == kWorkers) return true;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return false;
  };
  ASSERT_TRUE(all_parked());
  std::set<std::thread::id> ran_on;
  TaskGroup group(pool);
  for (int i = 0; i < 20; ++i) {
    std::atomic<bool> ran{false};
    std::thread::id id;
    group.Submit([&ran, &id] {
      id = std::this_thread::get_id();
      ran.store(true, std::memory_order_release);
    });
    while (!ran.load(std::memory_order_acquire)) std::this_thread::yield();
    ran_on.insert(id);
    ASSERT_TRUE(all_parked());
  }
  group.Wait();
  EXPECT_EQ(ran_on.size(), 1u);
  EXPECT_EQ(ran_on.count(std::this_thread::get_id()), 0u);
}

TEST(ParallelForTest, CoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  for (size_t count : {0u, 1u, 3u, 7u, 100u, 1000u}) {
    std::vector<std::atomic<int>> hits(count);
    ParallelFor(pool, count, [&](size_t i) { hits[i].fetch_add(1); });
    for (size_t i = 0; i < count; ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "index " << i;
    }
  }
}

TEST(ParallelForTest, SingleThreadedPoolDegeneratesToLoop) {
  ThreadPool pool(1);
  std::vector<int> order;
  ParallelFor(pool, 10, [&](size_t i) { order.push_back(static_cast<int>(i)); });
  std::vector<int> expected(10);
  std::iota(expected.begin(), expected.end(), 0);
  EXPECT_EQ(order, expected);  // in-order execution on one thread
}

TEST(ParallelForTest, ResultsMatchSerialComputation) {
  ThreadPool pool(4);
  const size_t n = 5000;
  std::vector<double> parallel_out(n), serial_out(n);
  auto f = [](size_t i) {
    return static_cast<double>(i) * 0.5 + static_cast<double>(i % 7);
  };
  ParallelFor(pool, n, [&](size_t i) { parallel_out[i] = f(i); });
  for (size_t i = 0; i < n; ++i) serial_out[i] = f(i);
  EXPECT_EQ(parallel_out, serial_out);
}

TEST(ParallelForTest, DefaultPoolWorks) {
  std::atomic<size_t> total{0};
  ParallelFor(100, [&](size_t i) { total.fetch_add(i); });
  EXPECT_EQ(total.load(), 4950u);
}

// The acceptance case for the TaskGroup executor: a ParallelFor issued
// from inside a pool task must complete instead of deadlocking the
// worker on its own pool's queue.
TEST(ParallelForTest, NestedParallelForCompletes) {
  ThreadPool pool(4);
  const size_t outer = 8, inner = 64;
  std::vector<std::vector<std::atomic<int>>> hits(outer);
  for (auto& row : hits) {
    row = std::vector<std::atomic<int>>(inner);
  }
  ParallelFor(pool, outer, [&](size_t o) {
    ParallelFor(pool, inner, [&](size_t i) { hits[o][i].fetch_add(1); });
  });
  for (size_t o = 0; o < outer; ++o) {
    for (size_t i = 0; i < inner; ++i) {
      ASSERT_EQ(hits[o][i].load(), 1) << o << "," << i;
    }
  }
}

TEST(ParallelForTest, DeeplyNestedOnTinyPool) {
  // Two workers, three levels of nesting: only helping joins can finish
  // this — there are never enough workers to park one per level.
  ThreadPool pool(2);
  std::atomic<int> leaves{0};
  ParallelFor(pool, 4, [&](size_t) {
    ParallelFor(pool, 4, [&](size_t) {
      ParallelFor(pool, 4, [&](size_t) { leaves.fetch_add(1); });
    });
  });
  EXPECT_EQ(leaves.load(), 64);
}

TEST(ParallelForTest, ExceptionPropagatesAndPoolSurvives) {
  ThreadPool pool(4);
  EXPECT_THROW(
      ParallelFor(pool, 256,
                  [&](size_t i) {
                    if (i == 97) throw std::runtime_error("boom");
                  }),
      std::runtime_error);
  // The pool must stay usable: the exception cancelled the group, not
  // the workers.
  std::atomic<int> counter{0};
  ParallelFor(pool, 100, [&](size_t) { counter.fetch_add(1); });
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, SubmittedTaskExceptionRethrownAtWait) {
  ThreadPool pool(2);
  TaskGroup group(pool);
  group.Submit([] { throw std::logic_error("task failed"); });
  EXPECT_THROW(group.Wait(), std::logic_error);
  // The group resets after the throwing join; later batches are clean.
  std::atomic<int> counter{0};
  group.Submit([&counter] { counter.fetch_add(1); });
  group.Wait();
  EXPECT_EQ(counter.load(), 1);
}

TEST(TaskGroupTest, FirstExceptionCancelsRemainingGroupTasks) {
  ThreadPool pool(2);
  TaskGroup group(pool);
  std::atomic<int> ran{0};
  group.Submit([] { throw std::runtime_error("first"); });
  // Give the throwing task a head start so most of the rest are still
  // queued when the group flips to cancelled.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  for (int i = 0; i < 1000; ++i) {
    group.Submit([&ran] { ran.fetch_add(1); });
  }
  EXPECT_THROW(group.Wait(), std::runtime_error);
  EXPECT_LT(ran.load(), 1000);
}

TEST(TaskGroupTest, ConcurrentCallersWaitOnlyForTheirOwnGroup) {
  ThreadPool pool(4);
  std::atomic<bool> release_slow{false};
  TaskGroup slow(pool);
  slow.Submit([&release_slow] {
    while (!release_slow.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  // A fast group joined while the slow group still runs: its Wait()
  // must return without waiting on the foreign task.
  std::atomic<int> fast_done{0};
  TaskGroup fast(pool);
  for (int i = 0; i < 16; ++i) {
    fast.Submit([&fast_done] { fast_done.fetch_add(1); });
  }
  fast.Wait();
  EXPECT_EQ(fast_done.load(), 16);
  release_slow.store(true);
  slow.Wait();
}

TEST(ParallelForTest, TwoThreadsDriveOnePoolConcurrently) {
  ThreadPool pool(4);
  std::atomic<size_t> total_a{0}, total_b{0};
  std::thread a([&] {
    for (int round = 0; round < 20; ++round) {
      ParallelFor(pool, 200, [&](size_t i) { total_a.fetch_add(i); });
    }
  });
  std::thread b([&] {
    for (int round = 0; round < 20; ++round) {
      ParallelFor(pool, 200, [&](size_t i) { total_b.fetch_add(i); });
    }
  });
  a.join();
  b.join();
  EXPECT_EQ(total_a.load(), 20u * 19900u);
  EXPECT_EQ(total_b.load(), 20u * 19900u);
}

TEST(ThreadPoolContextTest, QueueDepthAndActiveWorkersObservable) {
  ThreadPool pool(2);
  EXPECT_EQ(pool.QueueDepth(), 0u);
  EXPECT_EQ(pool.ActiveWorkers(), 0u);
  std::atomic<bool> release{false};
  std::atomic<int> started{0};
  TaskGroup group(pool);
  for (int i = 0; i < 2; ++i) {
    group.Submit([&release, &started] {
      started.fetch_add(1);
      while (!release.load()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    });
  }
  while (started.load() < 2) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(pool.ActiveWorkers(), 2u);
  group.Submit([] {});  // both workers busy: this one queues
  EXPECT_GE(pool.QueueDepth(), 1u);
  release.store(true);
  group.Wait();
  EXPECT_EQ(pool.QueueDepth(), 0u);
  EXPECT_EQ(pool.ActiveWorkers(), 0u);
}

}  // namespace
}  // namespace kpef
