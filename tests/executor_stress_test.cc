// Stress cases for the TaskGroup executor: many concurrent callers,
// random nesting, exceptions and group cancellation under load. Kept brief
// (a few seconds) so it can run in every CI configuration, including
// TSan (`ctest -R executor_stress`).

#include <atomic>
#include <chrono>
#include <cstdint>
#include <stdexcept>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/thread_pool.h"

namespace kpef {
namespace {

TEST(ExecutorStressTest, ManyConcurrentCallersOnSharedPool) {
  ThreadPool pool(4);
  constexpr int kCallers = 8;
  constexpr int kRounds = 25;
  constexpr size_t kCount = 300;
  std::vector<std::atomic<uint64_t>> totals(kCallers);
  std::vector<std::thread> callers;
  callers.reserve(kCallers);
  for (int c = 0; c < kCallers; ++c) {
    callers.emplace_back([&, c] {
      for (int round = 0; round < kRounds; ++round) {
        ParallelFor(pool, kCount,
                    [&](size_t i) { totals[c].fetch_add(i + 1); });
      }
    });
  }
  for (std::thread& t : callers) t.join();
  const uint64_t per_round = kCount * (kCount + 1) / 2;
  for (int c = 0; c < kCallers; ++c) {
    EXPECT_EQ(totals[c].load(), per_round * kRounds) << "caller " << c;
  }
}

TEST(ExecutorStressTest, RandomDepthNestingFromConcurrentCallers) {
  ThreadPool pool(3);
  std::atomic<uint64_t> leaves{0};
  // Each caller fans out 3 levels deep on the same 3-worker pool; the
  // only way this terminates is helping joins all the way down.
  auto tree = [&](auto&& self, int depth) -> void {
    if (depth == 0) {
      leaves.fetch_add(1);
      return;
    }
    ParallelFor(pool, 3, [&](size_t) { self(self, depth - 1); });
  };
  std::vector<std::thread> callers;
  for (int c = 0; c < 4; ++c) {
    callers.emplace_back([&] { tree(tree, 3); });
  }
  for (std::thread& t : callers) t.join();
  EXPECT_EQ(leaves.load(), 4u * 27u);
}

TEST(ExecutorStressTest, ExceptionStormLeavesPoolUsable) {
  ThreadPool pool(4);
  int caught = 0;
  for (int round = 0; round < 50; ++round) {
    try {
      ParallelFor(pool, 64, [&](size_t i) {
        if (i % 17 == 3) throw std::runtime_error("storm");
      });
    } catch (const std::runtime_error&) {
      ++caught;
    }
  }
  EXPECT_EQ(caught, 50);
  std::atomic<int> counter{0};
  ParallelFor(pool, 1000, [&](size_t) { counter.fetch_add(1); });
  EXPECT_EQ(counter.load(), 1000);
}

TEST(ExecutorStressTest, CancellationUnderLoadNeverWedges) {
  ThreadPool pool(4);
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> background{0};
  // Competing traffic on the same pool while groups are cancelled.
  std::thread looper([&] {
    while (!stop.load()) {
      ParallelFor(pool, 200, [&](size_t) { background.fetch_add(1); });
    }
  });
  for (int round = 0; round < 20; ++round) {
    TaskGroup group(pool);
    std::atomic<int> ran{0};
    const int cancel_at = round % 3 == 0 ? 0 : 50 * round;
    for (int i = 0; i < 5000; ++i) {
      group.Submit([&, i] {
        if (i == cancel_at) throw std::runtime_error("cancel");
        ran.fetch_add(1);
        std::this_thread::yield();
      });
    }
    EXPECT_THROW(group.Wait(), std::runtime_error);
    // Tasks dequeued after the throw cancelled the group are skipped,
    // not run.
    EXPECT_LT(ran.load(), 4999);
  }
  stop.store(true);
  looper.join();
  EXPECT_GT(background.load(), 0u);
  // And the pool still completes ordinary work afterwards.
  std::atomic<int> counter{0};
  ParallelFor(pool, 500, [&](size_t) { counter.fetch_add(1); });
  EXPECT_EQ(counter.load(), 500);
}

TEST(ExecutorStressTest, MixedSubmitAndParallelForTraffic) {
  ThreadPool pool(4);
  std::atomic<uint64_t> submit_total{0};
  std::atomic<uint64_t> loop_total{0};
  std::thread submitter([&] {
    TaskGroup group(pool);
    for (int i = 0; i < 2000; ++i) {
      group.Submit([&submit_total] { submit_total.fetch_add(1); });
    }
    group.Wait();
  });
  std::thread looper([&] {
    for (int round = 0; round < 20; ++round) {
      ParallelFor(pool, 500, [&](size_t) { loop_total.fetch_add(1); });
    }
  });
  submitter.join();
  looper.join();
  EXPECT_EQ(submit_total.load(), 2000u);
  EXPECT_EQ(loop_total.load(), 20u * 500u);
}

}  // namespace
}  // namespace kpef
