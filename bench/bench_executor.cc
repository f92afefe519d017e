// Executor microbenchmarks: ParallelFor dispatch overhead, nested
// fan-out (the helping-join path), TaskGroup submit/wait throughput
// with concurrent callers.

#include <benchmark/benchmark.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "common/thread_pool.h"

namespace {

using namespace kpef;

ThreadPool& Pool() {
  static auto* pool = new ThreadPool(std::thread::hardware_concurrency());
  return *pool;
}

// Touches a few cache lines per index so the loop body is cheap but not
// empty — dispatch overhead dominates, as in the engine's phase loops.
uint64_t Work(size_t i) {
  uint64_t h = i * 0x9E3779B97F4A7C15ull;
  h ^= h >> 32;
  h *= 0xD6E8FEB86659FD93ull;
  return h ^ (h >> 29);
}

void BM_ParallelForFlat(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  std::atomic<uint64_t> sink{0};
  for (auto _ : state) {
    std::atomic<uint64_t> total{0};
    ParallelFor(Pool(), n, [&](size_t i) { total.fetch_add(Work(i)); });
    sink.fetch_add(total.load());
  }
  benchmark::DoNotOptimize(sink.load());
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_ParallelForFlat)->Arg(1 << 10)->Arg(1 << 14)->Arg(1 << 18);

// Nested fan-out on one shared pool: every outer task joins an inner
// group, so the inner Wait() exercises the helping join.
void BM_ParallelForNested(benchmark::State& state) {
  const size_t outer = static_cast<size_t>(state.range(0));
  const size_t inner = static_cast<size_t>(state.range(1));
  for (auto _ : state) {
    std::atomic<uint64_t> total{0};
    ParallelFor(Pool(), outer, [&](size_t o) {
      ParallelFor(Pool(), inner,
                  [&](size_t i) { total.fetch_add(Work(o * inner + i)); });
    });
    benchmark::DoNotOptimize(total.load());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(outer * inner));
}
BENCHMARK(BM_ParallelForNested)->Args({8, 1 << 12})->Args({64, 1 << 9});

// Several threads each driving their own TaskGroup on one pool —
// the serving pattern: concurrent FindExpertsBatch callers.
void BM_ConcurrentGroups(benchmark::State& state) {
  const int callers = static_cast<int>(state.range(0));
  constexpr size_t kPerCaller = 1 << 12;
  for (auto _ : state) {
    std::vector<std::thread> threads;
    threads.reserve(callers);
    std::atomic<uint64_t> total{0};
    for (int c = 0; c < callers; ++c) {
      threads.emplace_back([&total, c] {
        ParallelFor(Pool(), kPerCaller, [&total, c](size_t i) {
          total.fetch_add(Work(c * kPerCaller + i));
        });
      });
    }
    for (std::thread& t : threads) t.join();
    benchmark::DoNotOptimize(total.load());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          callers * static_cast<int64_t>(kPerCaller));
}
BENCHMARK(BM_ConcurrentGroups)->Arg(2)->Arg(4)->Arg(8);

}  // namespace

BENCHMARK_MAIN();
