// PR-2 acceptance bench: SIMD kernel throughput (scalar vs dispatched),
// parallel NNDescent / PG-Index build time (1 worker vs a pool), and
// PG-Index query throughput (per-query Search vs SearchBatch).
//
// Writes BENCH_pr2.json into the current working directory. Run from the
// repo root so the artifact lands next to the sources:
//
//   ./build/bench/bench_pr2_kernels
//
// The kernel section reports GB/s over L1-resident operands so it measures
// arithmetic throughput, not memory bandwidth. On machines without AVX2
// (or with KPEF_SIMD=scalar) the dispatched kernel equals the scalar one
// and the speedups come out at ~1.0 — the JSON records the kernel name so
// that case is self-describing.

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "ann/brute_force.h"
#include "ann/nndescent.h"
#include "ann/pg_index.h"
#include "common/aligned_buffer.h"
#include "common/logging.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "embed/matrix.h"
#include "embed/vector_ops.h"

namespace {

using namespace kpef;

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// --- Kernel throughput ------------------------------------------------

// The pre-PR implementation (see git history of embed/vector_ops.cc):
// double-precision accumulation through a single serial dependency chain,
// which the compiler cannot vectorize (float reduction reassociation is
// not allowed at default flags). This is the baseline the PR's speedup is
// measured against.
float BaselineDot(const float* a, const float* b, size_t n) {
  double sum = 0.0;
  for (size_t i = 0; i < n; ++i) {
    sum += static_cast<double>(a[i]) * b[i];
  }
  return static_cast<float>(sum);
}

float BaselineSquaredL2(const float* a, const float* b, size_t n) {
  double sum = 0.0;
  for (size_t i = 0; i < n; ++i) {
    const double d = static_cast<double>(a[i]) - b[i];
    sum += d * d;
  }
  return static_cast<float>(sum);
}

struct KernelResult {
  std::string name;
  double dot_gbps = 0.0;
  double l2_gbps = 0.0;
};

// Times `reps` kernel calls over two `dim`-float operands and converts to
// GB/s of operand traffic (2 vectors * 4 bytes/float per call).
KernelResult TimeKernel(const DistanceKernel& kernel, size_t dim,
                        size_t reps) {
  Rng rng(1234);
  AlignedVector a(dim), b(dim);
  for (float& v : a) v = static_cast<float>(rng.Normal());
  for (float& v : b) v = static_cast<float>(rng.Normal());
  const double bytes =
      static_cast<double>(reps) * 2.0 * static_cast<double>(dim) * 4.0;

  KernelResult result;
  result.name = kernel.name;
  // Fold every call's output into a sink so the loop cannot be hoisted.
  volatile float sink = 0.0f;

  auto start = Clock::now();
  for (size_t r = 0; r < reps; ++r) sink = sink + kernel.dot(a.data(), b.data(), dim);
  result.dot_gbps = bytes / SecondsSince(start) / 1e9;

  start = Clock::now();
  for (size_t r = 0; r < reps; ++r) {
    sink = sink + kernel.squared_l2(a.data(), b.data(), dim);
  }
  result.l2_gbps = bytes / SecondsSince(start) / 1e9;
  return result;
}

// --- Shared clustered point set ---------------------------------------

Matrix MakePoints(size_t n, size_t dim, size_t clusters, uint64_t seed) {
  Rng rng(seed);
  Matrix centers(clusters, dim);
  for (size_t r = 0; r < centers.rows(); ++r) {
    for (float& v : centers.Row(r)) v = static_cast<float>(rng.Normal(0, 3));
  }
  Matrix points(n, dim);
  for (size_t i = 0; i < n; ++i) {
    const size_t c = rng.Uniform(clusters);
    for (size_t k = 0; k < dim; ++k) {
      points.At(i, k) = centers.At(c, k) + static_cast<float>(rng.Normal(0, 1));
    }
  }
  return points;
}

}  // namespace

int main() {
  SetLogLevel(LogLevel::kError);
  const size_t hw_threads = ThreadPool::Default().num_threads();

  // 1. Kernel throughput: L1-resident operands, representative embedding
  //    width. reps sized for ~100ms+ per timing at scalar speed.
  const size_t kDim = 128;
  const size_t kReps = 4'000'000;
  const DistanceKernel baseline_kernel = {"pre_pr_baseline", BaselineDot,
                                          BaselineSquaredL2,
                                          nullptr,  // axpy
                                          nullptr,  // scale
                                          nullptr}; // sq8_asym_l2
  const KernelResult baseline = TimeKernel(baseline_kernel, kDim, kReps / 4);
  const KernelResult scalar = TimeKernel(ScalarKernel(), kDim, kReps);
  const KernelResult active = TimeKernel(ActiveKernel(), kDim, kReps);
  const double dot_speedup = active.dot_gbps / baseline.dot_gbps;
  const double l2_speedup = active.l2_gbps / baseline.l2_gbps;
  std::printf("kernel  pre-PR baseline: dot %.2f GB/s  l2 %.2f GB/s\n",
              baseline.dot_gbps, baseline.l2_gbps);
  std::printf("kernel  scalar: dot %.2f GB/s  l2 %.2f GB/s\n",
              scalar.dot_gbps, scalar.l2_gbps);
  std::printf(
      "kernel  %s: dot %.2f GB/s (%.2fx vs pre-PR)  l2 %.2f GB/s (%.2fx)\n",
      active.name.c_str(), active.dot_gbps, dot_speedup, active.l2_gbps,
      l2_speedup);

  // 2. NNDescent build: one worker vs a pool. On single-core machines the
  //    pool adds scheduling overhead and both times are similar; the JSON
  //    records the worker counts so readers can interpret the ratio.
  const Matrix points = MakePoints(4000, 64, 40, 5150);
  NNDescentConfig nnd;
  nnd.k = 10;
  ThreadPool one(1);
  nnd.pool = &one;
  auto start = Clock::now();
  const KnnGraph g1 = BuildKnnGraph(points, nnd);
  const double nnd_serial_s = SecondsSince(start);
  nnd.pool = nullptr;  // ThreadPool::Default()
  start = Clock::now();
  const KnnGraph gp = BuildKnnGraph(points, nnd);
  const double nnd_pool_s = SecondsSince(start);
  KPEF_CHECK(g1.neighbors == gp.neighbors)
      << "NNDescent must be bit-identical across pool sizes";
  std::printf("nndescent  1 worker: %.3fs   %zu workers: %.3fs\n",
              nnd_serial_s, hw_threads, nnd_pool_s);

  // 3. PG-Index build (kNN + refine + extension) under the same pools.
  PGIndexConfig pg;
  pg.knn_k = 10;
  pg.nndescent.pool = &one;
  start = Clock::now();
  const PGIndex index = PGIndex::Build(points, pg);
  const double build_serial_s = SecondsSince(start);
  pg.nndescent.pool = nullptr;
  start = Clock::now();
  const PGIndex index_pool = PGIndex::Build(points, pg);
  const double build_pool_s = SecondsSince(start);
  std::printf("pgindex build  1 worker: %.3fs   %zu workers: %.3fs\n",
              build_serial_s, hw_threads, build_pool_s);

  // 4. Query throughput: per-query Search vs SearchBatch over the same
  //    query stream.
  const size_t kBatch = 64;
  const size_t kTopK = 10;
  const size_t kEf = 60;
  Matrix queries(kBatch, points.cols());
  {
    Rng rng(777);
    for (size_t q = 0; q < kBatch; ++q) {
      const size_t anchor = rng.Uniform(points.rows());
      for (size_t k = 0; k < points.cols(); ++k) {
        queries.At(q, k) =
            points.At(anchor, k) + static_cast<float>(rng.Normal(0, 0.5));
      }
    }
  }
  const int kRounds = 50;
  size_t checksum = 0;
  start = Clock::now();
  for (int r = 0; r < kRounds; ++r) {
    for (size_t q = 0; q < kBatch; ++q) {
      checksum += index.Search(queries.Row(q), kTopK, kEf).size();
    }
  }
  const double single_s = SecondsSince(start);
  start = Clock::now();
  for (int r = 0; r < kRounds; ++r) {
    for (const auto& res : index.SearchBatch(queries, kTopK, kEf)) {
      checksum += res.size();
    }
  }
  const double batch_s = SecondsSince(start);
  const double queries_total = static_cast<double>(kRounds) * kBatch;
  const double single_qps = queries_total / single_s;
  const double batch_qps = queries_total / batch_s;
  std::printf("pgindex search  single: %.0f q/s   batched: %.0f q/s\n",
              single_qps, batch_qps);
  KPEF_CHECK(checksum > 0);

  FILE* out = std::fopen("BENCH_pr2.json", "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot open BENCH_pr2.json for writing\n");
    return 1;
  }
  std::fprintf(out,
               "{\n"
               "  \"kernel\": {\n"
               "    \"dim\": %zu,\n"
               "    \"pre_pr_baseline\": {\"dot_gbps\": %.3f, "
               "\"squared_l2_gbps\": %.3f},\n"
               "    \"scalar\": {\"dot_gbps\": %.3f, \"squared_l2_gbps\": %.3f},\n"
               "    \"active\": {\"name\": \"%s\", \"dot_gbps\": %.3f, "
               "\"squared_l2_gbps\": %.3f},\n"
               "    \"dot_speedup_vs_pre_pr\": %.3f,\n"
               "    \"squared_l2_speedup_vs_pre_pr\": %.3f,\n"
               "    \"dot_speedup_vs_scalar\": %.3f,\n"
               "    \"squared_l2_speedup_vs_scalar\": %.3f\n"
               "  },\n"
               "  \"nndescent_build\": {\n"
               "    \"points\": %zu, \"dim\": %zu,\n"
               "    \"serial_seconds\": %.4f,\n"
               "    \"pool_seconds\": %.4f,\n"
               "    \"pool_workers\": %zu,\n"
               "    \"bit_identical\": true\n"
               "  },\n"
               "  \"pgindex_build\": {\n"
               "    \"serial_seconds\": %.4f,\n"
               "    \"pool_seconds\": %.4f\n"
               "  },\n"
               "  \"pgindex_search\": {\n"
               "    \"batch\": %zu, \"ef\": %zu,\n"
               "    \"single_qps\": %.1f,\n"
               "    \"batched_qps\": %.1f,\n"
               "    \"batch_speedup\": %.3f\n"
               "  }\n"
               "}\n",
               kDim, baseline.dot_gbps, baseline.l2_gbps, scalar.dot_gbps,
               scalar.l2_gbps, active.name.c_str(), active.dot_gbps,
               active.l2_gbps, dot_speedup, l2_speedup,
               active.dot_gbps / scalar.dot_gbps,
               active.l2_gbps / scalar.l2_gbps,
               points.rows(), points.cols(), nnd_serial_s, nnd_pool_s,
               hw_threads, build_serial_s, build_pool_s, kBatch, kEf,
               single_qps, batch_qps, batch_qps / single_qps);
  std::fclose(out);
  std::printf("wrote BENCH_pr2.json\n");
  return 0;
}
