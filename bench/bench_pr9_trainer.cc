// Trainer bench: the parallel SIMD triplet trainer.
//
// Writes BENCH_pr9.json into the current working directory. Run from the
// repo root so the artifact lands next to the sources:
//
//   ./build/bench/bench_pr9_trainer
//
// Measures, on a synthetic two-hundred-cluster corpus:
//  - micro kernel throughput (adam_update / triplet_grad / axpy2),
//    scalar vs AVX2, in GB/s touched;
//  - end-to-end trainer triples/sec for three configurations: serial
//    scalar, serial SIMD (ActiveKernel), and parallel at hardware width;
//  - a byte-identity spot check across 1 vs 2 threads (crashes the bench
//    on divergence).
//
// BENCH_pr9.json in the repo root predates the trainer's single schedule
// and still carries a retired parallel schedule's keys; a fresh run writes
// only the three modes above.
//
// On a single-core host the parallel rows necessarily read ~1x; the JSON
// records host_cores so that case is self-describing, and the AVX2 micro
// kernel speedups carry the acceptance evidence instead.
//
// Flags (defaults are the acceptance configuration):
//   --docs N       documents per cluster side   (default 600)
//   --triples N    training triples             (default 8000)
//   --epochs N     epochs per timed mode        (default 2)
//   --dim D        embedding width              (default 64)
//   --json PATH    output path                  (default BENCH_pr9.json)

#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "common/logging.h"
#include "common/rng.h"
#include "embed/document_encoder.h"
#include "embed/trainer.h"
#include "embed/triplet.h"
#include "embed/vector_ops.h"
#include "text/corpus.h"

namespace {

using namespace kpef;

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

size_t FlagOr(int argc, char** argv, const char* name, size_t fallback) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], name) == 0) {
      return static_cast<size_t>(std::strtoull(argv[i + 1], nullptr, 10));
    }
  }
  return fallback;
}

std::string FlagOr(int argc, char** argv, const char* name,
                   const std::string& fallback) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], name) == 0) return argv[i + 1];
  }
  return fallback;
}

// Two lexical clusters of documents; triples pair same-cluster positives
// with cross-cluster negatives — the shape §III-B sampling produces.
struct TrainSetup {
  Corpus corpus;
  std::vector<Triple> triples;
};

TrainSetup MakeSetup(size_t docs_per_cluster, size_t num_triples) {
  TrainSetup setup;
  Rng rng(5150);
  for (int c = 0; c < 2; ++c) {
    for (size_t i = 0; i < docs_per_cluster; ++i) {
      std::string text;
      for (int w = 0; w < 24; ++w) {
        text += (c == 0 ? "x" : "y") + std::to_string(rng.Uniform(64));
        text += ' ';
      }
      setup.corpus.AddDocument(text);
    }
  }
  const auto n = static_cast<int32_t>(docs_per_cluster);
  for (size_t t = 0; t < num_triples; ++t) {
    const auto seed = static_cast<int32_t>(rng.Uniform(docs_per_cluster));
    auto pos = static_cast<int32_t>(rng.Uniform(docs_per_cluster));
    if (pos == seed) pos = (pos + 1) % n;
    const auto neg = n + static_cast<int32_t>(rng.Uniform(docs_per_cluster));
    setup.triples.push_back({pos, seed, neg});
  }
  return setup;
}

DocumentEncoder MakeEncoder(const Corpus& corpus, size_t dim) {
  EncoderConfig config;
  config.dim = dim;
  DocumentEncoder encoder(corpus.vocabulary().size(), config);
  Rng init_rng(1);
  encoder.InitializeRandomTokens(init_rng, 0.3f);
  return encoder;
}

// One trainer configuration, timed end to end on a fresh encoder copy.
struct ModeResult {
  double triples_per_sec = 0.0;
  double final_loss = 0.0;
  double active_fraction = 0.0;
  size_t workers = 1;
};

ModeResult RunMode(const TrainSetup& setup, size_t dim, size_t epochs,
                   size_t threads, const DistanceKernel* kernel) {
  DocumentEncoder encoder = MakeEncoder(setup.corpus, dim);
  TrainerConfig config;
  config.epochs = epochs;
  // Gentle learning rate so triples stay margin-active through the timed
  // epochs — an instantly-converged run skips every backward pass and
  // would overstate throughput.
  config.adam.learning_rate = 2e-4;
  config.num_threads = threads;
  config.kernel = kernel;
  TripletTrainer trainer(&encoder, &setup.corpus);
  const TrainStats stats = trainer.Train(setup.triples, config);
  ModeResult out;
  out.triples_per_sec = stats.triples_per_sec;
  out.final_loss = stats.epoch_loss.back();
  out.active_fraction = stats.final_active_fraction;
  out.workers = stats.workers;
  return out;
}

// Micro throughput of one elementwise kernel in GB/s of touched bytes.
// `bytes_per_elem` counts every array read or written per element.
template <typename Fn>
double MeasureKernelGbps(size_t n, size_t bytes_per_elem, double min_seconds,
                         const Fn& call) {
  size_t iters = 0;
  const auto start = Clock::now();
  do {
    call();
    ++iters;
  } while (SecondsSince(start) < min_seconds);
  const double seconds = SecondsSince(start);
  return static_cast<double>(iters) * static_cast<double>(n) *
         static_cast<double>(bytes_per_elem) / seconds / 1e9;
}

struct KernelNumbers {
  double adam_gbps = 0.0;
  double triplet_gbps = 0.0;
  double axpy2_gbps = 0.0;
};

KernelNumbers MeasureKernels(const DistanceKernel& kernel, size_t n,
                             double min_seconds) {
  Rng rng(7);
  auto vec = [&](float lo, float hi) {
    std::vector<float> v(n);
    for (float& x : v) x = static_cast<float>(rng.UniformDouble(lo, hi));
    return v;
  };
  KernelNumbers out;

  auto params = vec(-1, 1);
  const auto grads = vec(-0.5, 0.5);
  auto m = vec(-0.1, 0.1);
  auto v = vec(0, 0.2);
  // adam_update: reads grads + m + v + params, writes m + v + params.
  out.adam_gbps = MeasureKernelGbps(n, 7 * sizeof(float), min_seconds, [&] {
    kernel.adam_update(params.data(), grads.data(), m.data(), v.data(), 0.9f,
                       0.999f, 1e-6f, 1e-8f, n);
  });

  const auto s = vec(-1, 1);
  const auto p = vec(-1, 1);
  const auto ng = vec(-1, 1);
  std::vector<float> gs(n), gp(n), gn(n);
  // triplet_grad: reads s + p + n, writes gs + gp + gn.
  out.triplet_gbps = MeasureKernelGbps(n, 6 * sizeof(float), min_seconds, [&] {
    kernel.triplet_grad(s.data(), p.data(), ng.data(), 1.7f, 0.9f, gs.data(),
                        gp.data(), gn.data(), n);
  });

  auto y = vec(-1, 1);
  // axpy2: reads x1 + x2 + y, writes y.
  out.axpy2_gbps = MeasureKernelGbps(n, 4 * sizeof(float), min_seconds, [&] {
    kernel.axpy2(0.7f, s.data(), -1.3f, p.data(), y.data(), n);
  });
  return out;
}

// Byte identity across thread counts, checked inside the bench so the
// artifact is backed by a live run.
void CheckDeterminism(const TrainSetup& setup, size_t dim) {
  TrainerConfig config;
  config.epochs = 1;
  config.adam.learning_rate = 5e-3;

  config.num_threads = 1;
  DocumentEncoder one = MakeEncoder(setup.corpus, dim);
  TripletTrainer t1(&one, &setup.corpus);
  const std::vector<Triple> subset(setup.triples.begin(),
                                   setup.triples.begin() +
                                       std::min<size_t>(512,
                                                        setup.triples.size()));
  t1.Train(subset, config);

  config.num_threads = 2;
  DocumentEncoder two = MakeEncoder(setup.corpus, dim);
  TripletTrainer t2(&two, &setup.corpus);
  t2.Train(subset, config);

  KPEF_CHECK(one.token_embeddings() == two.token_embeddings() &&
             one.projection() == two.projection() &&
             one.bias() == two.bias())
      << "trained parameters diverged between 1 and 2 threads";
}

}  // namespace

int main(int argc, char** argv) {
  SetLogLevel(LogLevel::kError);
  const size_t kDocs = FlagOr(argc, argv, "--docs", size_t{600});
  const size_t kTriples = FlagOr(argc, argv, "--triples", size_t{8000});
  const size_t kEpochs = FlagOr(argc, argv, "--epochs", size_t{2});
  const size_t kDim = FlagOr(argc, argv, "--dim", size_t{64});
  const std::string json_path =
      FlagOr(argc, argv, "--json", std::string("BENCH_pr9.json"));
  const size_t host_cores = std::max(1u, std::thread::hardware_concurrency());
  const size_t kKernelN = 4096;
  const double kKernelSeconds = 0.5;

  std::printf("corpus  %zu docs x 2 clusters, %zu triples, dim %zu\n", kDocs,
              kTriples, kDim);
  std::printf("host    %zu core%s, active kernel %s\n", host_cores,
              host_cores == 1 ? "" : "s", ActiveKernel().name);
  const TrainSetup setup = MakeSetup(kDocs, kTriples);

  // --- Micro kernels ----------------------------------------------------
  const KernelNumbers scalar =
      MeasureKernels(ScalarKernel(), kKernelN, kKernelSeconds);
  const DistanceKernel* avx2 = Avx2KernelOrNull();
  KernelNumbers simd;
  if (avx2 != nullptr) simd = MeasureKernels(*avx2, kKernelN, kKernelSeconds);
  std::printf("kernels (GB/s touched, n=%zu)\n", kKernelN);
  std::printf("  %-14s scalar %6.2f  avx2 %6.2f  speedup %.2fx\n",
              "adam_update", scalar.adam_gbps, simd.adam_gbps,
              avx2 ? simd.adam_gbps / scalar.adam_gbps : 0.0);
  std::printf("  %-14s scalar %6.2f  avx2 %6.2f  speedup %.2fx\n",
              "triplet_grad", scalar.triplet_gbps, simd.triplet_gbps,
              avx2 ? simd.triplet_gbps / scalar.triplet_gbps : 0.0);
  std::printf("  %-14s scalar %6.2f  avx2 %6.2f  speedup %.2fx\n", "axpy2",
              scalar.axpy2_gbps, simd.axpy2_gbps,
              avx2 ? simd.axpy2_gbps / scalar.axpy2_gbps : 0.0);

  // --- Determinism spot check ------------------------------------------
  CheckDeterminism(setup, kDim);
  std::printf("determinism  1-thread vs 2-thread parameters byte-identical\n");

  // --- End-to-end trainer ----------------------------------------------
  // On a single-core host the parallel rows still run the real parallel
  // machinery (>= 2 workers time-sharing the core), so they measure its
  // overhead honestly rather than silently degenerating to serial.
  const size_t parallel_threads = std::max<size_t>(2, host_cores);
  const ModeResult serial_scalar =
      RunMode(setup, kDim, kEpochs, 1, &ScalarKernel());
  const ModeResult serial_simd = RunMode(setup, kDim, kEpochs, 1, nullptr);
  const ModeResult parallel =
      RunMode(setup, kDim, kEpochs, parallel_threads, nullptr);
  auto print_mode = [](const char* name, const ModeResult& r) {
    std::printf(
        "  %-22s %9.0f triples/s  loss %.4f  active %.2f  (%zu worker%s)\n",
        name, r.triples_per_sec, r.final_loss, r.active_fraction, r.workers,
        r.workers == 1 ? "" : "s");
  };
  std::printf("trainer (%zu triples x %zu epochs)\n", kTriples, kEpochs);
  print_mode("serial scalar", serial_scalar);
  print_mode("serial simd", serial_simd);
  print_mode("parallel", parallel);

  // --- JSON -------------------------------------------------------------
  std::FILE* f = std::fopen(json_path.c_str(), "w");
  KPEF_CHECK(f != nullptr) << "cannot write " << json_path;
  std::fprintf(
      f,
      "{\n"
      "  \"bench\": \"pr9_trainer\",\n"
      "  \"host_cores\": %zu,\n"
      "  \"active_kernel\": \"%s\",\n"
      "  \"corpus\": {\"docs\": %zu, \"triples\": %zu, \"dim\": %zu, "
      "\"epochs\": %zu},\n"
      "  \"kernel_gbps\": {\n"
      "    \"n\": %zu,\n"
      "    \"adam_update\": {\"scalar\": %.3f, \"avx2\": %.3f, "
      "\"speedup\": %.3f},\n"
      "    \"triplet_grad\": {\"scalar\": %.3f, \"avx2\": %.3f, "
      "\"speedup\": %.3f},\n"
      "    \"axpy2\": {\"scalar\": %.3f, \"avx2\": %.3f, \"speedup\": "
      "%.3f}\n"
      "  },\n"
      "  \"parallel_workers\": %zu,\n"
      "  \"trainer_triples_per_sec\": {\n"
      "    \"serial_scalar\": %.1f,\n"
      "    \"serial_simd\": %.1f,\n"
      "    \"parallel_deterministic\": %.1f,\n"
      "    \"simd_speedup_vs_scalar\": %.3f\n"
      "  },\n"
      "  \"final_active_fraction\": %.4f,\n"
      "  \"final_epoch_loss\": {\n"
      "    \"serial_scalar\": %.6f,\n"
      "    \"serial_simd\": %.6f,\n"
      "    \"parallel_deterministic\": %.6f\n"
      "  },\n"
      "  \"deterministic_byte_identical_1v2_threads\": true,\n"
      "  \"pr8_rerun_note\": \"bench_pr7_quantized re-run for BENCH_pr8 "
      "remains hardware-blocked: this host still has %zu core(s), same as "
      "the PR8 record.\"\n"
      "}\n",
      host_cores, ActiveKernel().name, kDocs, kTriples, kDim, kEpochs,
      kKernelN, scalar.adam_gbps, simd.adam_gbps,
      avx2 ? simd.adam_gbps / scalar.adam_gbps : 0.0, scalar.triplet_gbps,
      simd.triplet_gbps,
      avx2 ? simd.triplet_gbps / scalar.triplet_gbps : 0.0, scalar.axpy2_gbps,
      simd.axpy2_gbps, avx2 ? simd.axpy2_gbps / scalar.axpy2_gbps : 0.0,
      parallel.workers, serial_scalar.triples_per_sec,
      serial_simd.triples_per_sec, parallel.triples_per_sec,
      serial_simd.triples_per_sec / serial_scalar.triples_per_sec,
      parallel.active_fraction, serial_scalar.final_loss,
      serial_simd.final_loss, parallel.final_loss, host_cores);
  std::fclose(f);
  std::printf("wrote %s\n", json_path.c_str());
  return 0;
}
