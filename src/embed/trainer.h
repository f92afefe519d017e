// Fine-tuning loop of §III-C: minimizes the triplet loss over the sampled
// triples with Adam, updating the encoder's token table and projection.
//
// One schedule (DESIGN.md §15): each mini-batch is split into fixed
// micro-chunks of kDeterministicChunk triples; workers fill disjoint
// per-chunk gradient buffers (reused across batches, so the hot loop
// allocates nothing). One row-parallel fan-out then sums each parameter
// row over the chunks *in chunk order*, averages it and takes its Adam
// step. Chunk boundaries and the per-row summation order depend only on
// the shuffle (seeded) — never on the thread count or on which worker
// owns a row — so the trained parameters are byte-identical for any
// `num_threads`, including 1.

#ifndef KPEF_EMBED_TRAINER_H_
#define KPEF_EMBED_TRAINER_H_

#include <cstdint>
#include <vector>

#include "embed/adam.h"
#include "embed/document_encoder.h"
#include "embed/triplet.h"
#include "text/corpus.h"

namespace kpef {

struct DistanceKernel;

/// Training hyperparameters. Defaults follow §VI-A: margin c = 1,
/// 4 epochs, batch size 64 used for gradient accumulation.
struct TrainerConfig {
  size_t epochs = 4;
  size_t batch_size = 64;
  float margin = 1.0f;
  AdamConfig adam;
  uint64_t seed = 7;
  /// Also fine-tune the token embedding table (Θ_B); disabling restricts
  /// training to the projection head.
  bool train_token_embeddings = true;
  /// Worker threads for the training loop (0 = hardware concurrency).
  /// Changes speed only: the trained bits are the same for any value.
  size_t num_threads = 1;
  /// Unread: every run uses the one chunked schedule. Kept only so
  /// servebench, which sets it, still builds; delete it with servebench's
  /// next change.
  bool deterministic = false;
  /// Compute kernel for forward/backward/Adam math (nullptr =
  /// ActiveKernel()). Scalar and AVX2 agree bitwise on every kernel the
  /// trainer uses, so this only changes speed; benches pin it to time
  /// one path end-to-end.
  const DistanceKernel* kernel = nullptr;
};

/// Outcome of a training run.
struct TrainStats {
  /// Mean triplet loss per epoch, in order.
  std::vector<double> epoch_loss;
  /// Fraction of margin-active triples in the final epoch.
  double final_active_fraction = 0.0;
  size_t num_triples = 0;
  double train_seconds = 0.0;
  /// Triples processed per second across all epochs.
  double triples_per_sec = 0.0;
  /// Worker threads the run actually used.
  size_t workers = 1;
  /// Wall seconds spent in the per-batch merge+Adam fan-out.
  double merge_seconds = 0.0;
};

/// Runs triplet fine-tuning in place on `encoder`.
class TripletTrainer {
 public:
  /// Micro-chunk width of a batch. Fixed so that the chunk decomposition
  /// of a batch is a property of the shuffle alone.
  static constexpr size_t kDeterministicChunk = 8;

  TripletTrainer(DocumentEncoder* encoder, const Corpus* corpus)
      : encoder_(encoder), corpus_(corpus) {}

  TrainStats Train(const std::vector<Triple>& triples,
                   const TrainerConfig& config);

 private:
  DocumentEncoder* encoder_;
  const Corpus* corpus_;
};

}  // namespace kpef

#endif  // KPEF_EMBED_TRAINER_H_
