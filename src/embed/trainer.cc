#include "embed/trainer.h"

#include <algorithm>
#include <memory>
#include <numeric>
#include <span>
#include <thread>

#include "common/logging.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "embed/vector_ops.h"
#include "obs/metrics.h"
#include "obs/pipeline_metrics.h"
#include "obs/trace.h"

namespace kpef {
namespace {

/// Per-chunk training state, reused across batches and epochs so the
/// hot loop allocates nothing after first touch.
struct Workspace {
  DocumentEncoder::ForwardCache cache_seed;
  DocumentEncoder::ForwardCache cache_pos;
  DocumentEncoder::ForwardCache cache_neg;
  TripletLossResult loss;
  EncoderGradients grads;
  double loss_sum = 0.0;
  size_t active = 0;
};

/// One Train() invocation's shared state and its epoch schedule.
class TrainRun {
 public:
  TrainRun(DocumentEncoder* encoder, const Corpus* corpus,
           const std::vector<Triple>& triples, const TrainerConfig& config,
           const DistanceKernel& kernel, Adam& adam)
      : encoder_(encoder),
        corpus_(corpus),
        triples_(triples),
        config_(config),
        kernel_(kernel),
        adam_(adam),
        d_(encoder->dim()),
        vocab_(encoder->vocab_size()),
        proj_offset_(encoder->vocab_size() * encoder->dim()),
        bias_offset_(proj_offset_ + encoder->dim() * encoder->dim()) {}

  /// Fixed micro-chunks per batch, disjoint per-chunk gradients, then
  /// one row-parallel merge+Adam fan-out. Byte-identical results for any
  /// pool size (including pool==nullptr).
  double Epoch(const std::vector<uint32_t>& order, std::vector<Workspace>& ws,
               ThreadPool* pool, size_t* epoch_active, double* merge_seconds) {
    constexpr size_t kChunk = TripletTrainer::kDeterministicChunk;
    double epoch_loss = 0.0;
    const size_t n = order.size();
    for (size_t start = 0; start < n; start += config_.batch_size) {
      const size_t end = std::min(n, start + config_.batch_size);
      const size_t chunks = (end - start + kChunk - 1) / kChunk;
      KPEF_CHECK(chunks <= ws.size());
      auto run_chunk = [&](size_t c) {
        Workspace& w = ws[c];
        w.grads.Reset(vocab_, d_);
        w.loss_sum = 0.0;
        w.active = 0;
        const size_t cbegin = start + c * kChunk;
        const size_t cend = std::min(end, cbegin + kChunk);
        for (size_t i = cbegin; i < cend; ++i) {
          ProcessTriple(w, triples_[order[i]]);
        }
      };
      if (pool != nullptr && chunks > 1) {
        ParallelFor(*pool, chunks, run_chunk);
      } else {
        for (size_t c = 0; c < chunks; ++c) run_chunk(c);
      }
      size_t batch_active = 0;
      for (size_t c = 0; c < chunks; ++c) {
        epoch_loss += ws[c].loss_sum;
        batch_active += ws[c].active;
      }
      if (batch_active == 0) continue;
      *epoch_active += batch_active;
      Timer merge_timer;
      MergeAndStep(std::span<Workspace>(ws.data(), chunks), end - start, pool);
      *merge_seconds += merge_timer.ElapsedSeconds();
    }
    return epoch_loss;
  }

 private:
  /// Forward x3, triplet loss, and (when margin-active) backward x3 into
  /// the workspace's gradient accumulators. Allocation-free after the
  /// workspace's first use.
  void ProcessTriple(Workspace& ws, const Triple& t) {
    encoder_->ForwardInto(corpus_->Document(t.seed), ws.cache_seed, &kernel_);
    encoder_->ForwardInto(corpus_->Document(t.positive), ws.cache_pos,
                          &kernel_);
    encoder_->ForwardInto(corpus_->Document(t.negative), ws.cache_neg,
                          &kernel_);
    ComputeTripletLossInto(ws.cache_seed.output, ws.cache_pos.output,
                           ws.cache_neg.output, config_.margin,
                           /*epsilon=*/1e-8f, kernel_, ws.loss);
    ws.loss_sum += ws.loss.loss;
    if (!ws.loss.active) return;
    ++ws.active;
    encoder_->Backward(ws.cache_seed, ws.loss.grad_seed, ws.grads, &kernel_);
    encoder_->Backward(ws.cache_pos, ws.loss.grad_positive, ws.grads,
                       &kernel_);
    encoder_->Backward(ws.cache_neg, ws.loss.grad_negative, ws.grads,
                       &kernel_);
  }

  /// Sums the chunks' gradients, averages them over the batch and takes
  /// one Adam step, as one fan-out over rows: the union of touched token
  /// rows, then the d projection rows, then the bias. Each row is summed
  /// into chunk 0's buffer in chunk order — a token row from chunk 0's
  /// value (zero if chunk 0 missed it) plus only the chunks that touched
  /// it — so every float operation, down to the sign of zero, matches a
  /// serial chunk-by-chunk merge. Adam state is per row, so the order in
  /// which rows are updated changes no bit.
  void MergeAndStep(std::span<Workspace> chunks, size_t batch_size,
                    ThreadPool* pool) {
    EncoderGradients& merged = chunks[0].grads;
    size_t token_rows = 0;
    if (config_.train_token_embeddings) {
      // Serial pass: extend chunk 0's rows to the union, zero rows for
      // tokens it missed, before the rows fan out.
      for (size_t c = 1; c < chunks.size(); ++c) {
        for (TokenId t : chunks[c].grads.d_tokens.touched()) {
          merged.d_tokens.Touch(t);
        }
      }
      token_rows = merged.d_tokens.touched().size();
    }
    const float inv = 1.0f / static_cast<float>(batch_size);
    const float step_size = adam_.BeginStep();
    auto step_row = [&](size_t r) {
      if (r < token_rows) {
        const TokenId t = merged.d_tokens.touched()[r];
        const std::span<float> row = merged.d_tokens.Row(r);
        for (size_t c = 1; c < chunks.size(); ++c) {
          const std::span<const float> src = chunks[c].grads.d_tokens.Find(t);
          if (!src.empty()) kernel_.axpy(1.0f, src.data(), row.data(), d_);
        }
        kernel_.scale(inv, row.data(), d_);
        adam_.UpdateRow(encoder_->token_embeddings(), static_cast<size_t>(t),
                        row, /*block_offset=*/0, step_size);
      } else if (r < token_rows + d_) {
        // Projection rows share one dense Adam block starting at
        // proj_offset; row p's state lives at proj_offset + p * d.
        const size_t p = r - token_rows;
        const std::span<float> row = merged.d_projection.Row(p);
        for (size_t c = 1; c < chunks.size(); ++c) {
          kernel_.axpy(1.0f, chunks[c].grads.d_projection.Row(p).data(),
                       row.data(), d_);
        }
        kernel_.scale(inv, row.data(), d_);
        adam_.UpdateRow(encoder_->projection(), p, row, proj_offset_,
                        step_size);
      } else {
        std::vector<float>& bias = merged.d_bias;
        for (size_t c = 1; c < chunks.size(); ++c) {
          kernel_.axpy(1.0f, chunks[c].grads.d_bias.data(), bias.data(), d_);
        }
        kernel_.scale(inv, bias.data(), d_);
        adam_.UpdateDense(std::span<float>(encoder_->bias()), bias, step_size,
                          bias_offset_);
      }
    };
    const size_t rows = token_rows + d_ + 1;
    if (pool != nullptr) {
      ParallelFor(*pool, rows, step_row);
    } else {
      for (size_t r = 0; r < rows; ++r) step_row(r);
    }
  }

  DocumentEncoder* encoder_;
  const Corpus* corpus_;
  const std::vector<Triple>& triples_;
  const TrainerConfig& config_;
  const DistanceKernel& kernel_;
  Adam& adam_;
  const size_t d_;
  const size_t vocab_;
  const size_t proj_offset_;
  const size_t bias_offset_;
};

}  // namespace

TrainStats TripletTrainer::Train(const std::vector<Triple>& triples,
                                 const TrainerConfig& config) {
  KPEF_TRACE_SPAN("trainer.train");
  Timer timer;
  TrainStats stats;
  stats.num_triples = triples.size();
  if (triples.empty()) {
    KPEF_LOG(Warning) << "no training triples; encoder left unchanged";
    return stats;
  }
  KPEF_CHECK(config.batch_size > 0);

  const DistanceKernel& kernel =
      config.kernel != nullptr ? *config.kernel : ActiveKernel();
  const size_t d = encoder_->dim();
  const size_t token_params = encoder_->vocab_size() * d;
  const size_t proj_params = d * d;
  // One optimizer state over [tokens | projection | bias].
  Adam adam(token_params + proj_params + d, config.adam, &kernel);

  size_t workers =
      config.num_threads != 0
          ? config.num_threads
          : std::max<size_t>(1, std::thread::hardware_concurrency());
  workers = std::max<size_t>(1, std::min(workers, triples.size()));
  stats.workers = workers;

  // One workspace per micro-chunk of a batch.
  const size_t batch = std::min(config.batch_size, triples.size());
  std::vector<Workspace> workspaces((batch + kDeterministicChunk - 1) /
                                    kDeterministicChunk);
  std::unique_ptr<ThreadPool> pool;
  if (workers > 1) pool = std::make_unique<ThreadPool>(workers);

  TrainRun run(encoder_, corpus_, triples, config, kernel, adam);

  std::vector<uint32_t> order(triples.size());
  std::iota(order.begin(), order.end(), 0u);
  Rng rng(config.seed);
  const double n = static_cast<double>(triples.size());

  for (size_t epoch = 0; epoch < config.epochs; ++epoch) {
    rng.Shuffle(order);
    size_t active = 0;
    const double epoch_loss = run.Epoch(order, workspaces, pool.get(), &active,
                                        &stats.merge_seconds);
    stats.epoch_loss.push_back(epoch_loss / n);
    stats.final_active_fraction = static_cast<double>(active) / n;
    KPEF_COUNTER_ADD(obs::kTrainerEpochsTotal, 1);
    KPEF_GAUGE_SET(obs::kTrainerEpochLoss, stats.epoch_loss.back());
    KPEF_LOG(Info) << "epoch " << epoch + 1 << "/" << config.epochs
                   << " loss=" << stats.epoch_loss.back()
                   << " active=" << stats.final_active_fraction
                   << " workers=" << workers;
  }
  stats.train_seconds = timer.ElapsedSeconds();
  if (stats.train_seconds > 0.0) {
    stats.triples_per_sec =
        static_cast<double>(stats.num_triples * config.epochs) /
        stats.train_seconds;
    KPEF_GAUGE_SET(obs::kTrainerTriplesPerSec, stats.triples_per_sec);
  }
  KPEF_GAUGE_SET(obs::kTrainerActiveTriples, stats.final_active_fraction);
  KPEF_GAUGE_SET(obs::kTrainerWorkers, static_cast<double>(stats.workers));
  KPEF_GAUGE_SET(obs::kTrainerMergeSeconds, stats.merge_seconds);
  return stats;
}

}  // namespace kpef
