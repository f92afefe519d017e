// Per-layer replay of the traced benchmark run: the request stream the
// live run recorded is pushed again, in process, through the public
// functions of each layer (core, embed, ann, ranking, ingest), with
// spans around every call and the alternative paths (full-scan ranking,
// exact fp32 search, 2 and 4 shards) timed on the same inputs.

#ifndef SERVEBENCH_LAYERS_H_
#define SERVEBENCH_LAYERS_H_

#include <memory>
#include <string>
#include <vector>

#include "core/engine_group.h"
#include "data/dataset.h"
#include "ingest/coordinator.h"
#include "ingest/ingest_batch.h"
#include "text/corpus.h"
#include "trace.h"

namespace servebench {

struct Metric {
  std::string name;
  double value;
  std::string unit;
};
using Metrics = std::vector<Metric>;

/// The serving configuration kpef_serve derives for a corpus (its
/// defaults: top_m = max(50, papers / 10), rerank factor 2), so that
/// in-process engines answer exactly as the server does.
kpef::EngineGroup::Options ServingOptions(const kpef::Dataset& dataset,
                                          size_t num_shards);

/// EngineGroup::Load of `model_dir` with ServingOptions; throws
/// std::runtime_error on failure.
std::unique_ptr<kpef::EngineGroup> LoadServingGroup(
    const kpef::Dataset& dataset, const kpef::Corpus& corpus,
    const std::string& model_dir, size_t num_shards);

/// Same experts in the same order with bit-identical scores.
bool SameAnswer(const std::vector<kpef::ExpertScore>& a,
                const std::vector<kpef::ExpertScore>& b);

/// A recorded request stream: query texts in send order, their request
/// ids, and the batches the server formed (indices into `texts`).
struct QueryStream {
  std::vector<std::string> texts;
  std::vector<std::string> request_ids;
  std::vector<std::vector<size_t>> batches;
};

/// Replays `stream` through EngineGroup::FindExpertsBatch at 1, 2 and 4
/// shards, then through the layer functions one by one (Corpus::
/// EncodeQuery + DocumentEncoder::Encode, PGIndex::SearchBatch,
/// BuildRankedLists, ThresholdTopN) plus their alternatives
/// (force_exact, BruteForceSearch, FullScanTopN). Appends the core.*,
/// embed.*, ann.*, ranking.* and trace.overhead_ms metrics. Returns the
/// number of replayed answers that differ from FindExpertsBatch (must
/// be 0: the decomposition must reproduce the engine).
size_t ReplayQueryLayers(const QueryStream& stream,
                         const kpef::Dataset& dataset,
                         const kpef::Corpus& corpus,
                         const std::string& model_dir, size_t threads,
                         size_t top_n, SpanLog* spans, Metrics* metrics);

/// In-process ingest of the drip batches over a fresh load of the base
/// artifacts. The coordinator is declared after the group it mutates,
/// so it is destroyed first.
struct IngestReplay {
  std::unique_ptr<kpef::EngineGroup> group;
  std::unique_ptr<kpef::IngestCoordinator> coordinator;
  /// Papers applied (must equal the drip tail size).
  size_t applied = 0;
};

/// Applies `batches` through IngestCoordinator::Apply (WAL at
/// `wal_path`). With `metrics` non-null also times WalWriter::Append of
/// the SerializeBatch payloads and PGIndex::InsertBatch of the new rows,
/// and appends the ingest.* metrics.
kpef::StatusOr<IngestReplay> ReplayIngest(
    const kpef::Dataset& base, const kpef::Corpus& corpus,
    const std::string& model_dir, const std::string& wal_path,
    const std::vector<kpef::IngestBatch>& batches, SpanLog* spans,
    Metrics* metrics);

/// Median of `v` (0 when empty); sorts a copy.
double Median(std::vector<double> v);

}  // namespace servebench

#endif  // SERVEBENCH_LAYERS_H_
