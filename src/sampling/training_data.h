// Sampling-based training-data generation (§III-B): seed-paper selection,
// positive collection from (k, P)-core communities, and the two negative
// strategies (Random / Near).

#ifndef KPEF_SAMPLING_TRAINING_DATA_H_
#define KPEF_SAMPLING_TRAINING_DATA_H_

#include <cstdint>
#include <vector>

#include "common/thread_pool.h"
#include "embed/triplet.h"
#include "graph/hetero_graph.h"
#include "kpcore/kpcore_search.h"
#include "kpcore/multi_path.h"
#include "metapath/meta_path.h"
#include "metapath/projection.h"

namespace kpef {

/// Negative-sample collection strategy of §III-B.
enum class NegativeStrategy {
  /// Uniform over papers outside the community.
  kRandom,
  /// Papers from Algorithm 1's delete queue D: close to the community but
  /// excluded by the k-constraint.
  kNear,
};

struct SamplingConfig {
  /// Fraction f of papers drawn as seed papers.
  double seed_fraction = 0.3;
  /// Core cohesiveness k.
  int32_t k = 4;
  /// When false, skip the (k, P)-core entirely: positives are random
  /// direct P-neighbors of the seed (the "w/o (k, P)-core" configuration
  /// of Table IV, exhibiting the free-rider noise the core removes).
  bool use_core = true;
  NegativeStrategy strategy = NegativeStrategy::kNear;
  /// Negatives per positive (the paper's s; s = 3 is the sweet spot).
  size_t negatives_per_positive = 3;
  /// Near strategy: maximum times one delete-queue paper may be drawn per
  /// community before the sampler falls back to random negatives. At the
  /// paper's scale D is large and repeats are rare; at ours, unbounded
  /// reuse would push each (possibly borderline-relevant) D member away
  /// dozens of times and poison the embedding. 0 = unbounded.
  size_t max_near_reuse = 2;
  /// Near strategy: fraction of each positive's negatives drawn from the
  /// delete queue; the remainder are random. Hard negatives sharpen
  /// community boundaries but, without a strong pre-trained geometry,
  /// hard-only training collapses distant regions (a standard triplet-
  /// mining failure); blending keeps the global structure intact.
  double near_fraction = 1.0;
  /// Cap on positives taken from one community. The paper notes cores are
  /// "usually small"; this bounds the rare giant community (e.g. P-T-P
  /// with coarse topics) so training stays near-linear.
  size_t max_positives_per_seed = 128;
  uint64_t rng_seed = 123;
  KPCoreSearchOptions core_options;
  /// Pool for projection builds and the parallel seed loop; nullptr uses
  /// ThreadPool::Default().
  ThreadPool* pool = nullptr;
  /// Caps workers for the seed loop: 0 = full pool width, 1 = sequential.
  /// Triples are bit-identical for every value (per-seed RNG streams +
  /// seed-ordered merge).
  size_t num_threads = 0;
};

/// Generated triples plus bookkeeping for the sensitivity benchmarks.
struct SamplingResult {
  std::vector<Triple> triples;
  size_t num_seeds = 0;
  /// Seeds whose community contained at least one usable positive.
  size_t num_productive_seeds = 0;
  size_t total_positives = 0;
  /// Draws that wanted a near negative (per near_fraction) but fell back
  /// to random because the delete queue was empty or its reuse budget was
  /// exhausted. Draws that were random by plan do not count.
  size_t near_fallbacks = 0;
  uint64_t edges_scanned = 0;
  double core_search_seconds = 0.0;
  /// Total bytes held by the per-path projections.
  size_t projection_bytes = 0;
  double projection_build_seconds = 0.0;
};

/// Generates triplet training data from (k, P)-core communities.
///
/// Document ids inside the produced triples are paper LocalIndex values,
/// i.e. corpus document ids.
class TrainingDataGenerator {
 public:
  /// `paths` holds one or more meta-paths; multiple paths activate the §V
  /// intersection.
  TrainingDataGenerator(const HeteroGraph& graph, std::vector<MetaPath> paths,
                        NodeTypeId paper_type);

  SamplingResult Generate(const SamplingConfig& config) const;

 private:
  const HeteroGraph* graph_;
  std::vector<MetaPath> paths_;
  NodeTypeId paper_type_;
};

}  // namespace kpef

#endif  // KPEF_SAMPLING_TRAINING_DATA_H_
