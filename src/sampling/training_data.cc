#include "sampling/training_data.h"

#include <algorithm>
#include <unordered_set>

#include "common/logging.h"
#include "common/rng.h"
#include "common/timer.h"
#include "obs/metrics.h"
#include "obs/pipeline_metrics.h"
#include "obs/trace.h"

namespace kpef {
namespace {

// Everything one seed contributes, accumulated thread-locally and merged
// in seed order so Generate's output is bit-identical for any worker
// count (same contract as the PG-Index build: per-item RNG streams via
// MixSeed plus an ordered merge).
struct SeedOutput {
  std::vector<Triple> triples;
  uint64_t edges_scanned = 0;
  double core_search_seconds = 0.0;
  size_t positives = 0;
  size_t near_fallbacks = 0;
  size_t near_negatives = 0;
  size_t random_negatives = 0;
  bool productive = false;
};

}  // namespace

TrainingDataGenerator::TrainingDataGenerator(const HeteroGraph& graph,
                                             std::vector<MetaPath> paths,
                                             NodeTypeId paper_type)
    : graph_(&graph), paths_(std::move(paths)), paper_type_(paper_type) {
  KPEF_CHECK(!paths_.empty());
  for (const MetaPath& p : paths_) {
    KPEF_CHECK(p.SourceType() == paper_type_ && p.TargetType() == paper_type_)
        << "meta-paths must start and end at the paper type";
  }
}

SamplingResult TrainingDataGenerator::Generate(
    const SamplingConfig& config) const {
  KPEF_TRACE_SPAN("sampling.generate");
  SamplingResult result;
  Rng rng(config.rng_seed);
  const auto& papers = graph_->NodesOfType(paper_type_);
  const size_t num_papers = papers.size();
  if (num_papers == 0) return result;

  // (1) Seed papers selection: simple random sample of fraction f. The
  // fraction is clamped to [0, 1] and the count to the population, so
  // seed_fraction >= 1.0 means "every paper seeds" instead of asking
  // SampleWithoutReplacement for more samples than exist.
  const double seed_fraction = std::clamp(config.seed_fraction, 0.0, 1.0);
  const size_t num_seeds = std::min<size_t>(
      num_papers,
      std::max<size_t>(
          1, static_cast<size_t>(seed_fraction *
                                 static_cast<double>(num_papers))));
  const std::vector<size_t> seed_indices =
      rng.SampleWithoutReplacement(num_papers, num_seeds);
  result.num_seeds = num_seeds;

  ThreadPool& pool = config.pool != nullptr ? *config.pool
                                            : ThreadPool::Default();

  // Materialize one CSR projection per meta-path so the per-seed searches
  // read flat rows instead of re-walking the heterogeneous graph. The
  // searches are bit-identical to the finder-backed ones (see
  // kpcore/neighbor_source.h); the projection only trades memory for time.
  Timer build_timer;
  ProjectionOptions projection_options;
  projection_options.pool = &pool;
  std::vector<HomogeneousProjection> projections;
  for (const MetaPath& path : paths_) {
    projections.push_back(
        ProjectHomogeneous(*graph_, path, projection_options));
    result.projection_bytes += projections.back().MemoryUsageBytes();
  }
  result.projection_build_seconds = build_timer.ElapsedSeconds();

  auto as_doc = [&](NodeId paper) {
    return static_cast<int32_t>(graph_->LocalIndex(paper));
  };

  // One seed end to end. All randomness comes from a stream derived from
  // (rng_seed, position): draw order inside a seed is fixed, and streams
  // never interact, so scheduling cannot change the output.
  auto process_seed = [&](size_t position, SeedOutput& out) {
    const NodeId seed = papers[seed_indices[position]];
    Rng seed_rng(MixSeed(config.rng_seed, 1, position));
    Timer core_timer;
    KPCoreCommunity community;
    if (config.use_core) {
      community = MultiPathKPCoreSearch(*graph_, projections, seed, config.k,
                                        config.core_options);
    } else {
      // w/o (k, P)-core: the "community" is just the union of the seed's
      // direct P-neighbors, cohesive or not.
      community.seed = seed;
      std::vector<NodeId> nbrs;
      const int32_t local = static_cast<int32_t>(graph_->LocalIndex(seed));
      for (const HomogeneousProjection& projection : projections) {
        for (int32_t u : projection.Neighbors(local)) {
          nbrs.push_back(projection.GlobalId(u));
        }
        community.edges_scanned +=
            static_cast<uint64_t>(projection.Degree(local));
      }
      std::sort(nbrs.begin(), nbrs.end());
      nbrs.erase(std::unique(nbrs.begin(), nbrs.end()), nbrs.end());
      community.core = std::move(nbrs);
    }
    out.core_search_seconds = core_timer.ElapsedSeconds();
    out.edges_scanned = community.edges_scanned;

    // (2) Positive samples: community members other than the seed. When
    // the community dwarfs the positive budget (e.g. P-T-P cores on
    // coarse-topic graphs span nearly the whole corpus), keep the members
    // closest to the seed (BFS discovery order) rather than a uniform
    // subsample — distant members of a giant core carry no seed-specific
    // signal.
    std::vector<NodeId> positives;
    if (!community.core_by_discovery.empty()) {
      for (NodeId member : community.core_by_discovery) {
        if (member != seed) positives.push_back(member);
      }
      for (NodeId member : community.extension) {
        if (member != seed) positives.push_back(member);
      }
    } else {
      for (NodeId member : community.Members()) {
        if (member != seed) positives.push_back(member);
      }
    }
    if (positives.empty()) return;
    if (positives.size() > config.max_positives_per_seed) {
      positives.resize(config.max_positives_per_seed);
    }
    out.productive = true;
    out.positives = positives.size();

    // Membership set for rejection when sampling random negatives: the
    // full community (Definition 7 draws negatives from outside G^k_P,
    // not merely outside the kept positives).
    const std::vector<NodeId> all_members = community.Members();
    std::unordered_set<NodeId> member_set(all_members.begin(),
                                          all_members.end());
    member_set.insert(seed);

    auto sample_random_negative = [&]() -> NodeId {
      // Rejection sampling over all papers; communities are small relative
      // to the corpus so this terminates quickly.
      for (int attempt = 0; attempt < 64; ++attempt) {
        const NodeId candidate = papers[seed_rng.Uniform(num_papers)];
        if (!member_set.count(candidate)) return candidate;
      }
      return kInvalidNode;
    };

    // (3) Triples: s negatives per positive. Near draws rotate through a
    // shuffled copy of D so no single near negative is overused.
    std::vector<NodeId> near_pool(community.near_negatives);
    seed_rng.Shuffle(near_pool);
    size_t near_cursor = 0;
    const size_t near_budget =
        config.max_near_reuse == 0
            ? static_cast<size_t>(-1)
            : near_pool.size() * config.max_near_reuse;
    size_t near_used = 0;
    for (NodeId positive : positives) {
      for (size_t s = 0; s < config.negatives_per_positive; ++s) {
        NodeId negative = kInvalidNode;
        bool from_near = false;
        const bool want_near =
            config.strategy == NegativeStrategy::kNear &&
            static_cast<double>(s + 1) <=
                config.near_fraction *
                        static_cast<double>(config.negatives_per_positive) +
                    1e-9;
        if (want_near && !near_pool.empty() && near_used < near_budget) {
          negative = near_pool[near_cursor];
          near_cursor = (near_cursor + 1) % near_pool.size();
          ++near_used;
          from_near = true;
        } else {
          // Only a draw that asked for a near negative and couldn't get
          // one is a fallback; draws random by plan (near_fraction) or by
          // strategy are not.
          if (want_near) ++out.near_fallbacks;
          negative = sample_random_negative();
        }
        if (negative == kInvalidNode) continue;
        ++(from_near ? out.near_negatives : out.random_negatives);
        out.triples.push_back(
            {as_doc(positive), as_doc(seed), as_doc(negative)});
      }
    }
  };

  size_t workers = pool.num_threads();
  if (config.num_threads > 0) workers = std::min(workers, config.num_threads);
  std::vector<SeedOutput> outputs(num_seeds);
  if (workers <= 1 || num_seeds <= 1) {
    for (size_t i = 0; i < num_seeds; ++i) process_seed(i, outputs[i]);
  } else {
    ParallelForChunks(
        pool, num_seeds,
        [&](size_t begin, size_t end) {
          for (size_t i = begin; i < end; ++i) process_seed(i, outputs[i]);
        },
        workers);
    KPEF_COUNTER_ADD(obs::kSamplingSeedsParallel, num_seeds);
  }

  // Seed-ordered merge: concatenation order is the seed-draw order, never
  // the completion order.
  size_t near_negatives = 0;    // triples whose negative came from D
  size_t random_negatives = 0;  // triples with a random negative
  size_t total_triples = 0;
  for (const SeedOutput& out : outputs) total_triples += out.triples.size();
  result.triples.reserve(total_triples);
  for (SeedOutput& out : outputs) {
    result.num_productive_seeds += out.productive ? 1 : 0;
    result.total_positives += out.positives;
    result.near_fallbacks += out.near_fallbacks;
    result.edges_scanned += out.edges_scanned;
    result.core_search_seconds += out.core_search_seconds;
    near_negatives += out.near_negatives;
    random_negatives += out.random_negatives;
    result.triples.insert(result.triples.end(), out.triples.begin(),
                          out.triples.end());
  }
  KPEF_COUNTER_ADD(obs::kSamplingSeedsTotal, result.num_seeds);
  KPEF_COUNTER_ADD(obs::kSamplingTriplesTotal, result.triples.size());
  KPEF_COUNTER_ADD(obs::kSamplingNearNegativesTotal, near_negatives);
  KPEF_COUNTER_ADD(obs::kSamplingRandomNegativesTotal, random_negatives);
  KPEF_LOG(Info) << "sampled " << result.triples.size() << " triples from "
                 << result.num_productive_seeds << "/" << result.num_seeds
                 << " productive seeds";
  return result;
}

}  // namespace kpef
