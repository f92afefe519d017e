// Synthetic academic-network generation.
//
// Stands in for the Aminer/DBLP/ACM dumps of Table I (unavailable
// offline). The generator plants the structure every method in the paper
// exploits: research-group co-authorship (so (k, P-A-P)-cores exist),
// topic-aligned venues/citations, and topic-conditioned text whose lexical
// similarity correlates with community membership.

#ifndef KPEF_DATA_DATASET_H_
#define KPEF_DATA_DATASET_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "graph/hetero_graph.h"
#include "graph/schema.h"

namespace kpef {

/// Generator knobs. Sizes default to laptop scale (the paper's datasets,
/// ~100-1000x down); `ScaledCopy` derives the Table VI size sweep.
struct DatasetConfig {
  std::string name = "synthetic";
  uint64_t seed = 1;

  // --- Entity counts.
  size_t num_papers = 3000;
  size_t num_authors = 2200;
  size_t num_venues = 40;
  size_t num_topics = 40;

  // --- Structure.
  /// Research-group size range; papers are co-authored within a group.
  size_t group_size_min = 4;
  size_t group_size_max = 8;
  /// Authors per paper range (rank order = contribution order).
  size_t authors_per_paper_min = 2;
  size_t authors_per_paper_max = 5;
  /// Probability a paper mentions a second topic.
  double second_topic_prob = 0.3;
  /// Mean out-citations per paper (Poisson-ish, earlier papers only).
  double mean_citations = 4.0;
  /// Probability a citation stays within the citing paper's primary topic.
  double citation_same_topic_prob = 0.8;
  /// Probability a co-author is drawn from outside the paper's group.
  double external_coauthor_prob = 0.25;

  // --- Text.
  /// Global pool of topical terms shared by all topics. Each topic draws
  /// its words from a window of the pool centered at its own offset, so
  /// adjacent topics overlap heavily — mimicking real research areas that
  /// share terminology and making the retrieval task non-trivial.
  size_t topical_pool_words = 800;
  /// Width of each topic's window into the pool. Larger than the
  /// center-to-center spacing => neighboring topics are confusable.
  size_t topic_window_words = 300;
  size_t common_vocabulary_words = 600;
  /// Surface forms per topical concept (synonymy): each occurrence of a
  /// concept picks one of its variants uniformly. Exact-match retrieval
  /// (TFIDF) suffers vocabulary mismatch; distributional methods recover
  /// the equivalence from shared contexts — matching the real-world gap
  /// between lexical and semantic retrieval.
  size_t surface_variants = 4;
  /// Size of the actual surface vocabulary the (concept, variant) pairs
  /// are hashed onto. Smaller than concepts x variants => polysemy:
  /// distant topics reuse surface words, so an exact lexical match is
  /// ambiguous evidence (as in real text), while aggregated embeddings
  /// still denoise over a document's many tokens. 0 disables folding.
  size_t surface_vocabulary_words = 450;
  size_t title_tokens = 8;
  size_t abstract_tokens = 56;
  /// Probability a token is topical rather than background.
  double topic_word_prob = 0.22;
  /// Sub-areas per topic. Each subfield has its own window into the
  /// topical pool; a paper draws most topical tokens from its primary
  /// subfield. Same-topic papers from different subfields thus share
  /// little exact vocabulary (a real property of coarse topic labels)
  /// even though both are relevant to topic-level queries.
  size_t subfields_per_topic = 3;
  /// Probability a topical token comes from a sibling subfield of the
  /// same topic instead of the paper's primary subfield (lexical bridge
  /// that lets co-occurrence models relate sibling subfields).
  double subfield_mix_prob = 0.3;
  /// Per-document bursty words: each paper repeats a few style words many
  /// times, creating strong spurious lexical matches between unrelated
  /// papers (word burstiness, as in real text).
  size_t bursty_words_per_doc = 3;
  size_t burst_repeats = 5;

  /// Returns a copy with all entity counts multiplied by `factor`
  /// (name suffixed), used for the PG-Index overhead sweep.
  DatasetConfig ScaledCopy(double factor, const std::string& suffix) const;
};

/// Per-dataset profiles mirroring the relative shapes of Table I
/// (Aminer: fewer/coarser topics; ACM: largest).
DatasetConfig AminerProfile();
DatasetConfig DblpProfile();
DatasetConfig AcmProfile();
/// Small profile for unit/integration tests.
DatasetConfig TinyProfile();

/// A generated dataset: the graph plus the planted assignments that the
/// evaluation needs (query ground truth, case-study inspection).
struct Dataset {
  DatasetConfig config;
  AcademicSchema ids;  // schema handle with node/edge type ids
  HeteroGraph graph;
  /// Primary planted topic per paper (index = paper LocalIndex).
  std::vector<int32_t> paper_primary_topic;
  /// Primary planted topic per author (index = author LocalIndex).
  std::vector<int32_t> author_primary_topic;

  /// Convenience accessors.
  const HeteroGraph::NodeList& Papers() const {
    return graph.NodesOfType(ids.paper);
  }
  const HeteroGraph::NodeList& Authors() const {
    return graph.NodesOfType(ids.author);
  }
};

/// Generates a dataset deterministically from the config.
Dataset GenerateDataset(const DatasetConfig& config);

/// Wraps an externally-provided heterogeneous graph (e.g. loaded with
/// LoadGraph from a converted DBLP dump) as a Dataset. The graph's schema
/// must contain the academic node types A/P/V/T and edge types
/// Write/Publish/Mention/Cite; planted-topic arrays are derived from each
/// paper's first Mention edge (papers without one get topic 0).
StatusOr<Dataset> DatasetFromGraph(HeteroGraph graph, std::string name = "external");

/// Table I row: entity and relation counts.
struct DatasetStats {
  size_t papers = 0;
  size_t experts = 0;
  size_t venues = 0;
  size_t topics = 0;
  size_t relations = 0;
};

DatasetStats ComputeStats(const Dataset& dataset);

}  // namespace kpef

#endif  // KPEF_DATA_DATASET_H_
