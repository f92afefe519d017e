// Expert scoring (§IV-C, Eq. 4-6): per-paper expert scores with Zipf
// author-contribution weights, aggregated into the ranking score R(a).
//
// Note on polarity: the paper's Eq. 1 says "argmin R(a)" but its own
// Eq. 4-6, Figure 6 and Theorem 2 all treat larger R as better (more
// well-ranked papers => larger sum). We follow the TA semantics: top-n
// experts are those with the LARGEST ranking score.

#ifndef KPEF_RANKING_EXPERT_SCORE_H_
#define KPEF_RANKING_EXPERT_SCORE_H_

#include <cstdint>
#include <vector>

#include "ann/neighbor.h"
#include "graph/hetero_graph.h"

namespace kpef {

/// An expert with an aggregated ranking score.
struct ExpertScore {
  NodeId author = kInvalidNode;
  double score = 0.0;
};

/// Harmonic number H(n) = 1 + 1/2 + ... + 1/n, summed in that order.
double HarmonicNumber(size_t n);

/// Zipf contribution weight w(a, p) (Eq. 5) for the author at 1-based
/// `author_rank` among `num_authors` authors: 1 / (rank * H(num_authors)).
double ZipfContribution(size_t author_rank, size_t num_authors);

/// How an author's contribution to a paper is weighted in Eq. 4.
enum class ContributionWeighting {
  /// The paper's Zipf author-position weight (Eq. 5).
  kZipf,
  /// Uniform 1/|Cp| weight: the reciprocal-rank scoring of Macdonald &
  /// Ounis [37] that the paper uses as its point of comparison.
  kUniform,
};

/// Calls visit(author, S(a, p)) for every author of `paper`, retrieved at
/// 0-based position `j` (I(p) = j + 1), in author-rank order:
/// S(a, p) = w(a, p) / I(p) (Eq. 4). Authors are read from the graph's
/// Write adjacency; its segments (base + ingest delta) concatenated are
/// the author list in insertion (author-rank) order, so Eq. 5's rank
/// also holds for papers that arrived via streaming ingestion. Every
/// ranking path scores through here, so their per-entry values are
/// bit-identical.
template <typename Visit>
void ForEachContribution(const HeteroGraph& graph, EdgeTypeId write_type,
                         NodeId paper, size_t j,
                         ContributionWeighting weighting, Visit&& visit) {
  const auto segments = graph.NeighborSegments(paper, write_type);
  const size_t num_authors = segments.size();
  const bool zipf = weighting == ContributionWeighting::kZipf;
  const double harmonic = zipf ? HarmonicNumber(num_authors) : 0.0;
  const double inv_paper_rank = 1.0 / static_cast<double>(j + 1);
  for (size_t slot = 0; slot < num_authors; ++slot) {
    const NodeId author = slot < segments.base.size()
                              ? segments.base[slot]
                              : segments.delta[slot - segments.base.size()];
    const double w =
        zipf ? 1.0 / (static_cast<double>(slot + 1) * harmonic)
             : 1.0 / static_cast<double>(num_authors);
    visit(author, inv_paper_rank * w);
  }
}

/// The m ranked lists L_1..L_m of Figure 6, one per retrieved paper
/// (papers ordered by retrieval rank I(p) = j+1).
struct RankedLists {
  /// lists[j] = candidate experts of paper j with their S(a, p_j),
  /// descending by score (ties broken by author id).
  std::vector<std::vector<ExpertScore>> lists;
  /// Papers behind each list, in rank order.
  std::vector<NodeId> papers;
  /// Distinct candidate experts over all lists.
  size_t num_candidates = 0;
};

/// Builds the ranked score lists for the retrieved papers `top_papers`
/// (descending relevance; index i has retrieval rank I(p) = i + 1).
/// Authors are read from the graph's Write adjacency, whose order is the
/// author-rank order.
RankedLists BuildRankedLists(
    const HeteroGraph& graph, EdgeTypeId write_type,
    const std::vector<NodeId>& top_papers,
    ContributionWeighting weighting = ContributionWeighting::kZipf);

}  // namespace kpef

#endif  // KPEF_RANKING_EXPERT_SCORE_H_
