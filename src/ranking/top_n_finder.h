// Top-n expert extraction (§IV-C): the one-pass full scan the engine
// serves with, and over the ranked lists of Figure 6 the TA-based early-
// terminating algorithm and the exhaustive full-scan baseline ("w/o TA"
// in Figure 7). All three return the same experts with bit-identical
// scores: each sums an author's S(a, p) in paper-rank order and breaks
// score ties by author id.

#ifndef KPEF_RANKING_TOP_N_FINDER_H_
#define KPEF_RANKING_TOP_N_FINDER_H_

#include <cstdint>
#include <vector>

#include "graph/hetero_graph.h"
#include "ranking/expert_score.h"

namespace kpef {

/// Work counters comparing TA against the full scan.
struct TopNStats {
  /// Rounds of sorted access (depth reached in the lists).
  size_t rounds = 0;
  /// List entries read.
  uint64_t entries_accessed = 0;
  /// Distinct experts materialized.
  size_t experts_touched = 0;
  /// True when TA stopped before exhausting the lists.
  bool early_terminated = false;
};

/// Exact top-n of the retrieved papers `top_papers` (best first) in one
/// pass: walks them in rank order, adds each author's S(a, p) into one
/// accumulator, and partial-sorts the top n. Output and stats equal
/// FullScanTopN(BuildRankedLists(graph, write_type, top_papers,
/// weighting), n) without materializing the lists.
std::vector<ExpertScore> RankExperts(const HeteroGraph& graph,
                                     EdgeTypeId write_type,
                                     const std::vector<NodeId>& top_papers,
                                     ContributionWeighting weighting, size_t n,
                                     TopNStats* stats = nullptr);

/// Exact top-n by full aggregation of every list (scores all candidates).
/// Descending by R(a), ties broken by author id.
std::vector<ExpertScore> FullScanTopN(const RankedLists& lists, size_t n,
                                      TopNStats* stats = nullptr);

/// Threshold-algorithm top-n with upper/lower bound maintenance and the
/// LB > UB termination check (Theorem 2). Sorted access only proves which
/// experts form the top n; their scores are then summed in paper-rank
/// order, so experts and scores are bit-identical to FullScanTopN.
/// entries_accessed counts sorted accesses only.
std::vector<ExpertScore> ThresholdTopN(const RankedLists& lists, size_t n,
                                       TopNStats* stats = nullptr);

}  // namespace kpef

#endif  // KPEF_RANKING_TOP_N_FINDER_H_
