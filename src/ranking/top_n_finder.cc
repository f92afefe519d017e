#include "ranking/top_n_finder.h"

#include <algorithm>
#include <unordered_map>

#include "common/logging.h"
#include "obs/metrics.h"
#include "obs/pipeline_metrics.h"
#include "obs/trace.h"

namespace kpef {
namespace {

bool BetterExpert(const ExpertScore& a, const ExpertScore& b) {
  if (a.score != b.score) return a.score > b.score;
  return a.author < b.author;
}

}  // namespace

std::vector<ExpertScore> RankExperts(const HeteroGraph& graph,
                                     EdgeTypeId write_type,
                                     const std::vector<NodeId>& top_papers,
                                     ContributionWeighting weighting, size_t n,
                                     TopNStats* stats) {
  KPEF_TRACE_SPAN("ranking.rank_experts");
  // Per-thread accumulator indexed by node id, all zero between calls:
  // one double per graph node, like the graph's own per-node arrays.
  // S(a, p) > 0, so a zero total marks an author not seen yet.
  thread_local std::vector<double> totals;
  thread_local std::vector<NodeId> touched;
  if (totals.size() < graph.NumNodes()) totals.resize(graph.NumNodes(), 0.0);
  touched.clear();
  TopNStats local;
  for (size_t j = 0; j < top_papers.size(); ++j) {
    ForEachContribution(graph, write_type, top_papers[j], j, weighting,
                        [&](NodeId author, double score) {
                          double& total = totals[author];
                          if (total == 0.0) touched.push_back(author);
                          total += score;
                          ++local.entries_accessed;
                        });
    ++local.rounds;
  }
  local.experts_touched = touched.size();
  std::vector<ExpertScore> top;
  top.reserve(touched.size());
  for (const NodeId author : touched) {
    top.push_back({author, totals[author]});
    totals[author] = 0.0;
  }
  const size_t count = std::min(n, top.size());
  std::partial_sort(top.begin(), top.begin() + count, top.end(),
                    BetterExpert);
  top.resize(count);
  KPEF_COUNTER_ADD(obs::kRankingFullScansTotal, 1);
  KPEF_COUNTER_ADD(obs::kRankingFullScanEntriesAccessed,
                   local.entries_accessed);
  if (stats) *stats = local;
  return top;
}

std::vector<ExpertScore> FullScanTopN(const RankedLists& lists, size_t n,
                                      TopNStats* stats) {
  KPEF_TRACE_SPAN("ranking.full_scan");
  TopNStats local;
  std::unordered_map<NodeId, double> totals;
  for (const auto& list : lists.lists) {
    for (const ExpertScore& entry : list) {
      totals[entry.author] += entry.score;
      ++local.entries_accessed;
    }
    ++local.rounds;
  }
  local.experts_touched = totals.size();
  std::vector<ExpertScore> all;
  all.reserve(totals.size());
  for (const auto& [author, score] : totals) all.push_back({author, score});
  std::sort(all.begin(), all.end(), BetterExpert);
  if (all.size() > n) all.resize(n);
  KPEF_COUNTER_ADD(obs::kRankingFullScansTotal, 1);
  KPEF_COUNTER_ADD(obs::kRankingFullScanEntriesAccessed,
                   local.entries_accessed);
  if (stats) *stats = local;
  return all;
}

std::vector<ExpertScore> ThresholdTopN(const RankedLists& lists, size_t n,
                                       TopNStats* stats) {
  KPEF_TRACE_SPAN("ranking.threshold_topn");
  TopNStats local;
  const size_t m = lists.lists.size();
  if (m == 0 || n == 0) {
    if (stats) *stats = local;
    return {};
  }

  // Per-list sorted-access state. cur[j] bounds unseen entries of list j;
  // entry d of list j has flat slot offset[j] + d.
  std::vector<double> cur(m, 0.0);
  std::vector<size_t> offset(m + 1, 0);
  double tau = 0.0;  // upper bound on a completely unseen author
  size_t max_depth = 0;
  for (size_t j = 0; j < m; ++j) {
    const auto& list = lists.lists[j];
    cur[j] = list.empty() ? 0.0 : list[0].score;
    tau += cur[j];
    offset[j + 1] = offset[j] + list.size();
    max_depth = std::max(max_depth, list.size());
  }
  // Bounds and scores are float sums of at most m non-negative terms, none
  // above the initial tau, so rounding moves each by far less than this
  // slack. Stopping only once the n-th lower bound clears every upper
  // bound by more than it makes the proven top-n exact, exact ties
  // included (they never stop early).
  const double slack = 1e-9 * tau;

  // Dense per-author state, indexed on first sight.
  std::unordered_map<NodeId, int32_t> author_index;
  std::vector<NodeId> authors;             // dense id -> author
  std::vector<double> lower;               // partial sum (depth order)
  std::vector<double> cur_sum_found;       // sum of cur[j] over found lists
  std::vector<int32_t> seen(offset[m], -1);  // slot -> dense id once read

  auto intern = [&](NodeId author) {
    auto [it, inserted] =
        author_index.emplace(author, static_cast<int32_t>(authors.size()));
    if (inserted) {
      authors.push_back(author);
      lower.push_back(0.0);
      cur_sum_found.push_back(0.0);
    }
    return it->second;
  };

  std::vector<std::pair<double, int32_t>> ranked;  // reused scratch
  bool proved = false;
  size_t depth = 0;
  while (depth < max_depth && !proved) {
    // One round of sorted access across all lists still holding entries.
    for (size_t j = 0; j < m; ++j) {
      const auto& list = lists.lists[j];
      if (depth >= list.size()) continue;
      const ExpertScore& entry = list[depth];
      ++local.entries_accessed;
      const int32_t a = intern(entry.author);
      lower[a] += entry.score;
      seen[offset[j] + depth] = a;
    }
    ++depth;
    ++local.rounds;
    // Refresh per-list thresholds; tau is re-summed, not updated, so its
    // rounding stays that of one m-term sum.
    tau = 0.0;
    for (size_t j = 0; j < m; ++j) {
      const auto& list = lists.lists[j];
      cur[j] = depth < list.size() ? list[depth].score : 0.0;
      tau += cur[j];
    }

    // Termination check (LB > UB). Skipped until enough experts exist.
    const size_t c = authors.size();
    if (c < n && c < lists.num_candidates) continue;
    // cur_sum_found[a] = sum of cur[j] over the lists a was found in.
    std::fill(cur_sum_found.begin(), cur_sum_found.end(), 0.0);
    for (size_t j = 0; j < m; ++j) {
      const size_t read = std::min(depth, lists.lists[j].size());
      for (size_t d = 0; d < read; ++d) {
        cur_sum_found[seen[offset[j] + d]] += cur[j];
      }
    }
    ranked.clear();
    for (size_t a = 0; a < c; ++a) {
      ranked.push_back({lower[a], static_cast<int32_t>(a)});
    }
    const size_t top_count = std::min(n, c);
    std::nth_element(ranked.begin(), ranked.begin() + (top_count - 1),
                     ranked.end(), [](const auto& x, const auto& y) {
                       if (x.first != y.first) return x.first > y.first;
                       return x.second < y.second;
                     });
    const double lb = ranked[top_count - 1].first;
    // UB over everyone outside the current top-n: visited others via
    // their tight bounds, unseen authors via tau.
    double ub = c < lists.num_candidates ? tau : 0.0;
    for (size_t i = top_count; i < c; ++i) {
      const int32_t a = ranked[i].second;
      ub = std::max(ub, lower[a] + (tau - cur_sum_found[a]));
    }
    if (lb > ub + slack) {
      proved = true;
      ranked.resize(top_count);
    }
  }
  local.early_terminated = proved && depth < max_depth;
  local.experts_touched = authors.size();

  // Exact scores of the candidates, summed per author in paper-rank order
  // as FullScanTopN does. Candidates are the proven top-n, or everyone
  // when the lists ran dry first. Entries sorted access skipped are
  // resolved by author lookup (TA's random access).
  std::vector<char> candidate(authors.size(), proved ? 0 : 1);
  if (proved) {
    for (const auto& [bound, a] : ranked) candidate[a] = 1;
  }
  std::vector<double> exact(authors.size(), 0.0);
  for (size_t j = 0; j < m; ++j) {
    const auto& list = lists.lists[j];
    for (size_t d = 0; d < list.size(); ++d) {
      int32_t a = seen[offset[j] + d];
      if (a < 0) {
        const auto it = author_index.find(list[d].author);
        if (it == author_index.end()) continue;
        a = it->second;
      }
      if (candidate[a]) exact[a] += list[d].score;
    }
  }
  std::vector<ExpertScore> result;
  for (size_t a = 0; a < authors.size(); ++a) {
    if (candidate[a]) result.push_back({authors[a], exact[a]});
  }
  const size_t count = std::min(n, result.size());
  std::partial_sort(result.begin(), result.begin() + count, result.end(),
                    BetterExpert);
  result.resize(count);
  KPEF_COUNTER_ADD(obs::kTaQueriesTotal, 1);
  KPEF_COUNTER_ADD(obs::kTaEntriesAccessed, local.entries_accessed);
  if (local.early_terminated) {
    KPEF_COUNTER_ADD(obs::kTaEarlyTerminationTotal, 1);
  }
  KPEF_HISTOGRAM_OBSERVE(obs::kTaRounds, local.rounds);
  if (stats) *stats = local;
  return result;
}

}  // namespace kpef
