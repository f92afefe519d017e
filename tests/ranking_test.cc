#include <cmath>
#include <map>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "data/dataset.h"
#include "graph/schema.h"
#include "ranking/expert_score.h"
#include "ranking/top_n_finder.h"
#include "test_graphs.h"

namespace kpef {
namespace {

TEST(ZipfContributionTest, MatchesFormula) {
  // Single author: weight 1.
  EXPECT_DOUBLE_EQ(ZipfContribution(1, 1), 1.0);
  // Two authors: H(2) = 1.5 -> first 2/3, second 1/3.
  EXPECT_NEAR(ZipfContribution(1, 2), 1.0 / 1.5, 1e-12);
  EXPECT_NEAR(ZipfContribution(2, 2), 1.0 / 3.0, 1e-12);
  // Three authors: H(3) = 11/6.
  EXPECT_NEAR(ZipfContribution(1, 3), 6.0 / 11.0, 1e-12);
  EXPECT_NEAR(ZipfContribution(3, 3), 2.0 / 11.0, 1e-12);
}

TEST(ZipfContributionTest, WeightsSumToOne) {
  for (size_t n : {1u, 2u, 5u, 9u}) {
    double total = 0.0;
    for (size_t r = 1; r <= n; ++r) total += ZipfContribution(r, n);
    EXPECT_NEAR(total, 1.0, 1e-9);
  }
}

TEST(ZipfContributionTest, DecreasesWithRank) {
  for (size_t r = 1; r < 6; ++r) {
    EXPECT_GT(ZipfContribution(r, 6), ZipfContribution(r + 1, 6));
  }
}

class RankedListsTest : public ::testing::Test {
 protected:
  RankedListsTest() : g_(Figure2Graph::Make()) {}
  Figure2Graph g_;
};

TEST_F(RankedListsTest, BuildsOneListPerPaper) {
  // p3 has authors (a0, a1); p4 has (a1, a2).
  const std::vector<NodeId> papers = {g_.papers[3], g_.papers[4]};
  const RankedLists lists = BuildRankedLists(g_.graph, g_.ids.write, papers);
  ASSERT_EQ(lists.lists.size(), 2u);
  EXPECT_EQ(lists.papers, papers);
  EXPECT_EQ(lists.num_candidates, 3u);  // a0, a1, a2
  // First list: rank-1 paper -> S(a0) = (1/1)*(1/(1*1.5)) = 2/3.
  ASSERT_EQ(lists.lists[0].size(), 2u);
  EXPECT_EQ(lists.lists[0][0].author, g_.authors[0]);
  EXPECT_NEAR(lists.lists[0][0].score, 2.0 / 3.0, 1e-9);
  EXPECT_EQ(lists.lists[0][1].author, g_.authors[1]);
  EXPECT_NEAR(lists.lists[0][1].score, 1.0 / 3.0, 1e-9);
  // Second list: rank-2 paper halves every score.
  EXPECT_NEAR(lists.lists[1][0].score, 0.5 * 2.0 / 3.0, 1e-9);
}

TEST_F(RankedListsTest, ListsSortedDescending) {
  const RankedLists lists =
      BuildRankedLists(g_.graph, g_.ids.write, g_.papers);
  for (const auto& list : lists.lists) {
    for (size_t i = 1; i < list.size(); ++i) {
      EXPECT_GE(list[i - 1].score, list[i].score);
    }
  }
}

TEST_F(RankedListsTest, PaperWithNoAuthorsYieldsEmptyList) {
  const RankedLists lists =
      BuildRankedLists(g_.graph, g_.ids.write, {g_.papers[9]});
  ASSERT_EQ(lists.lists.size(), 1u);
  EXPECT_TRUE(lists.lists[0].empty());
  EXPECT_EQ(lists.num_candidates, 0u);
}

// Builds a synthetic RankedLists with random scores (no graph needed).
RankedLists SyntheticLists(size_t num_papers, size_t num_authors,
                           double appear_prob, uint64_t seed) {
  Rng rng(seed);
  RankedLists lists;
  lists.lists.resize(num_papers);
  lists.papers.resize(num_papers);
  std::set<NodeId> candidates;
  for (size_t j = 0; j < num_papers; ++j) {
    lists.papers[j] = static_cast<NodeId>(1000 + j);
    for (size_t a = 0; a < num_authors; ++a) {
      if (!rng.Bernoulli(appear_prob)) continue;
      lists.lists[j].push_back(
          {static_cast<NodeId>(a), rng.UniformDouble(0.01, 1.0)});
      candidates.insert(static_cast<NodeId>(a));
    }
    std::sort(lists.lists[j].begin(), lists.lists[j].end(),
              [](const ExpertScore& x, const ExpertScore& y) {
                if (x.score != y.score) return x.score > y.score;
                return x.author < y.author;
              });
  }
  lists.num_candidates = candidates.size();
  return lists;
}

struct TACase {
  size_t papers;
  size_t authors;
  double prob;
  size_t n;
  uint64_t seed;
};

class ThresholdAlgorithmTest : public ::testing::TestWithParam<TACase> {};

TEST_P(ThresholdAlgorithmTest, MatchesFullScan) {
  const TACase c = GetParam();
  const RankedLists lists =
      SyntheticLists(c.papers, c.authors, c.prob, c.seed);
  TopNStats full_stats, ta_stats;
  const auto full = FullScanTopN(lists, c.n, &full_stats);
  const auto ta = ThresholdTopN(lists, c.n, &ta_stats);
  ASSERT_EQ(full.size(), ta.size());
  for (size_t i = 0; i < full.size(); ++i) {
    EXPECT_EQ(full[i].author, ta[i].author) << "rank " << i;
    EXPECT_EQ(full[i].score, ta[i].score) << "rank " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    RandomInstances, ThresholdAlgorithmTest,
    ::testing::Values(TACase{5, 10, 0.5, 3, 1}, TACase{20, 40, 0.2, 5, 2},
                      TACase{50, 100, 0.1, 10, 3}, TACase{10, 5, 0.9, 2, 4},
                      TACase{30, 200, 0.05, 20, 5}, TACase{1, 10, 0.8, 3, 6},
                      TACase{40, 40, 0.15, 1, 7},
                      TACase{15, 8, 0.6, 100, 8}),  // n > candidates
    [](const ::testing::TestParamInfo<TACase>& info) {
      const TACase& c = info.param;
      return "m" + std::to_string(c.papers) + "_a" +
             std::to_string(c.authors) + "_n" + std::to_string(c.n) + "_s" +
             std::to_string(c.seed);
    });

TEST(ThresholdAlgorithmDetailTest, EarlyTerminationHappens) {
  // Long lists dominated by one superstar author: TA should stop early.
  RankedLists lists;
  const size_t m = 30;
  lists.lists.resize(m);
  lists.papers.resize(m);
  for (size_t j = 0; j < m; ++j) {
    lists.papers[j] = static_cast<NodeId>(j);
    lists.lists[j].push_back({0, 10.0});  // superstar tops every list
    for (size_t a = 1; a < 50; ++a) {
      lists.lists[j].push_back(
          {static_cast<NodeId>(a), 0.001 / static_cast<double>(a)});
    }
  }
  lists.num_candidates = 50;
  TopNStats stats;
  const auto top = ThresholdTopN(lists, 1, &stats);
  ASSERT_EQ(top.size(), 1u);
  EXPECT_EQ(top[0].author, 0);
  EXPECT_NEAR(top[0].score, 300.0, 1e-9);
  EXPECT_TRUE(stats.early_terminated);
  EXPECT_LT(stats.entries_accessed, m * 50);
}

TEST(ThresholdAlgorithmDetailTest, EmptyInputs) {
  RankedLists empty;
  EXPECT_TRUE(ThresholdTopN(empty, 5).empty());
  EXPECT_TRUE(FullScanTopN(empty, 5).empty());
  const RankedLists lists = SyntheticLists(3, 5, 0.5, 9);
  EXPECT_TRUE(ThresholdTopN(lists, 0).empty());
}

TEST(ThresholdAlgorithmDetailTest, StatsAccounting) {
  const RankedLists lists = SyntheticLists(10, 30, 0.3, 11);
  TopNStats full_stats, ta_stats;
  FullScanTopN(lists, 5, &full_stats);
  ThresholdTopN(lists, 5, &ta_stats);
  size_t total_entries = 0;
  for (const auto& l : lists.lists) total_entries += l.size();
  EXPECT_EQ(full_stats.entries_accessed, total_entries);
  EXPECT_LE(ta_stats.entries_accessed, total_entries);
  EXPECT_GT(ta_stats.rounds, 0u);
}

// Random authorship: each paper has 1-4 distinct authors drawn with
// Zipf-skewed popularity from a pool of `num_authors`, so prolific
// authors recur across papers (and can let TA stop early).
struct RandomAuthorship {
  AcademicSchema ids;
  HeteroGraph graph;
  std::vector<NodeId> papers;
};

RandomAuthorship MakeRandomAuthorship(size_t num_papers, size_t num_authors,
                                      Rng& rng) {
  RandomAuthorship g;
  g.ids = AcademicSchema::Make();
  HeteroGraphBuilder builder(g.ids.schema);
  std::vector<NodeId> authors;
  for (size_t a = 0; a < num_authors; ++a) {
    authors.push_back(builder.AddNode(g.ids.author));
  }
  for (size_t p = 0; p < num_papers; ++p) {
    const NodeId paper = builder.AddNode(g.ids.paper);
    g.papers.push_back(paper);
    const size_t count = 1 + rng.Uniform(4);
    std::set<NodeId> used;
    for (size_t i = 0; i < count; ++i) {
      const NodeId author = authors[rng.Zipf(num_authors, 1.2) - 1];
      if (!used.insert(author).second) continue;
      if (!builder.AddEdge(g.ids.write, author, paper).ok()) std::abort();
    }
  }
  g.graph = std::move(builder).Build();
  return g;
}

void ExpectSameAnswer(const std::vector<ExpertScore>& expected,
                      const std::vector<ExpertScore>& actual) {
  ASSERT_EQ(expected.size(), actual.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(expected[i].author, actual[i].author) << "rank " << i;
    EXPECT_EQ(expected[i].score, actual[i].score) << "rank " << i;
  }
}

// TA, the list full scan and the one-pass RankExperts sum each author's
// contributions in paper-rank order and break ties by author id, so they
// agree bit for bit — including uniform weighting, whose equal-share
// co-authors tie exactly, and instances where TA stops early.
TEST(RankingEquivalenceTest, ThresholdFullScanAndOnePassAgreeBitForBit) {
  size_t early_stops = 0, ties = 0;
  for (uint64_t seed = 1; seed <= 60; ++seed) {
    Rng rng(seed);
    const RandomAuthorship g =
        MakeRandomAuthorship(80, 2 + rng.Uniform(60), rng);
    // A random retrieval: some of the papers, in random rank order.
    std::vector<NodeId> top = g.papers;
    rng.Shuffle(top);
    top.resize(1 + rng.Uniform(top.size()));
    for (const ContributionWeighting weighting :
         {ContributionWeighting::kZipf, ContributionWeighting::kUniform}) {
      const RankedLists lists =
          BuildRankedLists(g.graph, g.ids.write, top, weighting);
      for (const size_t n : {1u, 2u, 5u, 10u, 1000u}) {
        SCOPED_TRACE(::testing::Message()
                     << "seed=" << seed << " n=" << n << " uniform="
                     << (weighting == ContributionWeighting::kUniform));
        TopNStats full_stats, ta_stats, one_stats;
        const auto full = FullScanTopN(lists, n, &full_stats);
        ExpectSameAnswer(full, ThresholdTopN(lists, n, &ta_stats));
        ExpectSameAnswer(full, RankExperts(g.graph, g.ids.write, top,
                                           weighting, n, &one_stats));
        EXPECT_EQ(one_stats.entries_accessed, full_stats.entries_accessed);
        EXPECT_EQ(one_stats.experts_touched, full_stats.experts_touched);
        EXPECT_EQ(one_stats.rounds, full_stats.rounds);
        EXPECT_LE(ta_stats.entries_accessed, full_stats.entries_accessed);
        early_stops += ta_stats.early_terminated;
        for (size_t i = 1; i < full.size(); ++i) {
          ties += full[i].score == full[i - 1].score;
        }
      }
    }
  }
  // The sweep must exercise both the early-stop boundary and exact ties.
  EXPECT_GT(early_stops, 0u);
  EXPECT_GT(ties, 0u);
}

TEST(ExpertRankingIntegrationTest, AggregatesAcrossPapers) {
  const Figure2Graph g = Figure2Graph::Make();
  // Retrieve p3 then p4: a1 appears in both (rank 2 in p3, rank 1 in p4).
  const RankedLists lists =
      BuildRankedLists(g.graph, g.ids.write, {g.papers[3], g.papers[4]});
  const auto top = FullScanTopN(lists, 3);
  ASSERT_EQ(top.size(), 3u);
  std::map<NodeId, double> scores;
  for (const auto& e : top) scores[e.author] = e.score;
  // R(a1) = 1/3 (rank2 of p3) + (1/2)*(2/3) (rank1 of p4) = 2/3.
  EXPECT_NEAR(scores[g.authors[1]], 1.0 / 3.0 + 0.5 * 2.0 / 3.0, 1e-9);
  // R(a0) = 2/3 from p3 only.
  EXPECT_NEAR(scores[g.authors[0]], 2.0 / 3.0, 1e-9);
  // a0 and a1 tie at 2/3: tie broken by smaller node id (a0 first).
  EXPECT_EQ(top[0].author, g.authors[0]);
  EXPECT_EQ(top[1].author, g.authors[1]);
}

}  // namespace
}  // namespace kpef
