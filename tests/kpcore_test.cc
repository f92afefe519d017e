#include <algorithm>
#include <ostream>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "data/dataset.h"
#include "kpcore/core_decomposition.h"
#include "kpcore/fastbcore.h"
#include "kpcore/kpcore_search.h"
#include "kpcore/multi_path.h"
#include "kpcore/naive_search.h"
#include "metapath/p_neighbor.h"
#include "metapath/projection.h"
#include "test_graphs.h"

namespace kpef {
namespace {

HomogeneousProjection FromRows(std::vector<std::vector<int32_t>> rows) {
  std::vector<NodeId> nodes(rows.size());
  for (size_t i = 0; i < rows.size(); ++i) nodes[i] = static_cast<NodeId>(i);
  return HomogeneousProjection::FromAdjacency(0, std::move(nodes),
                                              std::move(rows));
}

HomogeneousProjection LineGraph(size_t n) {
  // Simple path graph 0-1-2-...-n-1 as a projection (for decomposition
  // tests without heterogeneous scaffolding).
  std::vector<std::vector<int32_t>> rows(n);
  for (size_t i = 0; i + 1 < n; ++i) {
    rows[i].push_back(static_cast<int32_t>(i + 1));
    rows[i + 1].push_back(static_cast<int32_t>(i));
  }
  return FromRows(std::move(rows));
}

HomogeneousProjection Clique(size_t n) {
  std::vector<std::vector<int32_t>> rows(n);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < n; ++j) {
      if (i != j) rows[i].push_back(static_cast<int32_t>(j));
    }
  }
  return FromRows(std::move(rows));
}

TEST(CoreDecompositionTest, LineGraphHasCoreNumberOne) {
  const auto cores = CoreDecomposition(LineGraph(6));
  for (int32_t c : cores) EXPECT_EQ(c, 1);
}

TEST(CoreDecompositionTest, CliqueHasCoreNumberNMinusOne) {
  const auto cores = CoreDecomposition(Clique(5));
  for (int32_t c : cores) EXPECT_EQ(c, 4);
}

TEST(CoreDecompositionTest, SingletonAndEmpty) {
  EXPECT_TRUE(CoreDecomposition(LineGraph(0)).empty());
  const auto cores = CoreDecomposition(LineGraph(1));
  ASSERT_EQ(cores.size(), 1u);
  EXPECT_EQ(cores[0], 0);
}

TEST(CoreDecompositionTest, CliqueWithTail) {
  // 4-clique {0,1,2,3} plus tail 3-4-5.
  std::vector<std::vector<int32_t>> rows = {
      {1, 2, 3}, {0, 2, 3}, {0, 1, 3}, {0, 1, 2, 4}, {3, 5}, {4}};
  const HomogeneousProjection g = FromRows(std::move(rows));
  const auto cores = CoreDecomposition(g);
  EXPECT_EQ(cores[0], 3);
  EXPECT_EQ(cores[1], 3);
  EXPECT_EQ(cores[2], 3);
  EXPECT_EQ(cores[3], 3);
  EXPECT_EQ(cores[4], 1);
  EXPECT_EQ(cores[5], 1);
}

TEST(CoreDecompositionTest, KCoreComponentRespectsK) {
  HomogeneousProjection g = Clique(4);
  const auto cores = CoreDecomposition(g);
  EXPECT_EQ(KCoreComponentOf(g, cores, 0, 3).size(), 4u);
  EXPECT_TRUE(KCoreComponentOf(g, cores, 0, 4).empty());
}

TEST(CoreDecompositionTest, CoreNumbersMatchFigure2) {
  // On the P-A-P projection of Figure 2, clique papers p0..p3 and p5..p8
  // have core number 3; bridge p4 has at most 2 (it links p3 and p5,
  // which form a path); isolated p9 has 0.
  const Figure2Graph g = Figure2Graph::Make();
  const MetaPath pap = *MetaPath::Parse(g.ids.schema, "P-A-P");
  const std::vector<int32_t> cores =
      CoreDecomposition(ProjectHomogeneous(g.graph, pap));
  ASSERT_EQ(cores.size(), g.papers.size());
  const auto core_of = [&](size_t i) {
    return cores[g.graph.LocalIndex(g.papers[i])];
  };
  for (size_t i : {0, 1, 2, 3, 5, 6, 7, 8}) {
    EXPECT_EQ(core_of(i), 3) << "p" << i;
  }
  EXPECT_LE(core_of(4), 2);
  EXPECT_EQ(core_of(9), 0);
  EXPECT_EQ(*std::max_element(cores.begin(), cores.end()), 3);
}

class KPCoreFigure2Test : public ::testing::Test {
 protected:
  KPCoreFigure2Test()
      : g_(Figure2Graph::Make()),
        pap_(*MetaPath::Parse(g_.ids.schema, "P-A-P")) {}

  Figure2Graph g_;
  MetaPath pap_;
};

TEST_F(KPCoreFigure2Test, StrictCoreMatchesExample4) {
  // Seed p3 (has 4 P-neighbors), k = 3: strict core = clique {p0..p3}.
  const KPCoreCommunity result = KPCoreSearch(g_.graph, pap_, g_.papers[3], 3);
  EXPECT_EQ(result.core, (std::vector<NodeId>{g_.papers[0], g_.papers[1],
                                              g_.papers[2], g_.papers[3]}));
  // Extension re-admits the bridge paper p4 (deg 2 < k).
  EXPECT_EQ(result.extension, (std::vector<NodeId>{g_.papers[4]}));
}

TEST_F(KPCoreFigure2Test, PrunedBridgeStopsExpansion) {
  // With pruning, the search from p3 must not expand past p4 into the
  // second clique: p5..p8 never get their neighbor lists materialized.
  const KPCoreCommunity result = KPCoreSearch(g_.graph, pap_, g_.papers[3], 3);
  EXPECT_LE(result.papers_expanded, 6u);  // p3, p0..p2, p4 (+slack)
  KPCoreSearchOptions no_prune;
  no_prune.enable_pruning = false;
  const KPCoreCommunity full =
      KPCoreSearch(g_.graph, pap_, g_.papers[3], 3, no_prune);
  EXPECT_GT(full.papers_expanded, result.papers_expanded);
  EXPECT_EQ(full.core, result.core);  // Theorem 1: same strict core.
}

TEST_F(KPCoreFigure2Test, NearNegativesComeFromDeleteQueue) {
  const KPCoreCommunity result = KPCoreSearch(g_.graph, pap_, g_.papers[3], 3);
  // p4 went through D but was re-admitted by the extension, so the near
  // negative pool must not contain it (nor any core/extension member).
  for (NodeId v : result.near_negatives) {
    EXPECT_FALSE(result.CoreContains(v));
    EXPECT_FALSE(std::binary_search(result.extension.begin(),
                                    result.extension.end(), v));
  }
}

TEST_F(KPCoreFigure2Test, SeedBelowKGivesEmptyCore) {
  // p4 has degree 2 < 3: strict core empty; extension = its P-neighbors.
  const KPCoreCommunity result = KPCoreSearch(g_.graph, pap_, g_.papers[4], 3);
  EXPECT_TRUE(result.core.empty());
  EXPECT_EQ(result.extension,
            (std::vector<NodeId>{g_.papers[3], g_.papers[5]}));
}

TEST_F(KPCoreFigure2Test, KZeroReturnsReachableComponent) {
  const KPCoreCommunity result = KPCoreSearch(g_.graph, pap_, g_.papers[0], 0);
  // All of p0..p8 are P-A-P-reachable from p0; p9 is isolated.
  EXPECT_EQ(result.core.size(), 9u);
  EXPECT_FALSE(result.CoreContains(g_.papers[9]));
}

TEST_F(KPCoreFigure2Test, CoreShrinksAsKGrows) {
  size_t previous = g_.papers.size() + 1;
  for (int32_t k = 0; k <= 5; ++k) {
    const KPCoreCommunity result =
        KPCoreSearch(g_.graph, pap_, g_.papers[0], k);
    EXPECT_LE(result.core.size(), previous);
    previous = result.core.size();
  }
}

TEST_F(KPCoreFigure2Test, CoreMembersSatisfyDegreeConstraint) {
  for (int32_t k = 1; k <= 4; ++k) {
    const KPCoreCommunity result =
        KPCoreSearch(g_.graph, pap_, g_.papers[0], k);
    PNeighborFinder finder(g_.graph, pap_);
    for (NodeId member : result.core) {
      // Degree within the core must be >= k.
      size_t in_core = 0;
      for (NodeId u : finder.Neighbors(member)) {
        in_core += result.CoreContains(u);
      }
      EXPECT_GE(in_core, static_cast<size_t>(k));
    }
  }
}

TEST_F(KPCoreFigure2Test, ExtensionCapRespected) {
  KPCoreSearchOptions options;
  options.max_extension = 0;
  const KPCoreCommunity result =
      KPCoreSearch(g_.graph, pap_, g_.papers[3], 3, options);
  EXPECT_TRUE(result.extension.empty());
  KPCoreSearchOptions no_ext;
  no_ext.enable_extension = false;
  EXPECT_TRUE(
      KPCoreSearch(g_.graph, pap_, g_.papers[3], 3, no_ext).extension.empty());
}

TEST_F(KPCoreFigure2Test, FastBCoreMatchesOnFigure2) {
  for (NodeId seed : g_.papers) {
    for (int32_t k = 0; k <= 4; ++k) {
      const KPCoreCommunity fast = FastBCoreSearch(g_.graph, pap_, seed, k);
      const KPCoreCommunity ours = KPCoreSearch(g_.graph, pap_, seed, k);
      EXPECT_EQ(fast.core, ours.core) << "seed " << seed << " k " << k;
    }
  }
}

TEST_F(KPCoreFigure2Test, MultiPathIntersectionIsSubset) {
  auto ptp = *MetaPath::Parse(g_.ids.schema, "P-T-P");
  const KPCoreCommunity a = KPCoreSearch(g_.graph, pap_, g_.papers[3], 3);
  const KPCoreCommunity t = KPCoreSearch(g_.graph, ptp, g_.papers[3], 3);
  const KPCoreCommunity both =
      MultiPathKPCoreSearch(g_.graph, {pap_, ptp}, g_.papers[3], 3);
  for (NodeId v : both.core) {
    EXPECT_TRUE(a.CoreContains(v));
    EXPECT_TRUE(t.CoreContains(v));
  }
  // Figure 2: topic t0 covers p0..p4 so the AT intersection at k=3 is the
  // co-author clique {p0..p3}.
  EXPECT_EQ(both.core, a.core);
}

// --- Theorem 1 property test over generated datasets: the strict cores of
// the naive decomposition, FastBCore, and Algorithm 1 coincide for every
// (seed, k, meta-path).
struct TheoremCase {
  const char* path;
  int32_t k;
};

// Print sweep points by value. gtest's default printer dumps the struct's
// raw bytes, `path` pointer included, and ASLR moves that pointer on every
// run, so the ctest name discovered for each case would change from build
// to build.
void PrintTo(const TheoremCase& c, std::ostream* os) {
  *os << c.path << " k=" << c.k;
}

class Theorem1Test : public ::testing::TestWithParam<TheoremCase> {
 protected:
  static const Dataset& dataset() {
    static const Dataset* d = new Dataset(GenerateDataset(TinyProfile()));
    return *d;
  }
};

TEST_P(Theorem1Test, AllThreeAlgorithmsAgree) {
  const Dataset& data = dataset();
  const TheoremCase param = GetParam();
  auto path = MetaPath::Parse(data.graph.schema(), param.path);
  ASSERT_TRUE(path.ok());
  const HomogeneousProjection projection =
      ProjectHomogeneous(data.graph, *path);
  // A deterministic spread of seeds.
  const auto& papers = data.Papers();
  for (size_t i = 0; i < papers.size(); i += 17) {
    const NodeId seed = papers[i];
    const KPCoreCommunity naive =
        NaiveKPCoreSearchOnProjection(data.graph, projection, seed, param.k);
    const KPCoreCommunity fast =
        FastBCoreSearch(data.graph, *path, seed, param.k);
    const KPCoreCommunity ours = KPCoreSearch(data.graph, *path, seed, param.k);
    EXPECT_EQ(naive.core, fast.core) << "seed " << seed;
    EXPECT_EQ(fast.core, ours.core) << "seed " << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(
    SweepsPathsAndK, Theorem1Test,
    ::testing::Values(TheoremCase{"P-A-P", 2}, TheoremCase{"P-A-P", 3},
                      TheoremCase{"P-A-P", 4}, TheoremCase{"P-A-P", 6},
                      TheoremCase{"P-P", 1}, TheoremCase{"P-P", 2},
                      TheoremCase{"P-P", 3}, TheoremCase{"P-T-P", 4},
                      TheoremCase{"P-T-P", 8}),
    [](const ::testing::TestParamInfo<TheoremCase>& info) {
      std::string name = info.param.path;
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name + "_k" + std::to_string(info.param.k);
    });

// --- Backend equivalence: searches over a materialized CSR projection
// must be bit-identical to the finder-backed path — core, extension,
// near negatives, AND discovery order. Generate's determinism contract
// (DESIGN.md §10) rests on this; edges_scanned intentionally differs
// (hetero edges walked vs projection entries read).
class BackendEquivalenceTest : public ::testing::TestWithParam<TheoremCase> {
 protected:
  static const Dataset& dataset() {
    static const Dataset* d = new Dataset(GenerateDataset(TinyProfile()));
    return *d;
  }
};

TEST_P(BackendEquivalenceTest, ProjectionMatchesFinder) {
  const Dataset& data = dataset();
  const TheoremCase param = GetParam();
  auto path = MetaPath::Parse(data.graph.schema(), param.path);
  ASSERT_TRUE(path.ok());
  const HomogeneousProjection projection =
      ProjectHomogeneous(data.graph, *path);
  const auto& papers = data.Papers();
  for (size_t i = 0; i < papers.size(); i += 13) {
    const NodeId seed = papers[i];
    const KPCoreCommunity finder_fast =
        FastBCoreSearch(data.graph, *path, seed, param.k);
    const KPCoreCommunity proj_fast =
        FastBCoreSearch(data.graph, projection, seed, param.k);
    EXPECT_EQ(finder_fast.core, proj_fast.core) << "seed " << seed;
    EXPECT_EQ(finder_fast.near_negatives, proj_fast.near_negatives)
        << "seed " << seed;
    EXPECT_EQ(finder_fast.core_by_discovery, proj_fast.core_by_discovery)
        << "seed " << seed;
    EXPECT_EQ(finder_fast.papers_expanded, proj_fast.papers_expanded);

    const KPCoreCommunity finder_ours =
        KPCoreSearch(data.graph, *path, seed, param.k);
    const KPCoreCommunity proj_ours =
        KPCoreSearch(data.graph, projection, seed, param.k);
    EXPECT_EQ(finder_ours.core, proj_ours.core) << "seed " << seed;
    EXPECT_EQ(finder_ours.extension, proj_ours.extension) << "seed " << seed;
    EXPECT_EQ(finder_ours.near_negatives, proj_ours.near_negatives)
        << "seed " << seed;
    EXPECT_EQ(finder_ours.core_by_discovery, proj_ours.core_by_discovery)
        << "seed " << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(
    SweepsPathsAndK, BackendEquivalenceTest,
    ::testing::Values(TheoremCase{"P-A-P", 2}, TheoremCase{"P-A-P", 4},
                      TheoremCase{"P-P", 2}, TheoremCase{"P-T-P", 4},
                      TheoremCase{"P-V-P", 3}),
    [](const ::testing::TestParamInfo<TheoremCase>& info) {
      std::string name = info.param.path;
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name + "_k" + std::to_string(info.param.k);
    });

TEST(BackendEquivalenceMultiPathTest, ProjectionOverloadMatchesFinder) {
  const Figure2Graph g = Figure2Graph::Make();
  auto pap = *MetaPath::Parse(g.ids.schema, "P-A-P");
  auto ptp = *MetaPath::Parse(g.ids.schema, "P-T-P");
  std::vector<HomogeneousProjection> projections;
  projections.push_back(ProjectHomogeneous(g.graph, pap));
  projections.push_back(ProjectHomogeneous(g.graph, ptp));
  for (NodeId seed : g.papers) {
    const KPCoreCommunity finder_backed =
        MultiPathKPCoreSearch(g.graph, {pap, ptp}, seed, 3);
    const KPCoreCommunity proj_backed =
        MultiPathKPCoreSearch(g.graph, projections, seed, 3);
    EXPECT_EQ(finder_backed.core, proj_backed.core) << "seed " << seed;
    EXPECT_EQ(finder_backed.extension, proj_backed.extension);
    EXPECT_EQ(finder_backed.near_negatives, proj_backed.near_negatives);
    EXPECT_EQ(finder_backed.core_by_discovery, proj_backed.core_by_discovery);
  }
}

TEST(KPCorePruningEfficiencyTest, PruningNeverExpandsMore) {
  const Dataset data = GenerateDataset(TinyProfile());
  auto path = MetaPath::Parse(data.graph.schema(), "P-A-P");
  ASSERT_TRUE(path.ok());
  KPCoreSearchOptions no_prune;
  no_prune.enable_pruning = false;
  const auto& papers = data.Papers();
  for (size_t i = 0; i < papers.size(); i += 29) {
    const KPCoreCommunity pruned = KPCoreSearch(data.graph, *path, papers[i], 4);
    const KPCoreCommunity full =
        KPCoreSearch(data.graph, *path, papers[i], 4, no_prune);
    EXPECT_LE(pruned.papers_expanded, full.papers_expanded);
    EXPECT_EQ(pruned.core, full.core);
  }
}

TEST(MultiPathTest, IntersectionWithSelfIsIdentity) {
  const Figure2Graph g = Figure2Graph::Make();
  auto pap = *MetaPath::Parse(g.ids.schema, "P-A-P");
  const KPCoreCommunity once = KPCoreSearch(g.graph, pap, g.papers[3], 3);
  const KPCoreCommunity twice =
      MultiPathKPCoreSearch(g.graph, {pap, pap}, g.papers[3], 3);
  EXPECT_EQ(once.core, twice.core);
  EXPECT_EQ(once.Members(), twice.Members());
}

TEST(MultiPathTest, CostCountersAccumulate) {
  const Figure2Graph g = Figure2Graph::Make();
  auto pap = *MetaPath::Parse(g.ids.schema, "P-A-P");
  auto ptp = *MetaPath::Parse(g.ids.schema, "P-T-P");
  const KPCoreCommunity a = KPCoreSearch(g.graph, pap, g.papers[3], 3);
  const KPCoreCommunity b = KPCoreSearch(g.graph, ptp, g.papers[3], 3);
  const KPCoreCommunity both =
      MultiPathKPCoreSearch(g.graph, {pap, ptp}, g.papers[3], 3);
  EXPECT_EQ(both.edges_scanned, a.edges_scanned + b.edges_scanned);
  EXPECT_EQ(both.papers_expanded, a.papers_expanded + b.papers_expanded);
}

TEST(CommunityTest, MembersMergesCoreAndExtension) {
  KPCoreCommunity c;
  c.core = {2, 5, 9};
  c.extension = {3, 7};
  EXPECT_EQ(c.Members(), (std::vector<NodeId>{2, 3, 5, 7, 9}));
  EXPECT_TRUE(c.CoreContains(5));
  EXPECT_FALSE(c.CoreContains(3));
}

}  // namespace
}  // namespace kpef
