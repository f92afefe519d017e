#include <algorithm>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "common/thread_pool.h"
#include "data/dataset.h"
#include "metapath/meta_path.h"
#include "metapath/p_neighbor.h"
#include "metapath/projection.h"
#include "test_graphs.h"

namespace kpef {
namespace {

class MetaPathParseTest : public ::testing::Test {
 protected:
  MetaPathParseTest() : ids_(AcademicSchema::Make()) {}
  AcademicSchema ids_;
};

TEST_F(MetaPathParseTest, ParsesCoAuthorship) {
  auto path = MetaPath::Parse(ids_.schema, "P-A-P");
  ASSERT_TRUE(path.ok());
  EXPECT_EQ(path->NumHops(), 2u);
  EXPECT_EQ(path->SourceType(), ids_.paper);
  EXPECT_EQ(path->TargetType(), ids_.paper);
  EXPECT_TRUE(path->IsSymmetricEndpoints());
  EXPECT_EQ(path->ToString(ids_.schema), "P-A-P");
  EXPECT_EQ(path->edge_types()[0], ids_.write);
}

TEST_F(MetaPathParseTest, ParsesCitation) {
  auto path = MetaPath::Parse(ids_.schema, "P-P");
  ASSERT_TRUE(path.ok());
  EXPECT_EQ(path->NumHops(), 1u);
  EXPECT_EQ(path->edge_types()[0], ids_.cite);
}

TEST_F(MetaPathParseTest, ParsesLongerPath) {
  auto path = MetaPath::Parse(ids_.schema, "P-A-P-T-P");
  ASSERT_TRUE(path.ok());
  EXPECT_EQ(path->NumHops(), 4u);
}

TEST_F(MetaPathParseTest, RejectsUnknownType) {
  EXPECT_FALSE(MetaPath::Parse(ids_.schema, "P-X-P").ok());
}

TEST_F(MetaPathParseTest, RejectsDisconnectedTypes) {
  // No A-T edge type exists.
  EXPECT_FALSE(MetaPath::Parse(ids_.schema, "A-T").ok());
}

TEST_F(MetaPathParseTest, RejectsSingleton) {
  EXPECT_FALSE(MetaPath::Parse(ids_.schema, "P").ok());
}

TEST_F(MetaPathParseTest, RejectsEmptyComponent) {
  EXPECT_FALSE(MetaPath::Parse(ids_.schema, "P--P").ok());
  EXPECT_FALSE(MetaPath::Parse(ids_.schema, "-P").ok());
}

TEST_F(MetaPathParseTest, EqualityComparison) {
  auto a = MetaPath::Parse(ids_.schema, "P-A-P");
  auto b = MetaPath::Parse(ids_.schema, "P-A-P");
  auto c = MetaPath::Parse(ids_.schema, "P-T-P");
  EXPECT_TRUE(*a == *b);
  EXPECT_FALSE(*a == *c);
}

class PNeighborTest : public ::testing::Test {
 protected:
  PNeighborTest() : g_(Figure2Graph::Make()) {}

  std::set<NodeId> NeighborSet(const char* path_text, NodeId v) {
    auto path = MetaPath::Parse(g_.ids.schema, path_text);
    PNeighborFinder finder(g_.graph, *path);
    const auto nbrs = finder.Neighbors(v);
    return {nbrs.begin(), nbrs.end()};
  }

  Figure2Graph g_;
};

TEST_F(PNeighborTest, CoAuthorNeighborsOfCliqueMember) {
  EXPECT_EQ(NeighborSet("P-A-P", g_.papers[0]),
            (std::set<NodeId>{g_.papers[1], g_.papers[2], g_.papers[3]}));
}

TEST_F(PNeighborTest, BridgePaperHasTwoNeighbors) {
  EXPECT_EQ(NeighborSet("P-A-P", g_.papers[4]),
            (std::set<NodeId>{g_.papers[3], g_.papers[5]}));
}

TEST_F(PNeighborTest, IsolatedPaperHasNoCoAuthorNeighbors) {
  EXPECT_TRUE(NeighborSet("P-A-P", g_.papers[9]).empty());
}

TEST_F(PNeighborTest, SelfNeverIncluded) {
  for (NodeId p : g_.papers) {
    const auto set = NeighborSet("P-A-P", p);
    EXPECT_EQ(set.count(p), 0u);
  }
}

TEST_F(PNeighborTest, TopicNeighbors) {
  // p9 shares topic t1 with p5..p8.
  EXPECT_EQ(NeighborSet("P-T-P", g_.papers[9]),
            (std::set<NodeId>{g_.papers[5], g_.papers[6], g_.papers[7],
                              g_.papers[8]}));
}

TEST_F(PNeighborTest, CitationNeighborsAreUndirected) {
  EXPECT_EQ(NeighborSet("P-P", g_.papers[0]),
            (std::set<NodeId>{g_.papers[1], g_.papers[2]}));
  EXPECT_EQ(NeighborSet("P-P", g_.papers[1]),
            (std::set<NodeId>{g_.papers[0]}));
}

TEST_F(PNeighborTest, DegreeMatchesNeighborCount) {
  auto path = MetaPath::Parse(g_.ids.schema, "P-A-P");
  PNeighborFinder finder(g_.graph, *path);
  for (NodeId p : g_.papers) {
    EXPECT_EQ(finder.Degree(p), finder.Neighbors(p).size());
  }
}

TEST_F(PNeighborTest, DegreeAtLeastMatchesDegree) {
  auto path = MetaPath::Parse(g_.ids.schema, "P-A-P");
  PNeighborFinder finder(g_.graph, *path);
  for (NodeId p : g_.papers) {
    const size_t deg = finder.Degree(p);
    for (size_t threshold : {0u, 1u, 2u, 3u, 4u, 5u}) {
      EXPECT_EQ(finder.DegreeAtLeast(p, threshold), deg >= threshold)
          << "paper " << p << " threshold " << threshold;
    }
  }
}

TEST_F(PNeighborTest, RepeatedQueriesAreConsistent) {
  auto path = MetaPath::Parse(g_.ids.schema, "P-A-P");
  PNeighborFinder finder(g_.graph, *path);
  const auto first = finder.Neighbors(g_.papers[0]);
  const auto second = finder.Neighbors(g_.papers[0]);
  EXPECT_EQ(first, second);
}

TEST_F(PNeighborTest, EdgesScannedGrows) {
  auto path = MetaPath::Parse(g_.ids.schema, "P-A-P");
  PNeighborFinder finder(g_.graph, *path);
  const uint64_t before = finder.edges_scanned();
  finder.Neighbors(g_.papers[0]);
  EXPECT_GT(finder.edges_scanned(), before);
}

TEST_F(PNeighborTest, ProjectionMatchesPerNodeNeighbors) {
  auto path = MetaPath::Parse(g_.ids.schema, "P-A-P");
  const HomogeneousProjection proj = ProjectHomogeneous(g_.graph, *path);
  ASSERT_EQ(proj.NumNodes(), g_.papers.size());
  PNeighborFinder finder(g_.graph, *path);
  for (size_t i = 0; i < proj.NumNodes(); ++i) {
    const int32_t local = static_cast<int32_t>(i);
    std::set<int32_t> expected;
    for (NodeId u : finder.Neighbors(proj.GlobalId(local))) {
      expected.insert(static_cast<int32_t>(g_.graph.LocalIndex(u)));
    }
    const auto row = proj.Neighbors(local);
    const std::set<int32_t> got(row.begin(), row.end());
    EXPECT_EQ(got, expected);
    EXPECT_EQ(proj.Degree(local), static_cast<int32_t>(expected.size()));
    EXPECT_TRUE(std::is_sorted(row.begin(), row.end()));
  }
}

TEST_F(PNeighborTest, ProjectionIsSymmetric) {
  auto path = MetaPath::Parse(g_.ids.schema, "P-T-P");
  const HomogeneousProjection proj = ProjectHomogeneous(g_.graph, *path);
  for (size_t i = 0; i < proj.NumNodes(); ++i) {
    for (int32_t j : proj.Neighbors(static_cast<int32_t>(i))) {
      const auto back = proj.Neighbors(j);
      EXPECT_TRUE(std::binary_search(back.begin(), back.end(),
                                     static_cast<int32_t>(i)));
    }
  }
}

TEST_F(PNeighborTest, UnionProjectionMergesRelations) {
  auto pap = MetaPath::Parse(g_.ids.schema, "P-A-P");
  auto pp = MetaPath::Parse(g_.ids.schema, "P-P");
  std::vector<HomogeneousProjection> projections;
  projections.push_back(ProjectHomogeneous(g_.graph, *pap));
  projections.push_back(ProjectHomogeneous(g_.graph, *pp));
  const auto merged = UnionProjections(std::move(projections));
  // p0's union neighbors: co-author {p1,p2,p3} plus citation {p1,p2}.
  const int32_t p0 = static_cast<int32_t>(g_.graph.LocalIndex(g_.papers[0]));
  EXPECT_EQ(merged.Degree(p0), 3);
  // Rows stay sorted and duplicate-free.
  for (size_t i = 0; i < merged.NumNodes(); ++i) {
    const auto nbrs = merged.Neighbors(static_cast<int32_t>(i));
    EXPECT_TRUE(std::is_sorted(nbrs.begin(), nbrs.end()));
    const std::set<int32_t> unique(nbrs.begin(), nbrs.end());
    EXPECT_EQ(unique.size(), nbrs.size());
  }
}

TEST_F(PNeighborTest, UnionOfSingleProjectionIsIdentity) {
  auto pap = MetaPath::Parse(g_.ids.schema, "P-A-P");
  const auto proj = ProjectHomogeneous(g_.graph, *pap);
  std::vector<HomogeneousProjection> one;
  one.push_back(ProjectHomogeneous(g_.graph, *pap));
  const auto merged = UnionProjections(std::move(one));
  ASSERT_EQ(merged.NumNodes(), proj.NumNodes());
  for (size_t i = 0; i < proj.NumNodes(); ++i) {
    const auto a = proj.Neighbors(static_cast<int32_t>(i));
    const auto b = merged.Neighbors(static_cast<int32_t>(i));
    EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end()));
  }
}

TEST(ProjectionBuildTest, DeterministicAcrossThreadCounts) {
  const Dataset dataset = GenerateDataset(TinyProfile());
  auto path = MetaPath::Parse(dataset.graph.schema(), "P-A-P");
  ASSERT_TRUE(path.ok());
  ThreadPool sequential(1);
  ThreadPool wide(8);
  ProjectionOptions seq_opts;
  seq_opts.pool = &sequential;
  ProjectionOptions wide_opts;
  wide_opts.pool = &wide;
  const auto a = ProjectHomogeneous(dataset.graph, *path, seq_opts);
  const auto b = ProjectHomogeneous(dataset.graph, *path, wide_opts);
  ASSERT_EQ(a.NumNodes(), b.NumNodes());
  ASSERT_EQ(a.NumEntries(), b.NumEntries());
  for (size_t i = 0; i < a.NumNodes(); ++i) {
    const auto ra = a.Neighbors(static_cast<int32_t>(i));
    const auto rb = b.Neighbors(static_cast<int32_t>(i));
    ASSERT_TRUE(std::equal(ra.begin(), ra.end(), rb.begin(), rb.end()))
        << "row " << i;
  }
}

TEST(PNeighborDatasetTest, WorksOnGeneratedDataset) {
  const Dataset dataset = GenerateDataset(TinyProfile());
  auto path = MetaPath::Parse(dataset.graph.schema(), "P-A-P");
  ASSERT_TRUE(path.ok());
  PNeighborFinder finder(dataset.graph, *path);
  size_t nonzero = 0;
  for (NodeId p : dataset.Papers()) {
    nonzero += finder.Degree(p) > 0;
  }
  // Group-based generation makes nearly all papers co-author-connected.
  EXPECT_GT(nonzero, dataset.Papers().size() / 2);
}

}  // namespace
}  // namespace kpef
