#include <sstream>

#include <gtest/gtest.h>

#include "data/dataset.h"
#include "graph/graph_io.h"
#include "scoped_temp_dir.h"
#include "test_graphs.h"

namespace kpef {
namespace {

void ExpectGraphsEqual(const HeteroGraph& a, const HeteroGraph& b) {
  ASSERT_EQ(a.NumNodes(), b.NumNodes());
  ASSERT_EQ(a.NumEdges(), b.NumEdges());
  ASSERT_EQ(a.schema().NumNodeTypes(), b.schema().NumNodeTypes());
  ASSERT_EQ(a.schema().NumEdgeTypes(), b.schema().NumEdgeTypes());
  for (size_t t = 0; t < a.schema().NumNodeTypes(); ++t) {
    EXPECT_EQ(a.schema().NodeTypeName(static_cast<NodeTypeId>(t)),
              b.schema().NodeTypeName(static_cast<NodeTypeId>(t)));
  }
  for (size_t r = 0; r < a.schema().NumEdgeTypes(); ++r) {
    const EdgeTypeId id = static_cast<EdgeTypeId>(r);
    EXPECT_EQ(a.schema().EdgeTypeName(id), b.schema().EdgeTypeName(id));
    EXPECT_EQ(a.schema().EdgeSrcType(id), b.schema().EdgeSrcType(id));
    EXPECT_EQ(a.schema().EdgeDstType(id), b.schema().EdgeDstType(id));
  }
  for (size_t v = 0; v < a.NumNodes(); ++v) {
    const NodeId id = static_cast<NodeId>(v);
    EXPECT_EQ(a.TypeOf(id), b.TypeOf(id));
    EXPECT_EQ(a.Label(id), b.Label(id));
    // Neighbor lists must match exactly, including order (author rank).
    for (size_t r = 0; r < a.schema().NumEdgeTypes(); ++r) {
      const auto na = a.Neighbors(id, static_cast<EdgeTypeId>(r));
      const auto nb = b.Neighbors(id, static_cast<EdgeTypeId>(r));
      ASSERT_EQ(na.size(), nb.size());
      for (size_t i = 0; i < na.size(); ++i) EXPECT_EQ(na[i], nb[i]);
    }
  }
  EXPECT_EQ(a.Edges().size(), b.Edges().size());
  for (size_t e = 0; e < a.Edges().size(); ++e) {
    EXPECT_TRUE(a.Edges()[e] == b.Edges()[e]);
  }
}

TEST(GraphIoTest, RoundTripsFigure2Graph) {
  const Figure2Graph g = Figure2Graph::Make();
  std::stringstream buffer;
  ASSERT_TRUE(SaveGraph(g.graph, buffer).ok());
  auto loaded = LoadGraph(buffer);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ExpectGraphsEqual(g.graph, *loaded);
}

TEST(GraphIoTest, RoundTripsGeneratedDataset) {
  const Dataset dataset = GenerateDataset(TinyProfile());
  std::stringstream buffer;
  ASSERT_TRUE(SaveGraph(dataset.graph, buffer).ok());
  auto loaded = LoadGraph(buffer);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ExpectGraphsEqual(dataset.graph, *loaded);
}

TEST(GraphIoTest, RoundTripsLabelsWithSpecialCharacters) {
  const AcademicSchema ids = AcademicSchema::Make();
  HeteroGraphBuilder builder(ids.schema);
  builder.AddNode(ids.paper, "tab\there newline\nthere backslash\\done");
  builder.AddNode(ids.paper, "");
  const HeteroGraph graph = std::move(builder).Build();
  std::stringstream buffer;
  ASSERT_TRUE(SaveGraph(graph, buffer).ok());
  auto loaded = LoadGraph(buffer);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->Label(0), "tab\there newline\nthere backslash\\done");
  EXPECT_EQ(loaded->Label(1), "");
}

TEST(GraphIoTest, RoundTripsEmptyGraph) {
  const AcademicSchema ids = AcademicSchema::Make();
  HeteroGraphBuilder builder(ids.schema);
  const HeteroGraph graph = std::move(builder).Build();
  std::stringstream buffer;
  ASSERT_TRUE(SaveGraph(graph, buffer).ok());
  auto loaded = LoadGraph(buffer);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->NumNodes(), 0u);
}

TEST(GraphIoTest, FileRoundTrip) {
  const Figure2Graph g = Figure2Graph::Make();
  const ScopedTempDir tmp("graph_io_test");
  const std::string path = tmp.File("graph.kg");
  ASSERT_TRUE(SaveGraph(g.graph, path).ok());
  auto loaded = LoadGraph(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ExpectGraphsEqual(g.graph, *loaded);
}

TEST(GraphIoTest, MissingFileIsIOError) {
  auto loaded = LoadGraph("/nonexistent/path/graph.kg");
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIOError);
}

TEST(GraphIoTest, RejectsBadMagic) {
  std::stringstream buffer("not-a-graph 1\n");
  auto loaded = LoadGraph(buffer);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
}

TEST(GraphIoTest, RejectsBadVersion) {
  std::stringstream buffer("kpef-graph 99\n");
  EXPECT_FALSE(LoadGraph(buffer).ok());
}

TEST(GraphIoTest, RejectsTruncatedFile) {
  const Figure2Graph g = Figure2Graph::Make();
  std::stringstream buffer;
  ASSERT_TRUE(SaveGraph(g.graph, buffer).ok());
  const std::string full = buffer.str();
  // Chop the file at several points; every prefix must fail cleanly.
  for (size_t fraction : {10u, 40u, 70u, 95u}) {
    std::stringstream truncated(full.substr(0, full.size() * fraction / 100));
    EXPECT_FALSE(LoadGraph(truncated).ok()) << fraction << "%";
  }
}

TEST(GraphIoTest, RejectsEdgeWithBadEndpointTypes) {
  std::stringstream buffer(
      "kpef-graph 1\n"
      "nodetypes 2\nA\nP\n"
      "edgetypes 1\nWrite 0 1\n"
      "nodes 2\n0\ta\n1\tp\n"
      "edges 1\n0 1 0\n");  // src is type P, Write expects A
  auto loaded = LoadGraph(buffer);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace kpef
