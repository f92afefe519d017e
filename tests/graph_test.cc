#include <vector>

#include <gtest/gtest.h>

#include "graph/hetero_graph.h"
#include "graph/schema.h"

namespace kpef {
namespace {

TEST(SchemaTest, RegistersNodeAndEdgeTypes) {
  Schema schema;
  const NodeTypeId a = schema.AddNodeType("A");
  const NodeTypeId p = schema.AddNodeType("P");
  const EdgeTypeId w = schema.AddEdgeType("Write", a, p);
  EXPECT_EQ(schema.NumNodeTypes(), 2u);
  EXPECT_EQ(schema.NumEdgeTypes(), 1u);
  EXPECT_EQ(schema.FindNodeType("A"), a);
  EXPECT_EQ(schema.FindNodeType("X"), kInvalidNodeType);
  EXPECT_EQ(schema.FindEdgeType("Write"), w);
  EXPECT_EQ(schema.FindEdgeType("Cite"), kInvalidEdgeType);
  EXPECT_EQ(schema.EdgeTypeBetween(a, p), w);
  EXPECT_EQ(schema.EdgeTypeBetween(p, a), w);  // either orientation
  EXPECT_EQ(schema.EdgeTypeBetween(a, a), kInvalidEdgeType);
}

TEST(SchemaTest, AcademicSchemaShape) {
  const AcademicSchema s = AcademicSchema::Make();
  EXPECT_EQ(s.schema.NumNodeTypes(), 4u);
  EXPECT_EQ(s.schema.NumEdgeTypes(), 4u);
  EXPECT_EQ(s.schema.NodeTypeName(s.paper), "P");
  EXPECT_EQ(s.schema.EdgeSrcType(s.write), s.author);
  EXPECT_EQ(s.schema.EdgeDstType(s.write), s.paper);
  EXPECT_EQ(s.schema.EdgeSrcType(s.cite), s.paper);
  EXPECT_EQ(s.schema.EdgeDstType(s.cite), s.paper);
}

class HeteroGraphTest : public ::testing::Test {
 protected:
  HeteroGraphTest() : ids_(AcademicSchema::Make()) {
    HeteroGraphBuilder builder(ids_.schema);
    a1_ = builder.AddNode(ids_.author, "a1");
    a2_ = builder.AddNode(ids_.author, "a2");
    p1_ = builder.AddNode(ids_.paper, "paper one");
    p2_ = builder.AddNode(ids_.paper, "paper two");
    v1_ = builder.AddNode(ids_.venue, "icde");
    // p1 authored by (a1, a2) in that rank order; p2 by a2 only.
    EXPECT_TRUE(builder.AddEdge(ids_.write, a1_, p1_).ok());
    EXPECT_TRUE(builder.AddEdge(ids_.write, a2_, p1_).ok());
    EXPECT_TRUE(builder.AddEdge(ids_.write, a2_, p2_).ok());
    EXPECT_TRUE(builder.AddEdge(ids_.publish, p1_, v1_).ok());
    EXPECT_TRUE(builder.AddEdge(ids_.cite, p2_, p1_).ok());
    graph_ = std::move(builder).Build();
  }

  AcademicSchema ids_;
  HeteroGraph graph_;
  NodeId a1_, a2_, p1_, p2_, v1_;
};

TEST_F(HeteroGraphTest, CountsAndTypes) {
  EXPECT_EQ(graph_.NumNodes(), 5u);
  EXPECT_EQ(graph_.NumEdges(), 5u);
  EXPECT_EQ(graph_.NumEdgesOfType(ids_.write), 3u);
  EXPECT_EQ(graph_.NumEdgesOfType(ids_.cite), 1u);
  EXPECT_EQ(graph_.TypeOf(a1_), ids_.author);
  EXPECT_EQ(graph_.TypeOf(p1_), ids_.paper);
  EXPECT_EQ(graph_.Label(p1_), "paper one");
}

TEST_F(HeteroGraphTest, NeighborsBothDirections) {
  const auto papers_of_a2 = graph_.Neighbors(a2_, ids_.write);
  EXPECT_EQ(std::vector<NodeId>(papers_of_a2.begin(), papers_of_a2.end()),
            (std::vector<NodeId>{p1_, p2_}));
  const auto authors_of_p1 = graph_.Neighbors(p1_, ids_.write);
  EXPECT_EQ(std::vector<NodeId>(authors_of_p1.begin(), authors_of_p1.end()),
            (std::vector<NodeId>{a1_, a2_}));  // author-rank order
}

TEST_F(HeteroGraphTest, CiteIsTraversableBothWays) {
  const auto out = graph_.Neighbors(p2_, ids_.cite);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], p1_);
  const auto in = graph_.Neighbors(p1_, ids_.cite);
  ASSERT_EQ(in.size(), 1u);
  EXPECT_EQ(in[0], p2_);
}

TEST_F(HeteroGraphTest, NodesOfTypeAndLocalIndex) {
  const auto& papers = graph_.NodesOfType(ids_.paper);
  EXPECT_EQ(std::vector<NodeId>(papers), (std::vector<NodeId>{p1_, p2_}));
  EXPECT_EQ(graph_.LocalIndex(p1_), 0u);
  EXPECT_EQ(graph_.LocalIndex(p2_), 1u);
  EXPECT_EQ(graph_.LocalIndex(a2_), 1u);
  EXPECT_EQ(graph_.NumNodesOfType(ids_.venue), 1u);
  EXPECT_EQ(graph_.NumNodesOfType(ids_.topic), 0u);
}

TEST_F(HeteroGraphTest, DegreeMatchesNeighborCount) {
  EXPECT_EQ(graph_.Degree(a2_, ids_.write), 2u);
  EXPECT_EQ(graph_.Degree(p1_, ids_.publish), 1u);
  EXPECT_EQ(graph_.Degree(v1_, ids_.publish), 1u);
  EXPECT_EQ(graph_.Degree(p2_, ids_.publish), 0u);
}

TEST_F(HeteroGraphTest, RejectsWrongEndpointTypes) {
  HeteroGraphBuilder builder(ids_.schema);
  const NodeId a = builder.AddNode(ids_.author);
  const NodeId p = builder.AddNode(ids_.paper);
  // Write expects (author, paper) orientation.
  EXPECT_FALSE(builder.AddEdge(ids_.write, p, a).ok());
  EXPECT_FALSE(builder.AddEdge(ids_.cite, a, p).ok());
  EXPECT_FALSE(builder.AddEdge(ids_.write, a, 99).ok());
  EXPECT_FALSE(builder.AddEdge(static_cast<EdgeTypeId>(42), a, p).ok());
}

TEST_F(HeteroGraphTest, InducedSubgraphKeepsSelectedEdges) {
  // Keep a2, p1, p2: write edges a2-p1 and a2-p2 survive; cite p2->p1
  // survives; publish edge drops with v1.
  auto [sub, mapping] = graph_.InducedSubgraph({a2_, p1_, p2_});
  EXPECT_EQ(sub.NumNodes(), 3u);
  EXPECT_EQ(sub.NumEdges(), 3u);
  EXPECT_EQ(mapping[a1_], kInvalidNode);
  EXPECT_NE(mapping[a2_], kInvalidNode);
  const NodeId new_p1 = mapping[p1_];
  EXPECT_EQ(sub.Label(new_p1), "paper one");
  EXPECT_EQ(sub.Degree(new_p1, ids_.write), 1u);
  EXPECT_EQ(sub.Degree(new_p1, ids_.cite), 1u);
  EXPECT_EQ(sub.Degree(new_p1, ids_.publish), 0u);
}

TEST_F(HeteroGraphTest, MemoryUsagePositive) {
  EXPECT_GT(graph_.MemoryUsageBytes(), 0u);
}

TEST(HeteroGraphBuildTest, EmptyGraph) {
  const AcademicSchema ids = AcademicSchema::Make();
  HeteroGraphBuilder builder(ids.schema);
  HeteroGraph graph = std::move(builder).Build();
  EXPECT_EQ(graph.NumNodes(), 0u);
  EXPECT_EQ(graph.NumEdges(), 0u);
  EXPECT_TRUE(graph.NodesOfType(ids.paper).empty());
}

}  // namespace
}  // namespace kpef
