// Unit tests for src/graph: adjacency bookkeeping, statistics, normalized
// operators, BFS neighborhoods, and edge-list I/O.
#include "graph/graph.h"

#include <cmath>
#include <filesystem>
#include <fstream>

#include <gtest/gtest.h>

#include "tensor/ops.h"
#include "test_util.h"

namespace fairwos::graph {
namespace {

using ::fairwos::testing::TempPath;

Graph Triangle() {
  Graph g(3);
  g.AddEdge(0, 1);
  g.AddEdge(1, 2);
  g.AddEdge(2, 0);
  return g;
}

TEST(GraphTest, AddEdgeBookkeeping) {
  Graph g(4);
  EXPECT_TRUE(g.AddEdge(0, 1));
  EXPECT_FALSE(g.AddEdge(0, 1)) << "duplicate edges are rejected";
  EXPECT_FALSE(g.AddEdge(1, 0)) << "undirected duplicate rejected";
  EXPECT_FALSE(g.AddEdge(2, 2)) << "self-loops rejected";
  EXPECT_EQ(g.num_edges(), 1);
  EXPECT_TRUE(g.HasEdge(0, 1));
  EXPECT_TRUE(g.HasEdge(1, 0));
  EXPECT_FALSE(g.HasEdge(0, 2));
}

TEST(GraphTest, DegreesAndAverage) {
  Graph g = Triangle();
  EXPECT_EQ(g.Degree(0), 2);
  EXPECT_DOUBLE_EQ(g.AverageDegree(), 2.0);
  Graph empty(5);
  EXPECT_DOUBLE_EQ(empty.AverageDegree(), 0.0);
}

TEST(GraphTest, KHopNeighborhood) {
  // Path 0-1-2-3-4.
  Graph g(5);
  for (int i = 0; i < 4; ++i) g.AddEdge(i, i + 1);
  auto hop0 = g.KHopNeighborhood(2, 0);
  EXPECT_EQ(hop0, std::vector<int64_t>({2}));
  auto hop1 = g.KHopNeighborhood(2, 1);
  EXPECT_EQ(hop1.size(), 3u);
  auto hop2 = g.KHopNeighborhood(0, 2);
  EXPECT_EQ(hop2.size(), 3u);  // 0, 1, 2
  auto all = g.KHopNeighborhood(2, 10);
  EXPECT_EQ(all.size(), 5u);
}

TEST(GraphTest, EdgeHomophily) {
  Graph g(4);
  g.AddEdge(0, 1);  // same group
  g.AddEdge(2, 3);  // same group
  g.AddEdge(0, 2);  // cross group
  std::vector<int> groups = {0, 0, 1, 1};
  EXPECT_NEAR(g.EdgeHomophily(groups), 2.0 / 3.0, 1e-12);
}

TEST(GraphTest, GcnNormalizedRowsHaveCorrectValues) {
  // Triangle: every node has degree 2, so D̃ = 3I and every entry of the
  // normalized operator (including the self-loop) is 1/3.
  auto adj = Triangle().GcnNormalizedAdjacency();
  EXPECT_EQ(adj->rows(), 3);
  EXPECT_EQ(adj->nnz(), 9);
  for (float v : adj->values()) EXPECT_NEAR(v, 1.0f / 3.0f, 1e-6);
}

TEST(GraphTest, RowNormalizedRowsSumToOne) {
  Graph g(4);
  g.AddEdge(0, 1);
  g.AddEdge(0, 2);
  g.AddEdge(0, 3);
  auto adj = g.RowNormalizedAdjacency();
  // Multiply by all-ones: every row must give exactly 1.
  std::vector<float> ones(4, 1.0f), out(4);
  adj->Multiply(ones.data(), 1, out.data());
  for (float v : out) EXPECT_NEAR(v, 1.0f, 1e-6);
}

TEST(GraphTest, PlainAdjacencyIsSymmetricNoSelfLoops) {
  auto adj = Triangle().PlainAdjacency();
  EXPECT_EQ(adj->nnz(), 6);
  // Symmetry: A == Aᵀ entrywise via multiply against random vector.
  std::vector<float> x = {1.0f, 2.0f, -3.0f};
  std::vector<float> ax(3), atx(3);
  adj->Multiply(x.data(), 1, ax.data());
  adj->Transposed().Multiply(x.data(), 1, atx.data());
  for (int i = 0; i < 3; ++i) EXPECT_FLOAT_EQ(ax[i], atx[i]);
}

TEST(GraphTest, GcnOperatorPreservesConstantVector) {
  // Â is doubly stochastic-like only for regular graphs; on a triangle the
  // constant vector is exactly preserved.
  auto adj = Triangle().GcnNormalizedAdjacency();
  std::vector<float> ones(3, 1.0f), out(3);
  adj->Multiply(ones.data(), 1, out.data());
  for (float v : out) EXPECT_NEAR(v, 1.0f, 1e-6);
}

TEST(EdgeListIoTest, RoundTrip) {
  const std::string path = TempPath("fw_edges.csv");
  std::ofstream out(path);
  out << "src,dst\n0,1\n1,2\n2,0\n";
  out.close();
  auto g = LoadEdgeListCsv(path, /*has_header=*/true, /*num_nodes=*/0);
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->num_nodes(), 3);
  EXPECT_EQ(g->num_edges(), 3);
  std::filesystem::remove(path);
}

TEST(EdgeListIoTest, ExplicitNodeCountValidation) {
  const std::string path = TempPath("fw_edges2.csv");
  std::ofstream out(path);
  out << "0,5\n";
  out.close();
  EXPECT_FALSE(LoadEdgeListCsv(path, false, /*num_nodes=*/3).ok());
  auto ok = LoadEdgeListCsv(path, false, /*num_nodes=*/10);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok->num_nodes(), 10);
  std::filesystem::remove(path);
}

TEST(EdgeListIoTest, RejectsMalformedRows) {
  const std::string path = TempPath("fw_edges3.csv");
  std::ofstream out(path);
  out << "0\n";
  out.close();
  EXPECT_FALSE(LoadEdgeListCsv(path, false, 0).ok());
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace fairwos::graph
