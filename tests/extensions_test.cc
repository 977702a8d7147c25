// Tests for the extension modules: additional fairness metrics, PCA,
// checkpoint I/O, and the classical graph algorithms / generators.
#include <cmath>
#include <filesystem>
#include <fstream>

#include <gtest/gtest.h>

#include "data/synthetic.h"
#include "eval/pca.h"
#include "fairness/metrics.h"
#include "graph/algorithms.h"
#include "nn/checkpoint.h"
#include "nn/gnn.h"
#include "test_util.h"

namespace fairwos {
namespace {

using ::fairwos::testing::TempPath;

std::vector<int64_t> AllIdx(size_t n) {
  std::vector<int64_t> idx(n);
  for (size_t i = 0; i < n; ++i) idx[i] = static_cast<int64_t>(i);
  return idx;
}

// --- Extended fairness metrics ----------------------------------------------

TEST(DisparateImpactTest, HandComputed) {
  // p0 = 0.5, p1 = 1.0 -> ratio 0.5.
  std::vector<int> pred = {1, 0, 1, 1};
  std::vector<int> sens = {0, 0, 1, 1};
  EXPECT_DOUBLE_EQ(fairness::DisparateImpactRatio(pred, sens, AllIdx(4)), 0.5);
}

TEST(DisparateImpactTest, PerfectlyFairIsOne) {
  std::vector<int> pred = {1, 0, 1, 0};
  std::vector<int> sens = {0, 0, 1, 1};
  EXPECT_DOUBLE_EQ(fairness::DisparateImpactRatio(pred, sens, AllIdx(4)), 1.0);
}

TEST(DisparateImpactTest, NoPositivesAnywhereIsOne) {
  std::vector<int> pred = {0, 0};
  std::vector<int> sens = {0, 1};
  EXPECT_DOUBLE_EQ(fairness::DisparateImpactRatio(pred, sens, AllIdx(2)), 1.0);
}

TEST(AccuracyEqualityTest, HandComputed) {
  // Group 0 is 100% correct, group 1 is 50% correct.
  std::vector<int> pred = {1, 0, 1, 0};
  std::vector<int> label = {1, 0, 1, 1};
  std::vector<int> sens = {0, 0, 1, 1};
  EXPECT_DOUBLE_EQ(
      fairness::AccuracyEqualityGapPct(pred, label, sens, AllIdx(4)), 50.0);
}

TEST(GroupCalibrationTest, IdenticalGroupsGiveZero) {
  std::vector<float> prob = {0.8f, 0.2f, 0.8f, 0.2f};
  std::vector<int> label = {1, 0, 1, 0};
  std::vector<int> sens = {0, 0, 1, 1};
  EXPECT_NEAR(fairness::GroupCalibrationGapPct(prob, label, sens, AllIdx(4)),
              0.0, 1e-9);
}

TEST(GroupCalibrationTest, MiscalibratedGroupShowsGap) {
  std::vector<float> prob = {1.0f, 0.0f, 0.0f, 1.0f};  // group 1 inverted
  std::vector<int> label = {1, 0, 1, 0};
  std::vector<int> sens = {0, 0, 1, 1};
  EXPECT_DOUBLE_EQ(
      fairness::GroupCalibrationGapPct(prob, label, sens, AllIdx(4)), 100.0);
}

TEST(CounterfactualConsistencyTest, CountsMatchingPairs) {
  std::vector<int> pred = {1, 1, 0, 1};
  std::vector<std::pair<int64_t, int64_t>> pairs = {{0, 1}, {0, 2}, {0, 3},
                                                    {2, 2}};
  EXPECT_DOUBLE_EQ(fairness::CounterfactualConsistencyPct(pred, pairs), 75.0);
}

TEST(CounterfactualConsistencyTest, EmptyIsPerfect) {
  std::vector<int> pred = {1};
  EXPECT_DOUBLE_EQ(fairness::CounterfactualConsistencyPct(pred, {}), 100.0);
}

// --- PCA ---------------------------------------------------------------------

TEST(PcaTest, RecoversDominantDirection) {
  // Points spread along (1, 1)/√2 with small orthogonal noise.
  common::Rng rng(1);
  const int n = 200;
  std::vector<float> points;
  for (int i = 0; i < n; ++i) {
    const double t = rng.Normal(0.0, 3.0);
    const double noise = rng.Normal(0.0, 0.1);
    points.push_back(static_cast<float>(t + noise));
    points.push_back(static_cast<float>(t - noise));
  }
  auto pca = eval::FitPca(points, n, 2, 1, &rng);
  const double c0 = pca.components[0], c1 = pca.components[1];
  EXPECT_NEAR(std::abs(c0), 1.0 / std::sqrt(2.0), 0.02);
  EXPECT_NEAR(c0, c1, 0.05);  // same sign, same magnitude
  EXPECT_GT(pca.explained_variance[0], 8.0);
}

TEST(PcaTest, ComponentsAreOrthonormal) {
  common::Rng rng(2);
  const int n = 100, dim = 5;
  std::vector<float> points(n * dim);
  for (auto& v : points) v = static_cast<float>(rng.Normal());
  auto pca = eval::FitPca(points, n, dim, 3, &rng);
  for (int a = 0; a < 3; ++a) {
    for (int b = 0; b < 3; ++b) {
      double dot = 0.0;
      for (int d = 0; d < dim; ++d) {
        dot += pca.components[a * dim + d] * pca.components[b * dim + d];
      }
      EXPECT_NEAR(dot, a == b ? 1.0 : 0.0, 1e-6);
    }
  }
}

TEST(PcaTest, ExplainedVarianceDescends) {
  common::Rng rng(3);
  const int n = 150, dim = 4;
  std::vector<float> points(n * dim);
  for (int i = 0; i < n; ++i) {
    for (int d = 0; d < dim; ++d) {
      points[static_cast<size_t>(i * dim + d)] =
          static_cast<float>(rng.Normal(0.0, 4.0 - d));
    }
  }
  auto pca = eval::FitPca(points, n, dim, 3, &rng);
  EXPECT_GE(pca.explained_variance[0], pca.explained_variance[1]);
  EXPECT_GE(pca.explained_variance[1], pca.explained_variance[2]);
}

TEST(PcaTest, TransformShapesAndCentering) {
  common::Rng rng(4);
  const int n = 50, dim = 3;
  std::vector<float> points(n * dim);
  for (auto& v : points) v = static_cast<float>(rng.Normal(5.0, 1.0));
  auto pca = eval::FitPca(points, n, dim, 2, &rng);
  auto scores = pca.Transform(points, n);
  ASSERT_EQ(scores.size(), static_cast<size_t>(n * 2));
  // Scores of the training data are centered.
  for (int c = 0; c < 2; ++c) {
    double mean = 0.0;
    for (int i = 0; i < n; ++i) mean += scores[static_cast<size_t>(i * 2 + c)];
    EXPECT_NEAR(mean / n, 0.0, 1e-3);
  }
}

// --- Checkpoints ---------------------------------------------------------------

TEST(CheckpointTest, SaveLoadRoundTrip) {
  const std::string path = TempPath("fw_ckpt_test.bin");
  common::Rng rng(5);
  graph::Graph g(4);
  g.AddEdge(0, 1);
  g.AddEdge(2, 3);
  nn::GnnConfig config;
  config.in_features = 3;
  config.hidden = 4;
  nn::GnnClassifier a(config, g, &rng);
  nn::GnnClassifier b(config, g, &rng);  // different init
  ASSERT_TRUE(nn::SaveCheckpoint(path, a).ok());
  ASSERT_TRUE(nn::LoadCheckpoint(path, b).ok());
  for (size_t i = 0; i < a.parameters().size(); ++i) {
    EXPECT_EQ(a.parameters()[i].data(), b.parameters()[i].data());
  }
  std::filesystem::remove(path);
}

TEST(CheckpointTest, ArchitectureMismatchRejected) {
  const std::string path = TempPath("fw_ckpt_mismatch.bin");
  common::Rng rng(6);
  graph::Graph g(4);
  nn::GnnConfig small;
  small.in_features = 3;
  small.hidden = 4;
  nn::GnnConfig big = small;
  big.hidden = 8;
  nn::GnnClassifier a(small, g, &rng);
  nn::GnnClassifier b(big, g, &rng);
  ASSERT_TRUE(nn::SaveCheckpoint(path, a).ok());
  auto status = nn::LoadCheckpoint(path, b);
  EXPECT_EQ(status.code(), common::StatusCode::kFailedPrecondition);
  std::filesystem::remove(path);
}

TEST(CheckpointTest, GarbageFileRejected) {
  const std::string path = TempPath("fw_ckpt_garbage.bin");
  {
    std::ofstream out(path, std::ios::binary);
    out << "this is not a checkpoint";
  }
  common::Rng rng(7);
  graph::Graph g(2);
  nn::GnnConfig config;
  config.in_features = 2;
  nn::GnnClassifier m(config, g, &rng);
  EXPECT_FALSE(nn::LoadCheckpoint(path, m).ok());
  EXPECT_FALSE(nn::LoadCheckpoint("/nonexistent/ckpt.bin", m).ok());
  std::filesystem::remove(path);
}

// --- Graph algorithms -----------------------------------------------------------

TEST(ComponentsTest, CountsAndLargest) {
  graph::Graph g(6);
  g.AddEdge(0, 1);
  g.AddEdge(1, 2);
  g.AddEdge(3, 4);
  auto result = graph::ConnectedComponents(g);
  EXPECT_EQ(result.num_components, 3);  // {0,1,2}, {3,4}, {5}
  EXPECT_EQ(result.LargestSize(), 3);
  EXPECT_EQ(result.component[0], result.component[2]);
  EXPECT_NE(result.component[0], result.component[3]);
}

TEST(ClusteringTest, TriangleIsOne) {
  graph::Graph g(3);
  g.AddEdge(0, 1);
  g.AddEdge(1, 2);
  g.AddEdge(2, 0);
  EXPECT_DOUBLE_EQ(graph::LocalClusteringCoefficient(g, 0), 1.0);
  EXPECT_DOUBLE_EQ(graph::AverageClusteringCoefficient(g), 1.0);
}

TEST(ClusteringTest, StarIsZero) {
  graph::Graph g(4);
  g.AddEdge(0, 1);
  g.AddEdge(0, 2);
  g.AddEdge(0, 3);
  EXPECT_DOUBLE_EQ(graph::AverageClusteringCoefficient(g), 0.0);
}

TEST(DegreeHistogramTest, Counts) {
  graph::Graph g(4);
  g.AddEdge(0, 1);
  g.AddEdge(0, 2);
  auto hist = graph::DegreeHistogram(g);
  ASSERT_EQ(hist.size(), 3u);
  EXPECT_EQ(hist[0], 1);  // node 3
  EXPECT_EQ(hist[1], 2);  // nodes 1, 2
  EXPECT_EQ(hist[2], 1);  // node 0
}

TEST(ErdosRenyiTest, EdgeCountNearExpectation) {
  common::Rng rng(8);
  graph::Graph g = graph::ErdosRenyi(100, 0.1, &rng);
  const double expected = 0.1 * 100 * 99 / 2.0;
  EXPECT_NEAR(static_cast<double>(g.num_edges()), expected, 0.25 * expected);
}

TEST(ErdosRenyiTest, ExtremesAreEmptyAndComplete) {
  common::Rng rng(9);
  EXPECT_EQ(graph::ErdosRenyi(10, 0.0, &rng).num_edges(), 0);
  EXPECT_EQ(graph::ErdosRenyi(10, 1.0, &rng).num_edges(), 45);
}

TEST(BarabasiAlbertTest, ConnectedWithHubs) {
  common::Rng rng(10);
  graph::Graph g = graph::BarabasiAlbert(200, 2, &rng);
  EXPECT_EQ(graph::ConnectedComponents(g).num_components, 1);
  // Preferential attachment produces hubs: max degree well above attach.
  int64_t max_degree = 0;
  for (int64_t v = 0; v < g.num_nodes(); ++v) {
    max_degree = std::max(max_degree, g.Degree(v));
  }
  EXPECT_GT(max_degree, 10);
}

TEST(SbmTest, WithinBlockDenser) {
  common::Rng rng(11);
  graph::Graph g = graph::TwoBlockSbm(100, 0.2, 0.02, &rng);
  std::vector<int> blocks(100);
  for (int i = 0; i < 100; ++i) blocks[static_cast<size_t>(i)] = i < 50 ? 0 : 1;
  EXPECT_GT(g.EdgeHomophily(blocks), 0.8);
}

}  // namespace
}  // namespace fairwos
