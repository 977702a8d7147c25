// Tests for the extended op set: analytic elementwise ops, axis reductions,
// slicing/concat/reshape, row normalisation, and the fused GAT aggregate —
// forward values plus finite-difference gradient checks for each.
#include <cmath>
#include <cstring>
#include <functional>
#include <vector>

#include <gtest/gtest.h>

#include "gradcheck.h"
#include "common/rng.h"
#include "tensor/backend.h"
#include "tensor/ops.h"

namespace fairwos::tensor {
namespace {

using ::fairwos::testing::ExpectGradientsMatch;

TEST(ExtendedForwardTest, DivValues) {
  Tensor a = Tensor::FromVector({3}, {6, 9, -4});
  Tensor b = Tensor::FromVector({3}, {2, 3, 4});
  EXPECT_TRUE(Div(a, b).ValueEquals(Tensor::FromVector({3}, {3, 3, -1})));
}

TEST(ExtendedForwardTest, AnalyticOps) {
  Tensor a = Tensor::FromVector({2}, {1.0f, 4.0f});
  EXPECT_NEAR(Exp(a).at(0), std::exp(1.0f), 1e-5);
  EXPECT_NEAR(Log(a).at(1), std::log(4.0f), 1e-6);
  EXPECT_FLOAT_EQ(Sqrt(a).at(1), 2.0f);
  EXPECT_FLOAT_EQ(Pow(a, 3.0f).at(1), 64.0f);
  Tensor b = Tensor::FromVector({3}, {-2.0f, 0.5f, 7.0f});
  EXPECT_TRUE(Abs(b).ValueEquals(Tensor::FromVector({3}, {2.0f, 0.5f, 7.0f})));
  EXPECT_TRUE(Clamp(b, -1.0f, 1.0f)
                  .ValueEquals(Tensor::FromVector({3}, {-1.0f, 0.5f, 1.0f})));
}

TEST(ExtendedForwardTest, AxisReductions) {
  Tensor a = Tensor::FromVector({2, 3}, {1, 2, 3, 4, 5, 6});
  EXPECT_TRUE(SumAxis(a, 0).ValueEquals(Tensor::FromVector({3}, {5, 7, 9})));
  EXPECT_TRUE(SumAxis(a, 1).ValueEquals(Tensor::FromVector({2}, {6, 15})));
  EXPECT_TRUE(MeanAxis(a, 1).ValueEquals(Tensor::FromVector({2}, {2, 5})));
}

TEST(ExtendedForwardTest, L2NormalizeRowsUnitNorm) {
  Tensor a = Tensor::FromVector({2, 2}, {3, 4, 0, 0});
  Tensor y = L2NormalizeRows(a);
  EXPECT_FLOAT_EQ(y.at(0, 0), 0.6f);
  EXPECT_FLOAT_EQ(y.at(0, 1), 0.8f);
  // Zero rows survive via the epsilon floor.
  EXPECT_FLOAT_EQ(y.at(1, 0), 0.0f);
}

TEST(ExtendedForwardTest, SliceColsValues) {
  Tensor a = Tensor::FromVector({2, 4}, {0, 1, 2, 3, 4, 5, 6, 7});
  EXPECT_TRUE(SliceCols(a, 1, 2).ValueEquals(
      Tensor::FromVector({2, 2}, {1, 2, 5, 6})));
}

TEST(ExtendedForwardTest, ConcatBothAxes) {
  Tensor a = Tensor::FromVector({1, 2}, {1, 2});
  Tensor b = Tensor::FromVector({1, 2}, {3, 4});
  EXPECT_TRUE(Concat({a, b}, 0).ValueEquals(
      Tensor::FromVector({2, 2}, {1, 2, 3, 4})));
  EXPECT_TRUE(Concat({a, b}, 1).ValueEquals(
      Tensor::FromVector({1, 4}, {1, 2, 3, 4})));
}

TEST(ExtendedForwardTest, ReshapeKeepsOrder) {
  Tensor a = Tensor::FromVector({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor r = Reshape(a, {3, 2});
  EXPECT_EQ(r.at(1, 0), 3.0f);
  EXPECT_EQ(r.at(2, 1), 6.0f);
}

TEST(ExtendedDeathTest, InvalidArgumentsAbort) {
  Tensor a = Tensor::FromVector({2, 2}, {1, 2, 3, 4});
  EXPECT_DEATH(SliceCols(a, 1, 3), "out of range");
  EXPECT_DEATH(Reshape(a, {3}), "element count");
  EXPECT_DEATH(SumAxis(a, 2), "axis");
  EXPECT_DEATH(Log(Tensor::FromVector({1}, {-1.0f})), "positive");
}

TEST(ExtendedGradTest, DivGrad) {
  common::Rng rng(1);
  Tensor a = Tensor::RandNormal({3, 2}, 1.0f, &rng);
  Tensor b = AddScalar(Tensor::RandUniform({3, 2}, 0.5f, 2.0f, &rng), 0.5f);
  b.set_requires_grad(true);
  ExpectGradientsMatch(a, [&] { return Sum(Div(a, b)); });
  ExpectGradientsMatch(b, [&] { return Sum(Div(a, b)); });
}

TEST(ExtendedGradTest, AnalyticGrads) {
  common::Rng rng(2);
  Tensor pos = Tensor::RandUniform({5}, 0.5f, 3.0f, &rng);
  ExpectGradientsMatch(pos, [&] { return Sum(Exp(pos)); });
  ExpectGradientsMatch(pos, [&] { return Sum(Log(pos)); });
  ExpectGradientsMatch(pos, [&] { return Sum(Sqrt(pos)); });
  ExpectGradientsMatch(pos, [&] { return Sum(Pow(pos, 2.5f)); });
  Tensor any = Tensor::RandNormal({5}, 1.0f, &rng);
  ExpectGradientsMatch(any, [&] { return Sum(Abs(any)); });
}

TEST(ExtendedGradTest, AxisSumGrads) {
  common::Rng rng(3);
  Tensor a = Tensor::RandNormal({4, 3}, 1.0f, &rng);
  Tensor w0 = Tensor::RandNormal({3}, 1.0f, &rng);
  Tensor w1 = Tensor::RandNormal({4}, 1.0f, &rng);
  ExpectGradientsMatch(a, [&] { return Sum(Mul(SumAxis(a, 0), w0)); });
  ExpectGradientsMatch(a, [&] { return Sum(Mul(MeanAxis(a, 1), w1)); });
}

TEST(ExtendedGradTest, L2NormalizeRowsGrad) {
  common::Rng rng(4);
  Tensor a = Tensor::RandNormal({3, 4}, 1.0f, &rng);
  Tensor w = Tensor::RandNormal({3, 4}, 1.0f, &rng);
  ExpectGradientsMatch(a, [&] { return Sum(Mul(L2NormalizeRows(a), w)); });
}

TEST(ExtendedGradTest, SliceConcatReshapeGrads) {
  common::Rng rng(5);
  Tensor a = Tensor::RandNormal({3, 4}, 1.0f, &rng);
  Tensor b = Tensor::RandNormal({3, 2}, 1.0f, &rng);
  b.set_requires_grad(true);
  ExpectGradientsMatch(a, [&] { return SumSquares(SliceCols(a, 1, 2)); });
  ExpectGradientsMatch(a, [&] { return SumSquares(Concat({a, b}, 1)); });
  ExpectGradientsMatch(b, [&] { return SumSquares(Concat({a, b}, 1)); });
  ExpectGradientsMatch(a, [&] { return SumSquares(Reshape(a, {4, 3})); });
}

std::shared_ptr<SparseMatrix> RingWithSelfLoops(int64_t n) {
  std::vector<CooEntry> entries;
  for (int64_t v = 0; v < n; ++v) {
    entries.push_back({v, v, 1.0f});
    entries.push_back({v, (v + 1) % n, 1.0f});
    entries.push_back({v, (v + n - 1) % n, 1.0f});
  }
  return SparseMatrix::FromCoo(n, n, std::move(entries));
}

TEST(GatAggregateTest, UniformScoresGiveNeighborhoodMean) {
  auto adj = RingWithSelfLoops(4);
  Tensor d = Tensor::Zeros({4});
  Tensor s = Tensor::Zeros({4});
  Tensor x = Tensor::FromVector({4, 1}, {1, 2, 3, 4});
  Tensor y = GatAggregate(adj, d, s, x, 0.2f);
  // Equal scores -> softmax is uniform over the 3 support nodes.
  EXPECT_NEAR(y.at(0, 0), (1 + 2 + 4) / 3.0f, 1e-5);
  EXPECT_NEAR(y.at(2, 0), (2 + 3 + 4) / 3.0f, 1e-5);
}

TEST(GatAggregateTest, AttentionRowsAreConvexCombinations) {
  common::Rng rng(6);
  auto adj = RingWithSelfLoops(6);
  Tensor d = Tensor::RandNormal({6}, 1.0f, &rng);
  Tensor s = Tensor::RandNormal({6}, 1.0f, &rng);
  Tensor x = Tensor::Ones({6, 3});
  Tensor y = GatAggregate(adj, d, s, x, 0.2f);
  // A convex combination of all-ones rows is all ones.
  for (float v : y.data()) EXPECT_NEAR(v, 1.0f, 1e-5);
}

TEST(GatAggregateTest, GradAllThreeInputs) {
  common::Rng rng(7);
  auto adj = RingWithSelfLoops(5);
  Tensor d = Tensor::RandNormal({5}, 1.0f, &rng);
  Tensor s = Tensor::RandNormal({5}, 1.0f, &rng);
  Tensor x = Tensor::RandNormal({5, 2}, 1.0f, &rng);
  Tensor w = Tensor::RandNormal({5, 2}, 1.0f, &rng);
  d.set_requires_grad(true);
  s.set_requires_grad(true);
  auto loss = [&] { return Sum(Mul(GatAggregate(adj, d, s, x, 0.2f), w)); };
  ExpectGradientsMatch(x, loss);
  ExpectGradientsMatch(d, loss);
  ExpectGradientsMatch(s, loss);
}

TEST(GatAggregateTest, ExtremeScoresAreStable) {
  auto adj = RingWithSelfLoops(3);
  Tensor d = Tensor::FromVector({3}, {500.0f, -500.0f, 0.0f});
  Tensor s = Tensor::FromVector({3}, {500.0f, 0.0f, -500.0f});
  Tensor x = Tensor::Ones({3, 2});
  Tensor y = GatAggregate(adj, d, s, x, 0.2f);
  for (float v : y.data()) {
    EXPECT_TRUE(std::isfinite(v));
    EXPECT_NEAR(v, 1.0f, 1e-4);
  }
}


// --- Fused Eq. 13 distances --------------------------------------------------

/// Pairs of rows of an [n, ·] matrix in three outputs: output 0 has three
/// segments (one long enough to span several Reduce partials when
/// `long_segment`), output 1 none, output 2 one. Rows repeat within and
/// across segments, so gradient scatters collide.
PairSegments MakePairs(int64_t n, bool long_segment, uint64_t seed) {
  common::Rng rng(seed);
  PairSegments pairs;
  const auto segment = [&](int64_t len) {
    for (int64_t p = 0; p < len; ++p) {
      pairs.first.push_back(rng.UniformInt(n));
      pairs.second.push_back(rng.UniformInt(n));
    }
    pairs.pair_offsets.push_back(static_cast<int64_t>(pairs.first.size()));
  };
  segment(5);
  segment(long_segment ? 5000 : 7);
  segment(1);
  pairs.segment_offsets.push_back(3);
  pairs.segment_offsets.push_back(3);  // output 1: empty
  segment(4);
  pairs.segment_offsets.push_back(4);
  return pairs;
}

/// The per-segment Rows/Sub/SumSquares/MulScalar/Add chain the fused ops
/// replace, folded into `base` with one MulScalar/Add per non-empty output.
Tensor ChainLoss(const Tensor& x, const Tensor& base, const PairSegments& pairs,
                 float scale, const std::vector<float>& weights,
                 std::vector<float>* outputs) {
  Tensor total = base;
  const size_t num_out = pairs.segment_offsets.size() - 1;
  outputs->assign(num_out, 0.0f);
  for (size_t o = 0; o < num_out; ++o) {
    Tensor d;
    for (int64_t s = pairs.segment_offsets[o]; s < pairs.segment_offsets[o + 1];
         ++s) {
      const auto lo = pairs.pair_offsets[static_cast<size_t>(s)];
      const auto hi = pairs.pair_offsets[static_cast<size_t>(s) + 1];
      const std::vector<int64_t> first(pairs.first.begin() + lo,
                                       pairs.first.begin() + hi);
      const std::vector<int64_t> second(pairs.second.begin() + lo,
                                        pairs.second.begin() + hi);
      Tensor dist = MulScalar(
          SumSquares(Sub(Rows(x, first), Rows(x, second))), scale);
      d = d.defined() ? Add(d, dist) : dist;
    }
    if (!d.defined()) continue;
    (*outputs)[o] = d.data()[0];
    total = Add(total, MulScalar(d, weights[o]));
  }
  return total;
}

template <typename A, typename B>
bool SameBits(const A& a, const B& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

/// Runs `body` under the scalar backend, then under auto dispatch, then
/// restores the mode the process started with.
void UnderBothSimdModes(const std::function<void(const char*)>& body) {
  const SimdMode before =
      ParseSimdMode(ActiveBackendInfo().requested_mode).value();
  for (SimdMode mode : {SimdMode::kScalar, SimdMode::kAuto}) {
    ASSERT_TRUE(SelectBackend(mode).ok());
    body(SimdModeName(mode));
  }
  ASSERT_TRUE(SelectBackend(before).ok());
}

TEST(SegmentedPairSqDistTest, BitIdenticalToChain) {
  UnderBothSimdModes([](const char* mode) {
    for (bool long_segment : {false, true}) {
      const int64_t n = 23, c = 7;  // odd width exercises SIMD tails
      common::Rng rng(3);
      Tensor x = Tensor::RandNormal({n, c}, 1.0f, &rng);
      x.set_requires_grad(true);
      const PairSegments pairs = MakePairs(n, long_segment, 4);
      const float scale = 1.0f / 3.0f;
      const std::vector<float> weights = {0.7f, 0.0f, 1.3f};
      // x's other consumer is recorded first, as Logits(h) is in training.
      const auto base = [&] { return Sum(Tanh(x)); };

      x.ZeroGrad();
      std::vector<float> chain_out;
      Tensor chain = ChainLoss(x, base(), pairs, scale, weights, &chain_out);
      chain.Backward();
      const std::vector<float> chain_grad = x.grad();

      x.ZeroGrad();
      Tensor d = SegmentedPairSqDist(x, pairs, scale);
      Tensor fused = AddScaledEntries(base(), d, {0, 2}, {0.7f, 1.3f});
      fused.Backward();

      EXPECT_TRUE(SameBits(d.data(), chain_out))
          << mode << " long=" << long_segment;
      EXPECT_TRUE(SameBits(fused.data(), chain.data()))
          << mode << " long=" << long_segment;
      EXPECT_TRUE(SameBits(x.grad(), chain_grad))
          << mode << " long=" << long_segment;
      EXPECT_EQ(d.data()[1], 0.0f) << "an output without segments is 0";
    }
  });
}

TEST(SegmentedPairSqDistTest, GradientsMatchFiniteDifferences) {
  common::Rng rng(5);
  Tensor x = Tensor::RandNormal({9, 3}, 1.0f, &rng);
  const PairSegments pairs = MakePairs(9, false, 6);
  ExpectGradientsMatch(x, [&] {
    return Sum(Mul(SegmentedPairSqDist(x, pairs, 0.25f),
                   Tensor::FromVector({3}, {1.0f, -2.0f, 0.5f})));
  });
}

TEST(SegmentedPairSqDistTest, AddScaledEntriesGradients) {
  common::Rng rng(7);
  Tensor base = Tensor::RandNormal({1}, 1.0f, &rng);
  Tensor v = Tensor::RandNormal({4}, 1.0f, &rng);
  const auto loss = [&] {
    return Tanh(AddScaledEntries(base, v, {3, 0}, {0.5f, -1.5f}));
  };
  ExpectGradientsMatch(v, loss);
  ExpectGradientsMatch(base, loss);
}

}  // namespace
}  // namespace fairwos::tensor
