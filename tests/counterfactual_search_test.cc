// FindCounterfactuals (Eq. 12) against a full-sort reference kept here: the
// partial selection and the parallel anchor loop must return exactly what
// sorting every candidate by (distance, id) returns, at any thread count —
// including exact distance ties, K larger than the constraint set and
// sampling budgets <= 0.
#include <algorithm>
#include <cstdint>
#include <numeric>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/threadpool.h"
#include "core/counterfactual.h"

namespace fairwos::core {
namespace {

using Nested = std::vector<std::vector<std::vector<int64_t>>>;  // [I][A][<=K]

std::vector<int64_t> PickNodes(int64_t n, int64_t k, common::Rng* rng) {
  if (k <= 0 || k >= n) {
    std::vector<int64_t> all(static_cast<size_t>(n));
    std::iota(all.begin(), all.end(), 0);
    return all;
  }
  return rng->SampleWithoutReplacement(n, k);
}

/// The search as first written: every candidate's distance, one full sort
/// per anchor, then a filtered scan per attribute.
Nested ReferenceSearch(const tensor::Tensor& emb,
                       const std::vector<std::vector<uint8_t>>& bins,
                       const std::vector<int>& labels,
                       const CounterfactualConfig& config, common::Rng* rng,
                       std::vector<int64_t>* anchors) {
  const int64_t n = emb.dim(0), h = emb.dim(1);
  const size_t num_attrs = bins[0].size();
  *anchors = PickNodes(n, config.sample_nodes, rng);
  const std::vector<int64_t> pool = PickNodes(n, config.candidate_pool, rng);
  Nested out(num_attrs, std::vector<std::vector<int64_t>>(anchors->size()));
  const float* e = emb.data().data();
  for (size_t a = 0; a < anchors->size(); ++a) {
    const int64_t v = (*anchors)[a];
    std::vector<std::pair<float, int64_t>> order;
    for (int64_t cand : pool) {
      if (cand == v || labels[static_cast<size_t>(cand)] !=
                           labels[static_cast<size_t>(v)]) {
        continue;
      }
      float dist = 0.0f;
      for (int64_t d = 0; d < h; ++d) {
        const float diff = e[v * h + d] - e[cand * h + d];
        dist += diff * diff;
      }
      order.emplace_back(dist, cand);
    }
    std::sort(order.begin(), order.end());
    for (size_t i = 0; i < num_attrs; ++i) {
      auto& slot = out[i][a];
      for (const auto& [dist, cand] : order) {
        if (bins[static_cast<size_t>(cand)][i] ==
            bins[static_cast<size_t>(v)][i]) {
          continue;
        }
        slot.push_back(cand);
        if (static_cast<int64_t>(slot.size()) == config.top_k) break;
      }
    }
  }
  return out;
}

struct Problem {
  tensor::Tensor emb;
  std::vector<std::vector<uint8_t>> bins;
  std::vector<int> labels;
};

/// `n` nodes whose embeddings sit on a small integer grid, so many
/// distances tie exactly; every fifth row also duplicates its predecessor.
/// Attribute 0 is a fair coin, attribute 1 is rare (about 1 node in 25
/// differs, forcing the selected prefix to grow), attribute 2 is constant
/// (an empty constraint set).
Problem MakeProblem(int64_t n, int64_t h, uint64_t seed) {
  common::Rng rng(seed);
  Problem p;
  std::vector<float> emb(static_cast<size_t>(n * h));
  for (int64_t v = 0; v < n; ++v) {
    for (int64_t d = 0; d < h; ++d) {
      emb[static_cast<size_t>(v * h + d)] =
          v % 5 == 4 ? emb[static_cast<size_t>((v - 1) * h + d)]
                     : static_cast<float>(rng.UniformInt(4)) * 0.5f;
    }
    p.labels.push_back(static_cast<int>(rng.UniformInt(3)));
    p.bins.push_back({static_cast<uint8_t>(rng.Bernoulli(0.5)),
                      static_cast<uint8_t>(rng.Bernoulli(0.04)),
                      uint8_t{1}});
  }
  p.emb = tensor::Tensor::FromVector({n, h}, std::move(emb));
  return p;
}

/// Runs both searches from the same rng state at 1, 4 and 8 threads.
void ExpectMatchesReference(const Problem& p, const CounterfactualConfig& c,
                            uint64_t seed) {
  common::Rng ref_rng(seed);
  std::vector<int64_t> anchors;
  const Nested want =
      ReferenceSearch(p.emb, p.bins, p.labels, c, &ref_rng, &anchors);
  const uint64_t next_draw = ref_rng.NextU64();
  struct RestoreThreads {
    ~RestoreThreads() { common::SetGlobalThreadCount(0); }
  } restore;
  for (int threads : {1, 4, 8}) {
    common::SetGlobalThreadCount(threads);
    common::Rng rng(seed);
    const CounterfactualSet got =
        FindCounterfactuals(p.emb, p.bins, p.labels, c, &rng);
    ASSERT_EQ(got.anchors, anchors) << threads << " threads";
    ASSERT_EQ(got.num_attrs(), static_cast<int64_t>(want.size()));
    for (int64_t i = 0; i < got.num_attrs(); ++i) {
      for (size_t a = 0; a < anchors.size(); ++a) {
        const auto m = got.Matches(i, a);
        EXPECT_EQ(std::vector<int64_t>(m.begin(), m.end()),
                  want[static_cast<size_t>(i)][a])
            << "attr " << i << ", anchor " << anchors[a] << ", " << threads
            << " threads";
      }
    }
    EXPECT_EQ(rng.NextU64(), next_draw) << "same rng consumption";
  }
}

TEST(CounterfactualSearchTest, SampledSearchEqualsFullSort) {
  const Problem p = MakeProblem(400, 6, 1);
  CounterfactualConfig c;
  c.top_k = 5;
  c.sample_nodes = 96;
  c.candidate_pool = 300;
  ExpectMatchesReference(p, c, 2);
}

TEST(CounterfactualSearchTest, ExactSearchEqualsFullSort) {
  const Problem p = MakeProblem(300, 4, 3);
  for (int64_t budget : {0, -1}) {
    CounterfactualConfig c;
    c.top_k = 3;
    c.sample_nodes = budget;
    c.candidate_pool = budget;
    ExpectMatchesReference(p, c, 4);
  }
  CounterfactualConfig over;  // budgets >= n mean "all" as well
  over.sample_nodes = 1000;
  over.candidate_pool = 300;
  ExpectMatchesReference(p, over, 5);
}

TEST(CounterfactualSearchTest, TopKLargerThanConstraintSet) {
  // Each label class holds ~70 nodes, so K = 150 exhausts every slot and
  // the selection must widen to the whole candidate list.
  const Problem p = MakeProblem(200, 3, 6);
  CounterfactualConfig c;
  c.top_k = 150;
  c.sample_nodes = 40;
  c.candidate_pool = 0;
  ExpectMatchesReference(p, c, 7);
}

TEST(CounterfactualSearchTest, FlatLayoutBounds) {
  const Problem p = MakeProblem(120, 4, 8);
  CounterfactualConfig c;
  c.top_k = 4;
  c.sample_nodes = 30;
  c.candidate_pool = 0;
  common::Rng rng(9);
  const CounterfactualSet cf =
      FindCounterfactuals(p.emb, p.bins, p.labels, c, &rng);
  EXPECT_EQ(cf.top_k, 4);
  EXPECT_EQ(cf.num_attrs(), 3);
  EXPECT_EQ(cf.ids.size(), 3u * 30u * 4u);
  EXPECT_EQ(cf.count.size(), 3u * 30u);
  for (size_t a = 0; a < cf.anchors.size(); ++a) {
    EXPECT_LE(cf.Matches(0, a).size(), 4u);
    EXPECT_TRUE(cf.Matches(2, a).empty()) << "constant attribute";
  }
}

}  // namespace
}  // namespace fairwos::core
