#include "core/counterfactual.h"

#include <algorithm>
#include <bit>
#include <limits>
#include <numeric>

#include "common/threadpool.h"

namespace fairwos::core {
namespace {

/// Anchors per ParallelFor chunk — a constant, so chunking never depends on
/// the thread count.
constexpr int64_t kAnchorGrain = 16;
/// Candidates ordered before the first scan; the prefix doubles only while
/// some attribute still lacks K matches.
constexpr size_t kFirstPrefix = 64;

/// Packs (distance, id) into one integer whose order is the lexicographic
/// (distance, id) order: a non-negative float's bit pattern is monotone in
/// its value (a NaN orders after +inf), and ids fit the low 32 bits.
uint64_t OrderKey(float dist, int64_t id) {
  return static_cast<uint64_t>(std::bit_cast<uint32_t>(dist)) << 32 |
         static_cast<uint64_t>(id);
}

/// Picks `k` node ids (all of them when k <= 0 or k >= n).
std::vector<int64_t> PickNodes(int64_t n, int64_t k, common::Rng* rng) {
  if (k <= 0 || k >= n) {
    std::vector<int64_t> all(static_cast<size_t>(n));
    std::iota(all.begin(), all.end(), 0);
    return all;
  }
  return rng->SampleWithoutReplacement(n, k);
}

}  // namespace

CounterfactualSet FindCounterfactuals(
    const tensor::Tensor& embeddings,
    const std::vector<std::vector<uint8_t>>& bins,
    const std::vector<int>& pseudo_labels, const CounterfactualConfig& config,
    common::Rng* rng) {
  FW_CHECK_EQ(embeddings.rank(), 2);
  const int64_t n = embeddings.dim(0);
  const int64_t h = embeddings.dim(1);
  FW_CHECK_EQ(static_cast<int64_t>(bins.size()), n);
  FW_CHECK_EQ(static_cast<int64_t>(pseudo_labels.size()), n);
  FW_CHECK_GT(n, 1);
  FW_CHECK_LE(n, int64_t{std::numeric_limits<uint32_t>::max()});
  const int64_t num_attrs = static_cast<int64_t>(bins[0].size());
  FW_CHECK_GT(num_attrs, 0);
  const int64_t top_k = config.top_k;
  FW_CHECK_GT(top_k, 0);

  CounterfactualSet out;
  out.anchors = PickNodes(n, config.sample_nodes, rng);
  const std::vector<int64_t> pool = PickNodes(n, config.candidate_pool, rng);
  const size_t num_anchors = out.anchors.size();
  out.top_k = top_k;
  out.ids.assign(static_cast<size_t>(num_attrs * top_k) * num_anchors, -1);
  out.count.assign(static_cast<size_t>(num_attrs) * num_anchors, 0);

  // Attribute-major bins: the scan for attribute i reads one contiguous row.
  std::vector<uint8_t> bins_by_attr(static_cast<size_t>(num_attrs * n));
  for (int64_t v = 0; v < n; ++v) {
    const auto& row = bins[static_cast<size_t>(v)];
    FW_CHECK_EQ(static_cast<int64_t>(row.size()), num_attrs);
    for (int64_t i = 0; i < num_attrs; ++i) {
      bins_by_attr[static_cast<size_t>(i * n + v)] =
          row[static_cast<size_t>(i)];
    }
  }

  // Candidates grouped by pseudo-label (Eq. 12 only pairs equal labels),
  // stored dimension-major: row d holds coordinate d of every candidate, so
  // an anchor's distances are h contiguous, vectorizable passes, each
  // candidate still summed in float over d ascending.
  const auto by_label = [&](int64_t x, int64_t y) {
    return pseudo_labels[static_cast<size_t>(x)] <
           pseudo_labels[static_cast<size_t>(y)];
  };
  std::vector<int64_t> cands = pool;
  std::stable_sort(cands.begin(), cands.end(), by_label);
  const float* emb = embeddings.data().data();
  const size_t num_cands = cands.size();
  std::vector<float> cands_by_dim(static_cast<size_t>(h) * num_cands);
  for (size_t c = 0; c < num_cands; ++c) {
    for (int64_t d = 0; d < h; ++d) {
      cands_by_dim[static_cast<size_t>(d) * num_cands + c] =
          emb[cands[c] * h + d];
    }
  }

  common::ParallelFor(0, static_cast<int64_t>(num_anchors), kAnchorGrain,
                      [&](int64_t lo, int64_t hi) {
    std::vector<float> dist(num_cands);
    std::vector<uint64_t> order(num_cands);
    for (int64_t a = lo; a < hi; ++a) {
      const int64_t v = out.anchors[static_cast<size_t>(a)];
      const auto [group_begin, group_end] =
          std::equal_range(cands.begin(), cands.end(), v, by_label);
      const size_t g0 = static_cast<size_t>(group_begin - cands.begin());
      const size_t g1 = static_cast<size_t>(group_end - cands.begin());
      std::fill(dist.begin() + g0, dist.begin() + g1, 0.0f);
      for (int64_t d = 0; d < h; ++d) {
        const float ev = emb[v * h + d];
        const float* column = cands_by_dim.data() + d * num_cands;
        float* out_dist = dist.data();
        for (size_t c = g0; c < g1; ++c) {
          const float diff = ev - column[c];
          out_dist[c] += diff * diff;
        }
      }
      size_t m = 0;
      for (size_t c = g0; c < g1; ++c) {
        if (cands[c] != v) order[m++] = OrderKey(dist[c], cands[c]);
      }

      // Exact top-K per attribute without sorting all m candidates: order a
      // prefix of the (distance, id) total order, scan it, and widen it only
      // while some attribute still lacks K matches. Candidate ids are
      // unique, so the order is strict and every prefix is the one a full
      // sort would give.
      const auto first = order.begin();
      int64_t pending = num_attrs;
      for (size_t sorted = 0; pending > 0 && sorted < m;) {
        const size_t end = std::min(m, std::max(kFirstPrefix, 2 * sorted));
        if (end < m) {
          std::nth_element(first + static_cast<int64_t>(sorted),
                           first + static_cast<int64_t>(end),
                           first + static_cast<int64_t>(m));
        }
        std::sort(first + static_cast<int64_t>(sorted),
                  first + static_cast<int64_t>(end));
        for (int64_t i = 0; i < num_attrs; ++i) {
          const size_t slot =
              static_cast<size_t>(i) * num_anchors + static_cast<size_t>(a);
          int64_t found = out.count[slot];
          if (found == top_k) continue;
          const uint8_t* attr_bins = bins_by_attr.data() + i * n;
          int64_t* ids = out.ids.data() + slot * static_cast<size_t>(top_k);
          for (size_t c = sorted; c < end; ++c) {
            const auto cand = static_cast<int64_t>(order[c] & 0xffffffffu);
            if (attr_bins[cand] == attr_bins[v]) {
              continue;  // Eq. 12: x⁰ᵢ must differ
            }
            ids[found] = cand;
            if (++found == top_k) {
              --pending;
              break;
            }
          }
          out.count[slot] = found;
        }
        sorted = end;
      }
    }
  });
  return out;
}

}  // namespace fairwos::core
