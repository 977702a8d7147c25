// Counterfactual data augmentation (paper §III-D, Eq. 11-12): instead of
// perturbing attributes (which fabricates non-realistic counterfactuals),
// Fairwos searches the *real* dataset for each node's counterfactuals —
// nodes with the same (pseudo-)label but a different value of the i-th
// pseudo-sensitive attribute, nearest in GNN embedding space.
#ifndef FAIRWOS_CORE_COUNTERFACTUAL_H_
#define FAIRWOS_CORE_COUNTERFACTUAL_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/rng.h"
#include "tensor/tensor.h"

namespace fairwos::core {

struct CounterfactualConfig {
  /// K — counterfactuals kept per (node, attribute); paper sweeps 1..20.
  int64_t top_k = 5;
  /// Anchor nodes regularized per refresh; <= 0 uses every node. Sampling
  /// bounds the O(anchors * pool) search on commodity CPUs.
  int64_t sample_nodes = 512;
  /// Candidate pool size; <= 0 searches the full node set (exact Eq. 12).
  int64_t candidate_pool = 1024;
};

/// The search result, stored flat. Slot (i, a) — attribute i, anchor
/// position a — holds up to K node ids ordered by increasing embedding
/// distance; fewer than K means the constraint set was exhausted.
struct CounterfactualSet {
  std::vector<int64_t> anchors;
  int64_t top_k = 0;
  std::vector<int64_t> ids;    // [I·A·K]; slot (i, a) starts at (i·A + a)·K
  std::vector<int64_t> count;  // [I·A]; ids filled in each slot

  int64_t num_attrs() const {
    return anchors.empty()
               ? 0
               : static_cast<int64_t>(count.size() / anchors.size());
  }

  /// The matches of anchor position `a` for attribute `i`, nearest first.
  std::span<const int64_t> Matches(int64_t i, size_t a) const {
    const size_t slot = static_cast<size_t>(i) * anchors.size() + a;
    return {ids.data() + slot * static_cast<size_t>(top_k),
            static_cast<size_t>(count[slot])};
  }
};

/// Runs the top-K search of Eq. 12.
///
/// `embeddings` are the current GNN representations h [N, H] (read as plain
/// values — the search itself is not differentiated through);
/// `bins[v][i]` is the discretised value of pseudo-attribute i at node v;
/// `pseudo_labels` come from the pre-trained classifier (semi-supervised
/// setting, §III-D). Deterministic in (inputs, rng state) and identical at
/// any thread count: all sampling happens before the anchors are searched
/// in parallel, and each anchor writes only its own slots.
CounterfactualSet FindCounterfactuals(
    const tensor::Tensor& embeddings,
    const std::vector<std::vector<uint8_t>>& bins,
    const std::vector<int>& pseudo_labels, const CounterfactualConfig& config,
    common::Rng* rng);

}  // namespace fairwos::core

#endif  // FAIRWOS_CORE_COUNTERFACTUAL_H_
