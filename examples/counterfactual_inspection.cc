// Interpretability demo: peek inside Fairwos' counterfactual machinery.
// Trains the encoder + backbone on a dataset, runs the counterfactual
// search once, and prints — for a handful of nodes — the pseudo-sensitive
// bins, the matched counterfactual nodes, their embedding distances, and
// whether the pre-trained classifier treats the pair consistently. Ends
// with the aggregate counterfactual-consistency metric before fairness
// fine-tuning vs after.
//
//   ./examples/counterfactual_inspection [--dataset bail] [--scale 20]
//                                        [--nodes 5] [--seed 17]
#include <cstdio>

#include "baselines/registry.h"
#include "common/cli.h"
#include "core/counterfactual.h"
#include "core/encoder.h"
#include "core/fairwos.h"
#include "data/synthetic.h"
#include "fairness/metrics.h"

namespace {

using fairwos::core::CounterfactualSet;

/// All (anchor, top-1 counterfactual) pairs of a search result, pooled
/// across pseudo-sensitive attributes.
std::vector<std::pair<int64_t, int64_t>> TopPairs(const CounterfactualSet& cf) {
  std::vector<std::pair<int64_t, int64_t>> pairs;
  for (int64_t i = 0; i < cf.num_attrs(); ++i) {
    for (size_t a = 0; a < cf.anchors.size(); ++a) {
      const auto matches = cf.Matches(i, a);
      if (!matches.empty()) pairs.emplace_back(cf.anchors[a], matches[0]);
    }
  }
  return pairs;
}

int Main(int argc, char** argv) {
  auto flags_or = fairwos::common::CliFlags::Parse(argc, argv);
  if (!flags_or.ok()) {
    std::fprintf(stderr, "%s\n", flags_or.status().ToString().c_str());
    return 1;
  }
  const auto& flags = flags_or.value();
  fairwos::data::DatasetOptions data_options;
  data_options.scale = flags.GetDouble("scale", 20.0);
  data_options.seed = static_cast<uint64_t>(flags.GetInt("seed", 17));
  const int64_t show_nodes = flags.GetInt("nodes", 5);
  const std::string dataset_name = flags.GetString("dataset", "bail");

  auto ds_or = fairwos::data::MakeDataset(dataset_name, data_options);
  if (!ds_or.ok()) {
    std::fprintf(stderr, "%s\n", ds_or.status().ToString().c_str());
    return 1;
  }
  const auto& ds = ds_or.value();

  // Train Fairwos while keeping its diagnostics.
  fairwos::core::FairwosConfig config;
  config.alpha = fairwos::baselines::RecommendedAlpha(ds.name);
  fairwos::core::FairwosStats stats;
  auto out_or =
      fairwos::core::TrainFairwos(config, ds, data_options.seed, &stats);
  if (!out_or.ok()) {
    std::fprintf(stderr, "%s\n", out_or.status().ToString().c_str());
    return 1;
  }
  const auto& out = out_or.value();

  // Re-run the search against the *final* embeddings so the printed pairs
  // describe the model the user would deploy.
  const auto bins = fairwos::core::MedianBins(out.pseudo_sens);
  fairwos::common::Rng rng(data_options.seed);
  fairwos::core::CounterfactualConfig search = config.counterfactual;
  auto cf = fairwos::core::FindCounterfactuals(out.embeddings, bins, out.pred,
                                               search, &rng);

  std::printf(
      "counterfactual inspection on %s — %zu anchors, %lld pseudo-sensitive "
      "attributes, top-%lld matches\n\n",
      ds.name.c_str(), cf.anchors.size(),
      static_cast<long long>(cf.num_attrs()),
      static_cast<long long>(search.top_k));

  const int64_t hidden = out.embeddings.dim(1);
  for (int64_t row = 0; row < show_nodes &&
                         row < static_cast<int64_t>(cf.anchors.size());
       ++row) {
    const int64_t v = cf.anchors[static_cast<size_t>(row)];
    std::printf("node %lld  (pred=%d, true s=%d):\n", static_cast<long long>(v),
                out.pred[static_cast<size_t>(v)],
                ds.sens[static_cast<size_t>(v)]);
    // Show the first two attributes' matches.
    for (int64_t i = 0; i < std::min<int64_t>(2, cf.num_attrs()); ++i) {
      const auto slot = cf.Matches(i, static_cast<size_t>(row));
      std::printf("  pseudo-attr %lld (bin %d) counterfactuals:",
                  static_cast<long long>(i),
                  static_cast<int>(bins[static_cast<size_t>(v)][static_cast<size_t>(i)]));
      for (int64_t m : slot) {
        double dist = 0.0;
        for (int64_t d = 0; d < hidden; ++d) {
          const double diff =
              out.embeddings.at(v, d) - out.embeddings.at(m, d);
          dist += diff * diff;
        }
        std::printf(" %lld(d²=%.3f,pred=%d)", static_cast<long long>(m), dist,
                    out.pred[static_cast<size_t>(m)]);
      }
      std::printf("\n");
    }
  }

  const double consistency =
      fairwos::fairness::CounterfactualConsistencyPct(out.pred, TopPairs(cf));
  std::printf(
      "\ncounterfactual consistency of the trained model: %.1f%% of "
      "(node, counterfactual) pairs receive identical predictions.\n",
      consistency);
  std::printf("final importance weights lambda:");
  for (double l : stats.lambda) std::printf(" %.3f", l);
  std::printf("\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return Main(argc, argv); }
