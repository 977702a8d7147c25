// Tests for the baseline methods and the method registry: each method must
// run end-to-end on the toy dataset, be deterministic in its seed, respect
// its configuration, and never touch the sensitive attribute.
#include <gtest/gtest.h>

#include "baselines/registry.h"
#include "data/synthetic.h"
#include "eval/harness.h"
#include "fairness/metrics.h"
#include "test_util.h"

namespace fairwos::baselines {
namespace {

/// Fit-then-predict in one call (what the removed FairMethod::Run shim did).
common::Result<core::MethodOutput> FitPredict(core::FairMethod& method,
                                              const data::Dataset& ds,
                                              uint64_t seed) {
  auto fitted = method.Fit(ds, seed);
  if (!fitted.ok()) return fitted.status();
  core::MethodOutput out = (*fitted)->Predict(ds);
  out.train_seconds = (*fitted)->train_seconds();
  return out;
}

using ::fairwos::testing::ToyDataset;

MethodOptions FastOptions() {
  MethodOptions options;
  options.train.epochs = 60;
  options.fairwos.pretrain_epochs = 60;
  options.fairwos.finetune_epochs = 8;
  options.fairwos.encoder.epochs = 40;
  options.fairgkd.teacher_epochs = 40;
  options.perturbcf.encoder.epochs = 40;
  options.perturbcf.finetune_epochs = 8;
  return options;
}

class MethodContractTest : public ::testing::TestWithParam<std::string> {};

TEST_P(MethodContractTest, RunsAndPredictsEveryNode) {
  auto ds = ToyDataset();
  auto method = MakeMethod(GetParam(), FastOptions()).value();
  auto out = FitPredict(*method, ds, 7);
  ASSERT_TRUE(out.ok()) << GetParam() << ": " << out.status().ToString();
  EXPECT_EQ(static_cast<int64_t>(out->pred.size()), ds.num_nodes());
  EXPECT_EQ(static_cast<int64_t>(out->prob1.size()), ds.num_nodes());
  for (int p : out->pred) EXPECT_TRUE(p == 0 || p == 1);
  for (float p : out->prob1) {
    EXPECT_GE(p, 0.0f);
    EXPECT_LE(p, 1.0f);
  }
  EXPECT_GT(out->train_seconds, 0.0);
}

TEST_P(MethodContractTest, DeterministicInSeed) {
  auto ds = ToyDataset();
  auto m1 = MakeMethod(GetParam(), FastOptions()).value();
  auto m2 = MakeMethod(GetParam(), FastOptions()).value();
  auto a = FitPredict(*m1, ds, 13);
  auto b = FitPredict(*m2, ds, 13);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->pred, b->pred) << GetParam();
}

TEST_P(MethodContractTest, IgnoresSensitiveAttribute) {
  // Scrambling ds.sens must not change any prediction: s is evaluation-only
  // (the paper's core problem setting).
  auto ds = ToyDataset();
  auto scrambled = ds;
  for (size_t i = 0; i < scrambled.sens.size(); ++i) {
    scrambled.sens[i] = static_cast<int>(i % 2);
  }
  auto m1 = MakeMethod(GetParam(), FastOptions()).value();
  auto m2 = MakeMethod(GetParam(), FastOptions()).value();
  auto a = FitPredict(*m1, ds, 29);
  auto b = FitPredict(*m2, scrambled, 29);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->pred, b->pred) << GetParam() << " read the sensitive attribute";
}

TEST_P(MethodContractTest, BeatsChanceOnBail) {
  // bail (scaled) has enough attributes that even attribute-dropping
  // methods retain signal; toy is too small for that guarantee.
  data::DatasetOptions options;
  options.scale = 60.0;
  auto ds = data::MakeDataset("bail", options).value();
  auto method = MakeMethod(GetParam(), FastOptions()).value();
  auto metrics = eval::RunTrial(method.get(), ds, 3);
  ASSERT_TRUE(metrics.ok());
  EXPECT_GE(metrics->acc, 56.0) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(AllMethods, MethodContractTest,
                         ::testing::Values("vanilla", "remover", "ksmote",
                                           "fairrf", "fairgkd", "perturbcf",
                                           "fairwos", "fairwos-wo-e",
                                           "fairwos-wo-f", "fairwos-wo-w"),
                         [](const auto& info) {
                           std::string name = info.param;
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

TEST(RegistryTest, UnknownMethodNotFound) {
  auto r = MakeMethod("no-such-method", {});
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), common::StatusCode::kNotFound);
}

TEST(RegistryTest, KnownNamesAllConstruct) {
  for (const auto& name : KnownMethodNames()) {
    EXPECT_TRUE(MakeMethod(name, {}).ok()) << name;
  }
}

TEST(RegistryTest, BackboneReachesMethods) {
  MethodOptions options = FastOptions();
  options.backbone = nn::Backbone::kGin;
  auto method = MakeMethod("vanilla", options).value();
  auto ds = ToyDataset();
  EXPECT_TRUE(method->Fit(ds, 1).ok());
}

TEST(RemoveRTest, DropsRequestedFraction) {
  auto ds = ToyDataset();
  MethodOptions options = FastOptions();
  options.remover.drop_fraction = 0.5;
  auto method = MakeMethod("remover", options).value();
  EXPECT_TRUE(method->Fit(ds, 2).ok());
  // Invalid fraction is rejected.
  RemoveRConfig bad;
  bad.drop_fraction = 1.5;
  RemoveRMethod invalid({}, {}, bad);
  EXPECT_FALSE(invalid.Fit(ds, 1).ok());
}

TEST(KSmoteTest, RejectsTooFewClusters) {
  auto ds = ToyDataset();
  KSmoteConfig bad;
  bad.clusters = 1;
  KSmoteMethod invalid({}, {}, bad);
  EXPECT_FALSE(invalid.Fit(ds, 1).ok());
}

TEST(FairRFTest, RejectsBadRelatedFraction) {
  auto ds = ToyDataset();
  FairRFConfig bad;
  bad.related_fraction = 0.0;
  FairRFMethod invalid({}, {}, bad);
  EXPECT_FALSE(invalid.Fit(ds, 1).ok());
}

TEST(FairGkdTest, RejectsNegativeGamma) {
  auto ds = ToyDataset();
  FairGkdConfig bad;
  bad.gamma = -1.0;
  FairGkdMethod invalid({}, {}, bad);
  EXPECT_FALSE(invalid.Fit(ds, 1).ok());
}

TEST(FairGkdTest, StructureFeaturesAreStandardized) {
  auto ds = ToyDataset();
  tensor::Tensor f = StructureOnlyFeatures(ds.graph);
  EXPECT_EQ(f.dim(0), ds.num_nodes());
  EXPECT_EQ(f.dim(1), 2);
  for (int64_t j = 0; j < 2; ++j) {
    double mean = 0.0;
    for (int64_t i = 0; i < f.dim(0); ++i) mean += f.at(i, j);
    EXPECT_NEAR(mean / static_cast<double>(f.dim(0)), 0.0, 1e-4);
  }
}

TEST(SuspicionRankingTest, FindsPlantedProxy) {
  // toy plants proxies in the first 3 attributes; the suspicion ranking
  // should surface at least one of them near the top.
  auto ds = ToyDataset();
  common::Rng rng(17);
  auto ranked = RankAttributesBySuspicion(ds, &rng);
  ASSERT_EQ(static_cast<int64_t>(ranked.size()), ds.num_attrs());
  bool proxy_in_top5 = false;
  for (int r = 0; r < 5; ++r) proxy_in_top5 |= (ranked[static_cast<size_t>(r)] < 3);
  EXPECT_TRUE(proxy_in_top5);
}

}  // namespace
}  // namespace fairwos::baselines
