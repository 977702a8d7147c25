// Serving robustness chaos tests (docs/serving.md): the model registry
// (hot-swap atomicity, generation counters, swap-failure isolation via the
// kServeArtifactMmap fault), admission control (queue/quota shedding,
// deadline storms), leader-death recovery (an injected leader crash must be
// healed by follower self-promotion, never by a hung client), degraded-mode
// serving (kServeBatchForward faults fall back to the last known good
// result), cache invalidation on swap/unload, and the online drift monitor.
// Every test's core invariant: each request resolves to a prediction or a
// precise Status — no client ever hangs. The suite runs under TSan in CI
// (the serve-chaos job) with FAIRWOS_THREADS=4.
#include <atomic>
#include <cmath>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "baselines/vanilla.h"
#include "common/deadline.h"
#include "common/fault.h"
#include "common/telemetry.h"
#include "data/synthetic.h"
#include "serve/artifact.h"
#include "serve/drift.h"
#include "serve/engine.h"
#include "serve/registry.h"
#include "test_util.h"

namespace fairwos::serve {
namespace {

using ::fairwos::testing::TempPath;
using ::fairwos::testing::ToyDataset;

/// Fits a small vanilla GNN and freezes it at `path`; returns the model id.
std::string ExportArtifact(const data::Dataset& ds, uint64_t seed,
                           const std::string& path,
                           const std::string& model_id = "") {
  nn::GnnConfig gnn;
  gnn.in_features = ds.num_attrs();
  baselines::TrainOptions train;
  train.epochs = 20;
  baselines::VanillaMethod method(gnn, train);
  auto fitted_or = method.Fit(ds, seed);
  EXPECT_TRUE(fitted_or.ok()) << fitted_or.status().ToString();
  const core::FittedGnnModel* model = fitted_or.value()->AsGnn();
  EXPECT_NE(model, nullptr);
  ModelArtifact artifact = MakeArtifact(*model, ds, model_id);
  const common::Status saved = SaveModelArtifact(path, artifact);
  EXPECT_TRUE(saved.ok()) << saved.ToString();
  return artifact.model_id;
}

/// The ground truth the engine must match bit-for-bit: an in-process
/// restore + Predict of the same artifact.
nn::PredictionResult FreshPredictions(const std::string& path,
                                      const data::Dataset& ds) {
  auto artifact_or = LoadModelArtifact(path);
  EXPECT_TRUE(artifact_or.ok()) << artifact_or.status().ToString();
  auto model_or = RestoreFittedModel(artifact_or.value(), ds);
  EXPECT_TRUE(model_or.ok()) << model_or.status().ToString();
  return model_or.value()->Predict(ds);
}

// --- ModelRegistry --------------------------------------------------------

TEST(ModelRegistryTest, LoadSwapUnloadLifecycle) {
  auto ds = ToyDataset();
  const std::string path_a = TempPath("registry_a.fwmodel");
  const std::string path_b = TempPath("registry_b.fwmodel");
  ExportArtifact(ds, /*seed=*/1, path_a, "m");
  ExportArtifact(ds, /*seed=*/2, path_b, "m");

  ModelRegistry registry(ds);
  auto id_or = registry.Load(path_a);
  ASSERT_TRUE(id_or.ok()) << id_or.status().ToString();
  EXPECT_EQ(id_or.value(), "m");
  EXPECT_EQ(registry.generation("m"), 1);
  EXPECT_EQ(registry.size(), 1u);

  // A second Load under the same id must be rejected (that is what Swap
  // is for), and Swap of an unknown id must be NotFound.
  auto dup = registry.Load(path_b);
  EXPECT_EQ(dup.status().code(), common::StatusCode::kFailedPrecondition);
  auto missing = registry.Swap("ghost", path_b);
  EXPECT_EQ(missing.status().code(), common::StatusCode::kNotFound);

  auto gen_or = registry.Swap("m", path_b);
  ASSERT_TRUE(gen_or.ok()) << gen_or.status().ToString();
  EXPECT_EQ(gen_or.value(), 2);
  EXPECT_EQ(registry.Get("m")->source_path, path_b);

  ASSERT_TRUE(registry.Unload("m").ok());
  EXPECT_EQ(registry.Get("m"), nullptr);
  EXPECT_EQ(registry.generation("m"), 0);
  EXPECT_EQ(registry.Unload("m").code(), common::StatusCode::kNotFound);

  // Generations survive the unload: a re-registered id never reuses a
  // retired generation, so stale cache entries can never validate.
  ASSERT_TRUE(registry.Load(path_a).ok());
  EXPECT_EQ(registry.generation("m"), 3);
}

TEST(ModelRegistryTest, FailedSwapLeavesOldModelServing) {
  auto ds = ToyDataset();
  const std::string path_a = TempPath("swapfail_a.fwmodel");
  const std::string path_b = TempPath("swapfail_b.fwmodel");
  ExportArtifact(ds, /*seed=*/1, path_a, "m");
  ExportArtifact(ds, /*seed=*/2, path_b, "m");

  ModelRegistry registry(ds);
  ASSERT_TRUE(registry.Load(path_a).ok());
  const auto before = registry.Get("m");

  // Injected mmap fault while restoring the replacement: the swap must
  // fail without unpublishing anything.
  testing::FaultInjector injector(7);
  injector.Arm(testing::FaultSite::kServeArtifactMmap, /*at_visit=*/0);
  {
    testing::ScopedFaultInjector scoped(&injector);
    auto swap = registry.Swap("m", path_b);
    EXPECT_EQ(swap.status().code(), common::StatusCode::kIoError);
  }
  EXPECT_EQ(injector.fires(testing::FaultSite::kServeArtifactMmap), 1);
  EXPECT_EQ(registry.Get("m"), before);  // same published entry, untouched
  EXPECT_EQ(registry.generation("m"), 1);

  // With the fault gone the same swap succeeds.
  auto swap = registry.Swap("m", path_b);
  ASSERT_TRUE(swap.ok()) << swap.status().ToString();
  EXPECT_EQ(swap.value(), 2);
}

// --- Admission control and deadlines --------------------------------------

TEST(AdmissionTest, QueueFullShedsWithResourceExhausted) {
  auto ds = ToyDataset();
  const std::string path = TempPath("admission.fwmodel");
  ExportArtifact(ds, /*seed=*/1, path);

  EngineOptions options;
  options.cache_capacity = 0;         // every request must queue
  options.max_queue = 1;              // the leader's own request fills it
  options.flush_interval_ms = 50.0;   // hold the queue long enough to shed
  auto engine_or = InferenceEngine::Load(path, ds, options);
  ASSERT_TRUE(engine_or.ok()) << engine_or.status().ToString();
  InferenceEngine& engine = *engine_or.value();

  constexpr int kClients = 8;
  std::atomic<int> ok{0}, shed{0}, other{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      auto prediction = engine.Predict(c);
      if (prediction.ok()) {
        ++ok;
      } else if (prediction.status().code() ==
                 common::StatusCode::kResourceExhausted) {
        ++shed;
      } else {
        ++other;
      }
    });
  }
  for (auto& t : clients) t.join();

  EXPECT_EQ(other.load(), 0);
  EXPECT_GE(ok.load(), 1);  // whoever got the queue slot is served
  EXPECT_EQ(ok.load() + shed.load(), kClients);
  EXPECT_EQ(engine.stats().shed_queue, shed.load());
}

TEST(AdmissionTest, PerModelQuotaShedsWithResourceExhausted) {
  auto ds = ToyDataset();
  const std::string path = TempPath("quota.fwmodel");
  ExportArtifact(ds, /*seed=*/1, path);

  EngineOptions options;
  options.cache_capacity = 0;
  options.per_model_quota = 1;
  options.flush_interval_ms = 50.0;
  auto engine_or = InferenceEngine::Load(path, ds, options);
  ASSERT_TRUE(engine_or.ok()) << engine_or.status().ToString();
  InferenceEngine& engine = *engine_or.value();

  constexpr int kClients = 6;
  std::atomic<int> ok{0}, shed{0}, other{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      auto prediction = engine.Predict(c);
      if (prediction.ok()) {
        ++ok;
      } else if (prediction.status().code() ==
                 common::StatusCode::kResourceExhausted) {
        ++shed;
      } else {
        ++other;
      }
    });
  }
  for (auto& t : clients) t.join();

  EXPECT_EQ(other.load(), 0);
  EXPECT_GE(ok.load(), 1);
  EXPECT_EQ(ok.load() + shed.load(), kClients);
  EXPECT_EQ(engine.stats().shed_quota, shed.load());
}

TEST(AdmissionTest, ExpiredDeadlineResolvesToDeadlineExceeded) {
  auto ds = ToyDataset();
  const std::string path = TempPath("deadline.fwmodel");
  ExportArtifact(ds, /*seed=*/1, path);

  EngineOptions options;
  options.cache_capacity = 0;
  auto engine_or = InferenceEngine::Load(path, ds, options);
  ASSERT_TRUE(engine_or.ok()) << engine_or.status().ToString();
  InferenceEngine& engine = *engine_or.value();

  const common::Deadline expired = common::Deadline::After(0.0);
  auto prediction = engine.Predict(engine.model_id(), /*node=*/0, &expired);
  EXPECT_EQ(prediction.status().code(),
            common::StatusCode::kDeadlineExceeded);
  EXPECT_EQ(engine.stats().deadline_exceeded, 1);
}

TEST(AdmissionTest, DeadlineStormEveryRequestResolves) {
  auto ds = ToyDataset();
  const std::string path = TempPath("deadline_storm.fwmodel");
  ExportArtifact(ds, /*seed=*/1, path);

  EngineOptions options;
  options.cache_capacity = 0;
  options.flush_interval_ms = 2.0;
  auto engine_or = InferenceEngine::Load(path, ds, options);
  ASSERT_TRUE(engine_or.ok()) << engine_or.status().ToString();
  InferenceEngine& engine = *engine_or.value();

  // Half the clients carry an (effectively already expired) deadline, half
  // none. Tight deadlines must become DeadlineExceeded, never a hang, and
  // must not poison the untimed requests sharing their batches.
  constexpr int kClients = 8;
  constexpr int kRounds = 10;
  std::atomic<int> ok{0}, deadline{0}, other{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int r = 0; r < kRounds; ++r) {
        const int64_t node = (c * kRounds + r) % engine.num_nodes();
        common::Result<NodePrediction> prediction =
            common::Status::Internal("unset");
        if (c % 2 == 0) {
          const common::Deadline tight = common::Deadline::After(1e-9);
          prediction = engine.Predict(engine.model_id(), node, &tight);
        } else {
          prediction = engine.Predict(node);
        }
        if (prediction.ok()) {
          ++ok;
        } else if (prediction.status().code() ==
                   common::StatusCode::kDeadlineExceeded) {
          ++deadline;
        } else {
          ++other;
        }
      }
    });
  }
  for (auto& t : clients) t.join();

  EXPECT_EQ(other.load(), 0);
  EXPECT_EQ(ok.load() + deadline.load(), kClients * kRounds);
  EXPECT_EQ(ok.load(), kClients / 2 * kRounds);  // untimed half all served
  EXPECT_EQ(deadline.load(), kClients / 2 * kRounds);
  EXPECT_EQ(engine.stats().deadline_exceeded, deadline.load());
}

// --- Leader-death recovery ------------------------------------------------

TEST(LeaderDeathTest, FollowersPromoteAndRecoverTheBatch) {
  auto ds = ToyDataset();
  const std::string path = TempPath("leader_death.fwmodel");
  ExportArtifact(ds, /*seed=*/1, path);
  const nn::PredictionResult fresh = FreshPredictions(path, ds);

  EngineOptions options;
  options.cache_capacity = 0;
  options.flush_interval_ms = 20.0;   // let every client join the doomed batch
  options.leader_timeout_ms = 50.0;   // prompt follower promotion
  auto engine_or = InferenceEngine::Load(path, ds, options);
  ASSERT_TRUE(engine_or.ok()) << engine_or.status().ToString();
  InferenceEngine& engine = *engine_or.value();

  engine.CrashNextLeaderForTesting();

  constexpr int kClients = 4;
  std::atomic<int> ok{0}, crashed{0}, other{0}, mismatched{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      auto prediction = engine.Predict(c);
      if (prediction.ok()) {
        if (prediction.value().label != fresh.pred[static_cast<size_t>(c)] ||
            prediction.value().prob1 != fresh.prob1[static_cast<size_t>(c)]) {
          ++mismatched;
        }
        ++ok;
      } else if (prediction.status().code() ==
                 common::StatusCode::kInternal) {
        ++crashed;  // the injected leader crash fails the leader's own call
      } else {
        ++other;
      }
    });
  }
  for (auto& t : clients) t.join();

  EXPECT_EQ(other.load(), 0);
  EXPECT_EQ(mismatched.load(), 0);
  EXPECT_EQ(crashed.load(), 1);
  EXPECT_EQ(ok.load(), kClients - 1);
  EXPECT_GE(engine.stats().leader_promotions, 1);

  // The engine is healthy again: the next request (a fresh leader) serves.
  auto after = engine.Predict(0);
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_EQ(after.value().label, fresh.pred[0]);
}

// --- Degraded-mode serving ------------------------------------------------

TEST(DegradedServeTest, ForwardFaultsFallBackToLastKnownGood) {
  auto ds = ToyDataset();
  const std::string path = TempPath("degraded.fwmodel");
  ExportArtifact(ds, /*seed=*/1, path);
  const nn::PredictionResult fresh = FreshPredictions(path, ds);

  EngineOptions options;
  options.forward_retries = 1;  // 2 attempts per batch
  auto engine_or = InferenceEngine::Load(path, ds, options);
  ASSERT_TRUE(engine_or.ok()) << engine_or.status().ToString();
  InferenceEngine& engine = *engine_or.value();

  // Warm the last-known-good snapshot with one healthy batch.
  auto warm = engine.Predict(0);
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();
  EXPECT_FALSE(warm.value().degraded);

  obs::CollectingSink sink;
  obs::SetEventSink(&sink);
  testing::FaultInjector injector(7);
  // Enough fires to exhaust the initial attempt and the retry.
  injector.Arm(testing::FaultSite::kServeBatchForward, /*at_visit=*/0,
               /*count=*/2);
  {
    testing::ScopedFaultInjector scoped(&injector);
    auto degraded = engine.Predict(1);
    ASSERT_TRUE(degraded.ok()) << degraded.status().ToString();
    EXPECT_TRUE(degraded.value().degraded);
    // Stale but correct here: the model never changed, so the last good
    // result is the same full-graph prediction a fresh forward computes.
    EXPECT_EQ(degraded.value().label, fresh.pred[1]);
    EXPECT_EQ(degraded.value().prob1, fresh.prob1[1]);
  }
  obs::SetEventSink(nullptr);
  EXPECT_EQ(injector.fires(testing::FaultSite::kServeBatchForward), 2);
  EXPECT_EQ(engine.stats().degraded, 1);

  int degraded_incidents = 0, degraded_requests = 0;
  for (const auto& event : sink.events()) {
    if (event.name() == "degraded_serve") {
      ++degraded_incidents;
      EXPECT_EQ(event.GetString("model"), engine.model_id());
    }
    if (event.name() == "serve_request" &&
        event.GetDouble("degraded", 0.0) == 1.0) {
      ++degraded_requests;
    }
  }
  EXPECT_EQ(degraded_incidents, 1);
  EXPECT_EQ(degraded_requests, 1);

  // Degraded answers are never cached: with the fault gone the same node
  // is recomputed fresh (still bit-identical) rather than replayed.
  auto again = engine.Predict(1);
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_FALSE(again.value().cache_hit);
  EXPECT_FALSE(again.value().degraded);
  EXPECT_EQ(again.value().prob1, fresh.prob1[1]);
}

TEST(DegradedServeTest, NoLastGoodMeansPreciseInternalError) {
  auto ds = ToyDataset();
  const std::string path = TempPath("degraded_cold.fwmodel");
  ExportArtifact(ds, /*seed=*/1, path);

  EngineOptions options;
  options.forward_retries = 1;
  auto engine_or = InferenceEngine::Load(path, ds, options);
  ASSERT_TRUE(engine_or.ok()) << engine_or.status().ToString();
  InferenceEngine& engine = *engine_or.value();

  // Cold engine: no last known good exists, so exhausted retries must
  // surface as a precise Internal error, not a hang or a bogus answer.
  testing::FaultInjector injector(7);
  injector.Arm(testing::FaultSite::kServeBatchForward, /*at_visit=*/0,
               /*count=*/2);
  testing::ScopedFaultInjector scoped(&injector);
  auto prediction = engine.Predict(0);
  EXPECT_EQ(prediction.status().code(), common::StatusCode::kInternal);
}

// --- Hot-swap and cache invalidation under traffic ------------------------

TEST(HotSwapTest, CacheInvalidatedOnSwapAndUnload) {
  auto ds = ToyDataset();
  const std::string path_a = TempPath("invalidate_a.fwmodel");
  const std::string path_b = TempPath("invalidate_b.fwmodel");
  ExportArtifact(ds, /*seed=*/1, path_a, "m");
  ExportArtifact(ds, /*seed=*/2, path_b, "m");
  const nn::PredictionResult fresh_b = FreshPredictions(path_b, ds);

  auto registry = std::make_shared<ModelRegistry>(ds);
  ASSERT_TRUE(registry->Load(path_a).ok());
  InferenceEngine engine(registry, EngineOptions{});

  ASSERT_TRUE(engine.Predict("m", 3).ok());
  auto hit = engine.Predict("m", 3);
  ASSERT_TRUE(hit.ok());
  EXPECT_TRUE(hit.value().cache_hit);

  // Swap: the cached generation-1 answer must be purged, and the next
  // request must serve the new model, bit-identical to a fresh engine.
  ASSERT_TRUE(registry->Swap("m", path_b).ok());
  EXPECT_GE(engine.stats().cache_invalidations, 1);
  auto after_swap = engine.Predict("m", 3);
  ASSERT_TRUE(after_swap.ok()) << after_swap.status().ToString();
  EXPECT_FALSE(after_swap.value().cache_hit);
  EXPECT_EQ(after_swap.value().label, fresh_b.pred[3]);
  EXPECT_EQ(after_swap.value().prob1, fresh_b.prob1[3]);

  // Unload: entries purged again, and requests get NotFound (satellite:
  // unload invalidates too, not just swap).
  const int64_t invalidated_after_swap = engine.stats().cache_invalidations;
  ASSERT_TRUE(registry->Unload("m").ok());
  EXPECT_GT(engine.stats().cache_invalidations, invalidated_after_swap);
  auto gone = engine.Predict("m", 3);
  EXPECT_EQ(gone.status().code(), common::StatusCode::kNotFound);
}

TEST(HotSwapTest, ConcurrentSwapDuringTrafficStaysConsistent) {
  auto ds = ToyDataset();
  const std::string path_a = TempPath("swap_traffic_a.fwmodel");
  const std::string path_b = TempPath("swap_traffic_b.fwmodel");
  ExportArtifact(ds, /*seed=*/1, path_a, "m");
  ExportArtifact(ds, /*seed=*/2, path_b, "m");
  const nn::PredictionResult fresh_a = FreshPredictions(path_a, ds);
  const nn::PredictionResult fresh_b = FreshPredictions(path_b, ds);

  EngineOptions options;
  options.flush_interval_ms = 0.2;
  auto registry = std::make_shared<ModelRegistry>(ds);
  ASSERT_TRUE(registry->Load(path_a).ok());
  InferenceEngine engine(registry, options);

  // Clients hammer the model while the main thread swaps it back and forth.
  // Every answer must be exact under SOME generation of the model — an
  // in-flight batch may legitimately serve the generation it captured — and
  // nothing may error or hang.
  constexpr int kClients = 4;
  constexpr int kRounds = 50;
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int r = 0; r < kRounds; ++r) {
        const int64_t node = (c + r * kClients) % engine.num_nodes();
        auto prediction = engine.Predict("m", node);
        if (!prediction.ok()) {
          ++failures;
          continue;
        }
        const auto n = static_cast<size_t>(node);
        const bool matches_a =
            prediction.value().label == fresh_a.pred[n] &&
            prediction.value().prob1 == fresh_a.prob1[n];
        const bool matches_b =
            prediction.value().label == fresh_b.pred[n] &&
            prediction.value().prob1 == fresh_b.prob1[n];
        if (!matches_a && !matches_b) ++failures;
      }
    });
  }
  for (int swap = 0; swap < 6; ++swap) {
    auto gen = registry->Swap("m", swap % 2 == 0 ? path_b : path_a);
    ASSERT_TRUE(gen.ok()) << gen.status().ToString();
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(failures.load(), 0);

  // Traffic has drained: post-swap answers must be bit-identical to a
  // fresh engine on the final artifact (the acceptance bar for hot-swap).
  ASSERT_TRUE(registry->Swap("m", path_b).ok());
  for (int64_t node = 0; node < 8; ++node) {
    auto prediction = engine.Predict("m", node);
    ASSERT_TRUE(prediction.ok()) << prediction.status().ToString();
    EXPECT_EQ(prediction.value().label,
              fresh_b.pred[static_cast<size_t>(node)]);
    EXPECT_EQ(prediction.value().prob1,
              fresh_b.prob1[static_cast<size_t>(node)]);
  }
}

TEST(HotSwapTest, MultiModelRegistryServesEachModelIndependently) {
  auto ds = ToyDataset();
  const std::string path_a = TempPath("multi_a.fwmodel");
  const std::string path_b = TempPath("multi_b.fwmodel");
  ExportArtifact(ds, /*seed=*/1, path_a, "alpha");
  ExportArtifact(ds, /*seed=*/2, path_b, "beta");
  const nn::PredictionResult fresh_a = FreshPredictions(path_a, ds);
  const nn::PredictionResult fresh_b = FreshPredictions(path_b, ds);

  auto registry = std::make_shared<ModelRegistry>(ds);
  ASSERT_TRUE(registry->Load(path_a).ok());
  ASSERT_TRUE(registry->Load(path_b).ok());
  InferenceEngine engine(registry, EngineOptions{});

  auto a = engine.Predict("alpha", 5);
  auto b = engine.Predict("beta", 5);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a.value().prob1, fresh_a.prob1[5]);
  EXPECT_EQ(b.value().prob1, fresh_b.prob1[5]);

  // A registry-backed engine has no default model.
  auto no_default = engine.Predict(5);
  EXPECT_EQ(no_default.status().code(),
            common::StatusCode::kFailedPrecondition);
  auto unknown = engine.Predict("ghost", 5);
  EXPECT_EQ(unknown.status().code(), common::StatusCode::kNotFound);
}

// --- Drift monitor --------------------------------------------------------

TEST(DriftMonitorTest, AlertLatchesUntilRecovery) {
  DriftOptions options;
  options.min_samples = 4;
  options.z_threshold = 2.0;
  DriftMonitor monitor({0.0f}, {1.0f}, options);

  const float drifted = 3.0f;
  for (int i = 0; i < 3; ++i) monitor.ObserveRow(&drifted);
  EXPECT_EQ(monitor.MaxZ(), 0.0);  // below min_samples: no verdict yet

  int64_t column = -1;
  double z = 0.0;
  monitor.ObserveRow(&drifted);
  ASSERT_TRUE(monitor.CheckAlert(&column, &z));
  EXPECT_EQ(column, 0);
  EXPECT_NEAR(z, 3.0, 1e-9);
  EXPECT_FALSE(monitor.CheckAlert(&column, &z));  // latched

  // Counter-traffic pulls the mean back under the threshold (re-arms),
  // then pushes it out again: a second distinct alert.
  const float counter = -3.0f;
  for (int i = 0; i < 8; ++i) monitor.ObserveRow(&counter);
  EXPECT_FALSE(monitor.CheckAlert(&column, &z));
  for (int i = 0; i < 60; ++i) monitor.ObserveRow(&counter);
  EXPECT_TRUE(monitor.CheckAlert(&column, &z));
}

TEST(DriftMonitorTest, EngineRaisesAlertOnSkewedTraffic) {
  auto ds = ToyDataset();
  const std::string path = TempPath("drift.fwmodel");
  ExportArtifact(ds, /*seed=*/1, path);

  // Find the node whose feature row deviates most from the column means —
  // traffic pinned to it drags the observed mean exactly onto that row.
  std::vector<float> mean, stddev;
  ComputeColumnStats(ds.features, &mean, &stddev);
  const int64_t cols = ds.num_attrs();
  int64_t worst_node = 0;
  double worst_z = 0.0;
  for (int64_t n = 0; n < ds.num_nodes(); ++n) {
    for (int64_t j = 0; j < cols; ++j) {
      const double sd = std::max(1e-6, static_cast<double>(stddev[j]));
      const double z = std::fabs(ds.features.data()[n * cols + j] - mean[j]) / sd;
      if (z > worst_z) {
        worst_z = z;
        worst_node = n;
      }
    }
  }
  ASSERT_GT(worst_z, 1.0);  // standardized features: some row sticks out

  EngineOptions options;
  options.cache_capacity = 0;  // every request reaches the drift monitor
  options.drift.min_samples = 8;
  options.drift.z_threshold = worst_z * 0.5;
  auto engine_or = InferenceEngine::Load(path, ds, options);
  ASSERT_TRUE(engine_or.ok()) << engine_or.status().ToString();
  InferenceEngine& engine = *engine_or.value();

  obs::CollectingSink sink;
  obs::SetEventSink(&sink);
  for (int i = 0; i < 16; ++i) {
    ASSERT_TRUE(engine.Predict(worst_node).ok());
  }
  obs::SetEventSink(nullptr);

  EXPECT_GE(engine.stats().drift_alerts, 1);
  int alerts = 0;
  for (const auto& event : sink.events()) {
    if (event.name() != "drift_alert") continue;
    ++alerts;
    EXPECT_EQ(event.GetString("model"), engine.model_id());
    EXPECT_GT(event.GetDouble("z", 0.0), options.drift.z_threshold);
    EXPECT_GE(event.GetDouble("samples", 0.0), options.drift.min_samples);
  }
  EXPECT_EQ(alerts, 1);  // latched: pinned traffic alerts exactly once
}

TEST(DriftMonitorTest, GenerationResetUnderHotSwapTraffic) {
  auto ds = ToyDataset();
  const std::string path_a = TempPath("drift_swap_a.fwmodel");
  const std::string path_b = TempPath("drift_swap_b.fwmodel");
  ExportArtifact(ds, /*seed=*/1, path_a, "m");
  ExportArtifact(ds, /*seed=*/2, path_b, "m");

  // Same worst-row hunt as EngineRaisesAlertOnSkewedTraffic: traffic
  // pinned to this node reliably trips the monitor.
  std::vector<float> mean, stddev;
  ComputeColumnStats(ds.features, &mean, &stddev);
  const int64_t cols = ds.num_attrs();
  int64_t worst_node = 0;
  double worst_z = 0.0;
  for (int64_t n = 0; n < ds.num_nodes(); ++n) {
    for (int64_t j = 0; j < cols; ++j) {
      const double sd = std::max(1e-6, static_cast<double>(stddev[j]));
      const double z =
          std::fabs(ds.features.data()[n * cols + j] - mean[j]) / sd;
      if (z > worst_z) {
        worst_z = z;
        worst_node = n;
      }
    }
  }
  ASSERT_GT(worst_z, 1.0);

  EngineOptions options;
  options.cache_capacity = 0;  // every request reaches the drift monitor
  options.flush_interval_ms = 0.2;
  options.drift.min_samples = 8;
  options.drift.z_threshold = worst_z * 0.5;
  auto registry = std::make_shared<ModelRegistry>(ds);
  ASSERT_TRUE(registry->Load(path_a).ok());
  InferenceEngine engine(registry, options);

  // Pinned traffic races repeated hot-swaps. Each swap bumps the model
  // generation, which must atomically retire the old DriftMonitor (its
  // latched alert included) and start a fresh one — under traffic, with
  // no torn monitor state (the TSan half of this test).
  constexpr int kClients = 4;
  constexpr int kRounds = 60;
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&] {
      for (int r = 0; r < kRounds; ++r) {
        if (!engine.Predict("m", worst_node).ok()) ++failures;
      }
    });
  }
  for (int swap = 0; swap < 6; ++swap) {
    auto gen = registry->Swap("m", swap % 2 == 0 ? path_b : path_a);
    ASSERT_TRUE(gen.ok()) << gen.status().ToString();
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(failures.load(), 0);

  // The latch must not leak across generations: after one more swap the
  // fresh monitor re-observes the same skew from scratch and fires its own
  // alert. A leaked latch would report the episode exactly once per
  // process instead of once per generation.
  const int64_t alerts_before = engine.stats().drift_alerts;
  ASSERT_TRUE(registry->Swap("m", path_a).ok());
  for (int i = 0; i < 16; ++i) {
    ASSERT_TRUE(engine.Predict("m", worst_node).ok());
  }
  EXPECT_GT(engine.stats().drift_alerts, alerts_before);
}

// --- Cache-insert faults --------------------------------------------------

TEST(CacheFaultTest, DroppedInsertStillServesThePrediction) {
  auto ds = ToyDataset();
  const std::string path = TempPath("cache_fault.fwmodel");
  ExportArtifact(ds, /*seed=*/1, path);
  const nn::PredictionResult fresh = FreshPredictions(path, ds);

  auto engine_or = InferenceEngine::Load(path, ds, EngineOptions{});
  ASSERT_TRUE(engine_or.ok()) << engine_or.status().ToString();
  InferenceEngine& engine = *engine_or.value();

  testing::FaultInjector injector(7);
  injector.Arm(testing::FaultSite::kServeCacheInsert, /*at_visit=*/0);
  {
    testing::ScopedFaultInjector scoped(&injector);
    auto prediction = engine.Predict(2);
    ASSERT_TRUE(prediction.ok()) << prediction.status().ToString();
    EXPECT_EQ(prediction.value().prob1, fresh.prob1[2]);  // still served
  }
  EXPECT_EQ(injector.fires(testing::FaultSite::kServeCacheInsert), 1);

  // The dropped insert means the next lookup is a miss, not a stale hit.
  auto again = engine.Predict(2);
  ASSERT_TRUE(again.ok());
  EXPECT_FALSE(again.value().cache_hit);
}

}  // namespace
}  // namespace fairwos::serve
