// Streaming fairness audit tests (docs/serving.md): the audit table join,
// the bit-match guarantee (windowed ΔSP/ΔEO/DI computed incrementally must
// equal the batch fairness metrics over the same samples — same functions,
// same doubles), the latched fairness_alert with re-arm, the engine
// integration, and the ops-snapshot stream.
#include <algorithm>
#include <array>
#include <chrono>
#include <deque>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "baselines/vanilla.h"
#include "common/rng.h"
#include "data/synthetic.h"
#include "fairness/metrics.h"
#include "serve/artifact.h"
#include "serve/audit.h"
#include "serve/engine.h"
#include "serve/snapshot.h"
#include "test_util.h"

namespace fairwos::serve {
namespace {

using ::fairwos::testing::TempPath;
using ::fairwos::testing::ToyDataset;

std::unique_ptr<core::FittedModel> FitVanilla(const data::Dataset& ds,
                                              uint64_t seed,
                                              int64_t epochs = 20) {
  nn::GnnConfig gnn;
  gnn.in_features = ds.num_attrs();
  baselines::TrainOptions train;
  train.epochs = epochs;
  baselines::VanillaMethod method(gnn, train);
  auto fitted_or = method.Fit(ds, seed);
  EXPECT_TRUE(fitted_or.ok()) << fitted_or.status().ToString();
  return std::move(fitted_or.value());
}

/// Four audited nodes, one per (sens, label) combination, so a test can
/// stream any (s, y, pred) triple through the auditor.
std::shared_ptr<const AuditTable> CombinationTable() {
  AuditTable table;
  table.Add(0, /*sens=*/0, /*label=*/0);
  table.Add(1, /*sens=*/0, /*label=*/1);
  table.Add(2, /*sens=*/1, /*label=*/0);
  table.Add(3, /*sens=*/1, /*label=*/1);
  return std::make_shared<const AuditTable>(std::move(table));
}

int64_t NodeFor(int s, int y) { return s * 2 + y; }

// --- AuditTable -----------------------------------------------------------

TEST(AuditTableTest, FindJoinsOnlyRegisteredNodes) {
  AuditTable table;
  table.Add(7, 1, 0);
  ASSERT_NE(table.Find(7), nullptr);
  EXPECT_EQ(table.Find(7)->sens, 1);
  EXPECT_EQ(table.Find(7)->label, 0);
  EXPECT_EQ(table.Find(8), nullptr);
  EXPECT_EQ(table.size(), 1);
}

TEST(AuditTableTest, FromDatasetCoversEveryNode) {
  const auto ds = ToyDataset();
  const AuditTable table = AuditTable::FromDataset(ds);
  EXPECT_EQ(table.size(), ds.num_nodes());
  for (int64_t v = 0; v < ds.num_nodes(); ++v) {
    const AuditTable::Entry* e = table.Find(v);
    ASSERT_NE(e, nullptr);
    EXPECT_EQ(e->sens, ds.sens[static_cast<size_t>(v)]);
    EXPECT_EQ(e->label, ds.labels[static_cast<size_t>(v)]);
  }
}

TEST(AuditTableTest, SampleFromDatasetIsDeterministicInTheSeed) {
  const auto ds = ToyDataset();
  const AuditTable a = AuditTable::SampleFromDataset(ds, 0.5, /*seed=*/42);
  const AuditTable b = AuditTable::SampleFromDataset(ds, 0.5, /*seed=*/42);
  const AuditTable c = AuditTable::SampleFromDataset(ds, 0.5, /*seed=*/43);
  EXPECT_EQ(a.size(), b.size());
  EXPECT_GT(a.size(), 0);
  EXPECT_LT(a.size(), ds.num_nodes());  // a half-sample strictly subsets
  for (int64_t v = 0; v < ds.num_nodes(); ++v) {
    EXPECT_EQ(a.Find(v) != nullptr, b.Find(v) != nullptr) << "node " << v;
  }
  // A different seed draws a different subset (astronomically unlikely to
  // coincide on the toy graph).
  bool any_difference = c.size() != a.size();
  for (int64_t v = 0; !any_difference && v < ds.num_nodes(); ++v) {
    any_difference = (a.Find(v) != nullptr) != (c.Find(v) != nullptr);
  }
  EXPECT_TRUE(any_difference);
  EXPECT_EQ(AuditTable::SampleFromDataset(ds, 1.0, 1).size(), ds.num_nodes());
}

// --- Bit-match against the batch metrics ----------------------------------

/// Streams (s, y, pred) triples through an auditor with stride 1 and, after
/// every step, recomputes the batch metrics over a mirror of the same
/// window. EXPECT_EQ on doubles: the contract is bit-identity, not
/// tolerance.
void ExpectWindowBitMatch(const std::vector<std::array<int, 3>>& stream,
                          int64_t window) {
  AuditOptions options;
  options.window = window;
  options.stride = 1;  // recompute after every audited sample
  options.min_audited = 1;
  FairnessAuditor auditor(CombinationTable(), options);

  std::deque<std::array<int, 3>> mirror;
  for (const auto& [s, y, p] : stream) {
    ASSERT_TRUE(auditor.Observe(NodeFor(s, y), p));
    mirror.push_back({s, y, p});
    if (static_cast<int64_t>(mirror.size()) > window) mirror.pop_front();

    std::vector<int> pred, labels, sens;
    std::vector<int64_t> idx;
    for (const auto& [ms, my, mp] : mirror) {
      idx.push_back(static_cast<int64_t>(pred.size()));
      pred.push_back(mp);
      labels.push_back(my);
      sens.push_back(ms);
    }
    const AuditWindowMetrics& m = auditor.Current();
    ASSERT_EQ(m.samples, static_cast<int64_t>(mirror.size()));
    EXPECT_EQ(m.delta_sp_pct,
              fairness::StatisticalParityGapPct(pred, sens, idx));
    EXPECT_EQ(m.delta_eo_pct,
              fairness::EqualOpportunityGapPct(pred, labels, sens, idx));
    EXPECT_EQ(m.di, fairness::DisparateImpactRatio(pred, sens, idx));
  }
}

TEST(FairnessAuditorTest, WindowedMetricsBitMatchBatchMetrics) {
  common::Rng rng(1234);
  std::vector<std::array<int, 3>> stream;
  for (int i = 0; i < 200; ++i) {
    const int s = static_cast<int>(rng.UniformInt(2));
    const int y = static_cast<int>(rng.UniformInt(2));
    // Plant a mild group-dependent bias so the gaps are non-trivial.
    const int p = rng.Bernoulli(s == 0 ? 0.7 : 0.4) ? 1 : 0;
    stream.push_back({s, y, p});
  }
  // A window shorter than the stream exercises eviction on every step.
  ExpectWindowBitMatch(stream, /*window=*/16);
}

TEST(FairnessAuditorTest, EmptyGroupWindowsBitMatchConventions) {
  // Only group 0 ever appears: ΔSP/ΔEO are 0 and DI is 1 by convention, on
  // both the streaming and the batch side.
  std::vector<std::array<int, 3>> stream;
  common::Rng rng(7);
  for (int i = 0; i < 40; ++i) {
    stream.push_back({0, static_cast<int>(rng.UniformInt(2)),
                      static_cast<int>(rng.UniformInt(2))});
  }
  ExpectWindowBitMatch(stream, /*window=*/8);
}

TEST(FairnessAuditorTest, AllNegativeWindowsBitMatchConventions) {
  // Both groups present but nobody is ever predicted positive: positive
  // rates are 0/0-free (0 over both groups), ΔSP = 0 and DI = 1.
  std::vector<std::array<int, 3>> stream;
  for (int i = 0; i < 24; ++i) stream.push_back({i % 2, (i / 2) % 2, 0});
  ExpectWindowBitMatch(stream, /*window=*/12);
}

// --- Alert latch ----------------------------------------------------------

TEST(FairnessAuditorTest, AlertLatchesAndReArmsOnRecovery) {
  AuditOptions options;
  options.window = 8;
  options.stride = 4;
  options.min_audited = 4;
  options.delta_sp_threshold_pct = 20.0;
  FairnessAuditor auditor(CombinationTable(), options);

  // Balanced traffic: both groups get positives at the same rate.
  const auto feed_balanced = [&](int rounds) {
    for (int i = 0; i < rounds; ++i) {
      auditor.Observe(NodeFor(0, 1), 1);
      auditor.Observe(NodeFor(1, 1), 1);
      auditor.Observe(NodeFor(0, 0), 0);
      auditor.Observe(NodeFor(1, 0), 0);
    }
  };
  // Biased traffic: group 0 always positive, group 1 never.
  const auto feed_biased = [&](int rounds) {
    for (int i = 0; i < rounds; ++i) {
      auditor.Observe(NodeFor(0, 1), 1);
      auditor.Observe(NodeFor(1, 1), 0);
      auditor.Observe(NodeFor(0, 0), 1);
      auditor.Observe(NodeFor(1, 0), 0);
    }
  };

  feed_balanced(4);  // fills the window; ΔSP is exactly 0
  EXPECT_FALSE(auditor.CheckAlert());
  EXPECT_FALSE(auditor.alert_active());

  feed_biased(2);  // the whole window is now biased: ΔSP = 100
  AuditWindowMetrics at_alert;
  EXPECT_TRUE(auditor.CheckAlert(&at_alert));
  EXPECT_GT(at_alert.delta_sp_pct, options.delta_sp_threshold_pct);
  EXPECT_TRUE(auditor.alert_active());
  EXPECT_FALSE(auditor.CheckAlert()) << "latched: one episode, one alert";
  feed_biased(1);  // still breaching: stays latched
  EXPECT_FALSE(auditor.CheckAlert());
  EXPECT_EQ(auditor.alerts(), 1);

  feed_balanced(2);  // window fully recovered
  EXPECT_FALSE(auditor.CheckAlert());
  EXPECT_FALSE(auditor.alert_active()) << "recovery re-arms the latch";

  feed_biased(2);  // a second episode fires a fresh alert
  EXPECT_TRUE(auditor.CheckAlert());
  EXPECT_EQ(auditor.alerts(), 2);
}

TEST(FairnessAuditorTest, NoAlertBeforeMinAuditedSamples) {
  AuditOptions options;
  options.window = 64;
  options.stride = 2;
  options.min_audited = 64;
  options.delta_sp_threshold_pct = 20.0;
  FairnessAuditor auditor(CombinationTable(), options);
  // Maximally biased from the first sample, but the window never reaches
  // min_audited: a handful of joins must not be called bias.
  for (int i = 0; i < 31; ++i) {
    auditor.Observe(NodeFor(0, 1), 1);
    auditor.Observe(NodeFor(1, 1), 0);
    EXPECT_FALSE(auditor.CheckAlert());
  }
  EXPECT_EQ(auditor.alerts(), 0);
  // One more round crosses min_audited and the alert finally fires.
  auditor.Observe(NodeFor(0, 1), 1);
  auditor.Observe(NodeFor(1, 1), 0);
  EXPECT_TRUE(auditor.CheckAlert());
}

TEST(FairnessAuditorTest, CoverageTracksTheAuditedShare) {
  AuditOptions options;
  options.stride = 1;
  options.min_audited = 1;
  FairnessAuditor auditor(CombinationTable(), options);
  EXPECT_DOUBLE_EQ(auditor.CoveragePct(), 0.0);
  EXPECT_TRUE(auditor.Observe(0, 1));
  EXPECT_FALSE(auditor.Observe(1000, 1));  // not in the table
  EXPECT_FALSE(auditor.Observe(1001, 0));
  EXPECT_TRUE(auditor.Observe(3, 0));
  EXPECT_EQ(auditor.observed(), 4);
  EXPECT_EQ(auditor.audited(), 2);
  EXPECT_DOUBLE_EQ(auditor.CoveragePct(), 50.0);
}

TEST(FairnessAuditorTest, ResetForgetsWindowAndLatchButKeepsCounters) {
  AuditOptions options;
  options.window = 4;
  options.stride = 2;
  options.min_audited = 2;
  options.delta_sp_threshold_pct = 20.0;
  FairnessAuditor auditor(CombinationTable(), options);
  auditor.Observe(NodeFor(0, 1), 1);
  auditor.Observe(NodeFor(1, 1), 0);
  EXPECT_TRUE(auditor.CheckAlert());
  auditor.Reset();
  EXPECT_FALSE(auditor.alert_active());
  EXPECT_EQ(auditor.Current().samples, 0);
  EXPECT_DOUBLE_EQ(auditor.Current().di, 1.0);
  EXPECT_EQ(auditor.audited(), 2) << "lifetime counters survive Reset";
  EXPECT_EQ(auditor.alerts(), 1);
}

// --- Engine integration ---------------------------------------------------

class AuditEngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ds_ = ToyDataset();
    auto fitted = FitVanilla(ds_, /*seed=*/5);
    reference_ = fitted->Predict(ds_);
    // Unique per test: ctest runs each TEST_F as its own process, possibly
    // in parallel, and a shared path would let one test's TearDown delete
    // the artifact another is still reading.
    path_ = TempPath(
        std::string("fw_serving_audit_") +
        ::testing::UnitTest::GetInstance()->current_test_info()->name() +
        ".fwmodel");
    ASSERT_TRUE(SaveModelArtifact(path_, MakeArtifact(*fitted->AsGnn(), ds_))
                    .ok());
  }
  void TearDown() override { std::filesystem::remove(path_); }

  /// Audit table whose group labels are *derived from the model's own
  /// predictions* (sens := pred): group 0's positive rate is exactly 0 and
  /// group 1's exactly 1, so ΔSP over any window holding both groups is
  /// 100% — a guaranteed, deterministic alert.
  std::shared_ptr<const AuditTable> AdversarialTable() const {
    AuditTable table;
    for (int64_t v = 0; v < ds_.num_nodes(); ++v) {
      table.Add(v, reference_.pred[static_cast<size_t>(v)],
                ds_.labels[static_cast<size_t>(v)]);
    }
    return std::make_shared<const AuditTable>(std::move(table));
  }

  std::unique_ptr<InferenceEngine> MakeEngine(EngineOptions options) {
    auto engine_or = InferenceEngine::Load(path_, ds_, options);
    EXPECT_TRUE(engine_or.ok()) << engine_or.status().ToString();
    return std::move(engine_or.value());
  }

  data::Dataset ds_;
  nn::PredictionResult reference_;
  std::string path_;
};

TEST_F(AuditEngineTest, AuditIsOffByDefault) {
  auto engine = MakeEngine(EngineOptions{});
  EXPECT_FALSE(engine->audit_enabled());
  ASSERT_TRUE(engine->Predict(0).ok());
  EXPECT_EQ(engine->stats().fairness_alerts, 0);
}

TEST_F(AuditEngineTest, ServedPredictionsRaiseFairnessAlert) {
  // Both predicted classes must occur, otherwise sens := pred cannot form
  // two groups (and the fixture would be meaningless).
  const bool has_both =
      std::count(reference_.pred.begin(), reference_.pred.end(), 1) > 0 &&
      std::count(reference_.pred.begin(), reference_.pred.end(), 0) > 0;
  ASSERT_TRUE(has_both);

  EngineOptions options;
  options.cache_capacity = 0;  // every request is a real forward
  options.audit_table = AdversarialTable();
  options.audit.window = 16;
  options.audit.stride = 4;
  options.audit.min_audited = 8;
  options.audit.delta_sp_threshold_pct = 20.0;
  auto engine = MakeEngine(options);
  ASSERT_TRUE(engine->audit_enabled());

  for (int64_t v = 0; v < ds_.num_nodes(); ++v) {
    auto p = engine->Predict(v);
    ASSERT_TRUE(p.ok());
    EXPECT_EQ(p->label, reference_.pred[static_cast<size_t>(v)]);
  }
  const auto stats = engine->stats();
  EXPECT_EQ(stats.fairness_alerts, 1) << "one sustained episode, one alert";
  EXPECT_TRUE(engine->audit_alert_active());
  const AuditWindowMetrics m = engine->audit_metrics();
  EXPECT_DOUBLE_EQ(m.delta_sp_pct, 100.0);
  EXPECT_DOUBLE_EQ(m.di, 0.0);
  EXPECT_GT(m.samples, 0);
}

TEST_F(AuditEngineTest, PredictBatchAndCacheHitsAreAuditedToo) {
  EngineOptions options;
  options.audit_table = AdversarialTable();
  options.audit.window = 16;
  options.audit.stride = 4;
  options.audit.min_audited = 8;
  options.audit.delta_sp_threshold_pct = 20.0;
  auto engine = MakeEngine(options);

  std::vector<int64_t> nodes(static_cast<size_t>(ds_.num_nodes()));
  for (size_t i = 0; i < nodes.size(); ++i) {
    nodes[i] = static_cast<int64_t>(i);
  }
  ASSERT_TRUE(engine->PredictBatch(nodes).ok());
  const int64_t audited_after_miss = engine->stats().requests;
  EXPECT_GT(engine->stats().fairness_alerts, 0);
  // The second pass is served from the cache; those answers still stream
  // into the audit window.
  ASSERT_TRUE(engine->PredictBatch(nodes).ok());
  EXPECT_EQ(engine->stats().requests, 2 * audited_after_miss);
  EXPECT_GT(engine->stats().cache_hits, 0);
  const AuditWindowMetrics m = engine->audit_metrics();
  EXPECT_EQ(m.samples, std::min<int64_t>(16, 2 * ds_.num_nodes()));
}

// --- Ops snapshots --------------------------------------------------------

TEST_F(AuditEngineTest, OpsSnapshotStreamRecordsAuditState) {
  EngineOptions options;
  options.audit_table = AdversarialTable();
  options.audit.window = 16;
  options.audit.stride = 4;
  options.audit.min_audited = 8;
  options.audit.delta_sp_threshold_pct = 20.0;
  auto engine = MakeEngine(options);

  const std::string snap_path = TempPath("fw_ops_snapshots.jsonl");
  auto snapshotter_or = OpsSnapshotter::Open(snap_path, engine.get());
  ASSERT_TRUE(snapshotter_or.ok()) << snapshotter_or.status().ToString();
  auto& snapshotter = *snapshotter_or.value();

  ASSERT_TRUE(snapshotter.SnapshotNow().ok());  // before any traffic
  for (int64_t v = 0; v < ds_.num_nodes(); ++v) {
    ASSERT_TRUE(engine->Predict(v).ok());
  }
  ASSERT_TRUE(snapshotter.SnapshotNow().ok());
  EXPECT_EQ(snapshotter.snapshots_written(), 2);

  std::ifstream in(snap_path);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  ASSERT_EQ(lines.size(), 2u);
  for (const std::string& l : lines) {
    EXPECT_NE(l.find("\"event\":\"ops_snapshot\""), std::string::npos);
    EXPECT_NE(l.find("\"serve.audit.delta_sp\""), std::string::npos);
    EXPECT_NE(l.find("\"fairness_alert\""), std::string::npos);
  }
  EXPECT_NE(lines[0].find("\"seq\":0"), std::string::npos);
  EXPECT_NE(lines[1].find("\"seq\":1"), std::string::npos);
  // Quiet stream, then the planted episode: the alert flag flips between
  // the two snapshots.
  EXPECT_NE(lines[0].find("\"fairness_alert\":0"), std::string::npos);
  EXPECT_NE(lines[1].find("\"fairness_alert\":1"), std::string::npos);
  EXPECT_NE(lines[1].find("\"requests\":"), std::string::npos);
  std::filesystem::remove(snap_path);
}

TEST_F(AuditEngineTest, OpsSnapshotterBackgroundThreadStartsAndStops) {
  auto engine = MakeEngine(EngineOptions{});
  const std::string snap_path = TempPath("fw_ops_snapshots_bg.jsonl");
  OpsSnapshotOptions snap_options;
  snap_options.interval_seconds = 0.01;
  auto snapshotter_or =
      OpsSnapshotter::Open(snap_path, engine.get(), snap_options);
  ASSERT_TRUE(snapshotter_or.ok());
  auto& snapshotter = *snapshotter_or.value();
  snapshotter.Start();
  snapshotter.Start();  // idempotent
  // SnapshotNow stays safe while the background thread runs.
  ASSERT_TRUE(snapshotter.SnapshotNow().ok());
  while (snapshotter.snapshots_written() < 3) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  snapshotter.Stop();
  const int64_t written = snapshotter.snapshots_written();
  EXPECT_GE(written, 3);
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_EQ(snapshotter.snapshots_written(), written)
      << "Stop() must halt the sampler";
  std::filesystem::remove(snap_path);
}

TEST(OpsSnapshotterTest, OpenRejectsBadArguments) {
  EXPECT_FALSE(OpsSnapshotter::Open("/tmp/x.jsonl", nullptr).ok());
}

}  // namespace
}  // namespace fairwos::serve
