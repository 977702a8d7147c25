// fwbench: runs one workload of the fairwos end-to-end benchmark in this
// process and prints one JSON result line (see perfbench/README.md).
//
// Every workload walks the same user-visible pipeline through public entry
// points only — generate a dataset (data::MakeDataset), fit a model
// (core::FitFairwos), export and load it (serve::MakeArtifact /
// SaveModelArtifact / InferenceEngine::Load), and serve it open-loop and
// closed-loop. Workloads differ in dataset, thread count, epochs, offered
// load and how the window is shared between fits and serving. Set-up fits
// and loads the served model; the window then runs rounds of one fit
// followed by a serving phase, so every timed metric is sampled across the
// whole window instead of in one stretch of it.
//
//   fwbench --workload W --seed N --seconds S --trace 0|1 <workload flags>
//
// --trace 0 reports the end-to-end metrics. --trace 1 splits the rounds
// into an untraced half and a traced half, runs the per-layer probes under
// the recorder, and reports the per-layer metrics plus the tracing
// overhead. Exit status is 0 only when every correctness check passed.
#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "baselines/registry.h"
#include "common/cli.h"
#include "common/cpuid.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "common/threadpool.h"
#include "common/trace.h"
#include "core/counterfactual.h"
#include "core/encoder.h"
#include "core/fairwos.h"
#include "core/lambda_solver.h"
#include "data/synthetic.h"
#include "data/temporal.h"
#include "fairness/metrics.h"
#include "graph/mutable_graph.h"
#include "load.h"
#include "nn/gnn.h"
#include "obs/quantiles.h"
#include "serve/artifact.h"
#include "serve/engine.h"
#include "spans.h"
#include "tensor/backend.h"
#include "tensor/tensor.h"

#ifndef FWBENCH_BUILD_TYPE
#define FWBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

namespace fw = fairwos;
using fw::common::Result;
using fw::common::Status;

// Constants shared by every workload (the per-workload ones come in as
// flags from workloads.json).
// The window runs kRounds rounds of one fit and one serving phase (a traced
// run gives half of them to each half). The host's speed drifts over tens
// of seconds, so sampling fits and serving in every part of the window
// steadies their medians far more than one long stretch of each.
constexpr int kRounds = 10;
constexpr int kSetupReps = 3;  // set-up fits and loads; medians count
constexpr double kOpenShare = 0.75;      // of the serving time; rest closed
constexpr int64_t kHotNodes = 64;        // ids 0..63 form the hot set
constexpr int64_t kWarmRequests = 2048;  // untimed cache warm-up per round
// Serving phases are cut into slices, and the latency and capacity figures
// are medians over the window's slices, so a host stall inside one slice
// does not move the result. Open-loop slices hold at least 250 requests, so
// each slice's p90 has 25 samples beyond it; closed-loop slices last about
// a quarter second.
constexpr int kMaxSlicesPerRound = 8;
constexpr int64_t kMinSliceRequests = 250;
constexpr double kClosedSliceSeconds = 0.25;
// Mutator schedule of the graph probe (MutatorOptions' defaults): 20
// mutations/s, publish every 8, compact every 64, replayed for 4 seconds.
constexpr MutatorOptions kMutator{};
constexpr double kProbeMutationSeconds = 4.0;
// Serving runs on a 1-thread pool on every workload, so a train workload's
// pool size only moves its fits.
constexpr int kServeThreads = 1;

struct Config {
  std::string workload;
  std::string dataset;
  double scale = 20.0;
  int threads = 1;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Epoch budgets; the library defaults unless a workload lowers them.
  int64_t encoder_epochs = fairwos::core::EncoderConfig{}.epochs;
  int64_t pretrain_epochs = fairwos::core::FairwosConfig{}.pretrain_epochs;
  int64_t finetune_epochs = fairwos::core::FairwosConfig{}.finetune_epochs;
  /// Share of the window given to its fits (one per round); each round
  /// serves for its equal part of the rest.
  double fit_share = 0.3;
  double rate = 100.0;  // open-loop offered requests per second
  int senders = 4;      // open-loop senders and closed-loop clients
  double hot_fraction = 0.8;
  double slo_ms = 10.0;
  int64_t cache_capacity = fairwos::serve::EngineOptions{}.cache_capacity;
  std::string work_dir = ".";
  std::string detail_out;
};

Result<Config> ParseConfig(const fw::common::CliFlags& f) {
  Config c;
  c.workload = f.GetString("workload", "");
  c.dataset = f.GetString("dataset", "");
  if (c.workload.empty() || c.dataset.empty()) {
    return Status::InvalidArgument("--workload and --dataset are required");
  }
  c.scale = f.GetDouble("scale", c.scale);
  c.threads = static_cast<int>(f.GetInt("threads", c.threads));
  c.seed = static_cast<uint64_t>(f.GetInt("seed", 1));
  c.seconds = f.GetDouble("seconds", c.seconds);
  c.trace = f.GetInt("trace", 0) != 0;
  c.encoder_epochs = f.GetInt("encoder-epochs", c.encoder_epochs);
  c.pretrain_epochs = f.GetInt("pretrain-epochs", c.pretrain_epochs);
  c.finetune_epochs = f.GetInt("finetune-epochs", c.finetune_epochs);
  c.fit_share = f.GetDouble("fit-share", c.fit_share);
  c.rate = f.GetDouble("rate", c.rate);
  c.senders = static_cast<int>(f.GetInt("senders", c.senders));
  c.hot_fraction = f.GetDouble("hot-fraction", c.hot_fraction);
  c.slo_ms = f.GetDouble("slo-ms", c.slo_ms);
  c.cache_capacity = f.GetInt("cache-capacity", c.cache_capacity);
  c.work_dir = f.GetString("work-dir", c.work_dir);
  c.detail_out = f.GetString("detail-out", "");
  if (c.seconds <= 0.0 || c.threads < 1 ||
      c.rate <= 0.0 || c.senders < 1 || c.fit_share < 0.0 ||
      c.fit_share >= 1.0 || c.encoder_epochs < 1 || c.pretrain_epochs < 1 ||
      c.finetune_epochs < 1) {
    return Status::InvalidArgument("workload flag out of range");
  }
  return c;
}

double Median(std::vector<double> v) {
  return fw::obs::ExactQuantiles(std::move(v)).Quantile(50);
}

double Quantile(std::vector<double> v, double pct) {
  return fw::obs::ExactQuantiles(std::move(v)).Quantile(pct);
}

/// Median wall milliseconds of `fn` over `reps` calls (at least one).
double MedianMs(int reps, const std::function<void()>& fn) {
  std::vector<double> ms;
  for (int i = 0; i < std::max(reps, 1); ++i) {
    fw::common::Stopwatch watch;
    fn();
    ms.push_back(watch.Millis());
  }
  return Median(std::move(ms));
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

struct Quality {
  double acc = 0.0;
  double dsp = 0.0;
  double deo = 0.0;
  bool operator==(const Quality& o) const {
    return acc == o.acc && dsp == o.dsp && deo == o.deo;
  }
};

Quality TestQuality(const fw::nn::PredictionResult& p,
                    const fw::data::Dataset& ds) {
  const auto& idx = ds.split.test;
  return {fw::fairness::AccuracyPct(p.pred, ds.labels, idx),
          fw::fairness::StatisticalParityGapPct(p.pred, ds.sens, idx),
          fw::fairness::EqualOpportunityGapPct(p.pred, ds.labels, ds.sens,
                                               idx)};
}

// Fits use the defaults of `fairwos_cli train` except for the workload's
// epoch budgets and that early stopping is off: every fit then runs its
// full budget, so fit time measures a fixed amount of work instead of how
// soon a seed's data converges.
fw::core::FairwosConfig FairwosConfigFor(const Config& c,
                                         const fw::data::Dataset& ds) {
  fw::core::FairwosConfig config;
  config.alpha = fw::baselines::RecommendedAlpha(ds.name);
  config.encoder.epochs = c.encoder_epochs;
  config.encoder.patience = 0;
  config.pretrain_epochs = c.pretrain_epochs;
  config.pretrain_patience = 0;
  config.finetune_epochs = c.finetune_epochs;
  return config;
}

struct FitCounters {
  int64_t fits = 0;
  int64_t parallel_fors = 0;
  int64_t chunks = 0;
  int64_t optimizer_steps = 0;
};

/// One fit's model, Fairwos statistics and wall time.
struct Fitted {
  std::unique_ptr<fw::core::FittedModel> model;
  fw::core::FairwosStats stats;
  double seconds = 0.0;
};

Result<Fitted> Fit(const Config& c, const fw::data::Dataset& ds,
                   FitCounters* counters) {
  auto& registry = fw::obs::MetricsRegistry::Global();
  fw::obs::Counter* fors = registry.GetCounter("pool.parallel_fors");
  fw::obs::Counter* chunks = registry.GetCounter("pool.chunks");
  fw::obs::Counter* steps = registry.GetCounter("optimizer.steps");
  const int64_t fors0 = fors->value(), chunks0 = chunks->value(),
                steps0 = steps->value();
  Fitted out;
  fw::common::Stopwatch watch;
  {
    FW_TRACE_SPAN("bench/core.fit");
    FW_ASSIGN_OR_RETURN(out.model,
                        fw::core::FitFairwos(FairwosConfigFor(c, ds), ds,
                                             c.seed, &out.stats));
  }
  out.seconds = watch.Seconds();
  if (counters != nullptr) {
    ++counters->fits;
    counters->parallel_fors += fors->value() - fors0;
    counters->chunks += chunks->value() - chunks0;
    counters->optimizer_steps += steps->value() - steps0;
  }
  return out;
}

/// Outcome tally of one process run: every fit, request and mutation is an
/// operation; correctness violations are operations that failed too.
struct Tally {
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::string> violations;
  void Violation(const std::string& what) {
    ++failed;
    violations.push_back(what);
    std::fprintf(stderr, "fwbench: correctness violation: %s\n",
                 what.c_str());
  }
};

/// The model being served plus everything needed to check its answers.
struct Serving {
  std::unique_ptr<fw::core::FittedModel> model;
  fw::nn::PredictionResult reference;  // in-process Predict
  std::unique_ptr<fw::serve::InferenceEngine> engine;
  double export_ms = 0.0;
  double load_ms = 0.0;
};

/// Exports `model`, saves it under the work dir and loads a fresh engine
/// from the file.
Status ExportAndLoad(const Config& c, const fw::data::Dataset& ds,
                     Serving* s) {
  const fw::core::FittedGnnModel* gnn = s->model->AsGnn();
  if (gnn == nullptr) return Status::FailedPrecondition("model not exportable");
  const std::string path = c.work_dir + "/fwbench-" +
                           std::to_string(getpid()) + ".fwmodel";
  fw::common::Stopwatch export_watch;
  {
    FW_TRACE_SPAN("bench/serve.export");
    FW_RETURN_IF_ERROR(
        fw::serve::SaveModelArtifact(path, fw::serve::MakeArtifact(*gnn, ds)));
  }
  s->export_ms = export_watch.Millis();
  fw::serve::EngineOptions options;
  options.cache_capacity = c.cache_capacity;
  s->engine.reset();  // detach the previous engine before the new one loads
  fw::common::Stopwatch load_watch;
  {
    FW_TRACE_SPAN("bench/serve.load");
    FW_ASSIGN_OR_RETURN(s->engine,
                        fw::serve::InferenceEngine::Load(path, ds, options));
  }
  s->load_ms = load_watch.Millis();
  std::remove(path.c_str());
  return Status::OK();
}

/// Engine counters over the timed serving phases (warm-ups excluded).
struct EngineCounts {
  int64_t requests = 0;
  int64_t batches = 0;
  int64_t cache_hits = 0;
  int64_t cache_misses = 0;
};

/// What one measured window (or half window) produced, pooled over its
/// rounds.
struct Window {
  std::vector<double> fit_seconds;
  Quality quality;
  std::vector<double> slice_p50_ms;  // per open-loop slice
  std::vector<double> slice_p90_ms;
  std::vector<double> ok_latency_ms;  // every OK open-loop answer
  std::vector<double> late_ms;        // generator lag per open-loop request
  int64_t open_sent = 0;
  std::vector<double> rps;  // OK answers per second, per closed-loop slice
  int64_t closed_ok = 0;
  EngineCounts engine;
};

/// Latencies of the OK answers among requests [begin, end) of the stream.
std::vector<double> OkLatencies(const OpenLoopLog& log, size_t begin,
                                size_t end) {
  std::vector<double> out;
  for (size_t i = begin; i < end; ++i) {
    if (log.outcomes[i] == Outcome::kOk) out.push_back(log.latency_ms[i]);
  }
  return out;
}

/// Adds one round's open loop to the window: each slice's p50 and p90 (by
/// due time) and every OK latency.
void AddOpenLoop(const OpenLoopLog& log, Window* w) {
  const size_t n = log.outcomes.size();
  const size_t slices = static_cast<size_t>(std::clamp<int64_t>(
      static_cast<int64_t>(n) / kMinSliceRequests, 1, kMaxSlicesPerRound));
  for (size_t k = 0; k < slices; ++k) {
    const auto slice = OkLatencies(log, n * k / slices, n * (k + 1) / slices);
    if (slice.empty()) continue;
    w->slice_p50_ms.push_back(Quantile(slice, 50));
    w->slice_p90_ms.push_back(Quantile(slice, 90));
  }
  const auto ok = OkLatencies(log, 0, n);
  w->ok_latency_ms.insert(w->ok_latency_ms.end(), ok.begin(), ok.end());
  w->late_ms.insert(w->late_ms.end(), log.late_ms.begin(), log.late_ms.end());
  w->open_sent += static_cast<int64_t>(n);
}

/// One round's serving phase of `seconds`: warm-up, open loop at the fixed
/// rate, then closed-loop capacity. Every answer that is not degraded must
/// equal the in-process Predict.
void ServeRound(const Config& c, const fw::data::Dataset& ds, Serving* s,
                uint64_t stream_seed, double seconds, Window* w,
                Tally* tally) {
  fw::common::SetGlobalThreadCount(kServeThreads);
  fw::serve::InferenceEngine& engine = *s->engine;
  const int64_t n = ds.num_nodes();
  const AnswerCheck check = [&](const fw::serve::NodePrediction& a) {
    if (a.degraded) return true;
    const size_t node = static_cast<size_t>(a.node);
    return a.label == s->reference.pred[node] &&
           a.prob1 == s->reference.prob1[node];
  };
  (void)engine.PredictBatch(DrawStream(kWarmRequests, n, kHotNodes,
                                       c.hot_fraction, stream_seed));
  const double open_seconds = seconds * kOpenShare;
  const double closed_seconds = seconds - open_seconds;
  const auto open_nodes = DrawStream(
      std::max<int64_t>(1, std::llround(c.rate * open_seconds)), n,
      kHotNodes, c.hot_fraction, stream_seed + 1);
  const auto closed_nodes = DrawStream(1 << 16, n, kHotNodes,
                                       c.hot_fraction, stream_seed + 2);

  const auto before = engine.stats();
  OpenLoopLog open;
  RunOpenLoop(engine, open_nodes, c.rate, c.senders, check, &open);
  ClosedLoopLog closed;
  if (closed_seconds > 0.0) {
    const int slices = std::max(
        1, static_cast<int>(std::lround(closed_seconds / kClosedSliceSeconds)));
    closed = RunClosedLoop(engine, closed_nodes, c.senders, closed_seconds,
                           slices, check);
  }
  const auto after = engine.stats();
  fw::common::SetGlobalThreadCount(c.threads);

  AddOpenLoop(open, w);
  for (int64_t ok : closed.ok_per_interval) {
    w->rps.push_back(static_cast<double>(ok) / closed.interval_seconds);
  }
  w->closed_ok += closed.ok;
  w->engine.requests += after.requests - before.requests;
  w->engine.batches += after.batches - before.batches;
  w->engine.cache_hits += after.cache_hits - before.cache_hits;
  w->engine.cache_misses += after.cache_misses - before.cache_misses;

  const int64_t open_ok =
      std::count(open.outcomes.begin(), open.outcomes.end(), Outcome::kOk);
  tally->attempted += static_cast<int64_t>(open_nodes.size()) + closed.sent;
  tally->failed += static_cast<int64_t>(open_nodes.size()) - open_ok +
                   closed.sent - closed.ok;
  const int64_t wrong = open.wrong.load() + closed.wrong;
  if (wrong > 0) {
    tally->Violation(std::to_string(wrong) +
                     " served answers differ from in-process Predict");
  }
}

/// The fits of one process run. All use the workload seed, so every fit
/// must report exactly the ACC/dSP/dEO of the first.
struct FitLog {
  std::optional<Quality> first;
  Quality last;
  fw::core::FairwosStats last_stats;
  FitCounters counters;  // fits made while the recorder is on
};

/// Fits once, checks the result against the run's first fit and keeps the
/// model (and its in-process predictions) in `s`. Returns the wall seconds.
Result<double> CheckedFit(const Config& c, const fw::data::Dataset& ds,
                          FitLog* log, Serving* s, Tally* tally) {
  ++tally->attempted;
  auto fitted = Fit(c, ds,
                    fw::obs::TraceRecorder::Global().enabled() ? &log->counters
                                                               : nullptr);
  if (!fitted.ok()) {
    ++tally->failed;
    return fitted.status();
  }
  s->model = std::move(fitted.value().model);
  s->reference = s->model->Predict(ds);
  log->last = TestQuality(s->reference, ds);
  log->last_stats = fitted.value().stats;
  if (!log->first.has_value()) log->first = log->last;
  if (!(log->last == *log->first)) {
    tally->Violation("a fit reports different ACC/dSP/dEO with the same seed");
  }
  return fitted.value().seconds;
}

/// Runs `rounds` rounds within about `seconds`: each fits once (checked
/// against the run's first fit) and then serves for its equal part of the
/// window's serving share.
Status RunRounds(const Config& c, const fw::data::Dataset& ds, int rounds,
                 double seconds, uint64_t stream_seed, Serving* s, Window* w,
                 FitLog* fits, Tally* tally) {
  const double serve_seconds = seconds * (1.0 - c.fit_share) / rounds;
  for (int r = 0; r < rounds; ++r) {
    FW_ASSIGN_OR_RETURN(const double fit_s, CheckedFit(c, ds, fits, s, tally));
    w->fit_seconds.push_back(fit_s);
    ServeRound(c, ds, s, stream_seed + 10 * r, serve_seconds, w, tally);
  }
  w->quality = fits->last;
  return Status::OK();
}

// --- Metrics ---------------------------------------------------------------

struct Metric {
  double value = 0.0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

/// End-to-end metrics of one window; `setup_s` comes from the set-up.
Metrics EndToEnd(const Config& c, const Window& w, double setup_s,
                 const Tally& tally) {
  Metrics m;
  m["setup_s"] = {setup_s, "s"};
  m["fit_s"] = {Median(w.fit_seconds), "s"};
  m["test_acc_pct"] = {w.quality.acc, "%"};
  m["ok_pct"] = {100.0 * static_cast<double>(tally.attempted - tally.failed) /
                     static_cast<double>(std::max<int64_t>(tally.attempted, 1)),
                 "%"};
  // The tail is gated through serve_slo_pct. Its percentiles are per-layer
  // metrics (serve.p90_ms, serve.p99_ms): on a shared host they move
  // between runs by more than any bound allowed (README.md).
  m["serve_p50_ms"] = {Median(w.slice_p50_ms), "ms"};
  const int64_t within =
      std::count_if(w.ok_latency_ms.begin(), w.ok_latency_ms.end(),
                    [&](double ms) { return ms <= c.slo_ms; });
  m["serve_slo_pct"] = {
      100.0 * static_cast<double>(within) /
          static_cast<double>(std::max<int64_t>(w.open_sent, 1)),
      "%"};
  m["serve_rps"] = {Median(w.rps), "req/s"};
  return m;
}

std::string FormatNumber(double v) {
  char buf[64];
  auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  if (ec != std::errc()) return "null";
  return std::string(buf, end);
}

std::string Escape(const std::string& s) {
  std::string out;
  for (char ch : s) {
    if (ch == '"' || ch == '\\') out += '\\';
    out += ch;
  }
  return out;
}

std::string MetricsJson(const Metrics& metrics) {
  std::ostringstream out;
  out << "{";
  bool first = true;
  for (const auto& [name, metric] : metrics) {
    out << (first ? "" : ", ") << "\"" << name << "\": {\"value\": "
        << FormatNumber(metric.value) << ", \"unit\": \"" << metric.unit
        << "\"}";
    first = false;
  }
  out << "}";
  return out.str();
}

std::string ProvenanceJson() {
  const fw::tensor::BackendInfo info = fw::tensor::ActiveBackendInfo();
  std::ostringstream out;
  out << "{\"nproc\": " << fw::common::HardwareThreads()
      << ", \"cpu_features\": \"" << Escape(info.cpu_features)
      << "\", \"simd_backend\": \"" << Escape(info.active)
      << "\", \"fast_math\": " << (info.fast_math ? "true" : "false")
      << ", \"build_type\": \"" << FWBENCH_BUILD_TYPE << "\"}";
  return out.str();
}

// --- Per-layer probes (traced runs only) -----------------------------------

/// Median milliseconds of `fn` over repetitions filling about `budget_ms`.
double TimedKernelMs(double budget_ms, const std::function<void()>& fn) {
  fn();  // warm
  std::vector<double> ms;
  fw::common::Stopwatch total;
  while (ms.size() < 5 || (total.Millis() < budget_ms && ms.size() < 10000)) {
    fw::common::Stopwatch watch;
    fn();
    ms.push_back(watch.Millis());
  }
  return Median(std::move(ms));
}

void KernelProbes(const fw::data::Dataset& ds, Metrics* m) {
  const fw::tensor::KernelBackend& backend = fw::tensor::ActiveBackend();
  const int64_t n = ds.num_nodes(), k = ds.num_attrs(), cols = 16;
  fw::common::Rng rng(7);
  std::vector<float> a(static_cast<size_t>(n * k)), b(static_cast<size_t>(k * cols)),
      c(static_cast<size_t>(n * cols)), x(static_cast<size_t>(n * cols));
  for (auto* v : {&a, &b, &x}) {
    for (float& f : *v) f = static_cast<float>(rng.Uniform() - 0.5);
  }
  const double gemm_ms = TimedKernelMs(200.0, [&] {
    FW_TRACE_SPAN("bench/tensor.gemm");
    std::fill(c.begin(), c.end(), 0.0f);
    backend.GemmNN(a.data(), b.data(), c.data(), n, k, cols);
  });
  (*m)["tensor.gemm_ms"] = {gemm_ms, "ms"};
  (*m)["tensor.gemm_gflops"] = {
      2.0 * static_cast<double>(n * k * cols) / (gemm_ms * 1e6), "GFLOP/s"};

  const auto adj = ds.graph.GcnNormalizedAdjacency();
  const double spmm_ms = TimedKernelMs(200.0, [&] {
    FW_TRACE_SPAN("bench/tensor.spmm");
    backend.Spmm(adj->row_ptr().data(), adj->col_idx().data(),
                 adj->values().data(), adj->rows(), x.data(), cols, c.data());
  });
  // Computed traffic: CSR arrays once, one gathered x row per nonzero, one
  // written y row per row.
  const double nnz = static_cast<double>(adj->nnz());
  const double rows = static_cast<double>(adj->rows());
  const double bytes = nnz * (8.0 + 4.0) + (rows + 1.0) * 8.0 +
                       nnz * static_cast<double>(cols) * 4.0 +
                       rows * static_cast<double>(cols) * 4.0;
  (*m)["tensor.spmm_ms"] = {spmm_ms, "ms"};
  (*m)["tensor.spmm_gbs"] = {bytes / (spmm_ms * 1e6), "GB/s"};
}

/// Counterfactual search, λ solve and encoder calls on a fitted Fairwos
/// model, each through its public entry point.
void CoreProbes(const Config& c, const fw::data::Dataset& ds,
                const fw::core::FittedModel& model,
                const fw::core::FairwosStats& stats, Metrics* m) {
  const fw::core::FittedGnnModel* gnn = model.AsGnn();
  const fw::nn::PredictionResult p = model.Predict(ds);
  const auto bins = fw::core::MedianBins(gnn->pseudo_sens());
  std::vector<int> labels = p.pred;
  for (int64_t v : ds.split.train) {
    labels[static_cast<size_t>(v)] = ds.labels[static_cast<size_t>(v)];
  }
  const fw::core::FairwosConfig config = FairwosConfigFor(c, ds);
  const double search_ms = MedianMs(5, [&] {
    FW_TRACE_SPAN("bench/core.cf_search_call");
    fw::common::Rng rng(c.seed);
    (void)fw::core::FindCounterfactuals(p.embeddings, bins, labels,
                                        config.counterfactual, &rng);
  });
  const auto pick = [&](int64_t want) {
    return want <= 0 ? ds.num_nodes() : std::min(want, ds.num_nodes());
  };
  (*m)["core.cf_search_call_ms"] = {search_ms, "ms"};
  (*m)["core.cf_distance_evals"] = {
      static_cast<double>(pick(config.counterfactual.sample_nodes) *
                          pick(config.counterfactual.candidate_pool) *
                          static_cast<int64_t>(bins[0].size())),
      "count"};

  std::vector<double> lambda_us;
  for (int i = 0; i < 2000; ++i) {
    fw::common::Stopwatch watch;
    (void)fw::core::SolveLambda(stats.final_distances, config.alpha,
                                config.invert_lambda_preference);
    lambda_us.push_back(watch.Seconds() * 1e6);
  }
  (*m)["core.lambda_solve_us"] = {Median(std::move(lambda_us)), "us"};

  fw::common::Stopwatch encoder_watch;
  {
    FW_TRACE_SPAN("bench/core.encoder_call");
    fw::common::Rng rng(c.seed);  // FitFairwos seeds its encoder this way
    fw::core::PretrainedEncoder encoder(config.encoder, ds, rng.NextU64());
  }
  (*m)["core.encoder_call_ms"] = {encoder_watch.Millis(), "ms"};
}

void GraphMetrics(const MutatorLog& log, Metrics* m) {
  (*m)["graph.apply_ms_p50"] = {Quantile(log.apply_ms, 50), "ms"};
  (*m)["graph.apply_ms_p99"] = {Quantile(log.apply_ms, 99), "ms"};
  (*m)["graph.publish_ms_p50"] = {Quantile(log.publish_ms, 50), "ms"};
  (*m)["graph.publish_ms_p99"] = {Quantile(log.publish_ms, 99), "ms"};
  (*m)["graph.compact_ms"] = {Median(log.compact_ms), "ms"};
  (*m)["graph.visible_ms_p50"] = {Quantile(log.visible_ms, 50), "ms"};
  (*m)["graph.visible_ms_p99"] = {Quantile(log.visible_ms, 99), "ms"};
}

Result<std::vector<fw::graph::GraphMutation>> Script(const Config& c,
                                                    const fw::data::Dataset& ds,
                                                    double seconds) {
  fw::data::TemporalOptions options;
  options.num_steps =
      std::max<int64_t>(64, std::llround(kMutator.rate * seconds * 1.25));
  FW_ASSIGN_OR_RETURN(fw::data::TemporalScript script,
                      fw::data::GenerateTemporalScript(ds, options,
                                                       c.seed + 3));
  return std::move(script.events);
}

/// Replays the mutation schedule against a private MutableGraph of the
/// dataset (no engine).
Result<MutatorLog> MutationProbe(const Config& c, const fw::data::Dataset& ds) {
  FW_ASSIGN_OR_RETURN(auto events, Script(c, ds, kProbeMutationSeconds));
  fw::graph::MutableGraph graph(std::make_shared<const fw::graph::Graph>(ds.graph),
                                ds.features);
  MutatorOptions options = kMutator;
  options.touch_operators = true;
  std::atomic<bool> stop{false};
  std::thread timer([&] {
    std::this_thread::sleep_for(
        std::chrono::duration<double>(kProbeMutationSeconds));
    stop.store(true);
  });
  MutatorLog log = RunMutator(graph, events, options, stop);
  timer.join();
  return log;
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// --- Main ------------------------------------------------------------------

int Run(const Config& c) {
  fw::common::SetGlobalThreadCount(c.threads);
  auto& recorder = fw::obs::TraceRecorder::Global();
  if (c.trace) {
    // The recorder's small long-lived allocations between the kernels'
    // large temporaries defeat glibc's dynamic mmap threshold: a traced
    // pokec-z fit otherwise grows to ~1.5 GB RSS instead of ~0.1 GB. A fixed
    // threshold keeps traced runs small; untraced runs keep the defaults.
    // The threshold stays fixed for the whole process, so every per-layer
    // time is taken under it (README.md, "Per-layer metrics").
    mallopt(M_MMAP_THRESHOLD, 1 << 20);
    recorder.Enable();
  }
  Tally tally;
  FitLog fits;
  Metrics layers;

  // Set-up: input generation, then the fit and export+load of the served
  // model; each step repeats kSetupReps times and counts with its median.
  std::vector<double> gen_ms;
  fw::data::Dataset ds;
  // Generation of the small datasets takes milliseconds, so it repeats
  // until a quarter second has passed (at most 50 times).
  fw::common::Stopwatch generation;
  for (int i = 0; i < kSetupReps ||
                  (generation.Seconds() < 0.25 && i < 50);
       ++i) {
    fw::common::Stopwatch watch;
    FW_TRACE_SPAN("bench/data.generate");
    auto ds_or = fw::data::MakeDataset(
        c.dataset, fw::data::DatasetOptions{c.scale, c.seed});
    if (!ds_or.ok()) {
      std::fprintf(stderr, "fwbench: %s\n", ds_or.status().ToString().c_str());
      return 2;
    }
    ds = std::move(ds_or).value();
    gen_ms.push_back(watch.Millis());
  }
  double setup_s = Median(gen_ms) / 1e3;
  layers["data.generate_ms"] = {Median(gen_ms), "ms"};

  Serving serving;
  std::vector<double> setup_fit;
  for (int i = 0; i < kSetupReps; ++i) {
    auto fit_s = CheckedFit(c, ds, &fits, &serving, &tally);
    if (!fit_s.ok()) {
      std::fprintf(stderr, "fwbench: fit failed: %s\n",
                   fit_s.status().ToString().c_str());
      return 2;
    }
    setup_fit.push_back(fit_s.value());
  }
  std::vector<double> load_ms;
  for (int i = 0; i < kSetupReps; ++i) {
    const Status loaded = ExportAndLoad(c, ds, &serving);
    if (!loaded.ok()) {
      std::fprintf(stderr, "fwbench: %s\n", loaded.ToString().c_str());
      return 2;
    }
    load_ms.push_back(serving.export_ms + serving.load_ms);
  }
  setup_s += Median(setup_fit) + Median(load_ms) / 1e3;

  // Measured window; traced runs measure an untraced half, then a traced one.
  const int halves = c.trace ? 2 : 1;
  std::vector<Window> windows(static_cast<size_t>(halves));
  for (int h = 0; h < halves; ++h) {
    const bool traced_half = c.trace && h == 1;
    if (c.trace) {
      if (traced_half) {
        recorder.Enable();
        fw::obs::MetricsRegistry::Global()
            .GetWindowed("serve.window.queue_wait_ms")
            ->Reset();
      } else {
        recorder.Disable();
      }
    }
    const Status status =
        RunRounds(c, ds, kRounds / halves, c.seconds / halves,
                  c.seed + 101 + 1000 * h, &serving,
                  &windows[static_cast<size_t>(h)], &fits, &tally);
    if (!status.ok()) {
      std::fprintf(stderr, "fwbench: %s\n", status.ToString().c_str());
      return 2;
    }
  }
  const bool correct = tally.violations.empty();

  const Window& untraced = windows[0];
  const Metrics e2e = EndToEnd(c, untraced, setup_s, tally);
  Metrics out = e2e;

  if (c.trace) {
    const Window& w = windows[1];
    // Probes: core, kernel, predict and graph.
    CoreProbes(c, ds, *serving.model, fits.last_stats, &layers);
    KernelProbes(ds, &layers);
    layers["eval.predict_ms"] = {MedianMs(5,
                                          [&] {
                                            FW_TRACE_SPAN("bench/eval.predict");
                                            (void)serving.model->Predict(ds);
                                          }),
                                 "ms"};
    auto graph_log = MutationProbe(c, ds);
    if (!graph_log.ok()) {
      std::fprintf(stderr, "fwbench: %s\n",
                   graph_log.status().ToString().c_str());
      return 2;
    }
    GraphMetrics(graph_log.value(), &layers);
    recorder.Disable();

    const auto spans = AggregateSpans(recorder.snapshot());
    const auto span = [&](const std::string& name) {
      auto it = spans.find(name);
      return it == spans.end() ? SpanTotals{} : it->second;
    };
    const double fairwos_fits = static_cast<double>(
        std::max<int64_t>(span("fairwos/train").calls, 1));
    layers["core.encoder_pretrain_ms"] = {
        span("fairwos/encoder_pretrain").total_ms / fairwos_fits, "ms"};
    layers["core.classifier_pretrain_ms"] = {
        span("fairwos/classifier_pretrain").total_ms / fairwos_fits, "ms"};
    layers["core.finetune_ms"] = {span("fairwos/finetune").total_ms / fairwos_fits,
                                  "ms"};
    layers["core.cf_search_ms"] = {
        span("fairwos/counterfactual_search").total_ms / fairwos_fits, "ms"};
    layers["core.finetune_other_ms"] = {
        (span("fairwos/finetune").total_ms -
         span("fairwos/counterfactual_search").total_ms) /
            fairwos_fits,
        "ms"};
    layers["core.train_self_ms"] = {span("fairwos/train").self_ms / fairwos_fits,
                                    "ms"};
    layers["core.finetune_epoch_self_ms"] = {
        span("fairwos/finetune_epoch").self_ms / fairwos_fits, "ms"};
    const SpanTotals gcn = span("gcn_conv/forward");
    layers["nn.gcn_forward_ms"] = {
        Ratio(gcn.total_ms, static_cast<double>(gcn.calls)), "ms"};
    layers["nn.gcn_forward_calls"] = {static_cast<double>(gcn.calls),
                                      "count"};
    const double all_fits =
        static_cast<double>(std::max<int64_t>(fits.counters.fits, 1));
    layers["nn.optimizer_steps"] = {
        static_cast<double>(fits.counters.optimizer_steps) / all_fits, "count"};
    layers["common.pool_parallel_fors"] = {
        static_cast<double>(fits.counters.parallel_fors) / all_fits, "count"};
    layers["common.pool_chunks"] = {
        static_cast<double>(fits.counters.chunks) / all_fits, "count"};
    layers["common.chunks_per_for"] = {
        Ratio(static_cast<double>(fits.counters.chunks),
              static_cast<double>(fits.counters.parallel_fors)),
        "count"};
    layers["tensor.arena_reserved_mb"] = {
        fw::obs::MetricsRegistry::Global()
                .GetGauge("arena.bytes_reserved")
                ->value() /
            (1024.0 * 1024.0),
        "MB"};
    const SpanTotals predict = span("fitted/predict");
    layers["eval.predict_self_ms"] = {
        Ratio(predict.self_ms, static_cast<double>(predict.calls)), "ms"};
    layers["eval.test_dsp_pct"] = {w.quality.dsp, "%"};
    layers["eval.test_deo_pct"] = {w.quality.deo, "%"};
    layers["serve.export_ms"] = {serving.export_ms, "ms"};
    layers["serve.load_ms"] = {serving.load_ms, "ms"};
    const double batches = static_cast<double>(w.engine.batches);
    layers["serve.cache_hit_ratio"] = {
        Ratio(static_cast<double>(w.engine.cache_hits),
              static_cast<double>(w.engine.requests)),
        "ratio"};
    layers["serve.batches"] = {batches, "count"};
    layers["serve.batch_size_mean"] = {
        Ratio(static_cast<double>(w.engine.cache_misses), batches), "count"};
    const SpanTotals batch = span("serve/batch");
    layers["serve.batch_self_ms"] = {
        Ratio(batch.self_ms, static_cast<double>(batch.calls)), "ms"};
    layers["serve.queue_wait_p99_ms"] = {
        fw::obs::MetricsRegistry::Global()
            .GetWindowed("serve.window.queue_wait_ms")
            ->TakeSnapshot()
            .p99,
        "ms"};
    layers["serve.gen_late_p99_ms"] = {Quantile(w.late_ms, 99), "ms"};
    layers["serve.p90_ms"] = {Median(untraced.slice_p90_ms), "ms"};
    layers["serve.p99_ms"] = {Quantile(untraced.ok_latency_ms, 99), "ms"};
    auto& registry = fw::obs::MetricsRegistry::Global();
    const double incremental = static_cast<double>(
        registry.GetCounter("graph.ops.incremental")->value());
    const double rebuilt =
        static_cast<double>(registry.GetCounter("graph.ops.rebuilt")->value());
    layers["graph.ops_incremental_ratio"] = {
        Ratio(incremental, incremental + rebuilt), "ratio"};

    // Tracing overhead on the fit time, where the program's spans are
    // densest.
    const Metrics traced = EndToEnd(c, w, setup_s, tally);
    layers["trace.overhead_pct"] = {
        100.0 * (traced.at("fit_s").value - e2e.at("fit_s").value) /
            e2e.at("fit_s").value,
        "%"};
    layers["trace.spans"] = {static_cast<double>(recorder.size()), "count"};
    out = layers;

    if (!c.detail_out.empty()) {
      std::ofstream detail(c.detail_out);
      detail << "{\"workload\": \"" << Escape(c.workload)
             << "\", \"seed\": " << c.seed
             << ", \"untraced_half\": " << MetricsJson(e2e)
             << ", \"traced_half\": " << MetricsJson(traced)
             << ", \"per_layer\": " << MetricsJson(layers)
             << ", \"provenance\": " << ProvenanceJson() << ", \"spans\": {";
      bool first = true;
      for (const auto& [name, t] : spans) {
        detail << (first ? "" : ", ") << "\"" << Escape(name)
               << "\": {\"calls\": " << t.calls
               << ", \"total_ms\": " << FormatNumber(t.total_ms)
               << ", \"self_ms\": " << FormatNumber(t.self_ms) << "}";
        first = false;
      }
      detail << "}}\n";
    }
  } else if (!c.detail_out.empty()) {
    std::ofstream detail(c.detail_out);
    detail << "{\"workload\": \"" << Escape(c.workload)
           << "\", \"seed\": " << c.seed
           << ", \"end_to_end\": " << MetricsJson(e2e)
           << ", \"samples\": {\"fits\": " << untraced.fit_seconds.size()
           << ", \"open_loop_ok\": " << untraced.ok_latency_ms.size()
           << ", \"open_loop_slices\": " << untraced.slice_p50_ms.size()
           << ", \"closed_loop_ok\": " << untraced.closed_ok
           << ", \"closed_loop_slices\": " << untraced.rps.size()
           << "}, \"peak_rss_mb\": " << FormatNumber(PeakRssMb());
    for (const auto& [name, values] :
         {std::pair<const char*, const std::vector<double>*>{
              "setup_fit_seconds", &setup_fit},
          {"fit_seconds", &untraced.fit_seconds}}) {
      detail << ", \"" << name << "\": [";
      for (size_t i = 0; i < values->size(); ++i) {
        detail << (i ? ", " : "") << FormatNumber((*values)[i]);
      }
      detail << "]";
    }
    detail << ", \"provenance\": " << ProvenanceJson() << "}\n";
  }

  for (double f : untraced.fit_seconds) {
    std::fprintf(stderr, "fwbench: fit %.4f s\n", f);
  }
  std::fprintf(stderr,
               "fwbench: %s seed %llu: %zu fit(s), %zu open-loop and %lld "
               "closed-loop requests answered\n",
               c.workload.c_str(), static_cast<unsigned long long>(c.seed),
               untraced.fit_seconds.size(), untraced.ok_latency_ms.size(),
               static_cast<long long>(untraced.closed_ok));
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<long long>(tally.attempted),
              static_cast<long long>(tally.failed), MetricsJson(out).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  auto flags = fairwos::common::CliFlags::Parse(argc, argv);
  if (!flags.ok()) {
    std::fprintf(stderr, "fwbench: %s\n", flags.status().ToString().c_str());
    return 2;
  }
  if (flags.value().GetBool("info", false)) {
    std::printf("%s\n", perfbench::ProvenanceJson().c_str());
    return 0;
  }
  auto config = perfbench::ParseConfig(flags.value());
  if (!config.ok()) {
    std::fprintf(stderr, "fwbench: %s\n", config.status().ToString().c_str());
    return 2;
  }
  return perfbench::Run(config.value());
}
