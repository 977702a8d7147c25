#include "load.h"

#include <algorithm>
#include <chrono>
#include <memory>
#include <thread>

#include "common/rng.h"
#include "common/status.h"
#include "common/trace.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

double MsBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

Outcome Classify(const fairwos::common::Status& status) {
  switch (status.code()) {
    case fairwos::common::StatusCode::kOk:
      return Outcome::kOk;
    case fairwos::common::StatusCode::kResourceExhausted:
      return Outcome::kShed;
    case fairwos::common::StatusCode::kDeadlineExceeded:
      return Outcome::kDeadline;
    default:
      return Outcome::kFailed;
  }
}

Clock::time_point After(Clock::time_point start, double seconds) {
  return start + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double>(seconds));
}

}  // namespace

std::vector<int64_t> DrawStream(int64_t count, int64_t num_nodes,
                                int64_t hot_nodes, double hot_fraction,
                                uint64_t seed) {
  fairwos::common::Rng rng(seed);
  const int64_t hot = std::min(hot_nodes, num_nodes);
  std::vector<int64_t> nodes(static_cast<size_t>(count));
  for (auto& node : nodes) {
    node = rng.Bernoulli(hot_fraction) ? rng.UniformInt(hot)
                                       : rng.UniformInt(num_nodes);
  }
  return nodes;
}

void RunOpenLoop(fairwos::serve::InferenceEngine& engine,
                 const std::vector<int64_t>& nodes, double rate, int senders,
                 const AnswerCheck& check, OpenLoopLog* log) {
  log->outcomes.assign(nodes.size(), Outcome::kNone);
  log->latency_ms.assign(nodes.size(), 0.0);
  log->late_ms.assign(nodes.size(), 0.0);
  std::atomic<size_t> next{0};
  const Clock::time_point start = Clock::now();
  std::vector<std::thread> threads;
  for (int s = 0; s < senders; ++s) {
    threads.emplace_back([&] {
      for (size_t i = next.fetch_add(1); i < nodes.size();
           i = next.fetch_add(1)) {
        const Clock::time_point due =
            After(start, static_cast<double>(i) / rate);
        std::this_thread::sleep_until(due);
        log->late_ms[i] = MsBetween(due, Clock::now());
        auto answer = engine.Predict(nodes[i]);
        log->latency_ms[i] = MsBetween(due, Clock::now());
        log->outcomes[i] = Classify(answer.status());
        if (answer.ok() && !check(answer.value())) ++log->wrong;
      }
    });
  }
  for (auto& t : threads) t.join();
}

ClosedLoopLog RunClosedLoop(fairwos::serve::InferenceEngine& engine,
                            const std::vector<int64_t>& nodes, int clients,
                            double seconds, int intervals,
                            const AnswerCheck& check) {
  std::atomic<int64_t> next{0}, wrong{0};
  std::vector<std::atomic<int64_t>> ok(static_cast<size_t>(intervals));
  const double interval_s = seconds / intervals;
  const Clock::time_point start = Clock::now();
  const Clock::time_point end = After(start, seconds);
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&] {
      while (Clock::now() < end) {
        const int64_t i = next.fetch_add(1);
        auto answer = engine.Predict(
            nodes[static_cast<size_t>(i) % nodes.size()]);
        if (!answer.ok()) continue;
        if (!check(answer.value())) ++wrong;
        // An answer finishing after the end counts in the last slice.
        const int slice = std::min(
            intervals - 1,
            static_cast<int>(MsBetween(start, Clock::now()) / 1e3 /
                             interval_s));
        ++ok[static_cast<size_t>(slice)];
      }
    });
  }
  for (auto& t : threads) t.join();
  ClosedLoopLog log;
  log.sent = next.load();
  log.wrong = wrong.load();
  log.interval_seconds = interval_s;
  for (const auto& count : ok) {
    log.ok_per_interval.push_back(count.load());
    log.ok += count.load();
  }
  return log;
}

MutatorLog RunMutator(fairwos::graph::MutableGraph& graph,
                      const std::vector<fairwos::graph::GraphMutation>& events,
                      const MutatorOptions& options,
                      const std::atomic<bool>& stop) {
  MutatorLog log;
  std::vector<Clock::time_point> unpublished;  // due times of applied ones
  const auto publish = [&] {
    const Clock::time_point begin = Clock::now();
    std::shared_ptr<const fairwos::graph::GraphSnapshot> snapshot;
    {
      FW_TRACE_SPAN("bench/graph.publish");
      snapshot = graph.Publish();
    }
    const Clock::time_point done = Clock::now();
    log.publish_ms.push_back(MsBetween(begin, done));
    for (const Clock::time_point due : unpublished) {
      log.visible_ms.push_back(MsBetween(due, done));
    }
    unpublished.clear();
    if (options.touch_operators) (void)snapshot->GcnNormalizedAdjacency();
  };

  const Clock::time_point start = Clock::now();
  for (size_t i = 0; i < events.size() && !stop.load(); ++i) {
    const Clock::time_point due =
        After(start, static_cast<double>(i) / options.rate);
    std::this_thread::sleep_until(due);
    ++log.events_used;
    ++log.attempted;
    const Clock::time_point begin = Clock::now();
    fairwos::common::Status status;
    {
      FW_TRACE_SPAN("bench/graph.apply");
      status = graph.ApplyBatch({events[i]});
    }
    log.apply_ms.push_back(MsBetween(begin, Clock::now()));
    if (status.ok()) {
      unpublished.push_back(due);
    } else {
      ++log.rejected;
    }
    const int64_t applied = static_cast<int64_t>(i) + 1;
    if (applied % options.publish_every == 0) publish();
    if (applied % options.compact_every == 0) {
      ++log.attempted;
      const Clock::time_point compact_begin = Clock::now();
      fairwos::common::Status compacted;
      {
        FW_TRACE_SPAN("bench/graph.compact");
        compacted = graph.Compact();
      }
      log.compact_ms.push_back(MsBetween(compact_begin, Clock::now()));
      if (!compacted.ok()) ++log.rejected;
    }
  }
  if (!unpublished.empty()) publish();
  return log;
}

}  // namespace perfbench
