// Traffic for the serving phases of fwbench: an open-loop request generator
// (requests are due on a fixed schedule and timed from their due time), a
// closed-loop capacity probe, and an open-loop graph mutator that replays a
// temporal script through MutableGraph::ApplyBatch/Publish/Compact.
#ifndef PERFBENCH_LOAD_H_
#define PERFBENCH_LOAD_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <vector>

#include "graph/delta.h"
#include "graph/mutable_graph.h"
#include "serve/engine.h"

namespace perfbench {

/// `count` node ids: with probability `hot_fraction` one of the first
/// `hot_nodes` ids, otherwise uniform over [0, num_nodes). Deterministic in
/// `seed`.
std::vector<int64_t> DrawStream(int64_t count, int64_t num_nodes,
                                int64_t hot_nodes, double hot_fraction,
                                uint64_t seed);

/// How one request ended.
enum class Outcome : uint8_t { kNone = 0, kOk, kShed, kDeadline, kFailed };

/// Returns whether a served (OK) answer is correct. Called from the client
/// threads, so it must be thread-safe.
using AnswerCheck =
    std::function<bool(const fairwos::serve::NodePrediction& answer)>;

/// Open-loop record, indexed like the stream.
struct OpenLoopLog {
  std::vector<Outcome> outcomes;
  std::vector<double> latency_ms;  // completion minus due time
  std::vector<double> late_ms;     // send minus due time (generator lag)
  std::atomic<int64_t> wrong{0};   // OK answers the check rejected
};

/// Open loop: request i is due `i / rate` seconds after the start; `senders`
/// threads each claim the next due request, wait for its due time and send
/// it. Every request of `nodes` is sent.
void RunOpenLoop(fairwos::serve::InferenceEngine& engine,
                 const std::vector<int64_t>& nodes, double rate, int senders,
                 const AnswerCheck& check, OpenLoopLog* log);

struct ClosedLoopLog {
  int64_t sent = 0;
  int64_t ok = 0;
  int64_t wrong = 0;
  /// OK answers per equal slice of the phase, by completion time.
  std::vector<int64_t> ok_per_interval;
  double interval_seconds = 0.0;
};

/// Closed loop: `clients` threads send requests back to back, cycling
/// through `nodes`, until `seconds` have elapsed; completions are counted
/// in `intervals` equal slices of the phase.
ClosedLoopLog RunClosedLoop(fairwos::serve::InferenceEngine& engine,
                            const std::vector<int64_t>& nodes, int clients,
                            double seconds, int intervals,
                            const AnswerCheck& check);

struct MutatorOptions {
  double rate = 20.0;  // mutations per second
  int64_t publish_every = 8;
  int64_t compact_every = 64;
  /// Read the GCN operator of every published snapshot, as a serving
  /// forward would; without an engine nothing else builds the operators.
  bool touch_operators = false;
};

struct MutatorLog {
  int64_t events_used = 0;  // script events replayed
  int64_t attempted = 0;    // mutations plus compactions
  int64_t rejected = 0;
  std::vector<double> apply_ms;
  std::vector<double> publish_ms;
  std::vector<double> compact_ms;
  /// Per applied mutation: due time to the return of the Publish that made
  /// it visible.
  std::vector<double> visible_ms;
};

/// Replays `events` at `options.rate` until `stop` is raised or the script
/// ends, then publishes whatever is still pending.
MutatorLog RunMutator(fairwos::graph::MutableGraph& graph,
                      const std::vector<fairwos::graph::GraphMutation>& events,
                      const MutatorOptions& options,
                      const std::atomic<bool>& stop);

}  // namespace perfbench

#endif  // PERFBENCH_LOAD_H_
