// Aggregation of the recorded trace into per-span-name totals and self
// times, the raw material of fwbench's per-layer metrics.
#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/trace.h"

namespace perfbench {

struct SpanTotals {
  int64_t calls = 0;
  double total_ms = 0.0;
  /// Total minus the part of each span's interval its direct children (same
  /// thread, one level deeper) cover.
  double self_ms = 0.0;
};

/// Totals keyed by span name.
std::map<std::string, SpanTotals> AggregateSpans(
    const std::vector<fairwos::obs::TraceEvent>& events);

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
