#include "spans.h"

#include <algorithm>

namespace perfbench {

std::map<std::string, SpanTotals> AggregateSpans(
    const std::vector<fairwos::obs::TraceEvent>& events) {
  // Spans on one thread nest strictly, so walking each thread's events in
  // start order (parents before children at equal starts) with a stack
  // keyed by depth finds every span's direct parent.
  std::vector<size_t> order(events.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    const auto& x = events[a];
    const auto& y = events[b];
    if (x.tid != y.tid) return x.tid < y.tid;
    if (x.start_us != y.start_us) return x.start_us < y.start_us;
    return x.depth < y.depth;
  });
  std::vector<int64_t> child_us(events.size(), 0);
  std::vector<size_t> stack;
  int tid = -1;
  for (size_t idx : order) {
    const auto& e = events[idx];
    if (e.tid != tid) {
      stack.clear();
      tid = e.tid;
    }
    while (!stack.empty() && events[stack.back()].depth >= e.depth) {
      stack.pop_back();
    }
    if (!stack.empty() && events[stack.back()].depth == e.depth - 1) {
      child_us[stack.back()] += e.duration_us;
    }
    stack.push_back(idx);
  }

  std::map<std::string, SpanTotals> totals;
  for (size_t i = 0; i < events.size(); ++i) {
    SpanTotals& t = totals[events[i].name];
    const double ms = static_cast<double>(events[i].duration_us) / 1e3;
    ++t.calls;
    t.total_ms += ms;
    t.self_ms += std::max(0.0, ms - static_cast<double>(child_us[i]) / 1e3);
  }
  return totals;
}

}  // namespace perfbench
