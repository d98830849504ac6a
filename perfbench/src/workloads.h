// The three workloads of the benchmark. Each function runs one pass: it
// sets the workload up from the seed, replays the timed events, and
// returns what it measured. The run loop in main.cc repeats passes.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cmath>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "perfbench/src/common.h"
#include "src/stream/event.h"
#include "src/stream/generators.h"

namespace perfbench {

enum class Workload { kCollectFull, kCollectCompressed, kSiteMonitor };

// Schedules, in events: collects and query rounds never depend on time.
inline constexpr uint64_t kFullCollectEvery = 10'000;
inline constexpr uint64_t kCompressedCollectEvery = 2'500;
inline constexpr uint64_t kMonitorRoundEvery = 5'000;  // publish, then query

/// Timed events in one pass, by workload.
inline uint64_t DefaultTimedEvents(Workload w) {
  switch (w) {
    case Workload::kCollectFull:
      return 400'000;
    case Workload::kCollectCompressed:
      return 30'000;
    case Workload::kSiteMonitor:
      return 100'000;
  }
  return 0;
}

/// Collects (publications on site-monitor) in one pass of `timed_events`.
inline uint64_t CollectsPerPass(Workload w, uint64_t timed_events) {
  switch (w) {
    case Workload::kCollectFull:
      return timed_events / kFullCollectEvery;
    case Workload::kCollectCompressed:
      return timed_events / kCompressedCollectEvery;
    case Workload::kSiteMonitor:
      return timed_events / kMonitorRoundEvery;
  }
  return 0;
}

/// 8 sites of EH ECM-sketches fed from the wc98-like trace, collected to a
/// coordinator that merges what it decoded, then queried.
PassResult RunCollectPass(const PassConfig& cfg, bool compressed,
                          bool with_accuracy);

/// One StreamEngine with dyadic stack, standing queries and a keyed store,
/// fed a rotating-Zipf stream, with ad-hoc query rounds.
PassResult RunMonitorPass(const PassConfig& cfg, bool with_accuracy);

/// The paper's §7.1 query ranges: 100, 1000, ... ticks, then the window.
std::vector<uint64_t> ExponentialRanges(uint64_t window_len);

/// Paper error metric of a view against exact truth over events[0, n):
/// mean over (key, range) of |est - true| / ||a_r||_1, and the share of
/// those errors above epsilon * ||a_r||_1.
struct AccuracyResult {
  double error_avg = 0.0;
  double bound_exceed_frac = 0.0;
};
template <typename EstimateFn>
AccuracyResult MeasureAccuracy(const std::vector<ecm::StreamEvent>& events,
                               ecm::Timestamp now,
                               const std::vector<uint64_t>& ranges,
                               const std::vector<uint64_t>& keys,
                               double epsilon, EstimateFn estimate) {
  AccuracyResult out;
  double error_sum = 0.0;
  uint64_t samples = 0;
  uint64_t exceeded = 0;
  for (uint64_t range : ranges) {
    const ecm::ExactRangeStats exact =
        ecm::ComputeExactRangeStats(events, now, range);
    if (exact.l1 == 0) continue;
    std::unordered_map<uint64_t, uint64_t> truth(exact.freqs.begin(),
                                                 exact.freqs.end());
    const double l1 = static_cast<double>(exact.l1);
    for (uint64_t key : keys) {
      const auto it = truth.find(key);
      const double t = it == truth.end() ? 0.0 : static_cast<double>(it->second);
      const double err = std::fabs(estimate(key, range) - t);
      error_sum += err / l1;
      if (err > epsilon * l1) ++exceeded;
      ++samples;
    }
  }
  if (samples > 0) {
    out.error_avg = error_sum / static_cast<double>(samples);
    out.bound_exceed_frac =
        static_cast<double>(exceeded) / static_cast<double>(samples);
  }
  return out;
}

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
