// Order-preserving aggregation of sliding-window synopses (paper §5).
//
// The paper's key distributed-systems result: a set of *deterministic*
// sliding-window synopses (exponential histograms, deterministic waves)
// over time-based windows can be merged into a single synopsis of the
// interleaved logical stream S₁ ⊕ S₂ ⊕ … ⊕ Sₙ with bounded error
// inflation (Theorem 4: ε + ε' + εε'), by treating each input bucket as a
// log entry — half its content replayed at the bucket's start time, half
// at its end time — and feeding the replay, in timestamp order, into a
// fresh synopsis. The bound needs that replay to be exact; the two steps
// below make it cheap without changing a single replayed arrival.
//
//   * Run merge instead of a sort. Each input's bucket log is oldest
//     first, so its replay events already form a non-decreasing run
//     (decoders reject images that break this). The k runs are merged
//     pairwise into thread-local scratch, taking the lower input on equal
//     timestamps — exactly the order a stable sort of the concatenated
//     events gives, so the merged synopsis is byte-identical to it.
//   * Bulk unit append (exponential histograms). Almost every replay
//     event is a single arrival. Runs of them go through
//     ExponentialHistogram::AddSortedUnits, the closed-form cascade that
//     weighted adds use, instead of one Add each. That leaves exactly the
//     state of the per-event adds: the cascade reproduces the unit
//     inserts, and a run is cut where a per-event expiry could first drop
//     a bucket (see AddSortedUnits). Weighted events, and every event of
//     other counters, still go through Add.
//
// Randomized waves merge losslessly (§5.2) by uniting per-level samples.
//
// Count-based windows CANNOT be merged (paper Fig. 2): the synopses
// preserve the order of their own arrivals but lose the interleaving with
// the other streams' arrivals, so "the last N global arrivals" is
// unanswerable. The entry points here take time-based synopses only; the
// mode check itself lives in EcmSketch::Merge, which owns the mode.

#ifndef ECM_WINDOW_MERGE_H_
#define ECM_WINDOW_MERGE_H_

#include <algorithm>
#include <type_traits>
#include <vector>

#include "src/util/result.h"
#include "src/window/counter_traits.h"

namespace ecm {

/// One replay event of the §5.1 merge: `count` arrivals at time `ts`.
struct ReplayEvent {
  Timestamp ts;
  uint64_t count;
};

/// Expands one bucket into replay events: ⌊C/2⌋ arrivals at the bucket's
/// start time, ⌈C/2⌉ at its end time (end gets the odd arrival so that
/// zero-width and size-1 buckets stay at their known newest timestamp).
/// Timestamps are clamped to >= 1 per the Add() convention; the clamp is
/// monotone, so an oldest-first log still expands to a sorted run.
inline void AppendBucketEvents(const BucketView& b,
                               std::vector<ReplayEvent>* events) {
  if (b.size == 0) return;
  const uint64_t at_start = b.size / 2;
  const Timestamp start = std::max<Timestamp>(b.start, 1);
  const Timestamp end = std::max<Timestamp>(b.end, 1);
  if (at_start > 0 && start < end) {
    events->push_back(ReplayEvent{start, at_start});
    events->push_back(ReplayEvent{end, b.size - at_start});
  } else {
    // Zero-width bucket (or start clamped past end): everything at end.
    events->push_back(ReplayEvent{end, b.size});
  }
}

namespace merge_internal {

/// MergeByReplay's buffers, reused across cells.
struct ReplayScratch {
  std::vector<ReplayEvent> events, spare;
  std::vector<size_t> bounds;
  std::vector<Timestamp> units;
};

/// The calling thread's scratch: concurrent merges on different threads
/// never share it.
ReplayScratch& ThreadReplayScratch();

/// Merges the sorted runs `(*events)[bounds[r], bounds[r+1])` into one
/// sequence sorted by timestamp, earlier runs first on ties (the order of
/// a stable sort of the whole vector). `bounds` starts at 0, ends at
/// events->size() and is consumed. Returns the merged sequence, which is
/// in either `*events` or `*spare`.
const ReplayEvent* MergeSortedRuns(std::vector<ReplayEvent>* events,
                                   std::vector<size_t>* bounds,
                                   std::vector<ReplayEvent>* spare);

}  // namespace merge_internal

/// Merges time-based deterministic synopses — exponential histograms
/// (§5.1, Theorem 4), deterministic waves ("the aggregation technique
/// trivially extends for deterministic waves", §5.1) or exact windows —
/// by replaying every input's bucket log into a fresh counter built from
/// `merged_cfg`. For EH/DW inputs of error ε and a merged error parameter
/// ε' (merged_cfg.epsilon), querying the result carries relative error
/// <= ε + ε' + εε'. A merged wave's `max_arrivals` should be the sum of
/// the per-stream bounds. Fails if an input's window differs from
/// merged_cfg.window_len.
template <BucketExportingCounter C>
Result<C> MergeByReplay(const std::vector<const C*>& inputs,
                        const typename C::Config& merged_cfg) {
  if (inputs.empty()) {
    return Status::InvalidArgument("MergeByReplay: no inputs");
  }
  merge_internal::ReplayScratch& scratch =
      merge_internal::ThreadReplayScratch();
  std::vector<ReplayEvent>& events = scratch.events;
  events.clear();
  scratch.bounds.assign(1, 0);
  auto append = [&events](const BucketView& b) {
    AppendBucketEvents(b, &events);
  };
  for (const C* c : inputs) {
    if (c->window_len() != merged_cfg.window_len) {
      return Status::Incompatible(
          "MergeByReplay: an input's window differs from the merged one");
    }
    if constexpr (requires { c->ForEachBucket(append); }) {
      c->ForEachBucket(append);
    } else {
      for (const BucketView& b : c->Buckets()) append(b);
    }
    scratch.bounds.push_back(events.size());
  }
  const size_t n = events.size();
  const ReplayEvent* sorted = merge_internal::MergeSortedRuns(
      &events, &scratch.bounds, &scratch.spare);
  C merged(merged_cfg);
  if constexpr (std::is_same_v<C, ExponentialHistogram>) {
    std::vector<Timestamp>& units = scratch.units;
    units.clear();
    for (size_t i = 0; i < n; ++i) {
      if (sorted[i].count == 1) {
        units.push_back(sorted[i].ts);
        continue;
      }
      merged.AddSortedUnits(units.data(), units.size());
      units.clear();
      merged.Add(sorted[i].ts, sorted[i].count);
    }
    merged.AddSortedUnits(units.data(), units.size());
  } else {
    for (size_t i = 0; i < n; ++i) merged.Add(sorted[i].ts, sorted[i].count);
  }
  return merged;
}

/// Losslessly merges randomized waves (§5.2): per level, the union of the
/// input samples sorted by timestamp, truncated to the level capacity; if
/// the merged wave needs more levels than an input has, the input's top
/// level is sub-sampled onward by seeded coin flips (the "rehash" step of
/// Gibbons & Tirthapura). The merged wave keeps the inputs' (ε, δ)
/// guarantee. Fails if inputs disagree on ε, δ, window length, capacity,
/// or sub-wave count.
Result<RandomizedWave> MergeRandomizedWaves(
    const std::vector<const RandomizedWave*>& inputs, uint64_t seed);

}  // namespace ecm

#endif  // ECM_WINDOW_MERGE_H_
