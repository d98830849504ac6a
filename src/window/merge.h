// Order-preserving aggregation of sliding-window synopses (paper §5).
//
// The paper's key distributed-systems result: a set of *deterministic*
// sliding-window synopses (exponential histograms, deterministic waves)
// over time-based windows can be merged into a single synopsis of the
// interleaved logical stream S₁ ⊕ S₂ ⊕ … ⊕ Sₙ with bounded error
// inflation (Theorem 4: ε + ε' + εε'), by treating each input bucket as a
// log entry — half its content replayed at the bucket's start time, half
// at its end time — and feeding the replay into a fresh synopsis.
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
#include <utility>
#include <vector>

#include "src/util/result.h"
#include "src/window/counter_traits.h"

namespace ecm {

/// One replay event of the §5.1 merge: `count` arrivals at time `ts`.
struct ReplayEvent {
  Timestamp ts;
  uint64_t count;
};

/// Expands a bucket log into replay events: ⌊C/2⌋ arrivals at the bucket's
/// start time, ⌈C/2⌉ at its end time (end gets the odd arrival so that
/// zero-width and size-1 buckets stay at their known newest timestamp).
/// Timestamps are clamped to >= 1 per the Add() convention.
void AppendBucketEvents(const std::vector<BucketView>& buckets,
                        std::vector<ReplayEvent>* events);

/// Sorts events by timestamp (stable) and replays them into `target`,
/// which may be any sliding-window counter.
template <SlidingWindowCounter C>
void ReplayInto(std::vector<ReplayEvent> events, C* target) {
  std::stable_sort(events.begin(), events.end(),
                   [](const ReplayEvent& a, const ReplayEvent& b) {
                     return a.ts < b.ts;
                   });
  for (const ReplayEvent& e : events) target->Add(e.ts, e.count);
}

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
  std::vector<ReplayEvent> events;
  for (const C* c : inputs) {
    if (c->window_len() != merged_cfg.window_len) {
      return Status::Incompatible(
          "MergeByReplay: an input's window differs from the merged one");
    }
    AppendBucketEvents(c->Buckets(), &events);
  }
  C merged(merged_cfg);
  ReplayInto(std::move(events), &merged);
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
