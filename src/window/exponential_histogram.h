// Exponential histogram (Datar, Gionis, Indyk, Motwani, SIAM J. Comput. 2002)
// for ε-approximate basic counting over a sliding window.
//
// This is the default sliding-window counter inside ECM-sketches (the
// "ECM-EH" variant of the paper). It maintains buckets of exponentially
// increasing sizes; bucket boundaries are chosen so that invariant 1 of the
// paper holds for every bucket j (bucket 1 = most recent):
//
//     C_j / (2 (1 + Σ_{i<j} C_i)) <= ε
//
// which bounds the query-time error (half the partially-overlapping oldest
// bucket) by ε times the true count.
//
// Storage follows the layout the paper found fastest (§7.1) — the bucket
// list is split into levels L0, L1, ..., level i holding only buckets of
// size 2^i — with each level's buckets in a contiguous ring-buffer
// segment (head/count indices). A bucket is one 8-byte timestamp and
// steady-state pushes and pops never touch the allocator. Segments grow
// geometrically up to the `level_capacity_` ring bound as buckets
// actually arrive, so tiny-ε configurations (level capacity in the
// millions) no longer pay a full `levels × level_capacity_` preallocation
// for mostly-empty levels.
//
// Weighted arrivals: Add(ts, count) costs O(log(count) + level_capacity_)
// bucket operations, not O(count). The batch insert propagates the unit
// cascade level by level in closed form and reproduces the exact bucket
// state that `count` sequential unit inserts would produce, so estimates,
// invariant 1, merges and the wire encoding are all indistinguishable from
// the sequential path. AddSortedUnits feeds a sorted run of unit arrivals
// through the same cascade, with the run as level 0's incoming buckets.
//
// Space: O(log²(N) / ε) bits. Amortized update: O(1). Both window models
// are supported; the timestamp convention is defined in window_spec.h.

#ifndef ECM_WINDOW_EXPONENTIAL_HISTOGRAM_H_
#define ECM_WINDOW_EXPONENTIAL_HISTOGRAM_H_

#include <cstdint>
#include <vector>

#include "src/util/bytes.h"
#include "src/util/result.h"
#include "src/window/window_spec.h"

namespace ecm {

/// Read-only view of one bucket, used by the order-preserving merge (§5.1)
/// and by tests that check invariant 1. Buckets are reported oldest first.
struct BucketView {
  Timestamp start;  ///< end timestamp of the next-older bucket (exclusive)
  Timestamp end;    ///< timestamp of the most recent 1-bit in the bucket
  uint64_t size;    ///< number of 1-bits aggregated in the bucket
};

/// ε-approximate sliding-window counter.
///
/// Counts "1-bits" (arrivals, possibly weighted) whose timestamps fall in
/// the window (now - range, now], for any range up to the configured window
/// length. Timestamps passed to Add() must be non-decreasing.
class ExponentialHistogram {
 public:
  /// Construction parameters. Every sliding-window counter class in this
  /// library exposes a nested Config so that EcmSketch<Counter> can build
  /// its w×d counters uniformly.
  struct Config {
    double epsilon = 0.1;       ///< max relative error of estimates
    uint64_t window_len = 100;  ///< N: window length (ticks or arrivals)
  };

  ExponentialHistogram() : ExponentialHistogram(Config{}) {}
  explicit ExponentialHistogram(const Config& config);

  /// Registers `count` arrivals at timestamp `ts` (non-decreasing across
  /// calls, and >= 1) and expires buckets that slid out of the window.
  /// Weighted inserts are O(log(count) + 1/ε) and produce the same bucket
  /// state as `count` unit inserts.
  void Add(Timestamp ts, uint64_t count = 1);

  /// Registers one arrival at each of `ts[0..n)` (non-decreasing, >= 1,
  /// none older than the last Add) and leaves exactly the state of `n`
  /// calls `Add(ts[i], 1)`. The arrivals go through the closed-form
  /// cascade in runs: a run ends at the first arrival whose window start
  /// reaches the oldest bucket end held when the run began (the run's
  /// first timestamp if none is held), since before it no per-arrival
  /// expiry could drop anything. The §5.1 merge replays its unit events
  /// through here.
  void AddSortedUnits(const Timestamp* ts, size_t n);

  /// Estimated number of arrivals with timestamp in (now - range, now].
  /// `range` is clamped to the configured window length. `now` must be
  /// >= the last Add() timestamp (the caller's clock may have advanced).
  ///
  /// O(1) when the range covers every held bucket (the steady state for
  /// full-window queries): the maintained running total answers directly.
  /// Otherwise one binary search inside the single straddling level; all
  /// newer levels contribute their whole weight off the level directory
  /// without touching bucket storage.
  double Estimate(Timestamp now, uint64_t range) const;

  /// Estimate over the full window length.
  double EstimateWindow(Timestamp now) const {
    return Estimate(now, window_len());
  }

  /// Earliest clock value strictly after `now` at which Estimate(·, range)
  /// can return a different value than at `now`, assuming no further
  /// Add/Expire calls — i.e. the next window-expiry event of this counter.
  /// Returns 0 when the estimate can never change again (empty histogram,
  /// or all content already behind the boundary). The incremental drift
  /// tracker (dist/geometric.h) schedules per-counter expiry-event heap
  /// entries off this, replacing its former periodic staleness refresh.
  ///
  /// The estimate is a function of which bucket ends lie past the window
  /// boundary plus the straddle half-correction (driven by expired_end_
  /// and the boundary-zero special case), so it is piecewise constant in
  /// `now` with flips exactly when the boundary crosses a bucket end,
  /// the expiry watermark, or leaves zero.
  Timestamp NextEstimateChangeAt(Timestamp now, uint64_t range) const;

  /// Drops buckets entirely outside the window ending at `now`.
  void Expire(Timestamp now);

  /// Sum of all bucket sizes currently held (an upper bound on the true
  /// in-window count; at most (1+ε) times it after Expire()).
  uint64_t BucketTotal() const { return total_; }

  /// Exact number of arrivals ever registered (not windowed).
  uint64_t lifetime_count() const { return lifetime_; }

  /// Number of buckets currently held.
  size_t NumBuckets() const { return num_buckets_; }

  /// Total ring slots currently allocated across all level segments —
  /// the segmented-growth regression hook: stays proportional to buckets
  /// actually held, not to levels × level_capacity_.
  size_t AllocatedSlots() const;

  /// Approximate in-memory footprint in bytes (segments + directory).
  size_t MemoryBytes() const;

  /// Calls `f(const BucketView&)` for every bucket, oldest first, with
  /// reconstructed start timestamps (paper §5: s(b_j) = e(b_{j+1}), the
  /// oldest bucket uses the expiry watermark). The §5.1 merge walks the
  /// bucket log through this without materialising it.
  template <typename F>
  void ForEachBucket(F&& f) const {
    Timestamp prev_end = expired_end_;
    for (size_t i = NumLevels(); i-- > 0;) {
      const uint64_t size = 1ULL << i;
      for (uint32_t j = 0; j < level_count_[i]; ++j) {
        const Timestamp end = At(i, j).end;
        f(BucketView{prev_end, end, size});
        prev_end = end;
      }
    }
  }

  /// Snapshot of ForEachBucket's walk as a vector.
  std::vector<BucketView> Buckets() const;

  double epsilon() const { return epsilon_; }
  uint64_t window_len() const { return window_len_; }
  Timestamp last_timestamp() const { return last_ts_; }

  /// True if no buckets are held.
  bool Empty() const { return num_buckets_ == 0; }

  /// Verifies invariant 1 for every bucket; returns the first violating
  /// bucket index (oldest-first) or -1 if the invariant holds. Test hook.
  int CheckInvariant() const;

  /// Appends the exact wire encoding (varint bucket log) to `w`. The wire
  /// size is what the distributed benches account as network transfer.
  /// The encoding is bucket-layout-independent (a level log of end
  /// timestamps) and is unchanged from the deque-backed representation.
  void SerializeTo(ByteWriter* w) const;

  /// Decodes a histogram previously written by SerializeTo.
  static Result<ExponentialHistogram> Deserialize(ByteReader* r);

 private:
  struct Bucket {
    Timestamp end;  // timestamp of the newest 1-bit in the bucket
  };

  // --- level directory (structure-of-arrays) ----------------------------
  // The directory is three parallel arrays indexed by level: ring head,
  // bucket count, and the ring segment storage. head/count live in dense
  // uint32 arrays (not per-level structs) because the query path walks
  // the whole directory — the straddling-level search and the
  // `count << i` weight accumulation in Estimate stream one contiguous
  // 4-byte-stride span instead of hopping 40-byte Level records. Segment
  // sizes grow geometrically (Grow) up to level_capacity_ as levels fill.
  size_t NumLevels() const { return level_count_.size(); }

  // --- ring-buffer primitives -------------------------------------------
  const Bucket& At(size_t level, uint32_t pos) const {
    const std::vector<Bucket>& slots = level_slots_[level];
    uint32_t cap = static_cast<uint32_t>(slots.size());
    uint32_t idx = level_head_[level] + pos;
    if (idx >= cap) idx -= cap;
    return slots[idx];
  }
  // Re-linearizes the ring into a segment of at least `count + 1` slots,
  // doubling up to the level_capacity_ bound.
  void Grow(size_t level);
  void PushBack(size_t level, Bucket b) {
    if (level_count_[level] == level_slots_[level].size()) Grow(level);
    uint32_t cap = static_cast<uint32_t>(level_slots_[level].size());
    uint32_t idx = level_head_[level] + level_count_[level];
    if (idx >= cap) idx -= cap;
    level_slots_[level][idx] = b;
    ++level_count_[level];
    if (level > top_level_ || level_count_[top_level_] == 0) {
      top_level_ = level;
    }
  }
  Bucket PopFront(size_t level) {
    Bucket b = level_slots_[level][level_head_[level]];
    level_head_[level] =
        (level_head_[level] + 1 == level_slots_[level].size())
            ? 0
            : level_head_[level] + 1;
    --level_count_[level];
    if (level_count_[level] == 0 && level == top_level_) {
      while (top_level_ > 0 && level_count_[top_level_] == 0) --top_level_;
    }
    return b;
  }
  // Bulk forms of PushBack/PopFront for the cascade: append `ends[0..n)`
  // then `ts_run` copies of `ts`; drop the `n` oldest buckets.
  void AppendBuckets(size_t level, const Timestamp* ends, size_t n,
                     Timestamp ts, uint64_t ts_run);
  void PopFrontN(size_t level, uint32_t n);
  // Grows the level directory so that `level` exists (no slot storage is
  // allocated until the level receives its first bucket).
  void EnsureLevel(size_t level) {
    if (NumLevels() <= level) {
      level_head_.resize(level + 1, 0);
      level_count_.resize(level + 1, 0);
      level_slots_.resize(level + 1);
    }
  }

  // Inserts a single 1-bit at `ts` and cascades merges (unit fast path).
  void AddOne(Timestamp ts);
  // Inserts 1-bits by closed-form cascade propagation: one at each of
  // `expl[0..n_expl)` (oldest first), then `ts_run` more at `ts`. Leaves
  // the bucket state of the same unit inserts made by AddOne; counters,
  // the clock and expiry are the caller's.
  void Cascade(const Timestamp* expl, size_t n_expl, Timestamp ts,
               uint64_t ts_run);

  double epsilon_;
  uint64_t window_len_;
  // Maximum buckets allowed per level before the two oldest merge:
  // ceil(1/eps)/2 + 2 (Datar et al. invariant with k = ceil(1/eps)).
  size_t level_capacity_;

  std::vector<uint32_t> level_head_;
  std::vector<uint32_t> level_count_;
  std::vector<std::vector<Bucket>> level_slots_;
  // Index of the highest non-empty level (the global oldest bucket is its
  // ring front); 0 when no buckets are held. Lets full-coverage queries
  // read the oldest bucket in O(1).
  size_t top_level_ = 0;
  size_t num_buckets_ = 0;
  uint64_t total_ = 0;     // sum of sizes of held buckets
  uint64_t lifetime_ = 0;  // all arrivals ever
  Timestamp last_ts_ = 0;
  // End timestamp of the most recently expired (or merged-away via expiry)
  // bucket; the reconstruction start of the oldest live bucket.
  Timestamp expired_end_ = 0;
};

}  // namespace ecm

#endif  // ECM_WINDOW_EXPONENTIAL_HISTOGRAM_H_
