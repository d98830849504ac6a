#include "src/window/exponential_histogram.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

namespace ecm {

ExponentialHistogram::ExponentialHistogram(const Config& config)
    : epsilon_(config.epsilon), window_len_(config.window_len) {
  assert(epsilon_ > 0.0 && epsilon_ <= 1.0);
  assert(window_len_ > 0);
  // k = ceil(1/eps). Keeping up to k+1 buckets per level (merging the two
  // oldest when a level reaches k+2) retains at least k buckets per level
  // below the top one, which yields invariant 1 of the paper for every
  // bucket of size >= 2:  C_j <= 2*eps*(1 + sum of more recent sizes).
  // Clamped before the float->int cast (tiny epsilons from hostile bytes
  // must not overflow into UB); the clamp also keeps ring arithmetic in
  // 32 bits.
  double k = std::ceil(1.0 / epsilon_);
  if (!(k >= 1.0)) k = 1.0;
  if (k > 1e9) k = 1e9;
  level_capacity_ = static_cast<size_t>(k) + 2;
}

void ExponentialHistogram::Grow(size_t level) {
  // Geometric segment growth, capped at the ring bound. The cascade never
  // holds more than level_capacity_ buckets in a level, so a full segment
  // at the cap is unreachable here.
  std::vector<Bucket>& slots = level_slots_[level];
  size_t new_cap =
      std::min(std::max<size_t>(2 * slots.size(), 8), level_capacity_ + 1);
  std::vector<Bucket> grown(new_cap);
  uint32_t old_cap = static_cast<uint32_t>(slots.size());
  for (uint32_t j = 0; j < level_count_[level]; ++j) {
    uint32_t idx = level_head_[level] + j;
    if (idx >= old_cap) idx -= old_cap;
    grown[j] = slots[idx];
  }
  slots = std::move(grown);
  level_head_[level] = 0;
}

void ExponentialHistogram::AppendBuckets(size_t level, const Timestamp* ends,
                                         size_t n, Timestamp ts,
                                         uint64_t ts_run) {
  const uint64_t add = n + ts_run;
  if (add == 0) return;
  while (level_count_[level] + add > level_slots_[level].size()) Grow(level);
  std::vector<Bucket>& slots = level_slots_[level];
  const uint32_t cap = static_cast<uint32_t>(slots.size());
  uint32_t idx = level_head_[level] + level_count_[level];
  if (idx >= cap) idx -= cap;
  for (size_t x = 0; x < n; ++x) {
    slots[idx].end = ends[x];
    if (++idx == cap) idx = 0;
  }
  for (uint64_t x = 0; x < ts_run; ++x) {
    slots[idx].end = ts;
    if (++idx == cap) idx = 0;
  }
  level_count_[level] += static_cast<uint32_t>(add);
  if (level > top_level_ || level_count_[top_level_] == 0) top_level_ = level;
}

void ExponentialHistogram::PopFrontN(size_t level, uint32_t n) {
  if (n == 0) return;
  const uint32_t cap = static_cast<uint32_t>(level_slots_[level].size());
  level_head_[level] += n;
  if (level_head_[level] >= cap) level_head_[level] -= cap;
  level_count_[level] -= n;
  if (level_count_[level] == 0 && level == top_level_) {
    while (top_level_ > 0 && level_count_[top_level_] == 0) --top_level_;
  }
}

void ExponentialHistogram::AddOne(Timestamp ts) {
  ++num_buckets_;
  EnsureLevel(0);
  PushBack(0, Bucket{ts});
  // Cascade merges: when a level fills up, its two oldest buckets coalesce
  // into one bucket of double size, which is the *newest* bucket of the
  // next level (bucket sizes are non-decreasing with age).
  for (size_t i = 0;
       i < NumLevels() && level_count_[i] >= level_capacity_; ++i) {
    PopFront(i);  // merged bucket keeps the newer end timestamp
    Bucket second = PopFront(i);
    EnsureLevel(i + 1);
    PushBack(i + 1, Bucket{second.end});
    --num_buckets_;
  }
}

void ExponentialHistogram::Cascade(const Timestamp* expl, size_t n_expl,
                                   Timestamp ts, uint64_t ts_run) {
  // Closed-form, level-by-level propagation of the unit-insert cascade.
  // A level's state depends only on its own buckets and the order of its
  // incoming ones, so levels can be settled one at a time. The incoming
  // buckets of the current level are `expl` — explicit end timestamps,
  // oldest first: the caller's run at level 0, above it the ends emitted
  // by merges one level below — followed by a run of `ts_run` buckets all
  // ending at `ts`. The final state is exactly what the same sequence of
  // AddOne calls would leave behind, at O(n_expl + log(ts_run) +
  // level_capacity_) bucket ops.
  //
  // Reused thread-local scratch keeps the path allocation-free after
  // warm-up (a histogram is not shared across threads anyway); levels
  // alternate between the two buffers.
  static thread_local std::vector<Timestamp> scratch[2];
  size_t next = 0;
  int64_t bucket_delta = 0;
  for (size_t i = 0; ts_run + n_expl > 0; ++i) {
    EnsureLevel(i);
    const uint64_t c = level_capacity_;
    const uint64_t m = level_count_[i];
    const uint64_t k = n_expl + ts_run;
    // Merges the unit cascade performs here: the first fires once the
    // level fills to c, then one more per two further appends.
    const uint64_t merges = (k >= c - m) ? 1 + (k - (c - m)) / 2 : 0;
    bucket_delta +=
        static_cast<int64_t>(k) - 2 * static_cast<int64_t>(merges);
    if (merges == 0) {
      AppendBuckets(i, expl, n_expl, ts, ts_run);
      break;
    }
    // Merge j (1-based) coalesces elements 2j-1 and 2j of the oldest-first
    // sequence [existing buckets, expl, ts-run] and emits a bucket ending
    // at element 2j into the next level: the first merges emit existing
    // ends, the next ones ends from `expl`, and once 2j lands in the
    // ts-run every remaining merge emits `ts`.
    const uint64_t from_existing = std::min(merges, m / 2);
    const uint64_t next_n_expl = std::min(merges, (m + n_expl) / 2);
    std::vector<Timestamp>& next_expl = scratch[next];
    if (next_expl.size() < next_n_expl) next_expl.resize(next_n_expl);
    Timestamp* out = next_expl.data();
    for (uint64_t j = 1; j <= from_existing; ++j) {
      *out++ = At(i, static_cast<uint32_t>(2 * j - 1)).end;
    }
    for (uint64_t j = from_existing + 1; j <= next_n_expl; ++j) {
      *out++ = expl[2 * j - m - 1];
    }
    // Consume the merged prefix: drop min(2*merges, m) existing buckets,
    // then skip the first (2*merges - m) incoming ones (which the unit
    // cascade would have appended and immediately merged away), and append
    // what survives.
    const uint64_t consumed_existing = std::min(2 * merges, m);
    PopFrontN(i, static_cast<uint32_t>(consumed_existing));
    const uint64_t dropped_in = 2 * merges - consumed_existing;
    const uint64_t dropped_expl = std::min<uint64_t>(dropped_in, n_expl);
    AppendBuckets(i, expl + dropped_expl, n_expl - dropped_expl, ts,
                  ts_run - (dropped_in - dropped_expl));
    expl = next_expl.data();
    n_expl = next_n_expl;
    next ^= 1;
    ts_run = merges - next_n_expl;
  }
  num_buckets_ =
      static_cast<size_t>(static_cast<int64_t>(num_buckets_) + bucket_delta);
}

void ExponentialHistogram::Add(Timestamp ts, uint64_t count) {
  assert(ts >= last_ts_ && "timestamps must be non-decreasing");
  last_ts_ = ts;
  lifetime_ += count;
  total_ += count;
  if (count == 1) {
    AddOne(ts);
  } else if (count > 1) {
    Cascade(nullptr, 0, ts, count);
  }
  Expire(ts);
}

void ExponentialHistogram::AddSortedUnits(const Timestamp* ts, size_t n) {
  assert(std::is_sorted(ts, ts + n));
  while (n > 0) {
    assert(ts[0] >= last_ts_ && "timestamps must be non-decreasing");
    // Every bucket end held or created during a run is >= `oldest`: new
    // buckets end at run timestamps (>= every held end) and a cascade
    // merge keeps the newer end. So while an arrival's window start stays
    // below `oldest`, its expiry drops nothing and can be skipped; the
    // run ends with the first arrival that might expire a bucket, and
    // that arrival's expiry runs once the run is in.
    const Timestamp oldest = Empty() ? ts[0] : At(top_level_, 0).end;
    const Timestamp* cut =
        std::partition_point(ts, ts + n - 1, [&](Timestamp t) {
          return WindowStart(t, window_len_) < oldest;
        });
    const size_t run = static_cast<size_t>(cut - ts) + 1;
    Cascade(ts, run, 0, 0);
    last_ts_ = ts[run - 1];
    lifetime_ += run;
    total_ += run;
    Expire(last_ts_);
    ts += run;
    n -= run;
  }
}

void ExponentialHistogram::Expire(Timestamp now) {
  Timestamp wstart = WindowStart(now, window_len_);
  // Oldest buckets live at the highest levels; within a level, at front.
  for (size_t i = NumLevels(); i-- > 0;) {
    bool dropped_here = false;
    while (level_count_[i] > 0 && At(i, 0).end <= wstart) {
      Bucket b = PopFront(i);
      if (b.end > expired_end_) expired_end_ = b.end;
      total_ -= (1ULL << i);
      --num_buckets_;
      dropped_here = true;
    }
    // If nothing expired at this level, nothing can expire below it either:
    // lower-level buckets are strictly newer.
    if (!dropped_here && level_count_[i] > 0) break;
  }
}

double ExponentialHistogram::Estimate(Timestamp now, uint64_t range) const {
  assert(now >= last_ts_);
  if (range > window_len_) range = window_len_;
  Timestamp boundary = WindowStart(now, range);
  if (num_buckets_ == 0) return 0.0;

  // Full-coverage fast path: the global oldest bucket (ring front of the
  // top non-empty level) is already in range, so every bucket is — the
  // running total answers in O(1), with the straddle half-correction
  // (paper §3) applied to that oldest bucket. This is the steady state
  // for full-window queries after Expire().
  const Timestamp oldest_end = At(top_level_, 0).end;
  if (boundary < oldest_end) {
    double sum = static_cast<double>(total_);
    bool fully_inside = boundary == 0 || expired_end_ > boundary ||
                        expired_end_ >= oldest_end;
    if (!fully_inside) {
      sum -= static_cast<double>(1ULL << top_level_) / 2.0;
    }
    return sum;
  }

  // Partial range: bucket age strictly decreases from the top level down
  // (level i+1 buckets are all older than level i buckets), so exactly
  // one level straddles the boundary — the highest one whose newest
  // bucket is in range. One binary search inside that level finds the
  // oldest in-range bucket; every lower level contributes its whole
  // weight off the directory without touching bucket storage. In-range
  // weight accumulates in integers, so the result is bit-identical to a
  // bucket-by-bucket sum over Buckets() for masses below 2^53.
  uint64_t weight = 0;
  double straddle = 0.0;
  for (size_t i = top_level_ + 1; i-- > 0;) {
    const uint32_t n = level_count_[i];
    if (n == 0 || At(i, n - 1).end <= boundary) continue;
    // First ring position whose bucket end exceeds the boundary.
    uint32_t lo = 0, hi = n;
    while (lo < hi) {
      uint32_t mid = lo + (hi - lo) / 2;
      if (At(i, mid).end <= boundary) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    weight += static_cast<uint64_t>(n - lo) << i;
    // The oldest in-range bucket contributes half its size if it
    // straddles the boundary and fully if its reconstructed start is
    // inside the range. Its start is the end of the next-older bucket:
    // the predecessor in this level, else the newest bucket of the next
    // non-empty level above, else the expiry watermark.
    Timestamp prev_end = expired_end_;
    if (lo > 0) {
      prev_end = At(i, lo - 1).end;
    } else {
      for (size_t j = i + 1; j < NumLevels(); ++j) {
        if (level_count_[j] > 0) {
          prev_end = At(j, level_count_[j] - 1).end;
          break;
        }
      }
    }
    bool fully_inside =
        boundary == 0 || prev_end > boundary || prev_end >= At(i, lo).end;
    if (!fully_inside) straddle = static_cast<double>(1ULL << i) / 2.0;
    // All remaining (newer) levels are entirely in range.
    while (i-- > 0) {
      weight += static_cast<uint64_t>(level_count_[i]) << i;
    }
    break;
  }
  return static_cast<double>(weight) - straddle;
}

Timestamp ExponentialHistogram::NextEstimateChangeAt(Timestamp now,
                                                     uint64_t range) const {
  assert(now >= last_ts_);
  if (range > window_len_) range = window_len_;
  if (num_buckets_ == 0) return 0;
  const Timestamp boundary = WindowStart(now, range);
  uint64_t candidate = std::numeric_limits<uint64_t>::max();
  // The straddle correction special-cases boundary == 0, so leaving zero
  // is itself a potential flip.
  if (boundary == 0) candidate = 1;
  if (expired_end_ > boundary) candidate = std::min(candidate, expired_end_);
  // Smallest bucket end past the boundary: bucket age strictly decreases
  // from the top level down, so it is the first in-range bucket of the
  // highest level that still has one.
  for (size_t i = top_level_ + 1; i-- > 0;) {
    const uint32_t n = level_count_[i];
    if (n == 0 || At(i, n - 1).end <= boundary) continue;
    uint32_t lo = 0, hi = n;
    while (lo < hi) {
      uint32_t mid = lo + (hi - lo) / 2;
      if (At(i, mid).end <= boundary) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    candidate = std::min<uint64_t>(candidate, At(i, lo).end);
    break;
  }
  if (candidate == std::numeric_limits<uint64_t>::max()) return 0;
  return candidate + range;
}

size_t ExponentialHistogram::AllocatedSlots() const {
  size_t slots = 0;
  for (const std::vector<Bucket>& s : level_slots_) slots += s.size();
  return slots;
}

size_t ExponentialHistogram::MemoryBytes() const {
  size_t bytes = sizeof(*this);
  bytes += AllocatedSlots() * sizeof(Bucket);
  bytes += level_head_.capacity() * sizeof(uint32_t);
  bytes += level_count_.capacity() * sizeof(uint32_t);
  bytes += level_slots_.capacity() * sizeof(std::vector<Bucket>);
  return bytes;
}

std::vector<BucketView> ExponentialHistogram::Buckets() const {
  std::vector<BucketView> out;
  out.reserve(num_buckets_);
  ForEachBucket([&out](const BucketView& b) { out.push_back(b); });
  return out;
}

int ExponentialHistogram::CheckInvariant() const {
  // Gather sizes oldest-first, then verify invariant 1 against the suffix
  // sums of more recent buckets. Buckets of size 1 are exempt (they carry
  // at most 1/2 absolute error, which the error analysis absorbs).
  std::vector<uint64_t> sizes;
  sizes.reserve(num_buckets_);
  for (size_t i = NumLevels(); i-- > 0;) {
    for (uint32_t j = 0; j < level_count_[i]; ++j) {
      sizes.push_back(1ULL << i);
    }
  }
  for (size_t j = 0; j < sizes.size(); ++j) {
    if (sizes[j] < 2) continue;
    uint64_t newer = 0;
    for (size_t i = j + 1; i < sizes.size(); ++i) newer += sizes[i];
    if (static_cast<double>(sizes[j]) >
        2.0 * epsilon_ * (1.0 + static_cast<double>(newer)) + 1e-9) {
      return static_cast<int>(j);
    }
  }
  return -1;
}


namespace {
constexpr uint8_t kEhMagic = 0xE1;
}  // namespace

void ExponentialHistogram::SerializeTo(ByteWriter* w) const {
  w->PutFixed<uint8_t>(kEhMagic);
  w->PutDouble(epsilon_);
  w->PutVarint(window_len_);
  w->PutVarint(expired_end_);
  w->PutVarint(lifetime_);
  w->PutVarint(last_ts_);
  w->PutVarint(NumLevels());
  for (size_t i = 0; i < NumLevels(); ++i) {
    w->PutVarint(level_count_[i]);
    Timestamp prev = 0;
    for (uint32_t j = 0; j < level_count_[i]; ++j) {
      w->PutVarint(At(i, j).end - prev);  // front-to-back end stamps ascend
      prev = At(i, j).end;
    }
  }
}

Result<ExponentialHistogram> ExponentialHistogram::Deserialize(
    ByteReader* r) {
  auto magic = r->GetFixed<uint8_t>();
  if (!magic.ok()) return magic.status();
  if (*magic != kEhMagic) {
    return Status::Corruption("bad exponential-histogram magic byte");
  }
  auto epsilon = r->GetDouble();
  if (!epsilon.ok()) return epsilon.status();
  auto window = r->GetVarint();
  if (!window.ok()) return window.status();
  if (!(*epsilon > 0.0) || *epsilon > 1.0 || *window == 0) {
    return Status::Corruption("exponential-histogram header out of domain");
  }
  ExponentialHistogram eh(Config{*epsilon, *window});

  auto expired_end = r->GetVarint();
  if (!expired_end.ok()) return expired_end.status();
  eh.expired_end_ = *expired_end;
  auto lifetime = r->GetVarint();
  if (!lifetime.ok()) return lifetime.status();
  eh.lifetime_ = *lifetime;
  auto last_ts = r->GetVarint();
  if (!last_ts.ok()) return last_ts.status();
  if (*last_ts < eh.expired_end_) {
    return Status::Corruption("exponential histogram expired past its clock");
  }
  eh.last_ts_ = *last_ts;

  auto num_levels = r->GetVarint();
  if (!num_levels.ok()) return num_levels.status();
  if (*num_levels > 64) {
    return Status::Corruption("exponential histogram claims > 64 levels");
  }
  // Segment growth allocates in proportion to buckets actually decoded
  // (each costs at least one payload byte), so a hostile tiny-epsilon
  // header cannot request a large allocation up front; the per-level
  // count bound below rejects over-capacity levels.
  //
  // Bucket ends must be non-decreasing oldest-first and lie in
  // [expired_end, last_ts]. Levels arrive newest first and ascend inside,
  // so each end must lie in [lo, ceiling]: lo is the level's previous end
  // (expired_end for its first), ceiling the oldest end of the nearest
  // newer non-empty level (last_ts for level 0). One unsigned compare
  // tests both sides and also catches a delta that wraps the sum.
  if (*num_levels > 0) eh.EnsureLevel(*num_levels - 1);
  Timestamp ceiling = eh.last_ts_;
  for (size_t i = 0; i < *num_levels; ++i) {
    auto count = r->GetVarint();
    if (!count.ok()) return count.status();
    if (*count >= eh.level_capacity_) {
      return Status::Corruption("exponential histogram level over capacity");
    }
    Timestamp prev = 0;
    Timestamp lo = eh.expired_end_;
    for (uint64_t j = 0; j < *count; ++j) {
      auto delta = r->GetVarint();
      if (!delta.ok()) return delta.status();
      prev += *delta;
      if (prev - lo > ceiling - lo) {
        return Status::Corruption("exponential histogram bucket out of order");
      }
      lo = prev;
      eh.PushBack(i, Bucket{prev});
      ++eh.num_buckets_;
      eh.total_ += 1ULL << i;
    }
    if (*count > 0) ceiling = eh.At(i, 0).end;
  }
  return eh;
}

}  // namespace ecm
