#include "src/window/deterministic_wave.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "src/util/bits.h"

namespace ecm {

DeterministicWave::DeterministicWave(const Config& config)
    : epsilon_(config.epsilon), window_len_(config.window_len) {
  assert(epsilon_ > 0.0 && epsilon_ <= 1.0);
  assert(window_len_ > 0);
  // Clamped before the float->int cast (tiny epsilons from hostile bytes
  // must not overflow into UB).
  double capacity = std::ceil(1.0 / epsilon_);
  if (!(capacity >= 1.0)) capacity = 1.0;
  if (capacity > 1e9) capacity = 1e9;
  level_capacity_ = static_cast<size_t>(capacity) + 2;
  // Provision levels so the top level spans a full window of max_arrivals:
  // c * 2^(L-1) >= u  =>  L = ceil(log2(u / c)) + 1.
  uint64_t u = std::max<uint64_t>(config.max_arrivals, 1);
  uint64_t per_level = static_cast<uint64_t>(level_capacity_);
  int num_levels = 1;
  if (u > per_level) {
    num_levels = CeilLog2((u + per_level - 1) / per_level) + 1;
  }
  levels_.resize(num_levels);
  anchors_.assign(num_levels, Entry{0, 0});
}

void DeterministicWave::AddOne(Timestamp ts) {
  uint64_t rank = ++lifetime_;
  int top = std::min<int>(TrailingZeros(rank), num_levels() - 1);
  for (int j = 0; j <= top; ++j) {
    levels_[j].push_back(Entry{rank, ts});
    if (levels_[j].size() > level_capacity_) {
      anchors_[j] = levels_[j].front();
      levels_[j].pop_front();
    }
  }
}

void DeterministicWave::AddBatch(Timestamp ts, uint64_t count) {
  // All `count` arrivals share one timestamp, so each level's update has a
  // closed form: level j records the ranks divisible by 2^j inside
  // (lifetime, lifetime + count], and only the most recent
  // `level_capacity_` of them survive — the rest would be pushed and
  // popped straight through, leaving only an anchor update. The final
  // state is exactly what `count` AddOne calls would produce, at
  // O(levels + level_capacity_) cost instead of O(count · levels).
  const uint64_t lt = lifetime_;
  for (size_t j = 0; j < levels_.size(); ++j) {
    const uint64_t step = 1ULL << j;
    const uint64_t new_entries = ((lt + count) >> j) - (lt >> j);
    if (new_entries == 0) break;  // higher levels are sparser still
    auto& level = levels_[j];
    const uint64_t sz = level.size();
    const uint64_t keep = std::min(sz + new_entries, level_capacity_);
    const uint64_t new_kept = std::min(new_entries, keep);
    const uint64_t old_kept = keep - new_kept;
    const uint64_t pops = sz + new_entries - keep;
    if (pops > 0) {
      if (pops <= sz) {
        // Last evicted entry is a pre-existing one.
        anchors_[j] = level[pops - 1];
      } else {
        // Evictions ran into the new run: the last skipped new rank.
        const uint64_t first_rank = ((lt >> j) + 1) << j;
        anchors_[j] = Entry{first_rank + (pops - sz - 1) * step, ts};
      }
      for (uint64_t p = 0; p < sz - old_kept; ++p) level.pop_front();
    }
    const uint64_t last_rank = ((lt + count) >> j) << j;
    for (uint64_t p = new_kept; p-- > 0;) {
      level.push_back(Entry{last_rank - p * step, ts});
    }
  }
  lifetime_ += count;
}

void DeterministicWave::Add(Timestamp ts, uint64_t count) {
  assert(ts >= last_ts_ && "timestamps must be non-decreasing");
  last_ts_ = ts;
  if (count == 1) {
    AddOne(ts);
  } else if (count > 1) {
    AddBatch(ts, count);
  }
  Expire(ts);
}

void DeterministicWave::Expire(Timestamp now) {
  Timestamp wstart = WindowStart(now, window_len_);
  for (size_t j = 0; j < levels_.size(); ++j) {
    auto& level = levels_[j];
    // Keep one entry at or before the window start as the search anchor;
    // strictly older ones can never be the boundary predecessor.
    while (level.size() > 1 && level[1].ts <= wstart) {
      anchors_[j] = level.front();
      level.pop_front();
    }
  }
}

double DeterministicWave::Estimate(Timestamp now, uint64_t range) const {
  assert(now >= last_ts_);
  if (range > window_len_) range = window_len_;
  Timestamp boundary = WindowStart(now, range);
  if (lifetime_ == 0) return 0.0;

  // Finest level that covers the boundary: its anchor (left edge of the
  // recorded history) must lie at or before the boundary.
  for (size_t j = 0; j < levels_.size(); ++j) {
    const auto& level = levels_[j];
    const Entry& anchor = anchors_[j];
    bool covers = anchor.ts <= boundary;
    if (!covers) continue;

    // Last recorded (rank, ts) with ts <= boundary; the anchor qualifies.
    auto it = std::partition_point(
        level.begin(), level.end(),
        [boundary](const Entry& e) { return e.ts <= boundary; });
    uint64_t q = (it == level.begin()) ? anchor.rank : std::prev(it)->rank;

    uint64_t gap = 1ULL << j;
    double hi = static_cast<double>(lifetime_ - q);
    double lo;
    if (q + gap <= lifetime_) {
      // The successor rank q+2^j exists and has ts > boundary, so at least
      // lifetime - (q + 2^j) + 1 arrivals are inside the range.
      lo = std::max<double>(0.0, static_cast<double>(lifetime_) -
                                     static_cast<double>(q + gap) + 1.0);
    } else {
      lo = 0.0;
    }
    return (hi + lo) / 2.0;
  }

  // No level covers the boundary: every recorded point is newer than the
  // boundary, which can only happen right after heavy eviction. Fall back
  // to the coarsest level's anchor as the best available left edge.
  const Entry& anchor = anchors_.back();
  return static_cast<double>(lifetime_ - anchor.rank);
}

size_t DeterministicWave::MemoryBytes() const {
  size_t bytes = sizeof(*this);
  bytes += levels_.size() * (sizeof(std::deque<Entry>) + sizeof(Entry));
  for (const auto& level : levels_) bytes += level.size() * sizeof(Entry);
  return bytes;
}

std::vector<BucketView> DeterministicWave::Buckets() const {
  // Union of all recorded (rank, ts) points, deduplicated by rank; each
  // adjacent pair becomes one bucket.
  std::vector<Entry> points;
  for (size_t j = 0; j < levels_.size(); ++j) {
    if (anchors_[j].rank > 0) points.push_back(anchors_[j]);
    for (const Entry& e : levels_[j]) points.push_back(e);
  }
  std::sort(points.begin(), points.end(),
            [](const Entry& a, const Entry& b) { return a.rank < b.rank; });
  points.erase(std::unique(points.begin(), points.end(),
                           [](const Entry& a, const Entry& b) {
                             return a.rank == b.rank;
                           }),
               points.end());

  std::vector<BucketView> out;
  if (points.empty()) {
    if (lifetime_ > 0) {
      out.push_back(BucketView{0, last_ts_, lifetime_});
    }
    return out;
  }
  uint64_t prev_rank = points.front().rank;
  Timestamp prev_ts = points.front().ts;
  // History before the oldest recorded point was expired; note it is not
  // reconstructed (same information loss as expired EH buckets).
  for (size_t i = 1; i < points.size(); ++i) {
    out.push_back(
        BucketView{prev_ts, points[i].ts, points[i].rank - prev_rank});
    prev_rank = points[i].rank;
    prev_ts = points[i].ts;
  }
  if (lifetime_ > prev_rank) {
    out.push_back(BucketView{prev_ts, last_ts_, lifetime_ - prev_rank});
  }
  return out;
}

namespace {
constexpr uint8_t kDwMagic = 0xD3;
}  // namespace

void DeterministicWave::SerializeTo(ByteWriter* w) const {
  w->PutFixed<uint8_t>(kDwMagic);
  w->PutDouble(epsilon_);
  w->PutVarint(window_len_);
  w->PutVarint(level_capacity_);
  w->PutVarint(levels_.size());
  w->PutVarint(lifetime_);
  w->PutVarint(last_ts_);
  for (size_t j = 0; j < levels_.size(); ++j) {
    w->PutVarint(anchors_[j].rank);
    w->PutVarint(anchors_[j].ts);
    w->PutVarint(levels_[j].size());
    uint64_t prev_rank = 0;
    Timestamp prev_ts = 0;
    for (const Entry& e : levels_[j]) {
      w->PutVarint(e.rank - prev_rank);
      w->PutVarint(e.ts - prev_ts);
      prev_rank = e.rank;
      prev_ts = e.ts;
    }
  }
}

Result<DeterministicWave> DeterministicWave::Deserialize(ByteReader* r) {
  auto magic = r->GetFixed<uint8_t>();
  if (!magic.ok()) return magic.status();
  if (*magic != kDwMagic) {
    return Status::Corruption("bad deterministic-wave magic byte");
  }
  auto epsilon = r->GetDouble();
  if (!epsilon.ok()) return epsilon.status();
  auto window = r->GetVarint();
  if (!window.ok()) return window.status();
  auto capacity = r->GetVarint();
  if (!capacity.ok()) return capacity.status();
  auto num_levels = r->GetVarint();
  if (!num_levels.ok()) return num_levels.status();
  if (!(*epsilon > 0.0) || *epsilon > 1.0 || *window == 0 ||
      *capacity == 0 || *num_levels == 0 || *num_levels > 64) {
    return Status::Corruption("deterministic-wave header out of domain");
  }

  DeterministicWave dw(Config{*epsilon, *window, 1});
  dw.level_capacity_ = *capacity;
  dw.levels_.assign(*num_levels, {});
  dw.anchors_.assign(*num_levels, Entry{0, 0});

  auto lifetime = r->GetVarint();
  if (!lifetime.ok()) return lifetime.status();
  dw.lifetime_ = *lifetime;
  auto last_ts = r->GetVarint();
  if (!last_ts.ok()) return last_ts.status();
  dw.last_ts_ = *last_ts;

  // Every recorded point, anchors included, must have rank <= lifetime
  // and ts <= last_ts, and timestamps must not fall as ranks rise across
  // the levels: Buckets() turns the points into an oldest-first log that
  // the §5.1 merge replays as one sorted run. Each entry's deltas are
  // checked against the remaining headroom (one unsigned compare each,
  // which also catches a wrapping sum); the cross-level order once all
  // points are in.
  std::vector<Entry> points;
  for (size_t j = 0; j < *num_levels; ++j) {
    auto anchor_rank = r->GetVarint();
    if (!anchor_rank.ok()) return anchor_rank.status();
    auto anchor_ts = r->GetVarint();
    if (!anchor_ts.ok()) return anchor_ts.status();
    if (*anchor_rank > dw.lifetime_ || *anchor_ts > dw.last_ts_) {
      return Status::Corruption("deterministic-wave anchor out of range");
    }
    dw.anchors_[j] = Entry{*anchor_rank, *anchor_ts};
    points.push_back(dw.anchors_[j]);
    auto count = r->GetVarint();
    if (!count.ok()) return count.status();
    uint64_t prev_rank = 0;
    Timestamp prev_ts = 0;
    for (uint64_t i = 0; i < *count; ++i) {
      auto drank = r->GetVarint();
      if (!drank.ok()) return drank.status();
      auto dts = r->GetVarint();
      if (!dts.ok()) return dts.status();
      if (*drank > dw.lifetime_ - prev_rank || *dts > dw.last_ts_ - prev_ts) {
        return Status::Corruption("deterministic-wave entry out of range");
      }
      prev_rank += *drank;
      prev_ts += *dts;
      dw.levels_[j].push_back(Entry{prev_rank, prev_ts});
      points.push_back(dw.levels_[j].back());
    }
  }
  std::sort(points.begin(), points.end(), [](const Entry& a, const Entry& b) {
    return a.rank != b.rank ? a.rank < b.rank : a.ts < b.ts;
  });
  for (size_t i = 1; i < points.size(); ++i) {
    if (points[i].ts < points[i - 1].ts) {
      return Status::Corruption(
          "deterministic-wave timestamps fall as ranks rise");
    }
  }
  return dw;
}

}  // namespace ecm
