#include "src/engine/keyed_store.h"

#include <algorithm>
#include <cassert>
#include <cstring>

#include "src/util/hash.h"

namespace ecm {

// ---------------------------------------------------------------------------
// KeyTable
// ---------------------------------------------------------------------------

KeyTable::KeyTable(KeyResolver resolver, const void* resolver_ctx,
                   size_t initial_capacity)
    : resolver_(resolver), resolver_ctx_(resolver_ctx) {
  size_t cap = 64;
  while (cap < initial_capacity) cap <<= 1;
  slots_.assign(cap, PackSlot(0, kNotFound));
  mask_ = cap - 1;
}

uint32_t KeyTable::FindIn(const std::vector<uint64_t>& slots, uint64_t mask,
                          uint32_t tag, uint64_t key) const {
  size_t slot = tag & mask;
  size_t dist = 0;
  for (;;) {
    const uint64_t s = slots[slot];
    if (SlotVal(s) == kNotFound) return kNotFound;
    // Tags can collide across distinct keys, so a tag hit is only a
    // candidate; the full key check goes through the resolver. A
    // mismatch keeps probing — the true entry may sit further along.
    if (SlotTag(s) == tag && resolver_(resolver_ctx_, SlotVal(s)) == key) {
      return SlotVal(s);
    }
    // Robin-hood bound: entries are ordered by probe distance, so once a
    // resident entry sits closer to home than our probe has walked, the
    // key cannot be further along.
    if (ProbeDistance(SlotTag(s), slot, mask) < dist) return kNotFound;
    slot = (slot + 1) & mask;
    ++dist;
  }
}

uint32_t KeyTable::Find(uint64_t key) const {
  const uint32_t tag = static_cast<uint32_t>(Mix64(key));
  uint32_t v = FindIn(slots_, mask_, tag, key);
  if (v != kNotFound || old_slots_.empty()) return v;
  return FindIn(old_slots_, old_mask_, tag, key);
}

void KeyTable::InsertInto(std::vector<uint64_t>& slots, uint64_t mask,
                          uint32_t tag, uint32_t value) {
  size_t slot = tag & mask;
  size_t dist = 0;
  uint64_t cur = PackSlot(tag, value);
  for (;;) {
    if (SlotVal(slots[slot]) == kNotFound) {
      slots[slot] = cur;
      return;
    }
    const size_t rdist = ProbeDistance(SlotTag(slots[slot]), slot, mask);
    if (rdist < dist) {
      std::swap(cur, slots[slot]);
      dist = rdist;
    }
    slot = (slot + 1) & mask;
    ++dist;
  }
}

bool KeyTable::EraseFrom(std::vector<uint64_t>& slots, uint64_t mask,
                         uint32_t tag, uint64_t key) {
  size_t slot = tag & mask;
  size_t dist = 0;
  for (;;) {
    const uint64_t s = slots[slot];
    if (SlotVal(s) == kNotFound) return false;
    if (SlotTag(s) == tag && resolver_(resolver_ctx_, SlotVal(s)) == key) {
      break;
    }
    if (ProbeDistance(SlotTag(s), slot, mask) < dist) return false;
    slot = (slot + 1) & mask;
    ++dist;
  }
  // Backward-shift deletion: pull the following displaced run one slot
  // back; no tombstones, so probe sequences stay short forever.
  for (;;) {
    const size_t nxt = (slot + 1) & mask;
    if (SlotVal(slots[nxt]) == kNotFound ||
        ProbeDistance(SlotTag(slots[nxt]), nxt, mask) == 0) {
      slots[slot] = PackSlot(0, kNotFound);
      return true;
    }
    slots[slot] = slots[nxt];
    slot = nxt;
  }
}

void KeyTable::MaybeStartRehash() {
  const size_t primary_live = size_ - old_live_;
  if (RehashInProgress()) {
    // The drain normally outpaces inserts 16:1; if a pathological burst
    // still fills the primary, finish the migration rather than overfill.
    if (primary_live * 10 >= slots_.size() * 8) {
      while (RehashInProgress()) DrainStep();
    }
    return;
  }
  if (primary_live * 10 < slots_.size() * 7) return;
  old_slots_ = std::move(slots_);
  old_mask_ = mask_;
  old_live_ = primary_live;
  drain_pos_ = 0;
  const size_t cap = (old_mask_ + 1) * 2;
  slots_.assign(cap, PackSlot(0, kNotFound));
  mask_ = cap - 1;
}

void KeyTable::DrainStep() {
  if (!RehashInProgress()) return;
  uint32_t moved = 0;
  uint32_t scanned = 0;
  while (old_live_ > 0 && moved < kRehashStep && scanned < 4 * kRehashStep) {
    const uint64_t s = old_slots_[drain_pos_];
    if (SlotVal(s) != kNotFound) {
      InsertInto(slots_, mask_, SlotTag(s), SlotVal(s));
      old_slots_[drain_pos_] = PackSlot(0, kNotFound);
      --old_live_;
      ++moved;
      ++rehash_steps_;
    }
    ++drain_pos_;
    ++scanned;
  }
  if (old_live_ == 0) {
    old_slots_ = std::vector<uint64_t>();
    old_mask_ = 0;
    drain_pos_ = 0;
  }
}

void KeyTable::Insert(uint64_t key, uint32_t value) {
  assert(value != kNotFound);
  MaybeStartRehash();
  DrainStep();
  InsertInto(slots_, mask_, static_cast<uint32_t>(Mix64(key)), value);
  ++size_;
}

bool KeyTable::Erase(uint64_t key) {
  DrainStep();
  const uint32_t tag = static_cast<uint32_t>(Mix64(key));
  if (EraseFrom(slots_, mask_, tag, key)) {
    --size_;
    return true;
  }
  if (!old_slots_.empty() && EraseFrom(old_slots_, old_mask_, tag, key)) {
    --size_;
    --old_live_;
    return true;
  }
  return false;
}

size_t KeyTable::MemoryBytes() const {
  return sizeof(*this) + slots_.capacity() * sizeof(uint64_t) +
         old_slots_.capacity() * sizeof(uint64_t);
}

// ---------------------------------------------------------------------------
// ExpiryWheel
// ---------------------------------------------------------------------------

namespace {

inline bool TestBit(const uint64_t* words, uint32_t bit) {
  return (words[bit >> 6] >> (bit & 63)) & 1;
}
inline void SetBit(uint64_t* words, uint32_t bit) {
  words[bit >> 6] |= 1ULL << (bit & 63);
}
inline void ClearBit(uint64_t* words, uint32_t bit) {
  words[bit >> 6] &= ~(1ULL << (bit & 63));
}

/// First set bit with index strictly greater than `pos`, or -1.
inline int FirstSetAbove(const uint64_t* words, uint32_t pos) {
  if (pos >= 255) return -1;
  uint32_t w = (pos + 1) >> 6;
  const uint32_t off = (pos + 1) & 63;
  uint64_t cur = words[w] >> off;
  if (cur) {
    return static_cast<int>((w << 6) + off +
                            static_cast<uint32_t>(__builtin_ctzll(cur)));
  }
  for (++w; w < 4; ++w) {
    if (words[w]) {
      return static_cast<int>((w << 6) +
                              static_cast<uint32_t>(__builtin_ctzll(words[w])));
    }
  }
  return -1;
}

}  // namespace

ExpiryWheel::ExpiryWheel(Timestamp start) : now_(start) {
  for (int l = 0; l < kLevels; ++l) {
    for (uint32_t s = 0; s < kSlots; ++s) heads_[l][s] = kNil;
  }
  std::memset(bitmap_, 0, sizeof(bitmap_));
}

void ExpiryWheel::EnsureItems(size_t n) {
  if (next_.size() >= n) return;
  next_.resize(n, kNil);
  prev_.resize(n, kNil);
  deadline_.resize(n, 0);
}

void ExpiryWheel::Reserve(size_t n) {
  next_.reserve(n);
  prev_.reserve(n);
  deadline_.reserve(n);
}

int ExpiryWheel::LevelFor(Timestamp deadline) const {
  const uint64_t x = deadline ^ now_;
  assert(x != 0);
  return (63 - __builtin_clzll(x)) >> 3;
}

void ExpiryWheel::Place(uint32_t item, Timestamp deadline) {
  const int l = LevelFor(deadline);
  const uint32_t s =
      static_cast<uint32_t>(deadline >> (kSlotBits * l)) & (kSlots - 1);
  deadline_[item] = deadline;
  prev_[item] = kNil;
  next_[item] = heads_[l][s];
  if (heads_[l][s] != kNil) prev_[heads_[l][s]] = item;
  heads_[l][s] = item;
  SetBit(bitmap_[l], s);
  // Safe lower bound: the slot's window starts at deadline with its low
  // level-granularity bits cleared. Using the bound (not the deadline)
  // keeps cascade boundaries from being jumped over by the fast path.
  const Timestamp bound =
      deadline & ~((1ULL << (kSlotBits * l)) - 1);
  if (bound < cached_next_) cached_next_ = bound;
}

void ExpiryWheel::Unlink(uint32_t item) {
  // A linked item sits exactly where Place last put it (see the header
  // note on deadline_), so its level and slot are recomputed, not stored.
  const int l = LevelFor(deadline_[item]);
  const uint32_t s =
      static_cast<uint32_t>(deadline_[item] >> (kSlotBits * l)) & (kSlots - 1);
  if (prev_[item] != kNil) {
    next_[prev_[item]] = next_[item];
  } else {
    heads_[l][s] = next_[item];
  }
  if (next_[item] != kNil) prev_[next_[item]] = prev_[item];
  if (heads_[l][s] == kNil) ClearBit(bitmap_[l], s);
  deadline_[item] = 0;
  next_[item] = prev_[item] = kNil;
}

void ExpiryWheel::Schedule(uint32_t item, Timestamp deadline) {
  assert(item < deadline_.size() && "EnsureItems not called for this id");
  if (deadline_[item] != 0) {
    Unlink(item);
    --scheduled_;
  }
  if (deadline <= now_) deadline = now_ + 1;
  Place(item, deadline);
  ++scheduled_;
}

void ExpiryWheel::Cancel(uint32_t item) {
  if (!IsScheduled(item)) return;
  Unlink(item);
  --scheduled_;
  // cached_next_ may now be early; that only costs one spurious scan.
}

Timestamp ExpiryWheel::NextEventBound() const {
  Timestamp best = kNoEvent;
  for (int l = 0; l < kLevels; ++l) {
    const uint32_t pos =
        static_cast<uint32_t>(now_ >> (kSlotBits * l)) & (kSlots - 1);
    const int s = FirstSetAbove(bitmap_[l], pos);
    if (s < 0) continue;
    Timestamp bound;
    if (l == kLevels - 1) {
      bound = static_cast<Timestamp>(s) << (kSlotBits * (kLevels - 1));
    } else {
      const int shift = kSlotBits * (l + 1);
      bound = ((now_ >> shift) << shift) |
              (static_cast<Timestamp>(s) << (kSlotBits * l));
    }
    if (bound < best) best = bound;
  }
  return best;
}

void ExpiryWheel::ProcessCurrent(const std::function<void(uint32_t)>& fire) {
  // Cascade top-down so long-range items settle into lower levels before
  // the level-0 slot for this tick drains. A slot at the clock position
  // is only ever occupied when the clock sits exactly at its lower bound
  // (placement always targets strictly-future slots).
  for (int l = kLevels - 1; l >= 1; --l) {
    const uint32_t pos =
        static_cast<uint32_t>(now_ >> (kSlotBits * l)) & (kSlots - 1);
    if (!TestBit(bitmap_[l], pos)) continue;
    uint32_t item = heads_[l][pos];
    heads_[l][pos] = kNil;
    ClearBit(bitmap_[l], pos);
    while (item != kNil) {
      const uint32_t nx = next_[item];
      next_[item] = prev_[item] = kNil;
      if (deadline_[item] <= now_) {
        deadline_[item] = 0;
        --scheduled_;
        fire(item);
      } else {
        Place(item, deadline_[item]);  // lands at a lower level
      }
      item = nx;
    }
  }
  const uint32_t pos0 = static_cast<uint32_t>(now_) & (kSlots - 1);
  if (TestBit(bitmap_[0], pos0)) {
    uint32_t item = heads_[0][pos0];
    heads_[0][pos0] = kNil;
    ClearBit(bitmap_[0], pos0);
    while (item != kNil) {
      const uint32_t nx = next_[item];
      next_[item] = prev_[item] = kNil;
      deadline_[item] = 0;
      --scheduled_;
      fire(item);  // level-0 slots are tick-exact: deadline == now_
      item = nx;
    }
  }
}

void ExpiryWheel::Advance(Timestamp now,
                          const std::function<void(uint32_t)>& fire) {
  if (now <= now_) return;
  if (scheduled_ == 0 || now < cached_next_) {
    now_ = now;
    return;
  }
  for (;;) {
    const Timestamp t = NextEventBound();
    if (t == kNoEvent) {
      cached_next_ = kNoEvent;
      break;
    }
    if (t > now) {
      cached_next_ = t;
      break;
    }
    now_ = t;
    ProcessCurrent(fire);
  }
  if (now_ < now) now_ = now;
}

size_t ExpiryWheel::MemoryBytes() const {
  return sizeof(*this) +
         next_.capacity() * sizeof(uint32_t) +
         prev_.capacity() * sizeof(uint32_t) +
         deadline_.capacity() * sizeof(Timestamp);
}

// ---------------------------------------------------------------------------
// KeyedCounterStore
// ---------------------------------------------------------------------------

uint64_t KeyedCounterStore::RecordKeyOf(const void* ctx, uint32_t val) {
  return (*static_cast<const std::vector<KeyRecord>*>(ctx))[val].key;
}

KeyedCounterStore::KeyedCounterStore(const KeyedStoreConfig& config,
                                     const Sketch* sketch)
    : config_(config),
      sketch_(sketch),
      pool_(config.epsilon, config.window_len),
      table_(&RecordKeyOf, &records_,
             config.max_keys > 0 ? config.max_keys * 10 / 7 + 1 : 1024) {
  fire_fn_ = [this](uint32_t idx) { FireRecord(idx); };
  if (config_.max_keys > 0) {
    // A declared hot-set budget is a memory contract: reserve the
    // per-key arrays up front so steady state carries no doubling slack.
    records_.reserve(config_.max_keys);
    wheel_.Reserve(config_.max_keys);
  }
}

void KeyedCounterStore::Advance(Timestamp now) {
  wheel_.Advance(now, fire_fn_);
}

uint32_t KeyedCounterStore::AdmitKey(uint64_t key) {
  uint32_t idx;
  if (!free_records_.empty()) {
    idx = free_records_.back();
    free_records_.pop_back();
    records_[idx] = KeyRecord{};
  } else {
    idx = static_cast<uint32_t>(records_.size());
    records_.emplace_back();
    wheel_.EnsureItems(records_.size());
  }
  KeyRecord& rec = records_[idx];
  rec.key = key;
  table_.Insert(key, idx);
  ++stats_.admissions;
  if (table_.size() > stats_.peak_live_keys) {
    stats_.peak_live_keys = table_.size();
  }
  if (on_admit) on_admit(key, wheel_.now());
  return idx;
}

void KeyedCounterStore::AddToRecord(uint32_t idx, Timestamp ts,
                                    uint64_t weight) {
  KeyRecord& rec = records_[idx];
  pool_.Add(&rec.sum, ts, weight);
  ++stats_.exact_events;
  if (on_exact_add) on_exact_add(rec.key, ts, weight);
}

void KeyedCounterStore::ScheduleOrEvict(uint32_t idx, Timestamp now) {
  const Timestamp d =
      pool_.NextEstimateChangeAt(records_[idx].sum, now, config_.window_len);
  if (d == 0) {
    // Nothing this key holds can ever affect an estimate again.
    EvictRecord(idx, now);
    return;
  }
  wheel_.Schedule(idx, d);
}

void KeyedCounterStore::EvictRecord(uint32_t idx, Timestamp now) {
  KeyRecord& rec = records_[idx];
  if (on_evict) on_evict(rec.key, now);
  wheel_.Cancel(idx);
  pool_.Release(&rec.sum);
  table_.Erase(rec.key);
  free_records_.push_back(idx);
  ++stats_.evictions;
}

void KeyedCounterStore::FireRecord(uint32_t idx) {
  KeyRecord& rec = records_[idx];
  const Timestamp now = wheel_.now();
  ++stats_.wheel_keys_touched;
  pool_.Expire(&rec.sum, now);
  bool evict = rec.sum.count == 0;
  if (!evict && config_.evict_threshold > 0 &&
      static_cast<double>(rec.sum.total) < config_.evict_threshold) {
    evict = true;
  }
  if (evict) {
    EvictRecord(idx, now);
    return;
  }
  if (on_expire) on_expire(rec.key, now);
  ScheduleOrEvict(idx, now);
}

void KeyedCounterStore::Add(uint64_t key, Timestamp ts, uint64_t weight) {
  Advance(ts);
  ++stats_.events_total;
  uint32_t idx = table_.Find(key);
  if (idx == KeyTable::kNotFound) {
    if (sketch_ && config_.admit_threshold > 0 &&
        sketch_->PointQueryAt(key, config_.window_len, ts) <
            config_.admit_threshold) {
      ++stats_.rejected_events;
      return;
    }
    if (config_.max_keys > 0 && table_.size() >= config_.max_keys) {
      ++stats_.capacity_refusals;
      ++stats_.rejected_events;
      return;
    }
    idx = AdmitKey(key);
    AddToRecord(idx, ts, weight);
    ScheduleOrEvict(idx, ts);
    return;
  }
  AddToRecord(idx, ts, weight);
}

void KeyedCounterStore::AddBatch(const StreamEvent* events, size_t n) {
  pending_.clear();
  for (size_t i = 0; i < n; ++i) {
    const StreamEvent& ev = events[i];
    Advance(ev.ts);
    ++stats_.events_total;
    const uint32_t idx = table_.Find(ev.key);
    if (idx != KeyTable::kNotFound) {
      AddToRecord(idx, ev.ts, 1);
    } else {
      pending_.push_back(PendingEvent{ev.key, ev.ts});
    }
  }
  if (pending_.empty()) return;
  const Timestamp now = wheel_.now();

  // Distinct candidates, ascending: the order is the documented admission
  // policy when max_keys rations the last slots, and it feeds the sketch
  // one batched flag query.
  candidates_.clear();
  for (const PendingEvent& p : pending_) candidates_.push_back(p.key);
  std::sort(candidates_.begin(), candidates_.end());
  candidates_.erase(std::unique(candidates_.begin(), candidates_.end()),
                    candidates_.end());
  heavy_flags_.assign(candidates_.size(), 1);
  if (sketch_ && config_.admit_threshold > 0) {
    sketch_->FlagHeavyKeysAt(candidates_.data(), candidates_.size(),
                             config_.window_len, now, config_.admit_threshold,
                             heavy_flags_.data());
  }
  for (size_t c = 0; c < candidates_.size(); ++c) {
    if (!heavy_flags_[c]) continue;
    if (config_.max_keys > 0 && table_.size() >= config_.max_keys) {
      ++stats_.capacity_refusals;
      heavy_flags_[c] = 0;
      continue;
    }
    AdmitKey(candidates_[c]);
  }
  // Replay buffered events in arrival order: an admitted key's counters
  // are exact from its first in-batch appearance.
  for (const PendingEvent& p : pending_) {
    const uint32_t idx = table_.Find(p.key);
    if (idx == KeyTable::kNotFound) {
      ++stats_.rejected_events;
      continue;
    }
    AddToRecord(idx, p.ts, 1);
  }
  for (size_t c = 0; c < candidates_.size(); ++c) {
    if (!heavy_flags_[c]) continue;
    const uint32_t idx = table_.Find(candidates_[c]);
    if (idx != KeyTable::kNotFound) ScheduleOrEvict(idx, now);
  }
  pending_.clear();
}

bool KeyedCounterStore::TryPointQuery(uint64_t key, Timestamp now,
                                      uint64_t range, double* out) const {
  const uint32_t idx = table_.Find(key);
  if (idx == KeyTable::kNotFound) return false;
  *out = pool_.Estimate(records_[idx].sum, now, range);
  return true;
}

size_t KeyedCounterStore::MemoryBytes() const {
  return sizeof(*this) + pool_.MemoryBytes() + table_.MemoryBytes() +
         wheel_.MemoryBytes() +
         records_.capacity() * sizeof(KeyRecord) +
         free_records_.capacity() * sizeof(uint32_t) +
         pending_.capacity() * sizeof(PendingEvent) +
         candidates_.capacity() * sizeof(uint64_t) +
         heavy_flags_.capacity();
}

}  // namespace ecm
