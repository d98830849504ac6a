#include "src/window/exact_window.h"

#include <algorithm>
#include <cassert>

namespace ecm {

void ExactWindow::Add(Timestamp ts, uint64_t count) {
  assert(ts >= last_ts_ && "timestamps must be non-decreasing");
  last_ts_ = ts;
  lifetime_ += count;
  if (!runs_.empty() && runs_.back().ts == ts) {
    runs_.back().count += count;
  } else {
    runs_.push_back(Run{ts, count});
  }
  Expire(ts);
}

void ExactWindow::Expire(Timestamp now) {
  Timestamp wstart = WindowStart(now, window_len_);
  while (!runs_.empty() && runs_.front().ts <= wstart) runs_.pop_front();
}

double ExactWindow::Estimate(Timestamp now, uint64_t range) const {
  assert(now >= last_ts_);
  if (range > window_len_) range = window_len_;
  Timestamp boundary = WindowStart(now, range);
  auto it = std::partition_point(
      runs_.begin(), runs_.end(),
      [boundary](const Run& r) { return r.ts <= boundary; });
  uint64_t sum = 0;
  for (; it != runs_.end(); ++it) sum += it->count;
  return static_cast<double>(sum);
}

size_t ExactWindow::MemoryBytes() const {
  return sizeof(*this) + runs_.size() * sizeof(Run);
}

std::vector<BucketView> ExactWindow::Buckets() const {
  std::vector<BucketView> out;
  out.reserve(runs_.size());
  for (const Run& r : runs_) out.push_back(BucketView{r.ts, r.ts, r.count});
  return out;
}


namespace {
constexpr uint8_t kExactMagic = 0xE4;
}  // namespace

void ExactWindow::SerializeTo(ByteWriter* w) const {
  w->PutFixed<uint8_t>(kExactMagic);
  w->PutVarint(window_len_);
  w->PutVarint(lifetime_);
  w->PutVarint(last_ts_);
  w->PutVarint(runs_.size());
  Timestamp prev = 0;
  for (const Run& run : runs_) {
    w->PutVarint(run.ts - prev);
    w->PutVarint(run.count);
    prev = run.ts;
  }
}

Result<ExactWindow> ExactWindow::Deserialize(ByteReader* r) {
  auto magic = r->GetFixed<uint8_t>();
  if (!magic.ok()) return magic.status();
  if (*magic != kExactMagic) {
    return Status::Corruption("bad exact-window magic byte");
  }
  auto window = r->GetVarint();
  if (!window.ok()) return window.status();
  if (*window == 0) return Status::Corruption("exact window length is zero");
  ExactWindow ew(Config{*window});
  auto lifetime = r->GetVarint();
  if (!lifetime.ok()) return lifetime.status();
  ew.lifetime_ = *lifetime;
  auto last_ts = r->GetVarint();
  if (!last_ts.ok()) return last_ts.status();
  ew.last_ts_ = *last_ts;
  auto count = r->GetVarint();
  if (!count.ok()) return count.status();
  Timestamp prev = 0;
  for (uint64_t i = 0; i < *count; ++i) {
    auto delta = r->GetVarint();
    if (!delta.ok()) return delta.status();
    auto n = r->GetVarint();
    if (!n.ok()) return n.status();
    // Runs ascend and end by last_ts (one compare, which also catches a
    // wrapping delta): the §5.1 merge replays them as one sorted run.
    if (*delta > ew.last_ts_ - prev) {
      return Status::Corruption("exact-window run out of order");
    }
    prev += *delta;
    ew.runs_.push_back(Run{prev, *n});
  }
  return ew;
}

}  // namespace ecm
