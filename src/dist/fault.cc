#include "src/dist/fault.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "src/util/hash.h"

namespace ecm {
namespace {

// Decision-stream salts: each kind of draw gets its own hash stream so
// e.g. the delay distance of a message is independent of the draw that
// selected kDelay for it.
constexpr uint64_t kSaltAction = 0xFA01;
constexpr uint64_t kSaltDelay = 0xFA02;
constexpr uint64_t kSaltCorrupt = 0xFA03;
constexpr uint64_t kSaltBackoff = 0xFA04;

uint64_t HashCoords(uint64_t seed, uint64_t salt, uint64_t a, uint64_t b) {
  return Mix64(seed ^ Mix64(salt ^ Mix64(a) ^ (b * 0x9E3779B97F4A7C15ULL)));
}

double ToUnit(uint64_t h) {
  // Top 53 bits -> [0, 1).
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

}  // namespace

uint64_t BackoffDelayMs(const BackoffPolicy& policy, uint32_t attempt) {
  double delay = static_cast<double>(policy.initial_ms);
  const double mult = policy.multiplier > 1.0 ? policy.multiplier : 1.0;
  for (uint32_t i = 0; i < attempt; ++i) {
    delay *= mult;
    if (delay >= static_cast<double>(policy.max_ms)) break;
  }
  delay = std::min(delay, static_cast<double>(policy.max_ms));
  const double jitter = std::clamp(policy.jitter, 0.0, 1.0);
  if (jitter > 0.0) {
    const double u =
        ToUnit(HashCoords(policy.seed, kSaltBackoff, attempt, 0));
    delay *= 1.0 - jitter * u;
  }
  return static_cast<uint64_t>(delay);
}

// ---------------------------------------------------------------------------
// FaultPlan
// ---------------------------------------------------------------------------

FaultPlan::FaultPlan(FaultPlanConfig config) : config_(std::move(config)) {}

double FaultPlan::Uniform(uint64_t salt, NodeId node, uint64_t index) const {
  return ToUnit(HashCoords(config_.seed, salt,
                           static_cast<uint64_t>(static_cast<int64_t>(node)),
                           index));
}

bool FaultPlan::InPartition(NodeId node, uint64_t frame_index) const {
  for (const auto& p : config_.partitions) {
    if (p.node == node && frame_index >= p.from_frame &&
        frame_index < p.to_frame) {
      return true;
    }
  }
  return false;
}

FaultAction FaultPlan::ActionFor(NodeId node, uint64_t frame_index) const {
  if (InPartition(node, frame_index)) return FaultAction::kDrop;
  const double r = Uniform(kSaltAction, node, frame_index);
  double acc = config_.drop_p;
  if (r < acc) return FaultAction::kDrop;
  acc += config_.duplicate_p;
  if (r < acc) return FaultAction::kDuplicate;
  acc += config_.corrupt_p;
  if (r < acc) return FaultAction::kCorrupt;
  acc += config_.delay_p;
  if (r < acc) return FaultAction::kDelay;
  acc += config_.sever_p;
  if (r < acc) return FaultAction::kSever;
  return FaultAction::kNone;
}

uint32_t FaultPlan::DelayFrames(NodeId node, uint64_t frame_index) const {
  const uint32_t span = std::max<uint32_t>(1, config_.max_delay_frames);
  const double u = Uniform(kSaltDelay, node, frame_index);
  return 1 + static_cast<uint32_t>(u * span) % span;
}

size_t FaultPlan::CorruptBit(NodeId node, uint64_t frame_index,
                             size_t size) const {
  if (size == 0) return 0;
  const uint64_t h =
      HashCoords(config_.seed, kSaltCorrupt,
                 static_cast<uint64_t>(static_cast<int64_t>(node)),
                 frame_index);
  return static_cast<size_t>(h % (size * 8));
}

bool FaultPlan::RefuseHello(NodeId node, uint32_t attempt_index) const {
  for (const auto& r : config_.hello_refusals) {
    if (r.node == node && attempt_index >= r.refuse_from &&
        attempt_index < r.refuse_from + r.refuse_count) {
      return true;
    }
  }
  return false;
}

}  // namespace ecm
