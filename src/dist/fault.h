// Deterministic fault injection for the distributed runtime.
//
// Every fault decision here is a pure function of (seed, node, index):
// FaultPlan hashes the coordinates through Mix64 and never consults the
// wall clock, thread timing or a stateful RNG, so a fault scenario is a
// *replayable unit test* — the same plan over the same message script
// injects byte-identical faults on every run, on every machine.
//
// One consumer: SocketTransport / CoordinatorServer (socket_transport.h)
// accept a `const FaultPlan*` in their Options and apply the schedule at
// the wire — drops, duplicates and delay-reordering of application
// frames, payload bit-flips that the dist/serialize checksum must catch,
// mid-stream connection severs that the in-transport reconnect machinery
// must heal, and coordinator-side hello refusals that simulate a
// partitioned site-set for a window. SocketTransport::FaultCounters is
// the tally of what was injected.
//
// The retry side of the coin lives here too: BackoffPolicy +
// BackoffDelayMs give exponential backoff with *deterministic* jitter
// (hashed from the policy seed and attempt number), replacing fixed
// retry sleeps so reconnect storms decorrelate without sacrificing
// replayability.

#ifndef ECM_DIST_FAULT_H_
#define ECM_DIST_FAULT_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/dist/transport.h"

namespace ecm {

// ---------------------------------------------------------------------------
// Retry/backoff policy
// ---------------------------------------------------------------------------

/// Exponential backoff with deterministic jitter. Delay for attempt k is
///   min(initial_ms * multiplier^k, max_ms) * (1 - jitter * u)
/// where u in [0,1) is hashed from (seed, attempt) — two transports with
/// different seeds decorrelate their retry storms, yet every run of one
/// transport retries on an identical schedule.
struct BackoffPolicy {
  uint64_t initial_ms = 10;   ///< delay before the first retry
  uint64_t max_ms = 2000;     ///< cap on the exponential growth
  double multiplier = 2.0;    ///< growth factor per attempt
  double jitter = 0.2;        ///< fraction of the delay randomized away
  uint64_t seed = 1;          ///< jitter hash seed
};

/// Pure: the delay before retry `attempt` (0-based) under `policy`.
uint64_t BackoffDelayMs(const BackoffPolicy& policy, uint32_t attempt);

// ---------------------------------------------------------------------------
// FaultPlan
// ---------------------------------------------------------------------------

/// What the plan does to one message.
enum class FaultAction : uint8_t {
  kNone = 0,
  kDrop = 1,       ///< message vanishes
  kDuplicate = 2,  ///< message delivered twice, back to back
  kCorrupt = 3,    ///< one payload bit flipped
  kDelay = 4,      ///< message held back and reordered behind later ones
  kSever = 5,      ///< connection killed after the message
};

/// Declarative, seeded fault schedule. Probabilities are cumulative-checked
/// in the order drop, duplicate, corrupt, delay, sever against one uniform
/// draw per message, so they must sum to <= 1.
struct FaultPlanConfig {
  uint64_t seed = 1;

  double drop_p = 0.0;
  double duplicate_p = 0.0;
  double corrupt_p = 0.0;
  double delay_p = 0.0;
  double sever_p = 0.0;

  /// A delayed message is released after 1..max_delay_frames later
  /// messages from the same node have gone out.
  uint32_t max_delay_frames = 4;

  /// Every message from `node` with index in [from_frame, to_frame) is
  /// dropped — a one-sided link partition for that window.
  struct Partition {
    NodeId node = 0;
    uint64_t from_frame = 0;
    uint64_t to_frame = 0;
  };
  std::vector<Partition> partitions;

  /// The coordinator refuses `node`'s kHello attempts with index in
  /// [refuse_from, refuse_from + refuse_count) — the site sees its
  /// connections die until it has retried past the window (a
  /// coordinator-side partition in attempt space).
  struct HelloRefusal {
    NodeId node = 0;
    uint32_t refuse_from = 0;
    uint32_t refuse_count = 0;
  };
  std::vector<HelloRefusal> hello_refusals;
};

/// Immutable after construction; every method is const and pure, so one
/// plan may be shared by any number of transports and the server without
/// synchronization.
class FaultPlan {
 public:
  explicit FaultPlan(FaultPlanConfig config);

  /// The action for message `frame_index` (0-based, per node) from
  /// `node`. Partition windows take precedence and report kDrop.
  FaultAction ActionFor(NodeId node, uint64_t frame_index) const;

  /// How many later messages a kDelay message waits behind (>= 1).
  uint32_t DelayFrames(NodeId node, uint64_t frame_index) const;

  /// Which bit of a `size`-byte message a kCorrupt action flips.
  /// Returns a bit offset in [0, size*8); 0 when size == 0.
  size_t CorruptBit(NodeId node, uint64_t frame_index, size_t size) const;

  /// True when [node, frame_index] falls inside a partition window.
  bool InPartition(NodeId node, uint64_t frame_index) const;

  /// True when the coordinator must refuse this hello attempt (0-based).
  bool RefuseHello(NodeId node, uint32_t attempt_index) const;

  const FaultPlanConfig& config() const { return config_; }

 private:
  /// Uniform [0,1) hashed from (seed, salt, node, index).
  double Uniform(uint64_t salt, NodeId node, uint64_t index) const;

  FaultPlanConfig config_;
};

}  // namespace ecm

#endif  // ECM_DIST_FAULT_H_
