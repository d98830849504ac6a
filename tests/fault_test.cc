// Tests for the deterministic fault-injection layer (dist/fault.h):
//  * FaultPlan decisions are pure functions of (seed, node, index) —
//    identical across instances; different seeds decorrelate;
//  * BackoffDelayMs grows exponentially to the cap with deterministic,
//    bounded jitter;
//  * the widened Status taxonomy classifies retryable vs fatal.
// What the plan's actions do to real frames, and byte-identical replay
// of a faulted script, are pinned at the wire in socket_transport_test.

#include "src/dist/fault.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>

#include "src/util/status.h"

namespace ecm {
namespace {

// --- Status taxonomy (satellite) -------------------------------------------

TEST(StatusTaxonomyTest, RetryableClassification) {
  EXPECT_TRUE(IsRetryable(Status::Unavailable("link flap")));
  EXPECT_TRUE(IsRetryable(Status::DeadlineExceeded("timed out")));
  EXPECT_FALSE(IsRetryable(Status::OK()));
  EXPECT_FALSE(IsRetryable(Status::IOError("bad fd")));
  EXPECT_FALSE(IsRetryable(Status::Corruption("bit rot")));
  EXPECT_FALSE(IsRetryable(Status::StaleBase("old delta")));
  EXPECT_EQ(Status::Unavailable("x").code(), StatusCode::kUnavailable);
  EXPECT_EQ(Status::DeadlineExceeded("x").code(),
            StatusCode::kDeadlineExceeded);
  EXPECT_EQ(std::string(StatusCodeToString(StatusCode::kUnavailable)),
            "Unavailable");
  EXPECT_EQ(std::string(StatusCodeToString(StatusCode::kDeadlineExceeded)),
            "Deadline exceeded");
}

// --- BackoffDelayMs ---------------------------------------------------------

TEST(BackoffTest, GrowsExponentiallyToCapWithoutJitter) {
  BackoffPolicy p;
  p.initial_ms = 10;
  p.max_ms = 100;
  p.multiplier = 2.0;
  p.jitter = 0.0;
  EXPECT_EQ(BackoffDelayMs(p, 0), 10u);
  EXPECT_EQ(BackoffDelayMs(p, 1), 20u);
  EXPECT_EQ(BackoffDelayMs(p, 2), 40u);
  EXPECT_EQ(BackoffDelayMs(p, 3), 80u);
  EXPECT_EQ(BackoffDelayMs(p, 4), 100u);   // capped
  EXPECT_EQ(BackoffDelayMs(p, 60), 100u);  // no overflow far past the cap
}

TEST(BackoffTest, JitterIsDeterministicAndBounded) {
  BackoffPolicy p;
  p.initial_ms = 1000;
  p.max_ms = 1000;
  p.multiplier = 2.0;
  p.jitter = 0.5;
  p.seed = 42;
  bool any_jittered = false;
  for (uint32_t attempt = 0; attempt < 16; ++attempt) {
    const uint64_t d = BackoffDelayMs(p, attempt);
    // Replays identically.
    EXPECT_EQ(d, BackoffDelayMs(p, attempt));
    // Within [cap * (1 - jitter), cap].
    EXPECT_GE(d, 500u);
    EXPECT_LE(d, 1000u);
    if (d != 1000u) any_jittered = true;
  }
  EXPECT_TRUE(any_jittered);
  // A different seed re-rolls the jitter somewhere within 16 attempts.
  BackoffPolicy q = p;
  q.seed = 43;
  bool differs = false;
  for (uint32_t attempt = 0; attempt < 16; ++attempt) {
    differs |= BackoffDelayMs(p, attempt) != BackoffDelayMs(q, attempt);
  }
  EXPECT_TRUE(differs);
}

// --- FaultPlan decisions ----------------------------------------------------

TEST(FaultPlanTest, DecisionsAreDeterministicPerCoordinate) {
  FaultPlanConfig cfg;
  cfg.seed = 7;
  cfg.drop_p = 0.1;
  cfg.duplicate_p = 0.1;
  cfg.corrupt_p = 0.1;
  cfg.delay_p = 0.1;
  cfg.sever_p = 0.1;
  FaultPlan plan(cfg);
  FaultPlan twin(cfg);
  for (NodeId node = 0; node < 4; ++node) {
    for (uint64_t i = 0; i < 200; ++i) {
      EXPECT_EQ(plan.ActionFor(node, i), twin.ActionFor(node, i));
      EXPECT_EQ(plan.DelayFrames(node, i), twin.DelayFrames(node, i));
      EXPECT_EQ(plan.CorruptBit(node, i, 128), twin.CorruptBit(node, i, 128));
    }
  }
  // All five actions actually occur at these rates over 800 draws.
  std::map<FaultAction, int> seen;
  for (NodeId node = 0; node < 4; ++node) {
    for (uint64_t i = 0; i < 200; ++i) ++seen[plan.ActionFor(node, i)];
  }
  EXPECT_GT(seen[FaultAction::kNone], 0);
  EXPECT_GT(seen[FaultAction::kDrop], 0);
  EXPECT_GT(seen[FaultAction::kDuplicate], 0);
  EXPECT_GT(seen[FaultAction::kCorrupt], 0);
  EXPECT_GT(seen[FaultAction::kDelay], 0);
  EXPECT_GT(seen[FaultAction::kSever], 0);
}

TEST(FaultPlanTest, SeedsDecorrelate) {
  FaultPlanConfig cfg;
  cfg.drop_p = 0.5;
  cfg.seed = 1;
  FaultPlan a(cfg);
  cfg.seed = 2;
  FaultPlan b(cfg);
  int differs = 0;
  for (uint64_t i = 0; i < 200; ++i) {
    differs += a.ActionFor(0, i) != b.ActionFor(0, i);
  }
  EXPECT_GT(differs, 0);
}

TEST(FaultPlanTest, PartitionWindowDropsEverything) {
  FaultPlanConfig cfg;
  cfg.partitions.push_back({/*node=*/1, /*from_frame=*/10, /*to_frame=*/20});
  FaultPlan plan(cfg);
  for (uint64_t i = 0; i < 30; ++i) {
    const bool inside = i >= 10 && i < 20;
    EXPECT_EQ(plan.InPartition(1, i), inside);
    EXPECT_EQ(plan.ActionFor(1, i),
              inside ? FaultAction::kDrop : FaultAction::kNone);
    // Other nodes are unaffected.
    EXPECT_EQ(plan.ActionFor(0, i), FaultAction::kNone);
  }
}

TEST(FaultPlanTest, HelloRefusalWindow) {
  FaultPlanConfig cfg;
  cfg.hello_refusals.push_back(
      {/*node=*/2, /*refuse_from=*/1, /*refuse_count=*/3});
  FaultPlan plan(cfg);
  EXPECT_FALSE(plan.RefuseHello(2, 0));
  EXPECT_TRUE(plan.RefuseHello(2, 1));
  EXPECT_TRUE(plan.RefuseHello(2, 2));
  EXPECT_TRUE(plan.RefuseHello(2, 3));
  EXPECT_FALSE(plan.RefuseHello(2, 4));
  EXPECT_FALSE(plan.RefuseHello(0, 1));
}

TEST(FaultPlanTest, DelayFramesWithinConfiguredSpan) {
  FaultPlanConfig cfg;
  cfg.max_delay_frames = 3;
  FaultPlan plan(cfg);
  for (uint64_t i = 0; i < 100; ++i) {
    const uint32_t d = plan.DelayFrames(0, i);
    EXPECT_GE(d, 1u);
    EXPECT_LE(d, 3u);
  }
}

TEST(FaultPlanTest, CorruptBitInRange) {
  FaultPlanConfig cfg;
  FaultPlan plan(cfg);
  for (uint64_t i = 0; i < 100; ++i) {
    EXPECT_LT(plan.CorruptBit(0, i, 17), 17u * 8);
  }
  EXPECT_EQ(plan.CorruptBit(0, 0, 0), 0u);
}

}  // namespace
}  // namespace ecm
