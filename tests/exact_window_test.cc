// Tests for the exact sliding-window counter (the ground-truth reference).

#include "src/window/exact_window.h"

#include <gtest/gtest.h>

#include <vector>

#include "src/util/bytes.h"
#include "src/util/status.h"

namespace ecm {
namespace {

TEST(ExactWindowTest, EmptyEstimatesZero) {
  ExactWindow ew({100});
  EXPECT_EQ(ew.Estimate(10, 100), 0.0);
}

TEST(ExactWindowTest, CountsExactly) {
  ExactWindow ew({100});
  ew.Add(1);
  ew.Add(5, 3);
  ew.Add(50);
  EXPECT_EQ(ew.Estimate(50, 100), 5.0);
  EXPECT_EQ(ew.Estimate(50, 45), 1.0);   // only ts=50 in (5, 50]
  EXPECT_EQ(ew.Estimate(50, 46), 4.0);   // ts=5 (x3) and ts=50
}

TEST(ExactWindowTest, ExpiresOutsideWindow) {
  ExactWindow ew({10});
  for (Timestamp t = 1; t <= 100; ++t) ew.Add(t);
  EXPECT_EQ(ew.Estimate(100, 10), 10.0);
  EXPECT_EQ(ew.lifetime_count(), 100u);
  // Memory holds ~window content only.
  EXPECT_LT(ew.MemoryBytes(), sizeof(ExactWindow) + 20 * 16);
}

TEST(ExactWindowTest, RunLengthCompressesSameTimestamp) {
  ExactWindow ew({1000});
  for (int i = 0; i < 1000; ++i) ew.Add(7);
  EXPECT_EQ(ew.Estimate(7, 1000), 1000.0);
  EXPECT_LT(ew.MemoryBytes(), sizeof(ExactWindow) + 4 * 16);
}

TEST(ExactWindowTest, AdvancedClockExcludesExpired) {
  ExactWindow ew({100});
  for (Timestamp t = 1; t <= 60; ++t) ew.Add(t);
  EXPECT_EQ(ew.Estimate(120, 100), 40.0);  // only (20, 120]
}

TEST(ExactWindowTest, BucketsAreZeroWidthRuns) {
  ExactWindow ew({100});
  ew.Add(3, 2);
  ew.Add(9);
  auto buckets = ew.Buckets();
  ASSERT_EQ(buckets.size(), 2u);
  EXPECT_EQ(buckets[0].start, buckets[0].end);
  EXPECT_EQ(buckets[0].size, 2u);
  EXPECT_EQ(buckets[1].end, 9u);
}

TEST(ExactWindowTest, SerializeRoundTrip) {
  ExactWindow ew({500});
  for (Timestamp t = 1; t <= 700; t += 3) ew.Add(t, 1 + t % 4);
  ByteWriter w;
  ew.SerializeTo(&w);
  ByteReader r(w.bytes());
  auto back = ExactWindow::Deserialize(&r);
  ASSERT_TRUE(back.ok()) << back.status();
  EXPECT_TRUE(r.exhausted());
  EXPECT_EQ(back->lifetime_count(), ew.lifetime_count());
  // The loop's last Add lands on t=700, so query at the counter's clock
  // (Estimate requires now >= the last Add timestamp).
  const Timestamp now = ew.last_timestamp();
  for (uint64_t range : {50u, 200u, 500u}) {
    EXPECT_EQ(back->Estimate(now, range), ew.Estimate(now, range));
  }
}

TEST(ExactWindowTest, DeserializeRejectsGarbage) {
  std::vector<uint8_t> junk = {0x11};
  ByteReader r(junk.data(), junk.size());
  EXPECT_FALSE(ExactWindow::Deserialize(&r).ok());
}

// A hand-built exact-window image: header, then (ts delta, count) runs.
StatusCode DecodeExactImage(Timestamp last_ts,
                            const std::vector<Timestamp>& run_ts) {
  ByteWriter w;
  w.PutFixed<uint8_t>(0xE4);
  w.PutVarint(1000);  // window
  w.PutVarint(run_ts.size());  // lifetime: one arrival per run
  w.PutVarint(last_ts);
  w.PutVarint(run_ts.size());
  Timestamp prev = 0;
  for (Timestamp ts : run_ts) {
    w.PutVarint(ts - prev);  // a descending stamp wraps the delta
    w.PutVarint(1);
    prev = ts;
  }
  ByteReader r(w.bytes());
  auto ew = ExactWindow::Deserialize(&r);
  return ew.ok() ? StatusCode::kOk : ew.status().code();
}

TEST(ExactWindowTest, DeserializeChecksRunOrder) {
  EXPECT_EQ(DecodeExactImage(30, {10, 20, 30}), StatusCode::kOk);
  // A run stamped after last_ts.
  EXPECT_EQ(DecodeExactImage(30, {10, 20, 31}), StatusCode::kCorruption);
  // Runs out of order (the delta wraps the running sum).
  EXPECT_EQ(DecodeExactImage(30, {10, 20, 15}), StatusCode::kCorruption);
}

}  // namespace
}  // namespace ecm
