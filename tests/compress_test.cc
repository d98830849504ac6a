// Tests for the sketch propagation channels (dist/compress.h):
//  * the differential gate — rlz ∘ reference decodes bit-identically to
//    full SerializeSketch snapshots on randomized streams, chained across
//    many syncs, for every CompressionMode and counter type;
//  * stale-base / rejoin-epoch safety — wrong bases, wrong epochs and
//    replayed images reject with kStaleBase, never a silent wrong merge;
//  * hostile-input fuzz — truncation sweeps, bit flips and forged copy
//    ops reject cleanly with no out-of-bounds access.

#include "src/dist/compress.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "src/dist/serialize.h"
#include "src/stream/generators.h"
#include "src/util/random.h"
#include "src/window/deterministic_wave.h"
#include "src/window/exponential_histogram.h"
#include "src/window/randomized_wave.h"

namespace ecm {
namespace {

template <typename Counter>
EcmSketch<Counter> MakeSketch(uint64_t seed = 7) {
  auto sketch = EcmSketch<Counter>::Create(0.1, 0.1, WindowMode::kTimeBased,
                                           200, seed);
  EXPECT_TRUE(sketch.ok()) << sketch.status();
  return std::move(*sketch);
}

// Feeds `n` Zipf arrivals with timestamps advancing from *ts.
template <typename Counter>
void Feed(EcmSketch<Counter>* sketch, int n, uint64_t seed, Timestamp* ts) {
  ZipfStream::Config zc;
  zc.domain = 300;
  zc.skew = 1.0;
  zc.seed = seed;
  ZipfStream stream(zc);
  Rng rng(seed ^ 0xABCDULL);
  for (const auto& e : stream.Take(n)) {
    *ts += rng.Next() % 3;
    sketch->Add(e.key, *ts);
  }
}

// --- RLZ codec ------------------------------------------------------------

TEST(RlzTest, RoundTripAgainstReference) {
  auto sketch = MakeSketch<ExponentialHistogram>();
  Timestamp ts = 1;
  Feed(&sketch, 300, 41, &ts);
  const std::vector<uint8_t> ref = SerializeSketch(sketch);
  Feed(&sketch, 30, 42, &ts);
  const std::vector<uint8_t> img = SerializeSketch(sketch);

  const std::vector<uint8_t> enc = RlzEncode(ref, img.data(), img.size(), 1);
  // Successive images share most bytes, so RLZ must compress.
  EXPECT_LT(enc.size(), img.size());
  auto dec = RlzDecode(enc.data(), enc.size(), ref, 1);
  ASSERT_TRUE(dec.ok()) << dec.status();
  EXPECT_EQ(*dec, img);
}

TEST(RlzTest, EmptyReferenceDegeneratesToLiterals) {
  const std::vector<uint8_t> ref;
  std::vector<uint8_t> img(1000);
  Rng rng(5);
  for (auto& b : img) b = static_cast<uint8_t>(rng.Next());
  const std::vector<uint8_t> enc = RlzEncode(ref, img.data(), img.size(), 1);
  auto dec = RlzDecode(enc.data(), enc.size(), ref, 1);
  ASSERT_TRUE(dec.ok()) << dec.status();
  EXPECT_EQ(*dec, img);
}

TEST(RlzTest, RejectsWrongReferenceAndEpoch) {
  std::vector<uint8_t> ref(256), img(256);
  Rng rng(6);
  for (auto& b : ref) b = static_cast<uint8_t>(rng.Next());
  img = ref;
  img[100] ^= 0x5A;
  const std::vector<uint8_t> enc = RlzEncode(ref, img.data(), img.size(), 2);

  auto wrong_epoch = RlzDecode(enc.data(), enc.size(), ref, 3);
  ASSERT_FALSE(wrong_epoch.ok());
  EXPECT_EQ(wrong_epoch.status().code(), StatusCode::kStaleBase);

  std::vector<uint8_t> other_ref = ref;
  other_ref[7] ^= 1;
  auto wrong_ref = RlzDecode(enc.data(), enc.size(), other_ref, 2);
  ASSERT_FALSE(wrong_ref.ok());
  EXPECT_EQ(wrong_ref.status().code(), StatusCode::kStaleBase);
}

// --- hostile-input fuzz ---------------------------------------------------

// Every truncation of a valid image must reject; no prefix may decode.
TEST(CompressFuzzTest, RlzTruncationSweep) {
  auto sketch = MakeSketch<ExponentialHistogram>();
  Timestamp ts = 1;
  Feed(&sketch, 120, 53, &ts);
  const std::vector<uint8_t> ref = SerializeSketch(sketch);
  Feed(&sketch, 20, 54, &ts);
  const std::vector<uint8_t> img = SerializeSketch(sketch);
  const std::vector<uint8_t> enc = RlzEncode(ref, img.data(), img.size(), 1);
  for (size_t len = 0; len < enc.size(); ++len) {
    EXPECT_FALSE(RlzDecode(enc.data(), len, ref, 1).ok())
        << "prefix of " << len << " bytes decoded";
  }
}

// Flipping any single byte must never decode to different content than
// the original image (the checksum makes rejection the expected outcome).
TEST(CompressFuzzTest, RlzBitFlipSweep) {
  auto sketch = MakeSketch<ExponentialHistogram>();
  Timestamp ts = 1;
  Feed(&sketch, 120, 57, &ts);
  const std::vector<uint8_t> ref = SerializeSketch(sketch);
  Feed(&sketch, 20, 58, &ts);
  const std::vector<uint8_t> img = SerializeSketch(sketch);
  const std::vector<uint8_t> enc = RlzEncode(ref, img.data(), img.size(), 1);
  for (size_t i = 0; i < enc.size(); ++i) {
    std::vector<uint8_t> mutated = enc;
    mutated[i] ^= 0x41;
    auto dec = RlzDecode(mutated.data(), mutated.size(), ref, 1);
    if (dec.ok()) {
      EXPECT_EQ(*dec, img) << "flip at " << i << " silently decoded";
    }
  }
}

// Hand-forged RLZ frames with valid checksums but hostile ops: copy runs
// past the reference, op streams that overrun raw_len, giant raw_len.
TEST(CompressFuzzTest, RlzForgedOpsRejected) {
  std::vector<uint8_t> ref(64);
  for (size_t i = 0; i < ref.size(); ++i) ref[i] = static_cast<uint8_t>(i);
  const uint64_t ref_sum = wire_internal::WireChecksum(ref.data(), ref.size());

  auto forge = [&](uint64_t raw_len, uint64_t n_ops,
                   const std::vector<std::pair<uint64_t, uint64_t>>& copies) {
    ByteWriter payload;
    payload.PutVarint(wire_internal::kRlzFormatVersion);
    payload.PutVarint(1);  // epoch
    payload.PutFixed<uint64_t>(ref_sum);
    payload.PutVarint(ref.size());
    payload.PutVarint(raw_len);
    payload.PutVarint(n_ops);
    for (const auto& [offset, len] : copies) {
      payload.PutVarint((len << 1) | 1);  // copy op
      payload.PutVarint(offset);
    }
    return wire_internal::WrapWirePayload(wire_internal::kRlzMagic, payload);
  };

  // Copy op starting past the reference end.
  auto past_end = forge(16, 1, {{ref.size() + 1, 16}});
  auto r1 = RlzDecode(past_end.data(), past_end.size(), ref, 1);
  ASSERT_FALSE(r1.ok());
  EXPECT_EQ(r1.status().code(), StatusCode::kCorruption);

  // Copy length running off the reference end from a valid offset.
  auto overrun = forge(32, 1, {{ref.size() - 4, 32}});
  auto r2 = RlzDecode(overrun.data(), overrun.size(), ref, 1);
  ASSERT_FALSE(r2.ok());
  EXPECT_EQ(r2.status().code(), StatusCode::kCorruption);

  // Ops reconstructing more than raw_len.
  auto too_much = forge(8, 2, {{0, 8}, {0, 8}});
  auto r3 = RlzDecode(too_much.data(), too_much.size(), ref, 1);
  ASSERT_FALSE(r3.ok());
  EXPECT_EQ(r3.status().code(), StatusCode::kCorruption);

  // A raw_len past the decoder's allocation cap must refuse up front.
  auto giant = forge(wire_internal::kMaxRlzRawBytes + 1, 0, {});
  auto r4 = RlzDecode(giant.data(), giant.size(), ref, 1);
  ASSERT_FALSE(r4.ok());
  EXPECT_EQ(r4.status().code(), StatusCode::kCorruption);

  // An op count larger than the remaining bytes must refuse before
  // looping (allocation/time bound on forged headers).
  auto op_bomb = forge(16, 1u << 20, {{0, 16}});
  auto r5 = RlzDecode(op_bomb.data(), op_bomb.size(), ref, 1);
  ASSERT_FALSE(r5.ok());
  EXPECT_EQ(r5.status().code(), StatusCode::kCorruption);
}

// --- channel layer --------------------------------------------------------

template <typename Counter>
void ChannelDifferentialImpl(CompressionMode mode) {
  CompressionOptions opts;
  opts.mode = mode;
  SketchSender<Counter> sender(opts);
  SketchReceiver<Counter> receiver(opts);
  auto local = MakeSketch<Counter>();
  Timestamp ts = 1;
  Feed(&local, 300, 61, &ts);

  for (int round = 0; round < 25; ++round) {
    Feed(&local, 40, 62 + static_cast<uint64_t>(round), &ts);
    SketchWireImage img = sender.Ship(local);
    auto got = receiver.Receive(img.kind, img.bytes.data(), img.bytes.size());
    ASSERT_TRUE(got.ok()) << got.status();
    // The differential gate: the decoded sketch must serialize
    // bit-identically to the sender's full snapshot.
    ASSERT_EQ(SerializeSketch(**got), SerializeSketch(local))
        << "round " << round << " kind " << SketchWireKindName(img.kind);
  }
  const CompressionStats& st = sender.stats();
  EXPECT_EQ(st.full_images + st.rlz_images, 25u);
  if (mode != CompressionMode::kFull) {
    // Steady-state small increments must actually compress.
    EXPECT_GT(st.rlz_images, 0u);
    EXPECT_LT(st.wire_bytes, st.raw_bytes);
  }
}

TEST(SketchChannelTest, DifferentialFullEh) {
  ChannelDifferentialImpl<ExponentialHistogram>(CompressionMode::kFull);
}
TEST(SketchChannelTest, DifferentialRlzEh) {
  ChannelDifferentialImpl<ExponentialHistogram>(CompressionMode::kRlz);
}
TEST(SketchChannelTest, DifferentialRlzDw) {
  ChannelDifferentialImpl<DeterministicWave>(CompressionMode::kRlz);
}
TEST(SketchChannelTest, DifferentialRlzRw) {
  ChannelDifferentialImpl<RandomizedWave>(CompressionMode::kRlz);
}

TEST(SketchChannelTest, ReceiverRejectsRlzBeforeFirstSnapshot) {
  CompressionOptions opts;
  opts.mode = CompressionMode::kRlz;
  SketchSender<ExponentialHistogram> sender(opts);
  auto local = MakeSketch<ExponentialHistogram>();
  Timestamp ts = 1;
  Feed(&local, 200, 71, &ts);
  (void)sender.Ship(local);  // primes the sender's base
  Feed(&local, 20, 72, &ts);
  SketchWireImage rlz = sender.Ship(local);
  ASSERT_EQ(rlz.kind, SketchWireKind::kRlz);

  SketchReceiver<ExponentialHistogram> fresh(opts);
  auto got = fresh.Receive(rlz.kind, rlz.bytes.data(), rlz.bytes.size());
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kStaleBase);
  EXPECT_EQ(fresh.sketch(), nullptr);
}

TEST(SketchChannelTest, RetiredDeltaKindRejected) {
  // Wire kind 2 belonged to a retired delta format: it must never decode,
  // not even when its bytes are a valid image of another kind, and the
  // receiver's base must survive the rejection.
  SketchSender<ExponentialHistogram> sender;
  SketchReceiver<ExponentialHistogram> receiver;
  auto local = MakeSketch<ExponentialHistogram>();
  Timestamp ts = 1;
  Feed(&local, 200, 75, &ts);
  SketchWireImage full = sender.Ship(local);
  ASSERT_TRUE(
      receiver.Receive(full.kind, full.bytes.data(), full.bytes.size()).ok());
  const std::vector<uint8_t> settled = SerializeSketch(*receiver.sketch());

  Feed(&local, 20, 76, &ts);
  for (const SketchWireImage& img : {full, sender.Ship(local)}) {
    auto got = receiver.Receive(static_cast<SketchWireKind>(2),
                                img.bytes.data(), img.bytes.size());
    EXPECT_FALSE(got.ok());
    ASSERT_NE(receiver.sketch(), nullptr);
    EXPECT_EQ(SerializeSketch(*receiver.sketch()), settled);
  }
  EXPECT_EQ(receiver.duplicates_absorbed(), 0u);
}

TEST(SketchChannelTest, EpochChangeForcesFullResync) {
  CompressionOptions opts;
  opts.mode = CompressionMode::kRlz;
  SketchSender<ExponentialHistogram> sender(opts);
  SketchReceiver<ExponentialHistogram> receiver(opts);
  auto local = MakeSketch<ExponentialHistogram>();
  Timestamp ts = 1;
  Feed(&local, 200, 81, &ts);
  SketchWireImage img = sender.Ship(local);
  ASSERT_TRUE(
      receiver.Receive(img.kind, img.bytes.data(), img.bytes.size()).ok());

  // The receiver rejoins under a new epoch (crash/rejoin): compressed
  // images stamped with the old epoch must refuse.
  receiver.set_epoch(2);
  Feed(&local, 20, 82, &ts);
  SketchWireImage stale = sender.Ship(local);
  ASSERT_NE(stale.kind, SketchWireKind::kFull);
  auto rejected =
      receiver.Receive(stale.kind, stale.bytes.data(), stale.bytes.size());
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kStaleBase);

  // Once the sender learns the new epoch it re-bases with a full image
  // and the channel recovers.
  sender.set_epoch(2);
  SketchWireImage resync = sender.Ship(local);
  EXPECT_EQ(resync.kind, SketchWireKind::kFull);
  auto got = receiver.Receive(resync.kind, resync.bytes.data(),
                              resync.bytes.size());
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_EQ(SerializeSketch(**got), SerializeSketch(local));

  Feed(&local, 20, 83, &ts);
  SketchWireImage next = sender.Ship(local);
  auto again =
      receiver.Receive(next.kind, next.bytes.data(), next.bytes.size());
  ASSERT_TRUE(again.ok()) << again.status();
  EXPECT_EQ(SerializeSketch(**again), SerializeSketch(local));
}

// --- at-least-once delivery: duplicates and replays -----------------------

template <typename Counter>
void DuplicateDeliveryIdempotentImpl(CompressionMode mode) {
  CompressionOptions opts;
  opts.mode = mode;
  SketchSender<Counter> sender(opts);
  SketchReceiver<Counter> receiver(opts);
  auto local = MakeSketch<Counter>();
  Timestamp ts = 1;
  Feed(&local, 300, 95, &ts);

  // Every image in the conversation is delivered twice back to back —
  // exactly what the socket layer's post-reconnect retransmit produces.
  // The second copy must absorb idempotently, never double-merge.
  uint64_t absorbed = 0;
  for (int round = 0; round < 8; ++round) {
    Feed(&local, 40, 96 + static_cast<uint64_t>(round), &ts);
    SketchWireImage img = sender.Ship(local);
    auto first =
        receiver.Receive(img.kind, img.bytes.data(), img.bytes.size());
    ASSERT_TRUE(first.ok()) << first.status();
    auto dup =
        receiver.Receive(img.kind, img.bytes.data(), img.bytes.size());
    ASSERT_TRUE(dup.ok()) << dup.status();
    ++absorbed;
    EXPECT_EQ(receiver.duplicates_absorbed(), absorbed);
    ASSERT_EQ(SerializeSketch(**dup), SerializeSketch(local))
        << "round " << round << " kind " << SketchWireKindName(img.kind);
  }
}

TEST(SketchChannelTest, DuplicateDeliveryIdempotentFullEh) {
  DuplicateDeliveryIdempotentImpl<ExponentialHistogram>(
      CompressionMode::kFull);
}
TEST(SketchChannelTest, DuplicateDeliveryIdempotentRlzEh) {
  DuplicateDeliveryIdempotentImpl<ExponentialHistogram>(CompressionMode::kRlz);
}
TEST(SketchChannelTest, DuplicateDeliveryIdempotentRlzRw) {
  DuplicateDeliveryIdempotentImpl<RandomizedWave>(CompressionMode::kRlz);
}

TEST(SketchChannelTest, OlderReplayStillRejectsStaleBase) {
  // Only the *immediately preceding* image is absorbed as a duplicate; a
  // replay from further back is a stale base and must reject without
  // touching the receiver's state.
  CompressionOptions opts;
  opts.mode = CompressionMode::kRlz;
  SketchSender<ExponentialHistogram> sender(opts);
  SketchReceiver<ExponentialHistogram> receiver(opts);
  auto local = MakeSketch<ExponentialHistogram>();
  Timestamp ts = 1;
  Feed(&local, 300, 97, &ts);
  SketchWireImage full = sender.Ship(local);
  ASSERT_TRUE(
      receiver.Receive(full.kind, full.bytes.data(), full.bytes.size()).ok());

  Feed(&local, 40, 98, &ts);
  SketchWireImage d1 = sender.Ship(local);
  ASSERT_EQ(d1.kind, SketchWireKind::kRlz);
  ASSERT_TRUE(receiver.Receive(d1.kind, d1.bytes.data(), d1.bytes.size()).ok());

  Feed(&local, 40, 99, &ts);
  SketchWireImage d2 = sender.Ship(local);
  ASSERT_TRUE(receiver.Receive(d2.kind, d2.bytes.data(), d2.bytes.size()).ok());
  const std::vector<uint8_t> settled = SerializeSketch(*receiver.sketch());

  // d1 is two images back now: not a duplicate, a stale replay.
  auto replay = receiver.Receive(d1.kind, d1.bytes.data(), d1.bytes.size());
  ASSERT_FALSE(replay.ok());
  EXPECT_EQ(replay.status().code(), StatusCode::kStaleBase);
  EXPECT_EQ(receiver.duplicates_absorbed(), 0u);
  EXPECT_EQ(SerializeSketch(*receiver.sketch()), settled);

  // The channel keeps working after the rejected replay.
  Feed(&local, 40, 100, &ts);
  SketchWireImage d3 = sender.Ship(local);
  auto got = receiver.Receive(d3.kind, d3.bytes.data(), d3.bytes.size());
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_EQ(SerializeSketch(**got), SerializeSketch(local));
}

TEST(SketchChannelTest, ResetClearsDuplicateFingerprint) {
  // After a Reset (rejoin teardown) the first image of the new
  // conversation must never be mistaken for a duplicate of the old one.
  CompressionOptions opts;
  opts.mode = CompressionMode::kFull;
  SketchSender<ExponentialHistogram> sender(opts);
  SketchReceiver<ExponentialHistogram> receiver(opts);
  auto local = MakeSketch<ExponentialHistogram>();
  Timestamp ts = 1;
  Feed(&local, 200, 101, &ts);
  SketchWireImage img = sender.Ship(local);
  ASSERT_TRUE(
      receiver.Receive(img.kind, img.bytes.data(), img.bytes.size()).ok());
  receiver.Reset();
  auto again = receiver.Receive(img.kind, img.bytes.data(), img.bytes.size());
  ASSERT_TRUE(again.ok()) << again.status();
  // Applied for real, not absorbed: the fingerprint died with the reset.
  EXPECT_EQ(receiver.duplicates_absorbed(), 0u);
  EXPECT_EQ(SerializeSketch(**again), SerializeSketch(local));
}

TEST(SketchChannelTest, SenderResetRebasesWithFullImage) {
  CompressionOptions opts;
  opts.mode = CompressionMode::kRlz;
  SketchSender<ExponentialHistogram> sender(opts);
  auto local = MakeSketch<ExponentialHistogram>();
  Timestamp ts = 1;
  Feed(&local, 100, 91, &ts);
  EXPECT_EQ(sender.Ship(local).kind, SketchWireKind::kFull);
  Feed(&local, 10, 92, &ts);
  EXPECT_EQ(sender.Ship(local).kind, SketchWireKind::kRlz);
  sender.Reset();
  Feed(&local, 10, 93, &ts);
  EXPECT_EQ(sender.Ship(local).kind, SketchWireKind::kFull);
}

}  // namespace
}  // namespace ecm
