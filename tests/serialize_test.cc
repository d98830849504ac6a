// Tests for whole-sketch wire serialization: round-trip equivalence for
// every counter type, corruption rejection, and wire-size sanity (the
// numbers the distributed benches account as network transfer).

#include "src/dist/serialize.h"

#include <gtest/gtest.h>

#include "src/stream/generators.h"
#include "src/util/random.h"

namespace ecm {
namespace {

template <typename Counter>
void FillSketch(EcmSketch<Counter>* sketch, int n, uint64_t seed) {
  ZipfStream::Config zc;
  zc.domain = 500;
  zc.skew = 1.0;
  zc.seed = seed;
  ZipfStream stream(zc);
  for (const auto& e : stream.Take(n)) sketch->Add(e.key, e.ts);
}

TEST(SerializeConfigTest, RoundTrip) {
  auto cfg = EcmConfig::Create(0.07, 0.03, WindowMode::kCountBased, 12345,
                               999, OptimizeFor::kSelfJoinQueries);
  ASSERT_TRUE(cfg.ok());
  ByteWriter w;
  SerializeEcmConfig(*cfg, &w);
  ByteReader r(w.bytes());
  auto back = DeserializeEcmConfig(&r);
  ASSERT_TRUE(back.ok()) << back.status();
  EXPECT_EQ(back->mode, cfg->mode);
  EXPECT_EQ(back->window_len, cfg->window_len);
  EXPECT_EQ(back->width, cfg->width);
  EXPECT_EQ(back->depth, cfg->depth);
  EXPECT_EQ(back->seed, cfg->seed);
  EXPECT_DOUBLE_EQ(back->epsilon_sw, cfg->epsilon_sw);
  EXPECT_DOUBLE_EQ(back->epsilon_cm, cfg->epsilon_cm);
  EXPECT_TRUE(back->CompatibleWith(*cfg));
}

TEST(SerializeConfigTest, RejectsGarbage) {
  std::vector<uint8_t> junk = {0x01, 0x02, 0x03};
  ByteReader r(junk.data(), junk.size());
  EXPECT_FALSE(DeserializeEcmConfig(&r).ok());
}

TEST(SerializeConfigTest, CarriesFastRangeReductionAndRejectsModulo) {
  // Byte 5 (after the 4-byte magic and the wire version) names the bucket
  // reduction: 2 is fast range, the only mapping. 1 named the retired
  // `raw % width` mapping; decoding it would answer from the wrong
  // buckets, so it is corruption.
  auto cfg = EcmConfig::Create(0.1, 0.1, WindowMode::kTimeBased, 1000, 7);
  ASSERT_TRUE(cfg.ok());
  ByteWriter w;
  SerializeEcmConfig(*cfg, &w);
  std::vector<uint8_t> bytes = w.bytes();
  ASSERT_GT(bytes.size(), 5u);
  EXPECT_EQ(bytes[5], 2);
  bytes[5] = 1;
  ByteReader r(bytes.data(), bytes.size());
  auto back = DeserializeEcmConfig(&r);
  ASSERT_FALSE(back.ok());
  EXPECT_EQ(back.status().code(), StatusCode::kCorruption);
}

TEST(SerializeConfigTest, RejectsUnversionedLegacyEncoding) {
  // Pre-versioning blobs put the mode byte right after the magic; the
  // explicit wire version must reject them instead of misreading buckets.
  auto cfg = EcmConfig::Create(0.1, 0.1, WindowMode::kTimeBased, 1000, 7);
  ASSERT_TRUE(cfg.ok());
  ByteWriter w;
  SerializeEcmConfig(*cfg, &w);
  auto bytes = w.bytes();
  // Strip the version + reduction bytes to fake the legacy layout.
  std::vector<uint8_t> legacy(bytes.begin(), bytes.begin() + 4);
  legacy.insert(legacy.end(), bytes.begin() + 6, bytes.end());
  ByteReader r(legacy.data(), legacy.size());
  EXPECT_FALSE(DeserializeEcmConfig(&r).ok());
}

template <typename Counter>
void RunSketchRoundTrip() {
  auto sketch = EcmSketch<Counter>::Create(
      0.1, 0.1, WindowMode::kTimeBased, 50000, 42,
      OptimizeFor::kPointQueries, /*max_arrivals=*/1 << 16);
  ASSERT_TRUE(sketch.ok());
  FillSketch<Counter>(&*sketch, 10000, 3);

  auto bytes = SerializeSketch(*sketch);
  auto back = DeserializeSketch<Counter>(bytes);
  ASSERT_TRUE(back.ok()) << back.status();
  EXPECT_EQ(back->l1_lifetime(), sketch->l1_lifetime());
  EXPECT_EQ(back->Now(), sketch->Now());
  for (uint64_t key = 0; key < 500; key += 13) {
    for (uint64_t range : {1000u, 50000u}) {
      EXPECT_EQ(back->PointQuery(key, range), sketch->PointQuery(key, range))
          << "key " << key << " range " << range;
    }
  }
}

TEST(SerializeSketchTest, RoundTripEh) {
  RunSketchRoundTrip<ExponentialHistogram>();
}
TEST(SerializeSketchTest, RoundTripDw) {
  RunSketchRoundTrip<DeterministicWave>();
}
TEST(SerializeSketchTest, RoundTripRw) { RunSketchRoundTrip<RandomizedWave>(); }
TEST(SerializeSketchTest, RoundTripExact) { RunSketchRoundTrip<ExactWindow>(); }

// Layout-independence proof for the flat ring-buffer bucket storage: the
// wire encoding is a level log of bucket end timestamps, so a histogram
// built through the batch weighted-insert path must round-trip through
// the unchanged format and answer every query identically.
TEST(SerializeSketchTest, RoundTripEhWeightedInserts) {
  auto sketch = EcmEh::Create(0.1, 0.1, WindowMode::kTimeBased, 50000, 42);
  ASSERT_TRUE(sketch.ok());
  ZipfStream::Config zc;
  zc.domain = 200;
  zc.skew = 1.0;
  zc.seed = 9;
  ZipfStream stream(zc);
  Rng rng(9);
  for (const auto& e : stream.Take(3000)) {
    sketch->Add(e.key, e.ts, 1 + rng.Uniform(10'000));
  }

  auto bytes = SerializeSketch(*sketch);
  auto back = DeserializeSketch<ExponentialHistogram>(bytes);
  ASSERT_TRUE(back.ok()) << back.status();
  EXPECT_EQ(back->l1_lifetime(), sketch->l1_lifetime());
  for (uint64_t key = 0; key < 200; key += 7) {
    for (uint64_t range : {1000u, 50000u}) {
      EXPECT_EQ(back->PointQuery(key, range), sketch->PointQuery(key, range))
          << "key " << key << " range " << range;
    }
  }
  // Re-serialization is byte-stable (same bucket log either way).
  EXPECT_EQ(SerializeSketch(*back), bytes);
}

TEST(SerializeSketchTest, DeserializedSketchIsMergeable) {
  auto a = EcmEh::Create(0.1, 0.1, WindowMode::kTimeBased, 50000, 7);
  ASSERT_TRUE(a.ok());
  FillSketch<ExponentialHistogram>(&*a, 5000, 1);
  auto bytes = SerializeSketch(*a);
  auto b = DeserializeSketch<ExponentialHistogram>(bytes);
  ASSERT_TRUE(b.ok());
  auto merged = EcmEh::Merge({&*a, &*b}, a->config().epsilon_sw);
  ASSERT_TRUE(merged.ok()) << merged.status();
  // a ⊕ a doubles every estimate (within merge error).
  double single = a->PointQuery(1, 50000);
  double doubled = merged->PointQuery(1, 50000);
  EXPECT_NEAR(doubled, 2 * single, 2 * single * 0.3 + 3.0);
}

TEST(SerializeSketchTest, TruncationRejected) {
  auto sketch = EcmEh::Create(0.1, 0.1, WindowMode::kTimeBased, 50000, 9);
  ASSERT_TRUE(sketch.ok());
  FillSketch<ExponentialHistogram>(&*sketch, 2000, 2);
  auto bytes = SerializeSketch(*sketch);
  bytes.resize(bytes.size() / 3);
  EXPECT_FALSE(DeserializeSketch<ExponentialHistogram>(bytes).ok());
}

TEST(SerializeSketchTest, WireSizeOrdersOfMagnitude) {
  // The paper's headline resource result: at equal epsilon, the RW sketch
  // is at least an order of magnitude bigger on the wire than EH.
  constexpr double kEps = 0.1;
  auto eh = EcmEh::Create(kEps, 0.1, WindowMode::kTimeBased, 100000, 5);
  auto rw = EcmRw::Create(kEps, 0.1, WindowMode::kTimeBased, 100000, 5,
                          OptimizeFor::kPointQueries, 1 << 16);
  ASSERT_TRUE(eh.ok() && rw.ok());
  FillSketch<ExponentialHistogram>(&*eh, 30000, 4);
  FillSketch<RandomizedWave>(&*rw, 30000, 4);
  size_t eh_bytes = SketchWireSize(*eh);
  size_t rw_bytes = SketchWireSize(*rw);
  EXPECT_GT(rw_bytes, eh_bytes * 10) << "EH=" << eh_bytes
                                     << " RW=" << rw_bytes;
}

TEST(SerializeSketchTest, EmptySketchHasSmallWire) {
  auto sketch = EcmEh::Create(0.1, 0.1, WindowMode::kTimeBased, 1000, 1);
  ASSERT_TRUE(sketch.ok());
  EXPECT_LT(SketchWireSize(*sketch), 4096u);
}

}  // namespace
}  // namespace ecm
