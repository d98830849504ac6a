// Estimate-equivalence suite: every indexed/batched query path must
// reproduce a plain reference computation exactly.
//
//  * ExponentialHistogram::Estimate (running-total fast path + single
//    straddling-level search) vs a bucket-by-bucket sum over Buckets() —
//    bit-identical, including after serialization round-trips and §5.1
//    replay merges;
//  * RandomizedWave::Estimate (run prefix-sum lookup) vs a linear run walk
//    over subwaves() — bit-identical (same integer sums), including after
//    serialization round-trips and §5.2 k-way merges;
//  * EcmSketch::InnerProduct/SelfJoin/EstimateL1 batched paths vs the
//    per-cell double-Estimate loops — bit-identical (same values, same
//    accumulation order), plus L1 memoization invalidation on update;
//  * EcmSketch::PointQueryBatchAt (both sides of its sweep cost model) vs
//    per-key PointQueryAt;
//  * DyadicEcm frontier heavy-hitter descent vs the recursive per-node
//    group-testing descent — same keys, estimates and order.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "src/core/dyadic.h"
#include "src/core/ecm_sketch.h"
#include "src/util/random.h"
#include "src/window/merge.h"

namespace ecm {
namespace {

constexpr uint64_t kWindow = 4096;

// --- estimate oracles over the counters' public state ----------------------

// EH: sums the bucket log oldest-first. The oldest in-range bucket counts
// half when it straddles the window boundary (paper §3): its start — the
// next-older bucket's end, or the expiry watermark — is at or before the
// boundary and it spans a positive width.
double EhEstimateOracle(const ExponentialHistogram& eh, Timestamp now,
                        uint64_t range) {
  const Timestamp boundary = WindowStart(now, std::min(range, eh.window_len()));
  double sum = 0.0;
  bool oldest = true;
  for (const BucketView& b : eh.Buckets()) {
    if (b.end <= boundary) continue;
    sum += static_cast<double>(b.size);
    if (oldest) {
      const bool fully_inside =
          boundary == 0 || b.start > boundary || b.start >= b.end;
      if (!fully_inside) sum -= static_cast<double>(b.size) / 2.0;
      oldest = false;
    }
  }
  return sum;
}

// RW: per sub-wave, the finest level whose retained sample still reaches
// the boundary, its in-range runs counted one by one and scaled by 2^l
// (the coarsest level's whole sample when no level reaches); the median
// over sub-waves.
double RwEstimateOracle(const RandomizedWave& rw, Timestamp now,
                        uint64_t range) {
  const Timestamp boundary = WindowStart(now, std::min(range, rw.window_len()));
  const int top = rw.num_levels() - 1;
  std::vector<double> ests;
  for (const RandomizedWave::SubWave& sw : rw.subwaves()) {
    double est = static_cast<double>(sw.sizes[top]) *
                 static_cast<double>(1ULL << top);
    for (int l = 0; l <= top; ++l) {
      const auto& level = sw.levels[l];
      if (sw.truncated[l] && (level.empty() || level.front().ts > boundary)) {
        continue;
      }
      uint64_t in_range = 0;
      for (const RandomizedWave::Sample& run : level) {
        if (run.ts > boundary) in_range += run.count;
      }
      est = static_cast<double>(in_range) * static_cast<double>(1ULL << l);
      break;
    }
    ests.push_back(est);
  }
  auto mid = ests.begin() + ests.size() / 2;
  std::nth_element(ests.begin(), mid, ests.end());
  return *mid;
}

double Oracle(const ExponentialHistogram& c, Timestamp now, uint64_t range) {
  return EhEstimateOracle(c, now, range);
}
double Oracle(const RandomizedWave& c, Timestamp now, uint64_t range) {
  return RwEstimateOracle(c, now, range);
}

ExponentialHistogram MakeEh(uint64_t) {
  return ExponentialHistogram({0.05, kWindow});
}

RandomizedWave MakeRw(uint64_t seed) {
  RandomizedWave::Config cfg;
  cfg.epsilon = 0.1;
  cfg.delta = 0.1;
  cfg.window_len = kWindow;
  cfg.max_arrivals = 1 << 18;
  cfg.seed = seed;
  return RandomizedWave(cfg);
}

// Asserts the fast estimate equals the oracle at a spread of read clocks
// and ranges (including over-length ones).
template <typename Counter>
void ExpectMatchesOracle(const Counter& c, Timestamp last, Rng* rng,
                         const char* what) {
  for (int q = 0; q < 8; ++q) {
    Timestamp now = last + rng->Uniform(40);
    uint64_t range = 1 + rng->Uniform(kWindow + kWindow / 3);
    ASSERT_EQ(c.Estimate(now, range), Oracle(c, now, range))
        << what << " now " << now << " range " << range;
  }
}

// Feeds a randomized weighted stream and cross-checks the fast estimate
// against the oracle after every arrival.
template <typename Counter, typename MakeFn>
void CheckCounterEquivalence(MakeFn make, int streams, int ops) {
  for (int s = 0; s < streams; ++s) {
    Counter c = make(0xC0FFEE + static_cast<uint64_t>(s));
    Rng rng(0xBEEF + static_cast<uint64_t>(s));
    Timestamp t = 1;
    for (int op = 0; op < ops; ++op) {
      t += rng.Uniform(60);
      c.Add(t, 1 + rng.Uniform(200));
      if (rng.Uniform(4) == 0) c.Add(t, 1 + rng.Uniform(30));  // equal ts
      for (int q = 0; q < 4; ++q) {
        Timestamp now = t + rng.Uniform(40);
        uint64_t range = 1 + rng.Uniform(kWindow + kWindow / 3);
        ASSERT_EQ(c.Estimate(now, range), Oracle(c, now, range))
            << "stream " << s << " op " << op << " now " << now
            << " range " << range;
      }
    }
  }
}

TEST(QueryEquivalenceTest, EhEstimateMatchesOracle) {
  CheckCounterEquivalence<ExponentialHistogram>(MakeEh, 40, 120);
}

TEST(QueryEquivalenceTest, RwEstimateMatchesOracle) {
  CheckCounterEquivalence<RandomizedWave>(MakeRw, 20, 120);
}

// Decoding must rebuild the indexed query state (EH level directory and
// running total, RW run cumulative counts) consistently.
template <typename Counter, typename MakeFn>
void CheckOracleAfterRoundTrip(MakeFn make) {
  Counter c = make(17);
  Rng rng(99);
  Timestamp t = 1;
  for (int i = 0; i < 400; ++i) {
    t += rng.Uniform(30);
    c.Add(t, 1 + rng.Uniform(100));
  }
  ByteWriter w;
  c.SerializeTo(&w);
  ByteReader r(w.bytes());
  auto back = Counter::Deserialize(&r);
  ASSERT_TRUE(back.ok());
  ExpectMatchesOracle(*back, t, &rng, "decoded");
  for (uint64_t range : {uint64_t{7}, uint64_t{133}, uint64_t{1024}, kWindow}) {
    EXPECT_EQ(back->Estimate(t, range), c.Estimate(t, range));
  }
}

TEST(QueryEquivalenceTest, EhEstimateMatchesOracleAfterRoundTrip) {
  CheckOracleAfterRoundTrip<ExponentialHistogram>(MakeEh);
}

TEST(QueryEquivalenceTest, RwEstimateMatchesOracleAfterRoundTrip) {
  CheckOracleAfterRoundTrip<RandomizedWave>(MakeRw);
}

// Three interleaved streams into three counters, merged; the merged
// counter's query state must be consistent with its own contents.
template <typename Counter, typename MakeFn, typename MergeFn>
void CheckOracleAfterMerge(MakeFn make, MergeFn merge) {
  std::vector<Counter> parts;
  for (uint64_t i = 0; i < 3; ++i) parts.push_back(make(100 + i));
  Rng rng(5);
  Timestamp t = 1;
  for (int op = 0; op < 600; ++op) {
    t += rng.Uniform(20);
    parts[rng.Uniform(3)].Add(t, 1 + rng.Uniform(50));
  }
  std::vector<const Counter*> inputs;
  for (const Counter& c : parts) inputs.push_back(&c);
  auto merged = merge(inputs);
  ASSERT_TRUE(merged.ok());
  ExpectMatchesOracle(*merged, t, &rng, "merged");
}

TEST(QueryEquivalenceTest, EhEstimateMatchesOracleAfterMerge) {
  CheckOracleAfterMerge<ExponentialHistogram>(
      MakeEh, [](const std::vector<const ExponentialHistogram*>& in) {
        return MergeByReplay(in, ExponentialHistogram::Config{0.05, kWindow});
      });
}

TEST(QueryEquivalenceTest, RwEstimateMatchesOracleAfterMerge) {
  CheckOracleAfterMerge<RandomizedWave>(
      MakeRw, [](const std::vector<const RandomizedWave*>& in) {
        return MergeRandomizedWaves(in, 0xFEED);
      });
}

// Builds a moderately loaded EH sketch for the sketch-level checks.
EcmEh MakeLoadedSketch(uint64_t seed, Timestamp* now_out) {
  auto cfg = EcmConfig::Create(0.1, 0.05, WindowMode::kTimeBased, kWindow,
                               seed);
  EXPECT_TRUE(cfg.ok());
  EcmEh sketch(*cfg);
  Rng rng(seed);
  Timestamp t = 1;
  for (int i = 0; i < 4000; ++i) {
    t += rng.Uniform(3);
    sketch.Add(rng.Uniform(500), t, 1 + rng.Uniform(8));
  }
  *now_out = t;
  return sketch;
}

TEST(QueryEquivalenceTest, BatchedSelfJoinMatchesPerCellLoops) {
  Timestamp now = 0;
  EcmEh sketch = MakeLoadedSketch(21, &now);
  const EcmConfig& cfg = sketch.config();
  const uint64_t ranges[] = {64, 777, kWindow};
  for (uint64_t range : ranges) {
    // Per-cell reference with the counter estimates (exercises the
    // batching plumbing alone) ...
    double ref_new = std::numeric_limits<double>::infinity();
    // ... and with the bucket-log oracle (no indexed counter path at all).
    double ref_oracle = std::numeric_limits<double>::infinity();
    for (int j = 0; j < cfg.depth; ++j) {
      double row_new = 0.0, row_oracle = 0.0;
      for (uint32_t i = 0; i < cfg.width; ++i) {
        const ExponentialHistogram& c = sketch.CounterAt(j, i);
        row_new += c.Estimate(now, range) * c.Estimate(now, range);
        row_oracle += EhEstimateOracle(c, now, range) *
                      EhEstimateOracle(c, now, range);
      }
      ref_new = std::min(ref_new, row_new);
      ref_oracle = std::min(ref_oracle, row_oracle);
    }
    double batched = sketch.InnerProductAt(sketch, range, now).value();
    EXPECT_EQ(batched, ref_new) << "range " << range;
    EXPECT_EQ(batched, ref_oracle) << "range " << range;
  }
}

TEST(QueryEquivalenceTest, BatchedInnerProductMatchesPerCellLoop) {
  Timestamp now_a = 0, now_b = 0;
  EcmEh a = MakeLoadedSketch(31, &now_a);
  EcmEh b = MakeLoadedSketch(31, &now_b);  // same seed: compatible configs
  // Different contents.
  Rng rng(77);
  Timestamp t = now_b;
  for (int i = 0; i < 1000; ++i) {
    t += rng.Uniform(2);
    b.Add(rng.Uniform(300), t, 1 + rng.Uniform(5));
  }
  Timestamp now = std::max(now_a, t);
  const EcmConfig& cfg = a.config();
  const uint64_t ranges[] = {128, kWindow};
  for (uint64_t range : ranges) {
    double ref = std::numeric_limits<double>::infinity();
    for (int j = 0; j < cfg.depth; ++j) {
      double row = 0.0;
      for (uint32_t i = 0; i < cfg.width; ++i) {
        row += a.CounterAt(j, i).Estimate(now, range) *
               b.CounterAt(j, i).Estimate(now, range);
      }
      ref = std::min(ref, row);
    }
    EXPECT_EQ(a.InnerProductAt(b, range, now).value(), ref)
        << "range " << range;
  }
}

TEST(QueryEquivalenceTest, EstimateL1MatchesPerCellSweepAndInvalidates) {
  Timestamp now = 0;
  EcmEh sketch = MakeLoadedSketch(41, &now);
  const EcmConfig& cfg = sketch.config();
  auto reference = [&](uint64_t range, Timestamp at) {
    double total = 0.0;
    for (int j = 0; j < cfg.depth; ++j) {
      for (uint32_t i = 0; i < cfg.width; ++i) {
        total += sketch.CounterAt(j, i).Estimate(at, range);
      }
    }
    return total / cfg.depth;
  };
  const uint64_t ranges[] = {100, kWindow};
  for (uint64_t range : ranges) {
    double first = sketch.EstimateL1At(range, now);
    EXPECT_EQ(first, reference(range, now));
    // Memoized second call returns the identical value.
    EXPECT_EQ(sketch.EstimateL1At(range, now), first);
  }
  // An update must invalidate the memo: the cached (now, range) pair
  // would otherwise serve a stale total.
  double before = sketch.EstimateL1At(kWindow, now);
  sketch.Add(7, now + 1, 1000);
  double after = sketch.EstimateL1At(kWindow, now + 1);
  EXPECT_EQ(after, reference(kWindow, now + 1));
  EXPECT_NE(after, before);
}

TEST(QueryEquivalenceTest, PointQueryBatchMatchesPerKeyQueries) {
  // Batch sizes straddle the sweep cost model's cutover (64 keys: the
  // caller-order sweep below, the bucket-sorted column walk from there
  // on); keys repeat, so column-colliding and duplicate keys share one
  // Estimate in the sorted walk.
  Timestamp now = 0;
  EcmEh sketch = MakeLoadedSketch(61, &now);
  Rng rng(77);
  std::vector<uint64_t> keys;
  for (int i = 0; i < 5'000; ++i) keys.push_back(rng.Uniform(700));
  std::vector<double> got(keys.size());
  const uint64_t ranges[] = {64, kWindow / 3, kWindow};
  for (size_t n : {size_t{5}, size_t{63}, size_t{64}, keys.size()}) {
    for (uint64_t range : ranges) {
      sketch.PointQueryBatchAt(keys.data(), n, range, now, got.data());
      for (size_t i = 0; i < n; ++i) {
        ASSERT_EQ(got[i], sketch.PointQueryAt(keys[i], range, now))
            << "key " << keys[i] << " range " << range << " n " << n;
      }
    }
  }
}

TEST(QueryEquivalenceTest, EstimateL1LruCoversInterleavedRanges) {
  // PR-4's single-entry memo thrashed when a dashboard interleaved two
  // range ladders; the LRU must serve every ladder position from cache.
  Timestamp now = 0;
  EcmEh sketch = MakeLoadedSketch(71, &now);
  const uint64_t ladder[] = {50, 200, 800, 1600, 2400, kWindow};
  auto stats0 = sketch.l1_cache_stats();
  for (uint64_t range : ladder) sketch.EstimateL1At(range, now);
  auto stats1 = sketch.l1_cache_stats();
  EXPECT_EQ(stats1.misses - stats0.misses, 6u);
  EXPECT_EQ(stats1.hits, stats0.hits);
  // Interleaved re-probing of all six (now, range) pairs: pure hits.
  for (int rep = 0; rep < 10; ++rep) {
    for (uint64_t range : ladder) sketch.EstimateL1At(range, now);
  }
  auto stats2 = sketch.l1_cache_stats();
  EXPECT_EQ(stats2.misses, stats1.misses);
  EXPECT_EQ(stats2.hits - stats1.hits, 60u);
  // Any update invalidates every cached entry.
  sketch.Add(3, now + 1, 5);
  sketch.EstimateL1At(kWindow, now + 1);
  auto stats3 = sketch.l1_cache_stats();
  EXPECT_EQ(stats3.misses, stats2.misses + 1);
  // Cached values are the recomputed ones.
  double cached = sketch.EstimateL1At(kWindow, now + 1);
  double recomputed = 0.0;
  const EcmConfig& cfg = sketch.config();
  for (int j = 0; j < cfg.depth; ++j) {
    for (uint32_t i = 0; i < cfg.width; ++i) {
      recomputed += sketch.CounterAt(j, i).Estimate(now + 1, kWindow);
    }
  }
  EXPECT_EQ(cached, recomputed / cfg.depth);
}

// Reference recursive per-node descent (the pre-PR4 implementation),
// rebuilt on the public API.
template <typename Counter>
void DescendReference(const DyadicEcm<Counter>& dy, int level,
                      uint64_t prefix, double threshold, uint64_t range,
                      std::vector<HeavyHitter>* out) {
  const auto& sketch = dy.level(level);
  double est = sketch.PointQueryAt(prefix, range, sketch.Now());
  if (est < threshold) return;
  if (level == 0) {
    out->push_back(HeavyHitter{prefix, est});
    return;
  }
  DescendReference(dy, level - 1, prefix * 2, threshold, range, out);
  DescendReference(dy, level - 1, prefix * 2 + 1, threshold, range, out);
}

TEST(QueryEquivalenceTest, FrontierHeavyHittersMatchRecursiveDescent) {
  auto dy = DyadicEcm<ExponentialHistogram>::Create(
      12, 0.05, 0.05, WindowMode::kTimeBased, kWindow, 9);
  ASSERT_TRUE(dy.ok());
  Rng rng(13);
  Timestamp t = 1;
  for (int i = 0; i < 20000; ++i) {
    t += rng.Uniform(2);
    // Skewed keys so some prefixes are heavy.
    uint64_t key = rng.Uniform(8) == 0 ? rng.Uniform(5) : rng.Uniform(4000);
    dy->Add(key, t);
  }
  for (double threshold : {200.0, 1000.0}) {
    auto fast = dy->HeavyHittersAbsolute(threshold, kWindow);
    std::vector<HeavyHitter> ref;
    DescendReference(*dy, dy->domain_bits() - 1, 0, threshold, kWindow, &ref);
    DescendReference(*dy, dy->domain_bits() - 1, 1, threshold, kWindow, &ref);
    ASSERT_EQ(fast.size(), ref.size()) << "threshold " << threshold;
    for (size_t i = 0; i < fast.size(); ++i) {
      EXPECT_EQ(fast[i].key, ref[i].key);
      EXPECT_EQ(fast[i].estimate, ref[i].estimate);
    }
  }
}

TEST(QueryEquivalenceTest, RangeQueryMatchesPerRangeSum) {
  auto dy = DyadicEcm<ExponentialHistogram>::Create(
      10, 0.05, 0.05, WindowMode::kTimeBased, kWindow, 4);
  ASSERT_TRUE(dy.ok());
  Rng rng(23);
  Timestamp t = 1;
  for (int i = 0; i < 8000; ++i) {
    t += rng.Uniform(2);
    dy->Add(rng.Uniform(1000), t);
  }
  for (int q = 0; q < 50; ++q) {
    uint64_t lo = rng.Uniform(1000);
    uint64_t hi = lo + rng.Uniform(1000);
    double ref = 0.0;
    for (const DyadicRange& r : DyadicDecompose(lo, hi, dy->domain_bits())) {
      const auto& sketch = dy->level(r.level);
      ref += sketch.PointQueryAt(r.prefix, kWindow, sketch.Now());
    }
    // The grouped-by-level batch sums in a different order; allow FP
    // reassociation noise only.
    EXPECT_NEAR(dy->RangeQuery(lo, hi, kWindow), ref, 1e-6 * (1.0 + ref));
  }
}

}  // namespace
}  // namespace ecm
