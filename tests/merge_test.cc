// Tests for order-preserving aggregation of window synopses (paper §5):
// Theorem 4's error bound for exponential histograms, the deterministic-
// wave extension, lossless randomized-wave union, the compatibility
// checks, and a byte-level differential of MergeByReplay's run merge and
// bulk unit append against a concatenate-sort-replay oracle.

#include "src/window/merge.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <thread>
#include <vector>

#include "src/core/ecm_sketch.h"
#include "src/dist/serialize.h"
#include "src/util/bytes.h"
#include "src/util/random.h"

namespace ecm {
namespace {

// Interleaved ground truth over several streams.
class MultiStreamTruth {
 public:
  void Add(Timestamp ts, uint64_t count = 1) {
    for (uint64_t i = 0; i < count; ++i) stamps_.push_back(ts);
  }
  uint64_t Count(Timestamp now, uint64_t range) const {
    Timestamp boundary = WindowStart(now, range);
    uint64_t n = 0;
    for (Timestamp t : stamps_) {
      if (t > boundary && t <= now) ++n;
    }
    return n;
  }

 private:
  std::vector<Timestamp> stamps_;
};

TEST(ReplayMergeEhTest, RejectsEmptyInput) {
  EXPECT_FALSE(MergeByReplay<ExponentialHistogram>({}, {0.1, 100}).ok());
}

TEST(ReplayMergeEhTest, RejectsMismatchedWindows) {
  ExponentialHistogram a({0.1, 100});
  ExponentialHistogram b({0.1, 200});
  auto r = MergeByReplay<ExponentialHistogram>({&a, &b}, {0.1, 100});
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIncompatible);
}

TEST(ReplayMergeEhTest, MergeOfEmptiesIsEmpty) {
  ExponentialHistogram a({0.1, 100});
  ExponentialHistogram b({0.1, 100});
  auto m = MergeByReplay<ExponentialHistogram>({&a, &b}, {0.1, 100});
  ASSERT_TRUE(m.ok());
  EXPECT_TRUE(m->Empty());
}

TEST(ReplayMergeEhTest, SingleInputPreservesCount) {
  ExponentialHistogram a({0.1, 100000});
  for (Timestamp t = 1; t <= 2000; ++t) a.Add(t);
  auto m = MergeByReplay<ExponentialHistogram>({&a}, {0.1, 100000});
  ASSERT_TRUE(m.ok());
  double orig = a.Estimate(2000, 100000);
  double merged = m->Estimate(2000, 100000);
  // One re-summarization: error vs the original estimate within ~2eps.
  EXPECT_NEAR(merged, orig, orig * 0.25 + 2.0);
}

TEST(ReplayMergeEhTest, MergedTotalMatchesSumOfBucketTotals) {
  ExponentialHistogram a({0.1, 1 << 20});
  ExponentialHistogram b({0.1, 1 << 20});
  for (Timestamp t = 1; t <= 1000; ++t) a.Add(t);
  for (Timestamp t = 1; t <= 1500; ++t) b.Add(t * 2);
  auto m = MergeByReplay<ExponentialHistogram>({&a, &b}, {0.1, 1 << 20});
  ASSERT_TRUE(m.ok());
  // Replay conserves every bit that was in a bucket.
  EXPECT_EQ(m->BucketTotal(), a.BucketTotal() + b.BucketTotal());
}

// Theorem 4 sweep: merged-estimate error <= (eps + eps' + eps*eps') * truth
// (+1 rounding slack) across epsilons, stream counts and query ranges.
struct MergeSweepParam {
  double eps;
  double eps_prime;
  int num_streams;
};

class MergeErrorSweep : public ::testing::TestWithParam<MergeSweepParam> {};

TEST_P(MergeErrorSweep, Theorem4Bound) {
  const MergeSweepParam p = GetParam();
  constexpr uint64_t kWindow = 1 << 20;
  std::vector<ExponentialHistogram> ehs(
      p.num_streams, ExponentialHistogram({p.eps, kWindow}));
  MultiStreamTruth truth;
  Rng rng(p.num_streams * 1000 + static_cast<uint64_t>(p.eps * 100));

  // Interleaved streams with skewed per-stream rates.
  Timestamp t = 1;
  for (int i = 0; i < 40000; ++i) {
    t += rng.Uniform(3);
    int s = static_cast<int>(rng.Uniform(p.num_streams));
    ehs[s].Add(t);
    truth.Add(t);
  }
  std::vector<const ExponentialHistogram*> ptrs;
  for (auto& eh : ehs) ptrs.push_back(&eh);
  auto merged = MergeByReplay(ptrs, {p.eps_prime, kWindow});
  ASSERT_TRUE(merged.ok());

  double bound = p.eps + p.eps_prime + p.eps * p.eps_prime;
  for (uint64_t range : {1000ULL, 20000ULL, 60000ULL}) {
    double est = merged->Estimate(t, range);
    double tv = static_cast<double>(truth.Count(t, range));
    EXPECT_LE(std::abs(est - tv), bound * tv + 2.0)
        << "range=" << range << " truth=" << tv << " est=" << est;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, MergeErrorSweep,
    ::testing::Values(MergeSweepParam{0.05, 0.05, 2},
                      MergeSweepParam{0.1, 0.1, 2},
                      MergeSweepParam{0.1, 0.1, 5},
                      MergeSweepParam{0.1, 0.05, 8},
                      MergeSweepParam{0.2, 0.2, 3},
                      MergeSweepParam{0.05, 0.2, 4}));

TEST(ReplayMergeDwTest, Theorem4StyleBoundHolds) {
  constexpr uint64_t kWindow = 1 << 20;
  constexpr double kEps = 0.1;
  DeterministicWave a({kEps, kWindow, 1 << 18});
  DeterministicWave b({kEps, kWindow, 1 << 18});
  MultiStreamTruth truth;
  Rng rng(42);
  Timestamp t = 1;
  for (int i = 0; i < 30000; ++i) {
    t += rng.Uniform(3);
    if (rng.Bernoulli(0.6)) {
      a.Add(t);
    } else {
      b.Add(t);
    }
    truth.Add(t);
  }
  auto merged =
      MergeByReplay<DeterministicWave>({&a, &b}, {kEps, kWindow, 1 << 19});
  ASSERT_TRUE(merged.ok());
  double bound = kEps + kEps + kEps * kEps;
  for (uint64_t range : {5000ULL, 30000ULL}) {
    double est = merged->Estimate(t, range);
    double tv = static_cast<double>(truth.Count(t, range));
    EXPECT_LE(std::abs(est - tv), bound * tv + 2.0)
        << "range=" << range << " truth=" << tv << " est=" << est;
  }
}

TEST(ReplayMergeDwTest, RejectsMismatchedWindows) {
  DeterministicWave a({0.1, 100, 1000});
  DeterministicWave b({0.1, 999, 1000});
  EXPECT_FALSE(
      MergeByReplay<DeterministicWave>({&a, &b}, {0.1, 100, 1000}).ok());
}

TEST(MergeRandomizedWavesTest, RejectsMismatchedConfig) {
  RandomizedWave::Config ca;
  ca.epsilon = 0.1;
  RandomizedWave::Config cb = ca;
  cb.epsilon = 0.2;
  RandomizedWave a(ca), b(cb);
  auto r = MergeRandomizedWaves({&a, &b}, 1);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIncompatible);
}

TEST(MergeRandomizedWavesTest, LosslessWhileSamplesComplete) {
  // Small streams: level 0 of every sub-wave holds everything, so the
  // merged wave answers exactly.
  RandomizedWave::Config cfg;
  cfg.epsilon = 0.2;  // capacity 100
  cfg.window_len = 1 << 16;
  cfg.max_arrivals = 1 << 12;
  cfg.seed = 1;
  RandomizedWave a(cfg);
  cfg.seed = 2;
  RandomizedWave b(cfg);
  for (Timestamp t = 1; t <= 40; ++t) a.Add(2 * t);
  for (Timestamp t = 1; t <= 30; ++t) b.Add(2 * t + 1);
  auto m = MergeRandomizedWaves({&a, &b}, 99);
  ASSERT_TRUE(m.ok());
  EXPECT_EQ(m->Estimate(81, 1 << 16), 70.0);
  EXPECT_EQ(m->lifetime_count(), 70u);
}

TEST(MergeRandomizedWavesTest, LargeMergeStaysInEpsilonBand) {
  RandomizedWave::Config cfg;
  cfg.epsilon = 0.1;
  cfg.delta = 0.05;
  cfg.window_len = 1 << 20;
  cfg.max_arrivals = 1 << 17;
  std::vector<RandomizedWave> waves;
  for (int i = 0; i < 4; ++i) {
    cfg.seed = 100 + i;
    waves.emplace_back(cfg);
  }
  MultiStreamTruth truth;
  Rng rng(8);
  Timestamp t = 1;
  for (int i = 0; i < 60000; ++i) {
    t += rng.Uniform(3);
    waves[rng.Uniform(4)].Add(t);
    truth.Add(t);
  }
  std::vector<const RandomizedWave*> ptrs;
  for (auto& w : waves) ptrs.push_back(&w);
  auto merged = MergeRandomizedWaves(ptrs, 5);
  ASSERT_TRUE(merged.ok());
  for (uint64_t range : {10000ULL, 60000ULL}) {
    double est = merged->Estimate(t, range);
    double tv = static_cast<double>(truth.Count(t, range));
    EXPECT_LE(std::abs(est - tv), 2.5 * cfg.epsilon * tv + 2.0)
        << "range=" << range << " truth=" << tv << " est=" << est;
  }
}

TEST(MergeRandomizedWavesTest, HandlesDifferentLevelCounts) {
  RandomizedWave::Config small;
  small.epsilon = 0.2;
  small.window_len = 1 << 16;
  small.max_arrivals = 1 << 10;
  small.seed = 3;
  RandomizedWave::Config big = small;
  big.max_arrivals = 1 << 16;
  big.seed = 4;
  RandomizedWave a(small), b(big);
  ASSERT_LT(a.num_levels(), b.num_levels());
  for (Timestamp t = 1; t <= 5000; ++t) {
    a.Add(2 * t);
    b.Add(2 * t + 1);
  }
  auto m = MergeRandomizedWaves({&a, &b}, 17);
  ASSERT_TRUE(m.ok());
  EXPECT_EQ(m->num_levels(), b.num_levels());
  double est = m->Estimate(10001, 1 << 16);
  EXPECT_NEAR(est, 10000.0, 10000.0 * 0.5);
}

std::vector<ReplayEvent> EventsOf(const std::vector<BucketView>& buckets) {
  std::vector<ReplayEvent> events;
  for (const BucketView& b : buckets) AppendBucketEvents(b, &events);
  return events;
}

TEST(ReplayTest, BucketEventsSplitHalfHalf) {
  std::vector<BucketView> buckets = {{10, 20, 8}, {20, 20, 3}, {20, 25, 1}};
  std::vector<ReplayEvent> events = EventsOf(buckets);
  // 8 -> 4@10 + 4@20; 3 zero-width -> 3@20; 1 -> 1@25.
  uint64_t total = 0;
  for (const auto& e : events) total += e.count;
  EXPECT_EQ(total, 12u);
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(events[0].ts, 10u);
  EXPECT_EQ(events[0].count, 4u);
}

TEST(ReplayTest, ClampsTimestampZero) {
  std::vector<BucketView> buckets = {{0, 0, 4}};
  for (const auto& e : EventsOf(buckets)) EXPECT_GE(e.ts, 1u);
}

// --- differential: MergeByReplay against the concatenate-sort oracle ----

// The §5.1 replay in its plainest form: every input's events
// concatenated, stable-sorted by timestamp, and replayed one Add each.
// MergeByReplay's run merge and bulk unit append must leave the same
// bytes.
template <typename C>
C OracleMerge(const std::vector<const C*>& inputs,
              const typename C::Config& cfg) {
  std::vector<ReplayEvent> events;
  for (const C* c : inputs) {
    for (const BucketView& b : c->Buckets()) AppendBucketEvents(b, &events);
  }
  std::stable_sort(events.begin(), events.end(),
                   [](const ReplayEvent& a, const ReplayEvent& b) {
                     return a.ts < b.ts;
                   });
  C merged(cfg);
  for (const ReplayEvent& e : events) merged.Add(e.ts, e.count);
  return merged;
}

template <typename C>
std::vector<uint8_t> Bytes(const C& c) {
  ByteWriter w;
  c.SerializeTo(&w);
  return w.bytes();
}

template <typename C>
typename C::Config CounterConfig(double eps, uint64_t window,
                                 uint64_t max_arrivals);
template <>
ExponentialHistogram::Config CounterConfig<ExponentialHistogram>(
    double eps, uint64_t window, uint64_t) {
  return {eps, window};
}
template <>
DeterministicWave::Config CounterConfig<DeterministicWave>(
    double eps, uint64_t window, uint64_t max_arrivals) {
  return {eps, window, max_arrivals};
}
template <>
ExactWindow::Config CounterConfig<ExactWindow>(double, uint64_t window,
                                               uint64_t) {
  return {window};
}

// One differential scenario: `sites` seeded streams over a shared clock.
// `lag_site` (if >= 0) stops after arrival `lag_stop` of the stream, so
// its buckets are old and the merged counter expires them mid-replay;
// `weighted` makes about every fourth arrival carry 2..9 units.
struct Scenario {
  int sites;
  int arrivals;
  uint64_t max_gap;
  int lag_site;
  int lag_stop;
  bool weighted;
};

template <typename C>
std::vector<C> BuildSites(const Scenario& sc, double eps, uint64_t window,
                          uint64_t seed) {
  std::vector<C> sites(sc.sites, C(CounterConfig<C>(eps, window, 1 << 16)));
  Rng rng(seed);
  Timestamp t = 1;
  for (int i = 0; i < sc.arrivals; ++i) {
    t += rng.Uniform(sc.max_gap + 1);
    const int s = static_cast<int>(rng.Uniform(sc.sites));
    if (s == sc.lag_site && i >= sc.lag_stop) continue;
    const uint64_t count =
        sc.weighted && rng.Uniform(4) == 0 ? 2 + rng.Uniform(8) : 1;
    sites[s].Add(t, count);
  }
  return sites;
}

// Runs every scenario over several (ε, ε′, window) settings and returns
// the number of merges whose bytes differ from the oracle's.
template <typename C>
int CountMergeMismatches(const std::vector<Scenario>& scenarios) {
  struct Setting {
    double eps;
    double eps_prime;
    uint64_t window;
  };
  const Setting settings[] = {{0.1, 0.1, 500},
                              {0.05, 0.1, 5000},
                              {0.3, 0.05, 100},
                              {0.1, 0.2, 1 << 20}};
  int mismatches = 0;
  uint64_t seed = 1;
  for (const Scenario& sc : scenarios) {
    for (const Setting& st : settings) {
      std::vector<C> sites = BuildSites<C>(sc, st.eps, st.window, ++seed);
      std::vector<const C*> ptrs;
      for (const C& c : sites) ptrs.push_back(&c);
      const auto cfg = CounterConfig<C>(st.eps_prime, st.window,
                                        sc.sites * (1 << 16));
      auto merged = MergeByReplay(ptrs, cfg);
      EXPECT_TRUE(merged.ok()) << merged.status();
      if (!merged.ok()) continue;
      if (Bytes(*merged) != Bytes(OracleMerge(ptrs, cfg))) {
        ++mismatches;
        ADD_FAILURE() << "sites=" << sc.sites << " lag_site=" << sc.lag_site
                      << " weighted=" << sc.weighted << " eps=" << st.eps
                      << " window=" << st.window;
      }
    }
  }
  return mismatches;
}

const std::vector<Scenario>& DifferentialScenarios() {
  static const std::vector<Scenario> scenarios = {
      {8, 6000, 2, -1, 0, false},    // dense, many equal timestamps
      {5, 4000, 9, -1, 0, false},    // sparse: the window slides often
      {4, 5000, 3, 0, 2000, false},  // a lagging site expires mid-replay
      {6, 5000, 3, 2, 3500, true},   // lagging site plus weighted adds
      {3, 3000, 1, -1, 0, true},     // weighted adds, heavy ties
      {1, 5000, 2, -1, 0, false},    // a single input
      {1, 3000, 4, -1, 0, true},     // a single weighted input
      {4, 0, 1, -1, 0, false},       // all inputs empty
  };
  return scenarios;
}

TEST(MergeDifferentialTest, EhMatchesOracleBytes) {
  EXPECT_EQ(CountMergeMismatches<ExponentialHistogram>(DifferentialScenarios()),
            0);
}

TEST(MergeDifferentialTest, DwMatchesOracleBytes) {
  EXPECT_EQ(CountMergeMismatches<DeterministicWave>(DifferentialScenarios()),
            0);
}

TEST(MergeDifferentialTest, ExactWindowMatchesOracleBytes) {
  EXPECT_EQ(CountMergeMismatches<ExactWindow>(DifferentialScenarios()), 0);
}

// Seeded random scenarios and settings. Small windows with a lagging
// site are where the replay's expiry interleaves with the cascade most
// often, so the sweep leans on them.
template <typename C>
int CountRandomizedMergeMismatches(uint64_t seed, int trials) {
  Rng rng(seed);
  int mismatches = 0;
  for (int trial = 0; trial < trials; ++trial) {
    Scenario sc;
    sc.sites = 1 + static_cast<int>(rng.Uniform(8));
    sc.arrivals = 200 + static_cast<int>(rng.Uniform(6000));
    sc.max_gap = rng.Uniform(4);
    sc.lag_site = rng.Uniform(2) == 0 ? 0 : -1;
    sc.lag_stop = static_cast<int>(rng.Uniform(sc.arrivals));
    sc.weighted = rng.Uniform(3) == 0;
    const double eps = 0.05 + 0.3 * rng.NextDouble();
    const uint64_t window = 20 + rng.Uniform(rng.Uniform(2) == 0 ? 200 : 5000);
    std::vector<C> sites = BuildSites<C>(sc, eps, window, rng.Next());
    std::vector<const C*> ptrs;
    for (const C& c : sites) ptrs.push_back(&c);
    const auto cfg = CounterConfig<C>(0.02 + 0.25 * rng.NextDouble(), window,
                                      sc.sites * (1 << 16));
    auto merged = MergeByReplay(ptrs, cfg);
    EXPECT_TRUE(merged.ok()) << merged.status();
    if (merged.ok() && Bytes(*merged) != Bytes(OracleMerge(ptrs, cfg))) {
      ++mismatches;
      ADD_FAILURE() << "trial " << trial;
    }
  }
  return mismatches;
}

TEST(MergeDifferentialTest, RandomizedSweepMatchesOracleBytes) {
  EXPECT_EQ(CountRandomizedMergeMismatches<ExponentialHistogram>(71, 400), 0);
  EXPECT_EQ(CountRandomizedMergeMismatches<DeterministicWave>(72, 100), 0);
  EXPECT_EQ(CountRandomizedMergeMismatches<ExactWindow>(73, 100), 0);
}

TEST(MergeDifferentialTest, EmptyAndNonEmptyInputsMix) {
  // Empty inputs contribute empty runs anywhere in the run merge.
  ExponentialHistogram a({0.1, 1000}), empty({0.1, 1000}), b({0.1, 1000});
  for (Timestamp t = 1; t <= 3000; ++t) (t % 3 == 0 ? a : b).Add(t);
  std::vector<const ExponentialHistogram*> ptrs = {&empty, &a, &empty, &b,
                                                   &empty};
  auto merged = MergeByReplay(ptrs, {0.1, 1000});
  ASSERT_TRUE(merged.ok());
  EXPECT_EQ(Bytes(*merged), Bytes(OracleMerge(ptrs, {0.1, 1000})));
}

// The merge's scratch is thread_local: two EcmSketch merges running at
// once on two threads must each produce their single-threaded bytes.
TEST(MergeThreadTest, ConcurrentEcmMergesMatchSerialBytes) {
  auto cfg = EcmConfig::Create(0.1, 0.1, WindowMode::kTimeBased, 4000, 7);
  ASSERT_TRUE(cfg.ok());
  auto build = [&](uint64_t seed) {
    std::vector<EcmEh> sites(4, EcmEh(*cfg));
    Rng rng(seed);
    Timestamp t = 1;
    for (int i = 0; i < 20000; ++i) {
      t += rng.Uniform(2);
      sites[rng.Uniform(4)].Add(rng.Uniform(300), t);
    }
    for (EcmEh& s : sites) s.AdvanceTo(t);
    return sites;
  };
  const std::vector<EcmEh> left = build(11), right = build(12);
  auto merge = [](const std::vector<EcmEh>& sites) {
    std::vector<const EcmEh*> ptrs;
    for (const EcmEh& s : sites) ptrs.push_back(&s);
    auto m = EcmEh::Merge(ptrs, 0.1);
    EXPECT_TRUE(m.ok()) << m.status();
    return m.ok() ? SerializeSketch(*m) : std::vector<uint8_t>{};
  };
  const std::vector<uint8_t> want_left = merge(left);
  const std::vector<uint8_t> want_right = merge(right);
  for (int round = 0; round < 3; ++round) {
    std::vector<uint8_t> got_left, got_right;
    std::thread a([&] { got_left = merge(left); });
    std::thread b([&] { got_right = merge(right); });
    a.join();
    b.join();
    EXPECT_EQ(got_left, want_left) << "round " << round;
    EXPECT_EQ(got_right, want_right) << "round " << round;
  }
}

}  // namespace
}  // namespace ecm
