// Tests for multi-level (hierarchical) aggregation of exponential
// histograms (§5.1): the h-level error bound hε(1+ε)+ε, monotone error
// growth with height, and stability of repeated re-summarization.

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "src/util/random.h"
#include "src/window/merge.h"

namespace ecm {
namespace {

constexpr uint64_t kWindow = 1 << 20;

struct Truth {
  std::vector<Timestamp> stamps;
  uint64_t Count(Timestamp now, uint64_t range) const {
    Timestamp boundary = WindowStart(now, range);
    uint64_t n = 0;
    for (Timestamp t : stamps) {
      if (t > boundary && t <= now) ++n;
    }
    return n;
  }
};

// Builds 2^h leaf histograms over an interleaved stream and merges them
// pairwise up h levels. Returns the root and the interleaved truth.
struct HierarchyResult {
  ExponentialHistogram root;
  Truth truth;
  Timestamp now;
};

HierarchyResult BuildHierarchy(int h, double eps, uint64_t seed) {
  int n = 1 << h;
  std::vector<ExponentialHistogram> level(
      n, ExponentialHistogram({eps, kWindow}));
  Truth truth;
  Rng rng(seed);
  Timestamp t = 1;
  for (int i = 0; i < 50000; ++i) {
    t += rng.Uniform(3);
    level[rng.Uniform(n)].Add(t);
    truth.stamps.push_back(t);
  }
  while (level.size() > 1) {
    std::vector<ExponentialHistogram> next;
    for (size_t i = 0; i + 1 < level.size(); i += 2) {
      auto m = MergeByReplay<ExponentialHistogram>(
          {&level[i], &level[i + 1]}, {eps, kWindow});
      EXPECT_TRUE(m.ok());
      next.push_back(std::move(*m));
    }
    level = std::move(next);
  }
  return {std::move(level[0]), std::move(truth), t};
}

class MultiLevelSweep : public ::testing::TestWithParam<int> {};

TEST_P(MultiLevelSweep, HLevelBoundHolds) {
  int h = GetParam();
  constexpr double kEps = 0.1;
  auto r = BuildHierarchy(h, kEps, 40 + h);
  // §5.1: err <= h*eps*(1+eps) + eps.
  double bound = h * kEps * (1 + kEps) + kEps;
  for (uint64_t range : {uint64_t{20000}, uint64_t{100000}}) {
    double est = r.root.Estimate(r.now, range);
    double tv = static_cast<double>(r.truth.Count(r.now, range));
    EXPECT_LE(std::abs(est - tv), bound * tv + 3.0)
        << "h=" << h << " range=" << range << " truth=" << tv
        << " est=" << est;
  }
}

INSTANTIATE_TEST_SUITE_P(Heights, MultiLevelSweep,
                         ::testing::Values(1, 2, 3, 4, 5));

TEST(MultiLevelTest, ObservedErrorFarBelowWorstCaseBound) {
  // The paper's empirical observation (§7.3): the actual error after
  // aggregation is a small fraction of the analytic bound.
  constexpr double kEps = 0.1;
  auto r = BuildHierarchy(5, kEps, 7);
  double est = r.root.Estimate(r.now, 100000);
  double tv = static_cast<double>(r.truth.Count(r.now, 100000));
  double observed = std::abs(est - tv) / tv;
  double bound = 5 * kEps * (1 + kEps) + kEps;
  EXPECT_LT(observed, bound / 3.0)
      << "observed " << observed << " vs bound " << bound;
}

TEST(MultiLevelTest, RepeatedSelfMergeDoesNotCollapse) {
  // Merging a histogram with an empty one h times re-summarizes it h
  // times; counts must stay within the compounded band, not drift to 0.
  ExponentialHistogram eh({0.1, kWindow});
  for (Timestamp t = 1; t <= 20000; ++t) eh.Add(t);
  ExponentialHistogram current = eh;
  for (int round = 0; round < 6; ++round) {
    ExponentialHistogram empty({0.1, kWindow});
    auto m =
        MergeByReplay<ExponentialHistogram>({&current, &empty}, {0.1, kWindow});
    ASSERT_TRUE(m.ok());
    current = std::move(*m);
  }
  double est = current.Estimate(20000, kWindow);
  EXPECT_NEAR(est, 20000.0, 20000.0 * 0.8);
}

TEST(MultiLevelTest, CalibrationFormulaRoundTrips) {
  // LeafEpsilonForTarget is exercised in aggregation_tree_test; here the
  // §5.1 algebra: plugging the calibrated leaf eps into the bound returns
  // the target for every (h, target) pair.
  for (int h = 1; h <= 12; ++h) {
    for (double target = 0.02; target < 0.5; target += 0.06) {
      double x = target;  // alias for clarity
      double leaf = (std::sqrt(1.0 + 2.0 * h + h * h + 4.0 * h * x) - 1.0 -
                     h) /
                    (2.0 * h);
      EXPECT_NEAR(h * leaf * (1 + leaf) + leaf, target, 1e-9);
    }
  }
}

}  // namespace
}  // namespace ecm
