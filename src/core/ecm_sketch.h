// ECM-sketch (Exponential Count-Min sketch) — the paper's core
// contribution (§4): a Count-Min sketch whose counters are sliding-window
// synopses, summarizing the item-frequency distribution of a
// high-dimensional stream over time-based or count-based sliding windows.
//
// The class is templated on the counter type (exponential histogram by
// default; deterministic or randomized wave; exact window for testing), so
// the paper's three variants are:
//
//     using EcmEh = EcmSketch<ExponentialHistogram>;   // "ECM-EH"
//     using EcmDw = EcmSketch<DeterministicWave>;      // "ECM-DW"
//     using EcmRw = EcmSketch<RandomizedWave>;         // "ECM-RW"
//
// Supported queries (all over any range r within the window):
//  * point query        f̂(x, r)         — Theorems 1/3 error bound
//  * inner product      (a_r ⊙ b_r)^     — Theorem 2 error bound
//  * self-join size F₂  (a_r ⊙ a_r)^
//  * windowed L1 estimate (for ratio-threshold heavy hitters, §6.1)
//
// Time-based sketches of parallel streams merge into a sketch of the
// order-preserving aggregate stream (§5.3); count-based sketches refuse to
// merge (Fig. 2 impossibility).

#ifndef ECM_CORE_ECM_SKETCH_H_
#define ECM_CORE_ECM_SKETCH_H_

#include <algorithm>
#include <array>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "src/core/ecm_config.h"
#include "src/util/hash.h"
#include "src/util/result.h"
#include "src/util/simd.h"
#include "src/window/counter_traits.h"
#include "src/window/merge.h"

namespace ecm {

/// Which sweep PointQueryBatchAt runs over each sketch row.
enum class BatchQueryMode : uint8_t {
  /// Cost-model pick: bucket-sorted once the frontier is large enough to
  /// amortize the per-row counting sort, scalar sweep below that. With
  /// the row-major column matrix the sorted walk wins in both coverage
  /// regimes (sequential counter access plus shared-column dedup), so
  /// the cutover is on frontier size alone.
  kAuto = 0,
  kScalarSweep = 1,   ///< keys in caller order, one Estimate per (key, row)
  kBucketSorted = 2,  ///< counting-sorted column walk, collisions deduped
};

/// Builds the per-counter configuration appropriate for each counter type
/// from the sketch-level EcmConfig.
template <SlidingWindowCounter Counter>
typename Counter::Config MakeCounterConfig(const EcmConfig& cfg);

template <>
inline ExponentialHistogram::Config
MakeCounterConfig<ExponentialHistogram>(const EcmConfig& cfg) {
  return ExponentialHistogram::Config{cfg.epsilon_sw, cfg.window_len};
}

template <>
inline DeterministicWave::Config MakeCounterConfig<DeterministicWave>(
    const EcmConfig& cfg) {
  return DeterministicWave::Config{cfg.epsilon_sw, cfg.window_len,
                                   cfg.max_arrivals};
}

template <>
inline RandomizedWave::Config MakeCounterConfig<RandomizedWave>(
    const EcmConfig& cfg) {
  RandomizedWave::Config c;
  c.epsilon = cfg.epsilon_sw;
  c.delta = cfg.delta_sw > 0 ? cfg.delta_sw : cfg.delta / 2.0;
  c.window_len = cfg.window_len;
  c.max_arrivals = cfg.max_arrivals;
  c.seed = cfg.seed;
  return c;
}

template <>
inline ExactWindow::Config MakeCounterConfig<ExactWindow>(
    const EcmConfig& cfg) {
  return ExactWindow::Config{cfg.window_len};
}

/// Equi-width baseline: spend the window-error budget on ring granularity
/// — B = ceil(1/ε_sw) sub-windows, the natural memory-matched
/// configuration against an ε_sw exponential histogram.
template <>
inline EquiWidthWindow::Config MakeCounterConfig<EquiWidthWindow>(
    const EcmConfig& cfg) {
  auto subwindows = static_cast<uint32_t>(
      std::ceil(1.0 / (cfg.epsilon_sw > 0 ? cfg.epsilon_sw : 0.1)));
  return EquiWidthWindow::Config{cfg.window_len, subwindows};
}

/// Hybrid baseline: exact resolution over the most recent 5% of the
/// window, ε_sw-granular equi-width tail — the natural memory-comparable
/// configuration against an ε_sw exponential histogram.
template <>
inline HybridHistogram::Config MakeCounterConfig<HybridHistogram>(
    const EcmConfig& cfg) {
  HybridHistogram::Config c;
  c.window_len = cfg.window_len;
  c.exact_len = std::max<uint64_t>(1, cfg.window_len / 20);
  c.num_subwindows = static_cast<uint32_t>(
      std::ceil(1.0 / (cfg.epsilon_sw > 0 ? cfg.epsilon_sw : 0.1)));
  return c;
}

/// Count-Min sketch over sliding windows, templated on the window counter.
template <SlidingWindowCounter Counter>
class EcmSketch {
 public:
  /// Builds a sketch from a fully-specified config (typically produced by
  /// EcmConfig::Create). Sketches that will be merged or compared must be
  /// built from compatible configs (same dimensions/seed/window/mode).
  explicit EcmSketch(const EcmConfig& config)
      : config_(config),
        hashes_(config.seed, std::min(config.depth, kMaxSketchDepth),
                config.hash_reduction) {
    assert(config.width > 0 && config.depth > 0 &&
           config.depth <= kMaxSketchDepth);
    // Defense in depth for hand-built configs: the one-pass update path
    // fills a fixed kMaxSketchDepth-entry bucket array, so an oversized
    // depth must shrink the sketch, not overflow the array in Release.
    config_.depth = std::min(config_.depth, kMaxSketchDepth);
    counters_.reserve(NumCounters());
    auto counter_cfg = MakeCounterConfig<Counter>(config);
    for (size_t i = 0; i < NumCounters(); ++i) {
      if constexpr (std::is_same_v<Counter, RandomizedWave>) {
        // Independent sampling randomness per counter cell.
        auto cell_cfg = counter_cfg;
        cell_cfg.seed = Mix64(config.seed ^ (0x9E3779B9ULL * (i + 1)));
        counters_.emplace_back(cell_cfg);
      } else {
        counters_.emplace_back(counter_cfg);
      }
    }
  }

  /// Convenience: compute the config and build in one step.
  static Result<EcmSketch> Create(
      double epsilon, double delta, WindowMode mode, uint64_t window_len,
      uint64_t seed, OptimizeFor optimize = OptimizeFor::kPointQueries,
      uint64_t max_arrivals = 1 << 20) {
    constexpr auto family = std::is_same_v<Counter, RandomizedWave>
                                ? CounterFamily::kRandomized
                                : CounterFamily::kDeterministic;
    auto cfg = EcmConfig::Create(epsilon, delta, mode, window_len, seed,
                                 optimize, family, max_arrivals);
    if (!cfg.ok()) return cfg.status();
    return EcmSketch(*cfg);
  }

  /// Registers `count` occurrences of `key`.
  ///
  /// Time-based mode: `ts` is the arrival's wall-clock tick (>= 1,
  /// non-decreasing). Count-based mode: `ts` is ignored; the sketch keys
  /// counters by the global arrival index of the stream.
  void Add(uint64_t key, Timestamp ts, uint64_t count = 1) {
    Timestamp use_ts;
    if (config_.mode == WindowMode::kCountBased) {
      arrivals_ += count;
      use_ts = arrivals_;
    } else {
      assert(ts >= last_ts_ && ts >= 1);
      use_ts = ts;
    }
    last_ts_ = use_ts;
    l1_lifetime_ += count;
    ++version_;
    // One-pass hashing: mix the key once, derive all d row buckets
    // (SIMD-dispatched), then prefetch every touched counter before the
    // first Add — the d slots live one row-stride apart, so without the
    // prefetch each row's update eats a serial cache miss.
    uint32_t cols[kMaxSketchDepth];
    hashes_.BucketsMixed(key, config_.width, cols);
    for (int j = 0; j < config_.depth; ++j) {
      PrefetchRead(&counters_[static_cast<size_t>(j) * config_.width +
                              cols[j]]);
    }
    for (int j = 0; j < config_.depth; ++j) {
      const size_t idx = static_cast<size_t>(j) * config_.width + cols[j];
      counters_[idx].Add(use_ts, count);
    }
  }

  /// Point query at the sketch's current time: estimated frequency of
  /// `key` among the arrivals in the trailing `range` ticks/arrivals.
  double PointQuery(uint64_t key, uint64_t range) const {
    return PointQueryAt(key, range, Now());
  }

  /// Point query evaluated at an explicit clock value `now` (time-based
  /// mode; `now` must be >= the last Add timestamp).
  double PointQueryAt(uint64_t key, uint64_t range, Timestamp now) const {
    uint32_t cols[kMaxSketchDepth];
    hashes_.BucketsMixed(key, config_.width, cols);
    for (int j = 0; j < config_.depth; ++j) {
      PrefetchRead(&counters_[static_cast<size_t>(j) * config_.width +
                              cols[j]]);
    }
    double best = std::numeric_limits<double>::infinity();
    for (int j = 0; j < config_.depth; ++j) {
      best = std::min(best, CounterAt(j, cols[j]).Estimate(now, range));
    }
    return best;
  }

  /// Batched point queries: writes the estimate for each of keys[0..n)
  /// to out[0..n), identical to n PointQueryAt calls. One SIMD Mix64
  /// pass over all keys, then the key-parallel kernel fills a row-major
  /// bucket matrix (cols[j*n + k]) so each row's sweep reads one
  /// contiguous span; the estimation pass then sweeps the counter array
  /// row-major — the access pattern the dyadic heavy-hitter frontier
  /// descent batches its sibling probes through.
  ///
  /// `mode` picks the per-row sweep. kBucketSorted counting-sorts the
  /// keys inside each row so counter accesses walk in ascending column
  /// order (and column-colliding keys share one Estimate); kScalarSweep
  /// visits keys in caller order with a look-ahead prefetch. kAuto
  /// applies the cost model: sorted once the batch reaches
  /// kBatchBucketSortThreshold keys — below that the counting sort's
  /// fixed per-row cost outweighs its locality win. Per-key results are
  /// bit-identical in every mode, because each estimate is independent
  /// and the per-key min is order-free.
  void PointQueryBatchAt(const uint64_t* keys, size_t n, uint64_t range,
                         Timestamp now, double* out,
                         BatchQueryMode mode = BatchQueryMode::kAuto) const {
    if (n == 0) return;
    const size_t depth = static_cast<size_t>(config_.depth);
    static thread_local std::vector<uint64_t> mixed;
    static thread_local std::vector<uint32_t> cols;  // row-major: [j*n + k]
    mixed.resize(n);
    cols.resize(n * depth);
    HashFamily::Mix64Batch(keys, n, mixed.data());
    hashes_.BucketsRowMajor(mixed.data(), n, config_.width, cols.data());
    std::fill(out, out + n, std::numeric_limits<double>::infinity());
    const bool bucketed =
        mode == BatchQueryMode::kBucketSorted ||
        (mode == BatchQueryMode::kAuto && n >= kBatchBucketSortThreshold);
    if (!bucketed) {
      constexpr size_t kLookAhead = 8;
      for (size_t j = 0; j < depth; ++j) {
        const Counter* row = &counters_[j * config_.width];
        const uint32_t* row_cols = &cols[j * n];
        for (size_t k = 0; k < n; ++k) {
          if (k + kLookAhead < n) PrefetchRead(&row[row_cols[k + kLookAhead]]);
          out[k] = std::min(out[k], row[row_cols[k]].Estimate(now, range));
        }
      }
      return;
    }
    static thread_local std::vector<uint32_t> starts;  // counting sort
    static thread_local std::vector<uint32_t> order;
    order.resize(n);
    for (size_t j = 0; j < depth; ++j) {
      const uint32_t* row_cols = &cols[j * n];
      starts.assign(config_.width + 1, 0);
      for (size_t k = 0; k < n; ++k) ++starts[row_cols[k] + 1];
      for (uint32_t c = 0; c < config_.width; ++c) starts[c + 1] += starts[c];
      for (size_t k = 0; k < n; ++k) {
        order[starts[row_cols[k]]++] = static_cast<uint32_t>(k);
      }
      const Counter* row = &counters_[j * config_.width];
      uint32_t prev_col = std::numeric_limits<uint32_t>::max();
      double prev_est = 0.0;
      for (size_t i = 0; i < n; ++i) {
        const size_t k = order[i];
        const uint32_t col = row_cols[k];
        if (col != prev_col) {
          prev_col = col;
          prev_est = row[col].Estimate(now, range);
        }
        out[k] = std::min(out[k], prev_est);
      }
    }
  }

  /// The arrival-order batched reference: per-row sweep over the keys in
  /// caller order, one Estimate per (key, row). Kept as the ablation
  /// baseline for the bucket-sorted path above (bit-identical output).
  void PointQueryBatchScalarAt(const uint64_t* keys, size_t n, uint64_t range,
                               Timestamp now, double* out) const {
    PointQueryBatchAt(keys, n, range, now, out, BatchQueryMode::kScalarSweep);
  }

  /// Batched admission check for the keyed counter store: heavy_out[k] = 1
  /// iff the sketch's point estimate of keys[k] over (now - range, now] is
  /// at least `threshold` — decision-identical to `PointQueryAt(keys[k],
  /// range, now) >= threshold` but evaluated through the batched row-major
  /// kernel, so candidate bursts cost one Mix64 pass and d contiguous row
  /// sweeps instead of n scattered probes.
  void FlagHeavyKeysAt(const uint64_t* keys, size_t n, uint64_t range,
                       Timestamp now, double threshold,
                       uint8_t* heavy_out) const {
    if (n == 0) return;
    static thread_local std::vector<double> est;
    est.resize(n);
    PointQueryBatchAt(keys, n, range, now, est.data());
    for (size_t k = 0; k < n; ++k) {
      heavy_out[k] = est[k] >= threshold ? 1 : 0;
    }
  }

  /// Single-row contribution to a point query: the estimate of the one
  /// counter `key` hashes to in row `row`. The geometric point monitor
  /// (§6.2) treats the d per-row values as the key's statistics vector.
  double PointQueryRowAt(uint64_t key, int row, uint64_t range,
                         Timestamp now) const {
    return CounterAt(row, hashes_.Bucket(row, key, config_.width))
        .Estimate(now, range);
  }

  /// All d per-row contributions of `key` at once (out[0..depth)): the
  /// statistics vector of the geometric point monitor, materialized with
  /// a single Mix64 pass instead of one hash per row. out[j] ==
  /// PointQueryRowAt(key, j, range, now). When `cols_out` is non-null it
  /// additionally receives the key's d row buckets — the incremental
  /// drift tracker (dist/geometric.h) uses them to locate the touched
  /// statistics-vector entries without a second hash pass.
  void PointQueryRowsAt(uint64_t key, uint64_t range, Timestamp now,
                        double* out, uint32_t* cols_out = nullptr) const {
    uint32_t cols[kMaxSketchDepth];
    hashes_.BucketsMixed(key, config_.width, cols);
    for (int j = 0; j < config_.depth; ++j) {
      PrefetchRead(&counters_[static_cast<size_t>(j) * config_.width +
                              cols[j]]);
    }
    for (int j = 0; j < config_.depth; ++j) {
      out[j] = CounterAt(j, cols[j]).Estimate(now, range);
      if (cols_out) cols_out[j] = cols[j];
    }
  }

  /// Issues read prefetches for every counter cell `key` touches. Callers
  /// that know their next key ahead of time — the dyadic frontier descent
  /// probing level l while level l+1's children are already enumerable —
  /// use this to overlap the d row-stride cache misses with other work.
  void PrefetchKey(uint64_t key) const {
    uint32_t cols[kMaxSketchDepth];
    hashes_.BucketsMixed(key, config_.width, cols);
    for (int j = 0; j < config_.depth; ++j) {
      PrefetchRead(&counters_[static_cast<size_t>(j) * config_.width +
                              cols[j]]);
    }
  }

  /// The d row buckets of `key` (cols[0..depth)), from one Mix64 pass —
  /// the hook drift trackers use to find which counter cell an arrival
  /// touched in each row.
  void RowBuckets(uint64_t key, uint32_t* cols) const {
    hashes_.BucketsMixed(key, config_.width, cols);
  }

  /// Estimated inner product a_r ⊙ b_r of this sketch's stream with
  /// another's over the trailing `range`. Requires compatible sketches.
  Result<double> InnerProduct(const EcmSketch& other, uint64_t range) const {
    return InnerProductAt(other, range, std::max(Now(), other.Now()));
  }

  Result<double> InnerProductAt(const EcmSketch& other, uint64_t range,
                                Timestamp now) const {
    if (!config_.CompatibleWith(other.config_)) {
      return Status::Incompatible(
          "InnerProduct requires equal dimensions, seed, window and mode");
    }
    // Batched path: materialize each row's counter estimates once into
    // scratch, then dot. A self-join squares the one materialized row,
    // so every counter is estimated exactly once — half the work of the
    // per-cell double-Estimate loop, with identical results (same values,
    // same accumulation order).
    static thread_local std::vector<double> scratch_a, scratch_b;
    const bool self = (this == &other);
    scratch_a.resize(config_.width);
    if (!self) scratch_b.resize(config_.width);
    double best = std::numeric_limits<double>::infinity();
    for (int j = 0; j < config_.depth; ++j) {
      EstimateRowAt(j, range, now, scratch_a.data());
      const double* b = scratch_a.data();
      if (!self) {
        other.EstimateRowAt(j, range, now, scratch_b.data());
        b = scratch_b.data();
      }
      double row = 0.0;
      for (uint32_t i = 0; i < config_.width; ++i) {
        row += scratch_a[i] * b[i];
      }
      best = std::min(best, row);
    }
    return best;
  }

  /// Estimated self-join size (second frequency moment F₂) of the trailing
  /// `range`.
  double SelfJoin(uint64_t range) const {
    return UnwrapCompatible(InnerProduct(*this, range),
                            "EcmSketch::SelfJoin");
  }

  /// Estimate of ‖a_r‖₁ (total arrivals in the trailing `range`), computed
  /// as the paper recommends in §6.1: the average over rows of the sum of
  /// the row's counter estimates (per-row sums each equal ‖a_r‖₁ up to
  /// window-counter error; averaging cancels much of it).
  double EstimateL1(uint64_t range) const { return EstimateL1At(range, Now()); }

  /// Results are memoized per (now, range) until the next update
  /// (Add/AdvanceTo/RestoreClock or direct counter mutation), so repeated
  /// window-total probes — the dyadic stack's ratio-threshold pruning,
  /// quantile binary searches — are O(1) after the first. The memo is a
  /// small LRU (kL1CacheEntries slots), so dashboards that interleave
  /// several range ladders between updates do not thrash it.
  double EstimateL1At(uint64_t range, Timestamp now) const {
    for (L1Cache& e : l1_cache_) {
      if (e.valid && e.version == version_ && e.now == now &&
          e.range == range) {
        e.stamp = ++l1_clock_;
        ++l1_hits_;
        return e.value;
      }
    }
    ++l1_misses_;
    double total = 0.0;
    for (int j = 0; j < config_.depth; ++j) {
      for (uint32_t i = 0; i < config_.width; ++i) {
        total += CounterAt(j, i).Estimate(now, range);
      }
    }
    // Evict a stale slot if any survives (entries from old versions are
    // dead weight), else the least recently used one.
    L1Cache* victim = &l1_cache_[0];
    for (L1Cache& e : l1_cache_) {
      if (!e.valid || e.version != version_) {
        victim = &e;
        break;
      }
      if (e.stamp < victim->stamp) victim = &e;
    }
    *victim =
        L1Cache{version_, now, range, total / config_.depth, ++l1_clock_, true};
    return victim->value;
  }

  /// Hit/miss telemetry of the L1 memo (regression-tested).
  struct L1CacheStats {
    uint64_t hits = 0;
    uint64_t misses = 0;
  };
  L1CacheStats l1_cache_stats() const { return {l1_hits_, l1_misses_}; }

  /// Materializes row `row`'s counter estimates at (now, range) into
  /// out[0..width) — the batched query primitive shared by
  /// InnerProduct/SelfJoin and the geometric monitor's statistics
  /// vectors: each counter's Estimate runs exactly once per pass over
  /// the row's contiguous storage.
  void EstimateRowAt(int row, uint64_t range, Timestamp now,
                     double* out) const {
    const Counter* base = &counters_[static_cast<size_t>(row) * config_.width];
    for (uint32_t i = 0; i < config_.width; ++i) {
      out[i] = base[i].Estimate(now, range);
    }
  }

  /// Extracts one row's counter estimates for range `range` as a dense
  /// vector — the "statistics vector" representation used by the geometric
  /// monitor (§6.2).
  std::vector<double> RowEstimates(int row, uint64_t range,
                                   Timestamp now) const {
    std::vector<double> out(config_.width);
    EstimateRowAt(row, range, now, out.data());
    return out;
  }

  /// Merges time-based sketches into a sketch of the order-preserving
  /// aggregate stream S₁ ⊕ … ⊕ Sₙ (§5.3). `eps_prime_sw` is the window
  /// error parameter of the merged counters (Theorem 4's ε′); pass the
  /// inputs' ε_sw to get total window error 2ε+ε². Count-based sketches
  /// are rejected (Fig. 2).
  static Result<EcmSketch> Merge(const std::vector<const EcmSketch*>& inputs,
                                 double eps_prime_sw, uint64_t seed = 0) {
    if (inputs.empty()) {
      return Status::InvalidArgument("EcmSketch::Merge: no inputs");
    }
    const EcmSketch& first = *inputs[0];
    if (first.config_.mode == WindowMode::kCountBased) {
      return Status::Unsupported(
          "count-based ECM-sketches cannot be merged: the synopses lose the "
          "interleaving of the streams' arrivals (paper Fig. 2)");
    }
    for (const auto* s : inputs) {
      if (!first.config_.CompatibleWith(s->config_)) {
        return Status::Incompatible(
            "EcmSketch::Merge: sketches have different dimensions, seeds, "
            "windows or modes");
      }
    }

    EcmConfig merged_cfg = first.config_;
    merged_cfg.epsilon_sw = eps_prime_sw;
    // Error after one aggregation level (Theorem 4 + §5.3): window error
    // inflates to ε+ε'+εε'; the total budget field tracks it for callers.
    double esw = first.config_.epsilon_sw;
    double merged_sw = esw + eps_prime_sw + esw * eps_prime_sw;
    merged_cfg.epsilon = merged_sw + merged_cfg.epsilon_cm +
                         merged_sw * merged_cfg.epsilon_cm;

    EcmSketch merged(merged_cfg);
    std::vector<const Counter*> cell;
    cell.reserve(inputs.size());
    for (size_t i = 0; i < first.NumCounters(); ++i) {
      cell.clear();
      for (const auto* s : inputs) cell.push_back(&s->counters_[i]);
      auto m = MergeCell(cell, merged_cfg, seed + i);
      if (!m.ok()) return m.status();
      merged.counters_[i] = std::move(*m);
    }
    for (const auto* s : inputs) {
      merged.l1_lifetime_ += s->l1_lifetime_;
      merged.last_ts_ = std::max(merged.last_ts_, s->last_ts_);
    }
    return merged;
  }

  /// Current clock: last Add timestamp (time-based) or total arrivals
  /// (count-based).
  Timestamp Now() const { return last_ts_; }

  /// Advances the sketch clock without adding arrivals (time-based mode);
  /// expires counter state that slid out of the window.
  void AdvanceTo(Timestamp now) {
    assert(config_.mode == WindowMode::kTimeBased && now >= last_ts_);
    last_ts_ = now;
    ++version_;
    for (auto& c : counters_) c.Expire(now);
  }

  /// Total stream weight ever added (not windowed).
  uint64_t l1_lifetime() const { return l1_lifetime_; }

  /// Restores the clock and lifetime counters after deserialization
  /// (dist/serialize.h only).
  void RestoreClock(Timestamp now, uint64_t l1) {
    last_ts_ = now;
    arrivals_ = (config_.mode == WindowMode::kCountBased) ? now : arrivals_;
    l1_lifetime_ = l1;
    ++version_;
  }

  /// In-memory footprint: all counters plus the sketch frame.
  size_t MemoryBytes() const {
    size_t bytes = sizeof(*this);
    for (const auto& c : counters_) bytes += c.MemoryBytes();
    return bytes;
  }

  const EcmConfig& config() const { return config_; }
  size_t NumCounters() const {
    return static_cast<size_t>(config_.width) * config_.depth;
  }

  /// Counter cell access (row-major), for serialization and tests.
  const Counter& CounterAt(int row, uint32_t col) const {
    return counters_[static_cast<size_t>(row) * config_.width + col];
  }
  Counter& CounterAt(int row, uint32_t col) {
    // Handing out a mutable counter (deserialization, tests) may change
    // its contents, so the memoized window totals must not outlive it.
    ++version_;
    return counters_[static_cast<size_t>(row) * config_.width + col];
  }

 private:
  // Merges one counter cell across the input sketches, dispatched on the
  // counter type.
  static Result<Counter> MergeCell(const std::vector<const Counter*>& cell,
                                   const EcmConfig& merged_cfg,
                                   uint64_t seed) {
    if constexpr (std::is_same_v<Counter, ExponentialHistogram>) {
      std::vector<const ExponentialHistogram*> in(cell.begin(), cell.end());
      return MergeHistograms(in, merged_cfg.epsilon_sw);
    } else if constexpr (std::is_same_v<Counter, DeterministicWave>) {
      std::vector<const DeterministicWave*> in(cell.begin(), cell.end());
      return MergeWaves(in, merged_cfg.epsilon_sw, merged_cfg.max_arrivals);
    } else if constexpr (std::is_same_v<Counter, RandomizedWave>) {
      std::vector<const RandomizedWave*> in(cell.begin(), cell.end());
      return MergeRandomizedWaves(in, Mix64(merged_cfg.seed ^ seed));
    } else {
      // Exact windows (tests): lossless replay of all retained arrivals.
      std::vector<ReplayEvent> events;
      for (const auto* c : cell) AppendBucketEvents(c->Buckets(), &events);
      Counter merged(MakeCounterConfig<Counter>(merged_cfg));
      ReplayInto(std::move(events), &merged);
      return merged;
    }
  }

  // One slot of the EstimateL1At LRU, keyed on the sketch's update
  // version and the query's (now, range). `mutable` because queries are
  // logically const; like the thread_local query scratch, concurrent
  // queries on one sketch instance are not supported (updates never
  // were).
  struct L1Cache {
    uint64_t version = 0;
    Timestamp now = 0;
    uint64_t range = 0;
    double value = 0.0;
    uint64_t stamp = 0;  // LRU age (l1_clock_ at last touch)
    bool valid = false;
  };
  static constexpr size_t kL1CacheEntries = 8;

  // Below this frontier size the batched point query runs the plain
  // arrival-order sweep; the counting sort only pays off once the row
  // walk stops fitting comfortably in cache.
  static constexpr size_t kBatchBucketSortThreshold = 64;

  EcmConfig config_;
  HashFamily hashes_;
  std::vector<Counter> counters_;  // row-major depth × width
  uint64_t arrivals_ = 0;  // count-based arrival index
  Timestamp last_ts_ = 0;
  uint64_t l1_lifetime_ = 0;
  uint64_t version_ = 0;  // bumped on every state mutation
  mutable std::array<L1Cache, kL1CacheEntries> l1_cache_{};
  mutable uint64_t l1_clock_ = 0;
  mutable uint64_t l1_hits_ = 0;
  mutable uint64_t l1_misses_ = 0;
};

/// The paper's three variants plus the collision-only testing variant.
using EcmEh = EcmSketch<ExponentialHistogram>;
using EcmDw = EcmSketch<DeterministicWave>;
using EcmRw = EcmSketch<RandomizedWave>;
using EcmExact = EcmSketch<ExactWindow>;

}  // namespace ecm

#endif  // ECM_CORE_ECM_SKETCH_H_
