// Scheduled propagation (Chan et al.-style, §2 related work): each site
// keeps a local time-based ECM-sketch and pushes a snapshot of it to the
// coordinator when a trigger fires — on its first arrival, every `period`
// ticks, and/or whenever its windowed L1 drifts by more than a configured
// fraction since the last push. The coordinator answers global queries by
// merging the freshest snapshot of every site, so its view lags each site
// by at most one trigger interval (the bandwidth/freshness trade-off the
// structure exists for).
//
// Built on the shared runtime: a Coordinator holds the sites, the
// Transport and one sender/receiver channel per site (dist/compress.h).
// A push is the coordinator's ShipThroughChannel, and the coordinator's
// snapshot of a site is the sketch its receiver decoded. The aggregator
// adds only the per-site push schedule, so ParallelIngest can drive
// Process() from one worker per site shard with no locking (a push only
// writes the pushing site's own channel; the merged view is keyed on the
// global push count and rebuilt lazily at query time, after ingest
// quiesces).

#ifndef ECM_DIST_PERIODIC_H_
#define ECM_DIST_PERIODIC_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <optional>
#include <vector>

#include "src/core/ecm_sketch.h"
#include "src/dist/compress.h"
#include "src/dist/network_stats.h"
#include "src/dist/runtime.h"
#include "src/util/result.h"
#include "src/util/status.h"

namespace ecm {

/// Coordinator plus `num_sites` local sketches with scheduled pushes.
template <SlidingWindowCounter Counter>
class PeriodicAggregatorT {
 public:
  struct Config {
    /// Push whenever this many ticks elapsed since the site's last push
    /// (0 = no periodic schedule).
    uint64_t period = 0;
    /// Push whenever the site's windowed L1 estimate moved by this
    /// fraction (relative to its value at the last push; 0 = disabled).
    double drift_fraction = 0.0;
    /// Wire compression of pushed snapshots (dist/compress.h): kFull
    /// ships full images, kRlz RLZ images. Either way the coordinator's
    /// snapshot of a site is the sketch its receiver decoded.
    CompressionOptions compression{CompressionMode::kFull};
  };

  struct Stats {
    uint64_t updates = 0;          ///< arrivals processed across all sites
    uint64_t pushes = 0;           ///< snapshots shipped to the coordinator
    uint64_t periodic_pushes = 0;  ///< pushes triggered by the period
    uint64_t drift_pushes = 0;     ///< pushes triggered by the drift budget
    NetworkStats network;
  };

  PeriodicAggregatorT(int num_sites, const EcmConfig& sketch_config,
                      const Config& config, Transport* transport = nullptr)
      : config_(config),
        coord_(num_sites, sketch_config, transport),
        push_(static_cast<size_t>(num_sites)) {
    coord_.EnableCompression(config_.compression);
  }

  /// Routes one arrival to `site`'s local sketch and fires any due push.
  /// Returns true iff this arrival triggered a push. Touches only
  /// `site`-local state (plus the thread-safe Transport), so one
  /// ParallelIngest worker per site shard may call it concurrently.
  bool Process(int site_idx, uint64_t key, Timestamp ts, uint64_t count = 1) {
    Site<Counter>& site = coord_.site(site_idx);
    site.Ingest(key, ts, count);
    const PushState& p = push_[static_cast<size_t>(site_idx)];

    if (p.pushes == 0) {
      Push(site_idx, PushKind::kInitial);
      return true;
    }
    const Timestamp now = site.sketch().Now();
    if (config_.period > 0 && now - p.last_push_ts >= config_.period) {
      Push(site_idx, PushKind::kPeriodic);
      return true;
    }
    if (config_.drift_fraction > 0.0) {
      double l1 = site.sketch().EstimateL1(coord_.config().window_len);
      if (std::abs(l1 - p.pushed_l1) >=
          config_.drift_fraction * std::max(p.pushed_l1, 1.0)) {
        Push(site_idx, PushKind::kDrift);
        return true;
      }
    }
    return false;
  }

  /// Forces every site to push its current sketch (e.g. before a query
  /// barrier).
  Status SyncAll() {
    for (int i = 0; i < coord_.num_sites(); ++i) Push(i, PushKind::kForced);
    return Status::OK();
  }

  /// Merged view of the freshest snapshot of every site. Fails while any
  /// site has never pushed.
  Result<EcmSketch<Counter>> GlobalView() const {
    auto view = MergedView();
    if (!view.ok()) return view.status();
    return **view;
  }

  /// Point query against the coordinator's (possibly stale) merged view.
  Result<double> GlobalPointQuery(uint64_t key, uint64_t range) const {
    auto view = MergedView();
    if (!view.ok()) return view.status();
    return (*view)->PointQuery(key, range);
  }

  /// Aggregated counters (per-site tallies summed on demand). The network
  /// share is every image the channels shipped: one per push, plus one
  /// per stale-base resync.
  Stats stats() const {
    Stats s;
    for (int i = 0; i < coord_.num_sites(); ++i) {
      s.updates += coord_.site(i).updates();
    }
    for (const PushState& p : push_) {
      s.pushes += p.pushes;
      s.periodic_pushes += p.periodic_pushes;
      s.drift_pushes += p.drift_pushes;
    }
    const CompressionStats cs = coord_.compression_stats();
    s.network.messages = cs.full_images + cs.rlz_images;
    s.network.bytes = cs.wire_bytes;
    return s;
  }

  /// Aggregated sender-side accounting of the sites' channels.
  CompressionStats compression_stats() const {
    return coord_.compression_stats();
  }

  /// Largest timestamp processed so far.
  Timestamp clock() const {
    Timestamp t = 0;
    for (int i = 0; i < coord_.num_sites(); ++i) {
      t = std::max(t, coord_.site(i).sketch().Now());
    }
    return t;
  }

  /// The live local sketch of one site (always fresh, unlike the
  /// coordinator's snapshot of it).
  const EcmSketch<Counter>& site_sketch(int site) const {
    return coord_.site(site).sketch();
  }

  Transport& transport() { return coord_.transport(); }

 private:
  enum class PushKind { kInitial, kPeriodic, kDrift, kForced };

  /// One site's push schedule.
  struct PushState {
    Status status;  ///< failure of the last push, if it had one
    Timestamp last_push_ts = 0;
    double pushed_l1 = 0.0;  ///< windowed L1 estimate at the last push
    uint64_t pushes = 0;
    uint64_t periodic_pushes = 0;
    uint64_t drift_pushes = 0;
  };

  void Push(int site_idx, PushKind kind) {
    PushState& p = push_[static_cast<size_t>(site_idx)];
    auto decoded = coord_.ShipThroughChannel(site_idx);
    p.status = decoded.ok() ? Status::OK() : decoded.status();
    const EcmSketch<Counter>& local = coord_.site(site_idx).sketch();
    p.last_push_ts = local.Now();
    p.pushed_l1 = local.EstimateL1(coord_.config().window_len);
    ++p.pushes;
    if (kind == PushKind::kPeriodic) ++p.periodic_pushes;
    if (kind == PushKind::kDrift) ++p.drift_pushes;
  }

  Result<const EcmSketch<Counter>*> MergedView() const {
    uint64_t total_pushes = 0;
    for (const PushState& p : push_) {
      if (!p.status.ok()) return p.status;
      total_pushes += p.pushes;
    }
    if (merged_cache_.has_value() && merged_cache_pushes_ == total_pushes) {
      return &*merged_cache_;
    }
    auto merged = coord_.MergeReceived(coord_.config().epsilon_sw,
                                       coord_.config().seed);
    if (!merged.ok()) return merged.status();
    merged_cache_ = std::move(*merged);
    merged_cache_pushes_ = total_pushes;
    return &*merged_cache_;
  }

  Config config_;
  Coordinator<Counter> coord_;
  std::vector<PushState> push_;
  // Merged snapshot cache, keyed on the global push count (stale after
  // any push; rebuilt lazily at query time, outside the ingest path).
  mutable std::optional<EcmSketch<Counter>> merged_cache_;
  mutable uint64_t merged_cache_pushes_ = 0;
};

/// The paper's default instantiation (ECM-EH sites).
using PeriodicAggregator = PeriodicAggregatorT<ExponentialHistogram>;

// Compiled once in periodic.cc for the common counter types.
extern template class PeriodicAggregatorT<ExponentialHistogram>;
extern template class PeriodicAggregatorT<RandomizedWave>;

}  // namespace ecm

#endif  // ECM_DIST_PERIODIC_H_
