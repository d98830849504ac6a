// Scheduled propagation (Chan et al.-style, §2 related work): each site
// keeps a local time-based ECM-sketch and pushes a snapshot of it to the
// coordinator when a trigger fires — on its first arrival, every `period`
// ticks, and/or whenever its windowed L1 drifts by more than a configured
// fraction since the last push. The coordinator answers global queries by
// merging the freshest snapshot of every site, so its view lags each site
// by at most one trigger interval (the bandwidth/freshness trade-off the
// structure exists for).
//
// Built on the shared runtime substrate: sites are runtime Sites, every
// push ships through the site's sender/receiver channel
// (dist/compress.h) and charges its exact wire size to the Transport,
// and every per-site tally lives with the site — so ParallelIngest can
// drive Process() from one worker per site shard with no locking (a push
// only writes the pushing site's own channel; the merged coordinator
// view is keyed on the global push count and rebuilt lazily at query
// time, after ingest quiesces).

#ifndef ECM_DIST_PERIODIC_H_
#define ECM_DIST_PERIODIC_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "src/core/ecm_sketch.h"
#include "src/dist/compress.h"
#include "src/dist/network_stats.h"
#include "src/dist/runtime.h"
#include "src/dist/transport.h"
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
      : sketch_config_(sketch_config), config_(config), transport_(transport) {
    if (!transport_) {
      owned_transport_ = std::make_unique<LoopbackTransport>();
      transport_ = owned_transport_.get();
    }
    sites_.reserve(static_cast<size_t>(num_sites));
    for (int i = 0; i < num_sites; ++i) {
      sites_.emplace_back(i, sketch_config_, config_.compression);
    }
  }

  /// Routes one arrival to `site`'s local sketch and fires any due push.
  /// Returns true iff this arrival triggered a push. Touches only
  /// `site`-local state (plus the thread-safe Transport), so one
  /// ParallelIngest worker per site shard may call it concurrently.
  bool Process(int site_idx, uint64_t key, Timestamp ts, uint64_t count = 1) {
    SiteState& site = sites_[static_cast<size_t>(site_idx)];
    site.node.Ingest(key, ts, count);
    ++site.updates;

    if (site.pushes == 0) {
      Push(&site, PushKind::kInitial);
      return true;
    }
    const Timestamp now = site.node.sketch().Now();
    if (config_.period > 0 && now - site.last_push_ts >= config_.period) {
      Push(&site, PushKind::kPeriodic);
      return true;
    }
    if (config_.drift_fraction > 0.0) {
      double l1 = site.node.sketch().EstimateL1(sketch_config_.window_len);
      if (std::abs(l1 - site.pushed_l1) >=
          config_.drift_fraction * std::max(site.pushed_l1, 1.0)) {
        Push(&site, PushKind::kDrift);
        return true;
      }
    }
    return false;
  }

  /// Forces every site to push its current sketch (e.g. before a query
  /// barrier).
  Status SyncAll() {
    for (SiteState& site : sites_) Push(&site, PushKind::kForced);
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

  /// Aggregated counters (per-site tallies summed on demand).
  Stats stats() const {
    Stats s;
    for (const SiteState& site : sites_) {
      s.updates += site.updates;
      s.pushes += site.pushes;
      s.periodic_pushes += site.periodic_pushes;
      s.drift_pushes += site.drift_pushes;
      s.network.messages += site.net.messages;
      s.network.bytes += site.net.bytes;
    }
    return s;
  }

  /// Aggregated sender-side accounting of the sites' channels.
  CompressionStats compression_stats() const {
    CompressionStats total;
    for (const SiteState& site : sites_) {
      const CompressionStats& s = site.sender.stats();
      total.full_images += s.full_images;
      total.rlz_images += s.rlz_images;
      total.wire_bytes += s.wire_bytes;
      total.raw_bytes += s.raw_bytes;
    }
    return total;
  }

  /// Largest timestamp processed so far.
  Timestamp clock() const {
    Timestamp t = 0;
    for (const SiteState& site : sites_) {
      t = std::max(t, site.node.sketch().Now());
    }
    return t;
  }

  /// The live local sketch of one site (always fresh, unlike the
  /// coordinator's snapshot of it).
  const EcmSketch<Counter>& site_sketch(int site) const {
    return sites_[static_cast<size_t>(site)].node.sketch();
  }

  Transport& transport() { return *transport_; }

 private:
  enum class PushKind { kInitial, kPeriodic, kDrift, kForced };

  struct SiteState {
    SiteState(NodeId id, const EcmConfig& cfg, const CompressionOptions& copts)
        : node(id, cfg), sender(copts), receiver(copts) {}
    Site<Counter> node;
    // The push channel; receiver.sketch() is the coordinator's snapshot.
    SketchSender<Counter> sender;
    SketchReceiver<Counter> receiver;
    Status push_status;  ///< failure of the last push, if it had one
    Timestamp last_push_ts = 0;
    double pushed_l1 = 0.0;  ///< windowed L1 estimate at the last push
    uint64_t updates = 0;
    uint64_t pushes = 0;
    uint64_t periodic_pushes = 0;
    uint64_t drift_pushes = 0;
    NetworkStats net;  ///< this site's share of the transport traffic
  };

  void Push(SiteState* site, PushKind kind) {
    const EcmSketch<Counter>& local = site->node.sketch();
    SketchWireImage img = site->sender.Ship(local);
    auto decoded =
        site->receiver.Receive(img.kind, img.bytes.data(), img.bytes.size());
    if (!decoded.ok()) {
      // In-process the channel cannot desync; resync defensively with a
      // full snapshot so propagation never wedges.
      site->sender.Reset();
      img = site->sender.Ship(local);
      decoded =
          site->receiver.Receive(img.kind, img.bytes.data(), img.bytes.size());
    }
    site->push_status = decoded.ok() ? Status::OK() : decoded.status();
    const size_t wire = img.bytes.size();
    transport_->Send(site->node.id(), kCoordinatorNode, wire);
    site->last_push_ts = local.Now();
    site->pushed_l1 = local.EstimateL1(sketch_config_.window_len);
    ++site->pushes;
    if (kind == PushKind::kPeriodic) ++site->periodic_pushes;
    if (kind == PushKind::kDrift) ++site->drift_pushes;
    ++site->net.messages;
    site->net.bytes += wire;
  }

  Result<const EcmSketch<Counter>*> MergedView() const {
    uint64_t total_pushes = 0;
    for (const SiteState& site : sites_) total_pushes += site.pushes;
    if (merged_cache_.has_value() && merged_cache_pushes_ == total_pushes) {
      return &*merged_cache_;
    }
    std::vector<const EcmSketch<Counter>*> snapshots;
    snapshots.reserve(sites_.size());
    for (const SiteState& site : sites_) {
      if (!site.push_status.ok()) return site.push_status;
      if (site.receiver.sketch() == nullptr) {
        return Status::InvalidArgument(
            "PeriodicAggregator: some site has never pushed; call SyncAll() "
            "or wait for its first arrival");
      }
      snapshots.push_back(site.receiver.sketch());
    }
    auto merged = EcmSketch<Counter>::Merge(
        snapshots, sketch_config_.epsilon_sw, sketch_config_.seed);
    if (!merged.ok()) return merged.status();
    merged_cache_ = std::move(*merged);
    merged_cache_pushes_ = total_pushes;
    return &*merged_cache_;
  }

  EcmConfig sketch_config_;
  Config config_;
  Transport* transport_;
  std::unique_ptr<Transport> owned_transport_;
  std::vector<SiteState> sites_;
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
