// Reproduces Figure 5 (a)-(b): observed error in correlation to network
// cost for the distributed setup, for varying ε ∈ [0.05, 0.25].
//
// Protocol (§7.3): the data set's sites (33 wc'98 mirrors / 535 snmp APs)
// hold per-site ECM-sketches, organized as a balanced binary tree; the
// root's sketch answers the same query set as the centralized experiment;
// network cost is the total wire volume of the aggregation.
//
// Expected shape: ECM-EH transfers are at least an order of magnitude
// smaller than ECM-RW at equal ε, with only a small error penalty from
// the lossy deterministic merges; self-join series mirrors point queries.

#include <cstdio>
#include <string>
#include <utility>

#include "bench/bench_common.h"
#include "src/dist/aggregation_tree.h"
#include "src/dist/compress.h"
#include "src/dist/periodic.h"

namespace ecm::bench {
namespace {

constexpr uint64_t kWindow = 1 << 17;
constexpr uint64_t kEvents = 400'000;
constexpr double kDelta = 0.1;
const double kEpsilons[] = {0.05, 0.10, 0.15, 0.20, 0.25};

struct DistPoint {
  double avg_point = 0.0;
  double avg_selfjoin = 0.0;
  uint64_t bytes = 0;
  bool ok = false;
};

template <SlidingWindowCounter Counter>
DistPoint RunDistributed(const std::vector<StreamEvent>& events,
                         uint32_t num_sites, double epsilon) {
  auto cfg = EcmConfig::Create(
      epsilon, kDelta, WindowMode::kTimeBased, kWindow, /*seed=*/13,
      OptimizeFor::kPointQueries,
      std::is_same_v<Counter, RandomizedWave> ? CounterFamily::kRandomized
                                              : CounterFamily::kDeterministic,
      /*max_arrivals=*/1 << 17);
  DistPoint out;
  if (!cfg.ok()) return out;

  std::vector<EcmSketch<Counter>> sites(num_sites, EcmSketch<Counter>(*cfg));
  for (const auto& e : events) sites[e.node % num_sites].Add(e.key, e.ts);
  Timestamp now = events.back().ts;
  for (auto& s : sites) {
    if constexpr (!std::is_same_v<Counter, RandomizedWave>) {
      s.AdvanceTo(now);
    }
  }
  auto agg = AggregateTree(sites);
  if (!agg.ok()) return out;

  double sum = 0.0;
  size_t n = 0;
  double sj_sum = 0.0;
  size_t sj_n = 0;
  for (uint64_t range : ExponentialRanges(kWindow)) {
    ErrorSummary s = MeasurePointErrors(agg->root, events, now, range);
    sum += s.avg * static_cast<double>(s.queries);
    n += s.queries;
    sj_sum += MeasureSelfJoinError(agg->root, events, now, range);
    ++sj_n;
  }
  out.avg_point = n ? sum / static_cast<double>(n) : 0.0;
  out.avg_selfjoin = sj_n ? sj_sum / static_cast<double>(sj_n) : 0.0;
  out.bytes = agg->network.bytes;
  out.ok = true;
  return out;
}

void Run() {
  struct Spec {
    Dataset dataset;
    uint32_t sites;
  };
  for (Spec spec : {Spec{Dataset::kWc98, 33}, Spec{Dataset::kSnmp, 535}}) {
    auto events = LoadDataset(spec.dataset, kEvents);
    const uint32_t sites = ScaledSites(spec.sites);
    PrintHeader(std::string("Fig 5 distributed (") +
                    DatasetName(spec.dataset) + ", " +
                    std::to_string(sites) +
                    " sites): error vs transfer volume",
                {"variant", "epsilon", "transfer_bytes", "avg_point_error",
                 "avg_selfjoin_error"});
    for (double eps : kEpsilons) {
      auto eh = RunDistributed<ExponentialHistogram>(events, sites, eps);
      if (eh.ok) {
        PrintRow({"ECM-EH", FormatDouble(eps, 2), std::to_string(eh.bytes),
                  FormatDouble(eh.avg_point), FormatDouble(eh.avg_selfjoin)});
      }
      // RW at eps < 0.1 exhausts memory (same limit the paper reports);
      // self-join guarantees do not exist for RW (reported for reference).
      if (eps >= 0.1) {
        auto rw = RunDistributed<RandomizedWave>(events, sites, eps);
        if (rw.ok) {
          PrintRow({"ECM-RW", FormatDouble(eps, 2), std::to_string(rw.bytes),
                    FormatDouble(rw.avg_point), "n/a"});
        }
      }
    }
  }
  std::printf(
      "\nexpected shape (paper Fig 5): at equal epsilon, ECM-RW transfer "
      "volume >= 10x ECM-EH; EH error slightly above its centralized "
      "value but far below the analytic bound\n");

  // Bytes-on-wire at the Fig-5 operating point under continuous sync:
  // the same ECM-EH sites (wc'98, eps=0.05), but instead of one final
  // aggregation the sites push periodically and each push ships through
  // the site's channel (dist/compress.h). This is the steady-state cost
  // the one-shot tree numbers above do not show.
  {
    auto events = LoadDataset(Dataset::kWc98, kEvents);
    const int sites = static_cast<int>(ScaledSites(8));
    auto scfg = EcmConfig::Create(0.05, kDelta, WindowMode::kTimeBased,
                                  kWindow, /*seed=*/13);
    if (!scfg.ok()) return;
    PrintHeader(
        "Fig 5 extension: steady-state periodic sync, bytes-on-wire per "
        "compression mode (wc98, eps=0.05, period=2000)",
        {"mode", "pushes", "full/rlz", "wire_bytes", "vs_full"});
    const std::pair<const char*, CompressionMode> kModes[] = {
        {"full", CompressionMode::kFull},
        {"rlz", CompressionMode::kRlz},
    };
    uint64_t full_wire = 0;
    for (const auto& [name, mode] : kModes) {
      PeriodicAggregator::Config pcfg;
      pcfg.period = 2'000;
      pcfg.compression.mode = mode;
      PeriodicAggregator agg(sites, *scfg, pcfg);
      for (const auto& e : events) {
        agg.Process(static_cast<int>(e.node) % sites, e.key, e.ts);
      }
      const CompressionStats cs = agg.compression_stats();
      const uint64_t wire = cs.wire_bytes;
      if (mode == CompressionMode::kFull) full_wire = wire;
      RecordBenchResult(std::string("fig5/compress/") + name,
                        /*events_per_sec=*/0.0,
                        static_cast<double>(wire));
      PrintRow({name, std::to_string(agg.stats().pushes),
                std::to_string(cs.full_images) + "/" +
                    std::to_string(cs.rlz_images),
                std::to_string(wire),
                FormatDouble(full_wire > 0
                                 ? static_cast<double>(full_wire) /
                                       static_cast<double>(wire)
                                 : 1.0,
                             2) +
                    "x"});
    }
    std::printf(
        "expected shape: rlz cuts steady-state bytes-on-wire by >=2x vs "
        "full snapshots (the CI gate holds this line)\n");
  }
}

}  // namespace
}  // namespace ecm::bench

int main(int argc, char** argv) {
  ecm::bench::ParseBenchArgs(argc, argv);
  ecm::bench::Run();
  return 0;
}
