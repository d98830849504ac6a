// Extension bench: scheduled propagation (Chan et al.-style, §2 related
// work) — the bandwidth/freshness trade-off of continuous distributed
// aggregation, sweeping the push period and the drift budget.
//
// Expected shape: bytes shipped fall roughly linearly with the period
// (and with the drift budget), while the coordinator's extra error vs an
// always-fresh view stays bounded by the window share one period of
// arrivals represents.

#include <algorithm>
#include <cstdio>
#include <string>
#include <utility>

#include "bench/bench_common.h"
#include "src/dist/compress.h"
#include "src/dist/periodic.h"
#include "src/dist/runtime.h"
#include "src/dist/socket_transport.h"
#include "src/util/timer.h"

namespace ecm::bench {
namespace {

constexpr uint64_t kWindow = 1 << 16;
constexpr uint64_t kEvents = 100'000;
constexpr int kSites = 8;

struct RunResult {
  uint64_t bytes = 0;
  uint64_t pushes = 0;
  double stale_error = 0.0;  // avg point error of the unsynced view
};

RunResult RunSchedule(const std::vector<StreamEvent>& events,
                      const EcmConfig& scfg,
                      const PeriodicAggregator::Config& pcfg) {
  PeriodicAggregator agg(kSites, scfg, pcfg);
  for (const auto& e : events) agg.Process(e.node % kSites, e.key, e.ts);
  RunResult out;
  out.bytes = agg.stats().network.bytes;
  out.pushes = agg.stats().pushes;

  Timestamp now = events.back().ts;
  auto view = agg.GlobalView();
  if (!view.ok()) {
    (void)agg.SyncAll();
    view = agg.GlobalView();
  }
  if (view.ok()) {
    auto exact = ComputeExactRangeStats(events, now, kWindow);
    double sum = 0.0;
    size_t n = 0;
    for (const auto& [key, count] : exact.freqs) {
      double est = view->PointQueryAt(key, kWindow, std::max(now, view->Now()));
      sum += std::abs(est - static_cast<double>(count)) /
             static_cast<double>(exact.l1);
      ++n;
    }
    out.stale_error = n ? sum / static_cast<double>(n) : 0.0;
  }
  return out;
}

void Run() {
  auto scfg =
      EcmConfig::Create(0.05, 0.05, WindowMode::kTimeBased, kWindow, 83);
  if (!scfg.ok()) return;
  auto events = LoadDataset(Dataset::kWc98, kEvents);

  PrintHeader(
      "Scheduled propagation: push period sweep (8 sites, eps=0.05)",
      {"period_ticks", "pushes", "bytes", "avg_error_of_stale_view"});
  for (uint64_t period : {500u, 2'000u, 8'000u, 32'000u}) {
    PeriodicAggregator::Config pcfg;
    pcfg.period = period;
    auto r = RunSchedule(events, *scfg, pcfg);
    PrintRow({std::to_string(period), std::to_string(r.pushes),
              std::to_string(r.bytes), FormatDouble(r.stale_error)});
  }

  PrintHeader(
      "Scheduled propagation: drift budget sweep (accuracy-triggered)",
      {"drift_fraction", "pushes", "bytes", "avg_error_of_stale_view"});
  for (double drift : {0.02, 0.05, 0.2, 0.5}) {
    PeriodicAggregator::Config pcfg;
    pcfg.drift_fraction = drift;
    auto r = RunSchedule(events, *scfg, pcfg);
    PrintRow({FormatDouble(drift, 2), std::to_string(r.pushes),
              std::to_string(r.bytes), FormatDouble(r.stale_error)});
  }
  std::printf(
      "\nexpected shape: bytes fall ~linearly with the period / drift "
      "budget; the stale view's error stays within the configured eps "
      "plus one staleness quantum of window content\n");

  // Wire compression: the same periodic schedule with pushes shipped as
  // RLZ images (dist/compress.h). wire_bytes is what actually ships;
  // raw_bytes is what the same pushes cost as full snapshots. Both modes
  // decode to the same full images, so the error columns above are
  // unchanged by construction.
  PrintHeader(
      "Wire compression: steady-state periodic pushes, full vs RLZ "
      "(8 sites, period=2000)",
      {"mode", "pushes", "full/rlz", "wire_bytes", "raw_bytes", "ratio"});
  const std::pair<const char*, CompressionMode> kModes[] = {
      {"full", CompressionMode::kFull},
      {"rlz", CompressionMode::kRlz},
  };
  for (const auto& [name, mode] : kModes) {
    PeriodicAggregator::Config pcfg;
    pcfg.period = 2'000;
    pcfg.compression.mode = mode;
    PeriodicAggregator agg(kSites, *scfg, pcfg);
    for (const auto& e : events) agg.Process(e.node % kSites, e.key, e.ts);
    const CompressionStats cs = agg.compression_stats();
    const uint64_t wire = cs.wire_bytes;
    const uint64_t raw = cs.raw_bytes;
    const std::string mix =
        std::to_string(cs.full_images) + "/" + std::to_string(cs.rlz_images);
    RecordBenchResult(std::string("prop/compress/") + name,
                      /*events_per_sec=*/0.0,
                      static_cast<double>(wire));
    PrintRow({name, std::to_string(agg.stats().pushes), mix,
              std::to_string(wire), std::to_string(raw),
              FormatDouble(raw > 0 ? static_cast<double>(wire) /
                                         static_cast<double>(raw)
                                   : 1.0,
                           3)});
  }
  std::printf(
      "expected shape: rlz wire_bytes well under the full row (>=2x in "
      "steady state); the frame mix shows full images only at stream "
      "start (and wherever the RLZ form would exceed the fallback "
      "threshold)\n");

  // Sharded multi-threaded ingest: scheduled propagation is site-local,
  // so ParallelIngest needs no sync barrier at all — pushes ship through
  // the thread-safe transport from each worker.
  PrintHeader(
      "ParallelIngest scaling: sharded multi-threaded scheduled "
      "propagation (8 sites, period=2000, batch=1024)",
      {"workers", "events/s", "pushes", "speedup_vs_1"});
  auto pevents = events;
  for (auto& e : pevents) e.node %= kSites;
  double base_rate = 0.0;
  for (int workers : {1, 2, 4, 8}) {
    PeriodicAggregator::Config pcfg;
    pcfg.period = 2'000;
    PeriodicAggregator agg(kSites, *scfg, pcfg);
    ParallelIngestOptions opts;
    opts.num_workers = workers;
    opts.batch_size = 1024;
    opts.final_sync = false;
    Timer timer;
    ParallelIngest(
        pevents, kSites,
        [&agg](int site, const StreamEvent& e) {
          agg.Process(site, e.key, e.ts);
          return false;
        },
        [] {}, opts);
    double rate = static_cast<double>(pevents.size()) / timer.ElapsedSeconds();
    if (workers == 1) base_rate = rate;
    RecordBenchResult("prop/parallel-ingest/w" + std::to_string(workers),
                      rate);
    PrintRow({std::to_string(workers), FormatDouble(rate, 0),
              std::to_string(agg.stats().pushes),
              FormatDouble(base_rate > 0 ? rate / base_rate : 0.0, 2)});
  }
  std::printf(
      "expected shape: near-linear scaling (no cross-site coordination; "
      "push counts identical at every worker count)\n");

  // Loopback vs real TCP socket on the identical CollectAndMerge script:
  // the one-accounting-currency invariant means the NetworkStats columns
  // must match byte-for-byte; only wall-clock and physical wire volume
  // (framing + control frames) may differ.
  PrintHeader(
      "Transport comparison: identical CollectAndMerge script, loopback "
      "vs TCP socket (8 sites, sync every 10000 events)",
      {"transport", "events/s", "msgs", "payload_bytes", "wire_bytes"});
  const uint64_t sync_every = std::max<uint64_t>(ScaledEvents(10'000), 1);
  auto run_script = [&](Transport* t) {
    Coordinator<ExponentialHistogram> coord(kSites, *scfg, t);
    Timer timer;
    for (size_t i = 0; i < pevents.size(); ++i) {
      const auto& e = pevents[i];
      coord.site(static_cast<int>(e.node)).Ingest(e.key, e.ts);
      if ((i + 1) % sync_every == 0) (void)coord.CollectAndMerge();
    }
    return static_cast<double>(pevents.size()) / timer.ElapsedSeconds();
  };

  LoopbackTransport loopback;
  const double loop_rate = run_script(&loopback);
  RecordBenchResult("prop/wire/loopback", loop_rate,
                    static_cast<double>(loopback.stats().bytes));
  PrintRow({"loopback", FormatDouble(loop_rate, 0),
            std::to_string(loopback.stats().messages),
            std::to_string(loopback.stats().bytes), "-"});

  auto server = CoordinatorServer::Start(
      0, CoordinatorServer::Options{}, nullptr);
  if (!server.ok()) return;
  SocketTransport::Options topt;
  topt.heartbeat_period_ms = 0;
  auto socket = SocketTransport::Connect("127.0.0.1", (*server)->port(),
                                         kCoordinatorNode, topt);
  if (!socket.ok()) return;
  const double sock_rate = run_script(socket->get());
  (void)(*socket)->Flush();
  RecordBenchResult("prop/wire/socket", sock_rate,
                    static_cast<double>((*socket)->stats().bytes));
  PrintRow({"socket", FormatDouble(sock_rate, 0),
            std::to_string((*socket)->stats().messages),
            std::to_string((*socket)->stats().bytes),
            std::to_string((*socket)->wire_bytes())});
  std::printf(
      "expected shape: msgs and payload_bytes identical across the two "
      "rows (NetworkStats is payload-only on every transport); the "
      "socket row additionally reports physical wire volume "
      "(+%zu-byte frame headers, control frames)\n",
      kFrameHeaderBytes);
}

}  // namespace
}  // namespace ecm::bench

int main(int argc, char** argv) {
  ecm::bench::ParseBenchArgs(argc, argv);
  ecm::bench::Run();
  return 0;
}
