// Query-latency microbenchmarks for the PR-4 query-pipeline overhaul —
// the read-path counterpart of bench_table3's update rates. Measures, on
// a window-steady wc'98-like sketch:
//
//  * PointQuery throughput (per-call and batched) for ECM-EH/DW/RW;
//  * SelfJoin and EstimateL1: the batched single-estimate-per-cell path
//    vs the legacy per-cell double-Estimate loop (ablation pairs);
//  * RandomizedWave::Estimate at large retained-run counts;
//  * dyadic heavy-hitter sweeps: batched frontier descent vs the
//    recursive per-node descent.
//
// Run with `--json BENCH_prN.json` for the machine-readable rows of the
// perf-trajectory baseline (BENCH_pr4.json is the first query-side one);
// rates are queries (sweeps, estimates) per second.

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "src/core/dyadic.h"
#include "src/util/random.h"
#include "src/util/simd.h"
#include "src/util/simd_kernels.h"
#include "src/util/timer.h"

namespace ecm::bench {
namespace {

constexpr double kEpsilon = 0.1;
constexpr double kDelta = 0.1;
constexpr uint64_t kWindow = 1 << 16;
constexpr uint64_t kEvents = 500'000;

// Doubles as an optimization sink so query loops cannot be elided.
double g_sink = 0.0;

// Loads a sketch with serving-scale weighted arrivals (per-flow byte
// counts, as in bench_table3's weighted section): the in-window counter
// masses then exercise deep level structures, the regime the query
// overhaul targets.
template <SlidingWindowCounter Counter>
Result<EcmSketch<Counter>> MakeLoadedSketch(
    const std::vector<StreamEvent>& events) {
  auto sketch = EcmSketch<Counter>::Create(
      kEpsilon, kDelta, WindowMode::kTimeBased, kWindow, /*seed=*/7,
      OptimizeFor::kPointQueries, /*max_arrivals=*/1 << 26);
  if (!sketch.ok()) return sketch;
  Rng rng(42);
  for (const StreamEvent& e : events) {
    sketch->Add(e.key, e.ts, 1 + rng.Uniform(1000));
  }
  return sketch;
}

// (now, range) probe schedules.
//
//  * kMixed — random interactive probes: read clocks a little ahead of
//    the stream, ranges over the paper's §7.1 exponential ladder plus
//    uniform fill;
//  * kMonitoring — the continuous-monitoring regime (engine/continuous,
//    dist/geometric): full-window-ish ranges at the sketch clock, the
//    workload SelfJoin/EstimateL1 serve in steady state. Ranges rotate
//    so (now, range) pairs never repeat back to back and the L1 memo
//    cannot short-circuit the measured sweep.
struct Probe {
  Timestamp now;
  uint64_t range;
};

enum class ProbeMode { kMixed, kMonitoring };

std::vector<Probe> MakeProbes(Timestamp now, size_t n, ProbeMode mode) {
  std::vector<Probe> probes;
  probes.reserve(n);
  Rng rng(1234);
  std::vector<uint64_t> ladder = ExponentialRanges(kWindow);
  for (size_t i = 0; i < n; ++i) {
    if (mode == ProbeMode::kMonitoring) {
      probes.push_back(Probe{now, kWindow - i % 16});
    } else {
      uint64_t range = (i % 2 == 0) ? ladder[i / 2 % ladder.size()]
                                    : 1 + rng.Uniform(kWindow);
      probes.push_back(Probe{now + rng.Uniform(16), range});
    }
  }
  return probes;
}

// --- point queries ---------------------------------------------------------

template <SlidingWindowCounter Counter>
double MeasurePointQueries(const EcmSketch<Counter>& sketch,
                           const std::vector<StreamEvent>& events,
                           size_t queries) {
  std::vector<Probe> probes =
      MakeProbes(sketch.Now(), queries, ProbeMode::kMixed);
  Rng rng(99);
  Timer timer;
  for (const Probe& p : probes) {
    uint64_t key = events[rng.Uniform(events.size())].key;
    g_sink += sketch.PointQueryAt(key, p.range, p.now);
  }
  double rate = static_cast<double>(probes.size()) / timer.ElapsedSeconds();
  RecordBenchResult(
      std::string("query/point/ECM-") + std::string(CounterName<Counter>()),
      rate, static_cast<double>(sketch.MemoryBytes()));
  return rate;
}

template <SlidingWindowCounter Counter>
double MeasurePointQueriesBatched(const EcmSketch<Counter>& sketch,
                                  const std::vector<StreamEvent>& events,
                                  size_t queries,
                                  const char* row_suffix = "") {
  constexpr size_t kBatch = 64;
  std::vector<Probe> probes =
      MakeProbes(sketch.Now(), queries / kBatch, ProbeMode::kMixed);
  Rng rng(99);
  std::vector<uint64_t> keys(kBatch);
  std::vector<double> out(kBatch);
  Timer timer;
  for (const Probe& p : probes) {
    for (size_t k = 0; k < kBatch; ++k) {
      keys[k] = events[rng.Uniform(events.size())].key;
    }
    sketch.PointQueryBatchAt(keys.data(), kBatch, p.range, p.now, out.data());
    g_sink += out[0];
  }
  double rate = static_cast<double>(probes.size() * kBatch) /
                timer.ElapsedSeconds();
  RecordBenchResult(std::string("query/point-batched/ECM-") +
                        std::string(CounterName<Counter>()) + row_suffix,
                    rate, 0.0);
  return rate;
}

struct AblationPair {
  double fast = 0.0;
  double legacy = 0.0;
};

// --- large-frontier batched point queries ---------------------------------

// At large frontier sizes PointQueryBatchAt's cost model picks the
// per-row counting sort, which makes the counter walk sequential and lets
// column-colliding keys share one Estimate (frontier >> width means
// dozens of keys per column). The win tracks the per-estimate cost:
// partial ranges pay a straddling-level binary search per counter,
// full-coverage probes are O(1) off the running total — both regimes are
// recorded.
template <SlidingWindowCounter Counter>
double MeasureLargeFrontierBatch(const EcmSketch<Counter>& sketch,
                                 size_t frontier, size_t sweeps,
                                 uint64_t range, const char* regime) {
  Rng rng(7);
  std::vector<uint64_t> keys(frontier);
  for (auto& k : keys) k = rng.Uniform(1 << 16);
  std::vector<double> out(frontier);
  const Timestamp now = sketch.Now();
  Timer timer;
  for (size_t i = 0; i < sweeps; ++i) {
    sketch.PointQueryBatchAt(keys.data(), frontier, range, now, out.data());
    g_sink += out[i % frontier];
  }
  double rate =
      static_cast<double>(sweeps * frontier) / timer.ElapsedSeconds();
  RecordBenchResult(std::string("query/point-batch-sort/ECM-") +
                        std::string(CounterName<Counter>()) + "/" + regime +
                        "/auto",
                    rate, 0.0);
  return rate;
}

// --- SIMD hash kernels: per-tier rates -------------------------------------

// The PR-7 hot kernels in isolation, one row per instruction-set tier
// (skipping AVX2 when the CPU lacks it): the batched Mix64 pass, the
// key-parallel row fill (the kernel under every batched point query),
// and the row-parallel single-key walk (the kernel under Add /
// PointQueryAt). Rates are keys (buckets) per second; the acceptance
// floor is vector >= 1.5x scalar on this machine's recorded rows.
void MeasureHashKernels(size_t iters) {
  constexpr size_t kN = 4096;
  constexpr int kDepth = 3;     // d for the (0.1, 0.1) bench configs
  constexpr uint32_t kW = 54;   // matching width
  HashFamily family(/*seed=*/7, kDepth);
  Rng rng(21);
  std::vector<uint64_t> keys(kN), mixed(kN);
  for (auto& k : keys) k = rng.Next();
  HashFamily::Mix64Batch(keys.data(), kN, mixed.data());
  std::vector<uint32_t> cols(kN * kDepth);
  const size_t reps = std::max<size_t>(iters / kN, 8);

  PrintHeader(
      "SIMD hash kernels (keys/second per tier; row-major fill is "
      "per-key over all 3 rows)",
      {"kernel", "tier", "rate", "vs scalar"});
  constexpr SimdLevel kLevels[] = {SimdLevel::kScalar, SimdLevel::kAVX2};
  double mix_scalar = 0.0, row_scalar = 0.0, one_scalar = 0.0;
  for (SimdLevel level : kLevels) {
    if (!SimdLevelSupported(level)) continue;
    const char* tier = SimdLevelName(level);
    const auto& kernels = internal::HashKernelsFor(level);
    {
      Timer timer;
      for (size_t i = 0; i < reps; ++i) {
        kernels.mix64_batch(keys.data(), kN, mixed.data());
        g_sink += static_cast<double>(mixed[i % kN]);
      }
      double rate = static_cast<double>(reps * kN) / timer.ElapsedSeconds();
      if (level == SimdLevel::kScalar) mix_scalar = rate;
      RecordBenchResult(std::string("query/hash/mix64-batch/") + tier, rate,
                        0.0);
      PrintRow({"mix64-batch", tier, FormatDouble(rate, 0),
                FormatDouble(mix_scalar > 0 ? rate / mix_scalar : 1.0, 2)});
    }
    {
      ForceSimdLevel(level);
      Timer timer;
      for (size_t i = 0; i < reps; ++i) {
        family.BucketsRowMajor(mixed.data(), kN, kW, cols.data());
        g_sink += cols[i % (kN * kDepth)];
      }
      double rate = static_cast<double>(reps * kN) / timer.ElapsedSeconds();
      ResetSimdLevel();
      if (level == SimdLevel::kScalar) row_scalar = rate;
      RecordBenchResult(std::string("query/hash/buckets-row-major/") + tier,
                        rate, 0.0);
      PrintRow({"buckets-row-major", tier, FormatDouble(rate, 0),
                FormatDouble(row_scalar > 0 ? rate / row_scalar : 1.0, 2)});
    }
    {
      ForceSimdLevel(level);
      uint32_t out[kMaxSketchDepth];
      Timer timer;
      for (size_t i = 0; i < reps; ++i) {
        for (size_t k = 0; k < kN; ++k) {
          family.BucketsMixed(keys[k], kW, out);
        }
        g_sink += out[0];
      }
      double rate = static_cast<double>(reps * kN) / timer.ElapsedSeconds();
      ResetSimdLevel();
      if (level == SimdLevel::kScalar) one_scalar = rate;
      RecordBenchResult(std::string("query/hash/buckets-mixed/") + tier, rate,
                        0.0);
      PrintRow({"buckets-mixed", tier, FormatDouble(rate, 0),
                FormatDouble(one_scalar > 0 ? rate / one_scalar : 1.0, 2)});
    }
  }
}

// --- self-join / L1: batched vs legacy per-cell loops ----------------------

// The unbatched SelfJoin loop shape: two independent counter estimates
// per cell, no per-row materialization.
double LegacySelfJoin(const EcmEh& sketch, uint64_t range, Timestamp now) {
  const EcmConfig& cfg = sketch.config();
  double best = std::numeric_limits<double>::infinity();
  for (int j = 0; j < cfg.depth; ++j) {
    double row = 0.0;
    for (uint32_t i = 0; i < cfg.width; ++i) {
      const ExponentialHistogram& c = sketch.CounterAt(j, i);
      row += c.Estimate(now, range) * c.Estimate(now, range);
    }
    best = std::min(best, row);
  }
  return best;
}

double LegacyL1(const EcmEh& sketch, uint64_t range, Timestamp now) {
  const EcmConfig& cfg = sketch.config();
  double total = 0.0;
  for (int j = 0; j < cfg.depth; ++j) {
    for (uint32_t i = 0; i < cfg.width; ++i) {
      total += sketch.CounterAt(j, i).Estimate(now, range);
    }
  }
  return total / cfg.depth;
}

template <typename FastFn, typename LegacyFn>
AblationPair MeasureAblation(const char* name, size_t fast_calls,
                             size_t legacy_calls, Timestamp now,
                             ProbeMode mode, FastFn fast, LegacyFn legacy) {
  AblationPair out;
  {
    std::vector<Probe> probes = MakeProbes(now, fast_calls, mode);
    Timer timer;
    for (const Probe& p : probes) g_sink += fast(p);
    out.fast = static_cast<double>(probes.size()) / timer.ElapsedSeconds();
  }
  {
    std::vector<Probe> probes = MakeProbes(now, legacy_calls, mode);
    Timer timer;
    for (const Probe& p : probes) g_sink += legacy(p);
    out.legacy = static_cast<double>(probes.size()) / timer.ElapsedSeconds();
  }
  RecordBenchResult(std::string(name) + "/batched", out.fast, 0.0);
  RecordBenchResult(std::string(name) + "/legacy", out.legacy, 0.0);
  return out;
}

// --- RW counter estimates at large run counts ------------------------------

double MeasureRwEstimate(size_t calls) {
  // Small epsilon => per-level capacity 10000 retained samples; distinct
  // timestamps keep runs uncompressed, so each estimate binary-searches
  // thousands of runs per level.
  RandomizedWave::Config cfg;
  cfg.epsilon = 0.02;
  cfg.delta = 0.1;
  cfg.window_len = kWindow;
  cfg.max_arrivals = 1 << 20;
  cfg.seed = 11;
  RandomizedWave rw(cfg);
  uint64_t arrivals = ScaledEvents(200'000);
  for (Timestamp t = 1; t <= arrivals; ++t) rw.Add(t, 3);
  Timestamp now = rw.last_timestamp();

  std::vector<Probe> probes = MakeProbes(now, calls, ProbeMode::kMixed);
  Timer timer;
  for (const Probe& p : probes) g_sink += rw.Estimate(p.now, p.range);
  double rate = static_cast<double>(probes.size()) / timer.ElapsedSeconds();
  RecordBenchResult("query/rw-estimate/indexed", rate,
                    static_cast<double>(rw.MemoryBytes()));
  return rate;
}

// --- dyadic heavy hitters --------------------------------------------------

// The unbatched point query: one-pass hashing, one counter estimate per
// row. The hash family is rebuilt from the config — identical mapping
// guaranteed.
double LegacyPointQuery(const EcmEh& sketch, const HashFamily& hf,
                        uint64_t key, uint64_t range, Timestamp now) {
  uint32_t cols[kMaxSketchDepth];
  hf.BucketsMixed(key, sketch.config().width, cols);
  double best = std::numeric_limits<double>::infinity();
  for (int j = 0; j < sketch.config().depth; ++j) {
    best = std::min(best, sketch.CounterAt(j, cols[j]).Estimate(now, range));
  }
  return best;
}

// The pre-PR4 heavy-hitter descent: recursive per-node group testing
// over legacy point queries.
void DescendPerNode(const DyadicEcm<ExponentialHistogram>& dy,
                    const std::vector<HashFamily>& hfs, int level,
                    uint64_t prefix, double threshold, uint64_t range,
                    std::vector<HeavyHitter>* out) {
  const auto& sketch = dy.level(level);
  double est = LegacyPointQuery(sketch, hfs[static_cast<size_t>(level)],
                                prefix, range, sketch.Now());
  if (est < threshold) return;
  if (level == 0) {
    out->push_back(HeavyHitter{prefix, est});
    return;
  }
  DescendPerNode(dy, hfs, level - 1, prefix * 2, threshold, range, out);
  DescendPerNode(dy, hfs, level - 1, prefix * 2 + 1, threshold, range, out);
}

AblationPair MeasureHeavyHitters(const std::vector<StreamEvent>& events,
                                 size_t fast_sweeps, size_t legacy_sweeps) {
  constexpr int kDomainBits = 16;
  auto dy = DyadicEcm<ExponentialHistogram>::Create(
      kDomainBits, kEpsilon, kDelta, WindowMode::kTimeBased, kWindow,
      /*seed=*/7, /*max_arrivals=*/1 << 17);
  AblationPair out;
  if (!dy.ok()) {
    std::fprintf(stderr, "dyadic config: %s\n",
                 dy.status().ToString().c_str());
    return out;
  }
  uint64_t mask = (1ULL << kDomainBits) - 1;
  for (const StreamEvent& e : events) dy->Add(e.key & mask, e.ts);
  constexpr double kPhi = 0.02;
  size_t hitters = 0;
  {
    Timer timer;
    for (size_t i = 0; i < fast_sweeps; ++i) {
      auto hh = dy->HeavyHitters(kPhi, kWindow);
      hitters = hh.size();
    }
    out.fast = static_cast<double>(fast_sweeps) / timer.ElapsedSeconds();
  }
  {
    // The unbatched pipeline shape: per-sweep L1 recomputation (no memo),
    // recursive per-node descent over per-key point queries.
    std::vector<HashFamily> hfs;
    for (int l = 0; l < kDomainBits; ++l) {
      const EcmConfig& lcfg = dy->level(l).config();
      hfs.emplace_back(lcfg.seed, lcfg.depth);
    }
    Timer timer;
    for (size_t i = 0; i < legacy_sweeps; ++i) {
      double threshold = kPhi * LegacyL1(dy->level(0), kWindow,
                                         dy->level(0).Now());
      std::vector<HeavyHitter> hh;
      DescendPerNode(*dy, hfs, kDomainBits - 1, 0, threshold, kWindow, &hh);
      DescendPerNode(*dy, hfs, kDomainBits - 1, 1, threshold, kWindow, &hh);
      hitters = std::max(hitters, hh.size());
    }
    out.legacy = static_cast<double>(legacy_sweeps) / timer.ElapsedSeconds();
  }
  std::printf("  (heavy-hitter sweeps report ~%zu keys at phi=%.2f)\n",
              hitters, kPhi);
  RecordBenchResult("query/hh/DYADIC-EH/frontier", out.fast,
                    static_cast<double>(dy->MemoryBytes()));
  RecordBenchResult("query/hh/DYADIC-EH/pernode", out.legacy, 0.0);
  return out;
}

void Run() {
  uint64_t events_n = ScaledEvents(kEvents);
  auto events = LoadDataset(Dataset::kWc98, events_n);
  const size_t kQ = static_cast<size_t>(ScaledEvents(200'000));

  auto eh = MakeLoadedSketch<ExponentialHistogram>(events);
  auto dw = MakeLoadedSketch<DeterministicWave>(events);
  if (!eh.ok() || !dw.ok()) {
    std::fprintf(stderr, "sketch config failed\n");
    return;
  }

  PrintHeader("Point queries (queries/second, random keys and ranges)",
              {"variant", "per-call", "batched x64"});
  double eh_pq = MeasurePointQueries(*eh, events, kQ);
  double eh_pqb = MeasurePointQueriesBatched(*eh, events, kQ);
  PrintRow({"ECM-EH", FormatDouble(eh_pq, 0), FormatDouble(eh_pqb, 0)});
  double dw_pq = MeasurePointQueries(*dw, events, kQ);
  double dw_pqb = MeasurePointQueriesBatched(*dw, events, kQ);
  PrintRow({"ECM-DW", FormatDouble(dw_pq, 0), FormatDouble(dw_pqb, 0)});
  // End-to-end SIMD dispatch ablation: the identical batched loop with
  // the hash kernels pinned to the scalar tier (what a non-x86 or
  // pre-AVX2 machine runs); the auto row above carries the vector tier.
  if (ForceSimdLevel(SimdLevel::kScalar)) {
    double eh_pqb_scalar =
        MeasurePointQueriesBatched(*eh, events, kQ, "/forced-scalar");
    ResetSimdLevel();
    PrintRow({"ECM-EH (scalar kernels)", "-",
              FormatDouble(eh_pqb_scalar, 0)});
  }

  MeasureHashKernels(kQ * 8);

  PrintHeader(
      "Large-frontier batched point queries, 4096 keys (keys/second)",
      {"regime", "rate"});
  double bsp = MeasureLargeFrontierBatch(*eh, /*frontier=*/4096,
                                         std::max<size_t>(kQ / 4096, 4),
                                         /*range=*/kWindow / 2, "partial");
  PrintRow({"partial range (w/2)", FormatDouble(bsp, 0)});
  double bsf = MeasureLargeFrontierBatch(*eh, /*frontier=*/4096,
                                         std::max<size_t>(kQ / 4096, 4),
                                         /*range=*/kWindow, "full");
  PrintRow({"full window", FormatDouble(bsf, 0)});

  PrintHeader(
      "SelfJoin / EstimateL1 (calls/second): batched single-estimate "
      "path vs legacy per-cell loops",
      {"query", "regime", "batched", "legacy", "speedup"});
  Timestamp now = eh->Now();
  auto sj_fast = [&](const Probe& p) {
    return eh->InnerProductAt(*eh, p.range, p.now).value();
  };
  auto sj_legacy = [&](const Probe& p) {
    return LegacySelfJoin(*eh, p.range, p.now);
  };
  auto l1_fast = [&](const Probe& p) {
    return eh->EstimateL1At(p.range, p.now);
  };
  auto l1_legacy = [&](const Probe& p) {
    return LegacyL1(*eh, p.range, p.now);
  };
  AblationPair sj = MeasureAblation("query/selfjoin/ECM-EH", kQ / 40,
                                    kQ / 1000, now, ProbeMode::kMonitoring,
                                    sj_fast, sj_legacy);
  PrintRow({"selfjoin", "monitoring", FormatDouble(sj.fast, 0),
            FormatDouble(sj.legacy, 0),
            FormatDouble(sj.legacy > 0 ? sj.fast / sj.legacy : 0.0, 2)});
  AblationPair sjm = MeasureAblation("query/selfjoin-mixed/ECM-EH", kQ / 100,
                                     kQ / 1000, now, ProbeMode::kMixed,
                                     sj_fast, sj_legacy);
  PrintRow({"selfjoin", "mixed", FormatDouble(sjm.fast, 0),
            FormatDouble(sjm.legacy, 0),
            FormatDouble(sjm.legacy > 0 ? sjm.fast / sjm.legacy : 0.0, 2)});
  AblationPair l1 = MeasureAblation("query/l1/ECM-EH", kQ / 40, kQ / 1000,
                                    now, ProbeMode::kMonitoring, l1_fast,
                                    l1_legacy);
  PrintRow({"estimate-l1", "monitoring", FormatDouble(l1.fast, 0),
            FormatDouble(l1.legacy, 0),
            FormatDouble(l1.legacy > 0 ? l1.fast / l1.legacy : 0.0, 2)});
  AblationPair l1m = MeasureAblation("query/l1-mixed/ECM-EH", kQ / 100,
                                     kQ / 1000, now, ProbeMode::kMixed,
                                     l1_fast, l1_legacy);
  PrintRow({"estimate-l1", "mixed", FormatDouble(l1m.fast, 0),
            FormatDouble(l1m.legacy, 0),
            FormatDouble(l1m.legacy > 0 ? l1m.fast / l1m.legacy : 0.0, 2)});
  // The memoized repeat-probe regime (same (now, range), e.g. the
  // ratio-threshold descent): effectively free after the first call.
  {
    const size_t reps = kQ;
    Timer timer;
    for (size_t i = 0; i < reps; ++i) {
      g_sink += eh->EstimateL1At(kWindow, now);
    }
    double rate = static_cast<double>(reps) / timer.ElapsedSeconds();
    RecordBenchResult("query/l1/ECM-EH/memoized", rate, 0.0);
    PrintRow({"estimate-l1 (memoized)", FormatDouble(rate, 0), "-", "-"});
  }

  PrintHeader(
      "RandomizedWave::Estimate at ~10k retained samples/level "
      "(estimates/second)",
      {"path", "rate"});
  PrintRow({"indexed", FormatDouble(MeasureRwEstimate(kQ), 0)});

  PrintHeader(
      "Dyadic heavy-hitter sweeps over 16-bit keys (sweeps/second)",
      {"descent", "rate", "speedup"});
  AblationPair hh = MeasureHeavyHitters(
      events, std::max<size_t>(kQ / 2000, 4),
      std::max<size_t>(kQ / 4000, 2));
  PrintRow({"frontier-batched", FormatDouble(hh.fast, 2),
            FormatDouble(hh.legacy > 0 ? hh.fast / hh.legacy : 0.0, 2)});
  PrintRow({"per-node", FormatDouble(hh.legacy, 2), "1"});

  std::printf("\n(sink %.3g)\n", g_sink);
}

}  // namespace
}  // namespace ecm::bench

int main(int argc, char** argv) {
  ecm::bench::ParseBenchArgs(argc, argv);
  ecm::bench::Run();
  return 0;
}
