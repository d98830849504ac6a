// google-benchmark micro suite: per-operation latency of every sliding-
// window counter (Add, Estimate at full and partial range) and of the
// ECM-sketch hot paths (Add, point query, self-join) — the numbers behind
// Table 2's asymptotic claims and Table 3's throughput.

#include <benchmark/benchmark.h>

#include <cstring>
#include <string>
#include <vector>

#include "src/core/ecm_sketch.h"
#include "src/core/equiwidth_cm.h"
#include "src/util/hash.h"
#include "src/util/random.h"
#include "src/util/simd.h"
#include "src/util/simd_kernels.h"

namespace ecm {
namespace {

constexpr uint64_t kWindow = 1 << 17;

template <typename Counter>
Counter MakeCounter();

template <>
ExponentialHistogram MakeCounter<ExponentialHistogram>() {
  return ExponentialHistogram({0.1, kWindow});
}
template <>
DeterministicWave MakeCounter<DeterministicWave>() {
  return DeterministicWave({0.1, kWindow, 1 << 17});
}
template <>
RandomizedWave MakeCounter<RandomizedWave>() {
  RandomizedWave::Config cfg;
  cfg.epsilon = 0.1;
  cfg.window_len = kWindow;
  cfg.max_arrivals = 1 << 17;
  return RandomizedWave(cfg);
}
template <>
ExactWindow MakeCounter<ExactWindow>() { return ExactWindow({kWindow}); }
template <>
EquiWidthWindow MakeCounter<EquiWidthWindow>() {
  return EquiWidthWindow({kWindow, 16});
}
template <>
HybridHistogram MakeCounter<HybridHistogram>() {
  return HybridHistogram({kWindow, kWindow / 20, 16});
}

template <typename Counter>
void BM_CounterAdd(benchmark::State& state) {
  Counter counter = MakeCounter<Counter>();
  Timestamp t = 1;
  for (auto _ : state) {
    counter.Add(t);
    t += 2;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CounterAdd<ExponentialHistogram>);
BENCHMARK(BM_CounterAdd<DeterministicWave>);
BENCHMARK(BM_CounterAdd<RandomizedWave>);
BENCHMARK(BM_CounterAdd<ExactWindow>);
BENCHMARK(BM_CounterAdd<EquiWidthWindow>);
BENCHMARK(BM_CounterAdd<HybridHistogram>);

// Weighted arrivals: one Add(ts, c) call per iteration. items processed
// counts the c underlying events, so events/s is comparable with the
// unit-weight BM_CounterAdd rows.
template <typename Counter>
void BM_CounterAddWeighted(benchmark::State& state) {
  Counter counter = MakeCounter<Counter>();
  const uint64_t weight = static_cast<uint64_t>(state.range(0));
  Timestamp t = 1;
  for (auto _ : state) {
    counter.Add(t, weight);
    t += 2;
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(weight));
}
BENCHMARK(BM_CounterAddWeighted<ExponentialHistogram>)->Arg(100)->Arg(10000);
BENCHMARK(BM_CounterAddWeighted<DeterministicWave>)->Arg(100)->Arg(10000);
BENCHMARK(BM_CounterAddWeighted<RandomizedWave>)->Arg(100)->Arg(10000);
BENCHMARK(BM_CounterAddWeighted<EquiWidthWindow>)->Arg(100)->Arg(10000);
BENCHMARK(BM_CounterAddWeighted<HybridHistogram>)->Arg(100)->Arg(10000);

// Pre-batch-sampler baseline for the randomized wave: a weighted arrival
// decomposed into per-arrival unit Adds (what Add(ts, c) used to cost).
// Contrast with BM_CounterAddWeighted<RandomizedWave> at the same weight.
void BM_RwAddWeightedPerArrival(benchmark::State& state) {
  RandomizedWave counter = MakeCounter<RandomizedWave>();
  const uint64_t weight = static_cast<uint64_t>(state.range(0));
  Timestamp t = 1;
  for (auto _ : state) {
    for (uint64_t i = 0; i < weight; ++i) counter.Add(t, 1);
    t += 2;
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(weight));
}
BENCHMARK(BM_RwAddWeightedPerArrival)->Arg(100)->Arg(10000);

template <typename Counter>
void BM_CounterEstimate(benchmark::State& state) {
  Counter counter = MakeCounter<Counter>();
  Timestamp t = 1;
  for (int i = 0; i < 100000; ++i) {
    counter.Add(t);
    t += 2;
  }
  uint64_t range = static_cast<uint64_t>(state.range(0));
  double sink = 0.0;
  for (auto _ : state) {
    sink += counter.Estimate(t, range);
  }
  benchmark::DoNotOptimize(sink);
}
BENCHMARK(BM_CounterEstimate<ExponentialHistogram>)->Arg(1000)->Arg(kWindow);
BENCHMARK(BM_CounterEstimate<DeterministicWave>)->Arg(1000)->Arg(kWindow);
BENCHMARK(BM_CounterEstimate<RandomizedWave>)->Arg(1000)->Arg(kWindow);
BENCHMARK(BM_CounterEstimate<ExactWindow>)->Arg(1000)->Arg(kWindow);

template <typename Counter>
void BM_EcmAdd(benchmark::State& state) {
  auto sketch = EcmSketch<Counter>::Create(
      0.1, 0.1, WindowMode::kTimeBased, kWindow, 3,
      OptimizeFor::kPointQueries, 1 << 17);
  Rng rng(1);
  Timestamp t = 1;
  for (auto _ : state) {
    sketch->Add(rng.Uniform(100000), t);
    t += 1;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EcmAdd<ExponentialHistogram>);
BENCHMARK(BM_EcmAdd<DeterministicWave>);
BENCHMARK(BM_EcmAdd<RandomizedWave>);
BENCHMARK(BM_EcmAdd<EquiWidthWindow>);
BENCHMARK(BM_EcmAdd<HybridHistogram>);

template <typename Counter>
void BM_EcmAddWeighted(benchmark::State& state) {
  auto sketch = EcmSketch<Counter>::Create(
      0.1, 0.1, WindowMode::kTimeBased, kWindow, 3,
      OptimizeFor::kPointQueries, 1 << 17);
  const uint64_t weight = static_cast<uint64_t>(state.range(0));
  Rng rng(1);
  Timestamp t = 1;
  for (auto _ : state) {
    sketch->Add(rng.Uniform(100000), t, weight);
    t += 1;
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(weight));
}
BENCHMARK(BM_EcmAddWeighted<ExponentialHistogram>)->Arg(100)->Arg(10000);
BENCHMARK(BM_EcmAddWeighted<DeterministicWave>)->Arg(100)->Arg(10000);
BENCHMARK(BM_EcmAddWeighted<RandomizedWave>)->Arg(100)->Arg(10000);
BENCHMARK(BM_EcmAddWeighted<EquiWidthWindow>)->Arg(100)->Arg(10000);
BENCHMARK(BM_EcmAddWeighted<HybridHistogram>)->Arg(100)->Arg(10000);

template <typename Counter>
void BM_EcmPointQuery(benchmark::State& state) {
  auto sketch = EcmSketch<Counter>::Create(
      0.1, 0.1, WindowMode::kTimeBased, kWindow, 3,
      OptimizeFor::kPointQueries, 1 << 17);
  Rng rng(2);
  Timestamp t = 1;
  for (int i = 0; i < 200000; ++i) {
    sketch->Add(rng.Uniform(100000), t);
    ++t;
  }
  double sink = 0.0;
  for (auto _ : state) {
    sink += sketch->PointQuery(rng.Uniform(100000),
                               static_cast<uint64_t>(state.range(0)));
  }
  benchmark::DoNotOptimize(sink);
}
BENCHMARK(BM_EcmPointQuery<ExponentialHistogram>)->Arg(1000)->Arg(kWindow);
BENCHMARK(BM_EcmPointQuery<DeterministicWave>)->Arg(1000)->Arg(kWindow);

void BM_EcmSelfJoin(benchmark::State& state) {
  auto sketch = EcmEh::Create(0.1, 0.1, WindowMode::kTimeBased, kWindow, 3,
                              OptimizeFor::kSelfJoinQueries);
  Rng rng(3);
  Timestamp t = 1;
  for (int i = 0; i < 200000; ++i) {
    sketch->Add(rng.Uniform(1000), t);
    ++t;
  }
  double sink = 0.0;
  for (auto _ : state) {
    sink += sketch->SelfJoin(static_cast<uint64_t>(state.range(0)));
  }
  benchmark::DoNotOptimize(sink);
}
BENCHMARK(BM_EcmSelfJoin)->Arg(1000)->Arg(kWindow);

// --- SIMD hash kernel tiers ------------------------------------------------
//
// Arg(0) / Arg(2) selects the SimdLevel (0 = scalar, 2 = avx2); a tier
// the host CPU lacks is skipped. The label carries the tier name so JSON
// rows stay readable. Each benchmark forces the tier for its timed
// section only and restores auto dispatch afterwards.

constexpr size_t kHashKeys = 4096;
constexpr int kHashDepth = 3;
constexpr uint32_t kHashWidth = 54;

std::vector<uint64_t> HashBenchKeys() {
  std::vector<uint64_t> keys(kHashKeys);
  Rng rng(7);
  for (auto& k : keys) k = rng.Next();
  return keys;
}

bool SetupSimdTier(benchmark::State& state, SimdLevel* level) {
  *level = static_cast<SimdLevel>(state.range(0));
  if (!SimdLevelSupported(*level)) {
    state.SkipWithError("tier unsupported on this CPU");
    return false;
  }
  state.SetLabel(SimdLevelName(*level));
  return true;
}

void BM_Mix64Batch(benchmark::State& state) {
  SimdLevel level;
  if (!SetupSimdTier(state, &level)) return;
  const std::vector<uint64_t> keys = HashBenchKeys();
  std::vector<uint64_t> out(kHashKeys);
  const internal::HashKernels& kernels = internal::HashKernelsFor(level);
  for (auto _ : state) {
    kernels.mix64_batch(keys.data(), kHashKeys, out.data());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(kHashKeys));
}
BENCHMARK(BM_Mix64Batch)->Arg(0)->Arg(2);

void BM_BucketsRowMajor(benchmark::State& state) {
  SimdLevel level;
  if (!SetupSimdTier(state, &level)) return;
  const std::vector<uint64_t> keys = HashBenchKeys();
  HashFamily family(42, kHashDepth);
  std::vector<uint64_t> mixed(kHashKeys);
  HashFamily::Mix64Batch(keys.data(), kHashKeys, mixed.data());
  std::vector<uint32_t> cols(kHashKeys * kHashDepth);
  ForceSimdLevel(level);
  for (auto _ : state) {
    family.BucketsRowMajor(mixed.data(), kHashKeys, kHashWidth, cols.data());
    benchmark::DoNotOptimize(cols.data());
  }
  ResetSimdLevel();
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(kHashKeys));
}
BENCHMARK(BM_BucketsRowMajor)->Arg(0)->Arg(2);

void BM_BucketsMixed(benchmark::State& state) {
  SimdLevel level;
  if (!SetupSimdTier(state, &level)) return;
  const std::vector<uint64_t> keys = HashBenchKeys();
  HashFamily family(42, kHashDepth);
  std::vector<uint32_t> out(kHashDepth);
  ForceSimdLevel(level);
  size_t i = 0;
  for (auto _ : state) {
    family.BucketsMixed(keys[i], kHashWidth, out.data());
    benchmark::DoNotOptimize(out.data());
    i = (i + 1) % kHashKeys;
  }
  ResetSimdLevel();
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BucketsMixed)->Arg(0)->Arg(2);

}  // namespace
}  // namespace ecm

// Custom main instead of BENCHMARK_MAIN(): Google Benchmark rejects
// unknown flags, so the shared bench flags are stripped here — --smoke
// maps onto a tiny per-benchmark minimum time (the CI smoke gate runs
// every bench binary with the same flag) and --json <path> onto Google
// Benchmark's own JSON reporter.
int main(int argc, char** argv) {
  std::vector<char*> args;
  bool smoke = false;
  std::string out_flag;
  for (int i = 0; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      out_flag = std::string("--benchmark_out=") + argv[++i];
    } else {
      args.push_back(argv[i]);
    }
  }
  char format_flag[] = "--benchmark_out_format=json";
  if (!out_flag.empty()) {
    args.push_back(out_flag.data());
    args.push_back(format_flag);
  }
  char min_time_flag[] = "--benchmark_min_time=0.01";
  if (smoke) args.push_back(min_time_flag);
  int args_count = static_cast<int>(args.size());
  benchmark::Initialize(&args_count, args.data());
  if (benchmark::ReportUnrecognizedArguments(args_count, args.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
