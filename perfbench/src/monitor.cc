// site-monitor: one StreamEngine (sketch + dyadic stack + standing
// queries + keyed counter store) fed a rotating-Zipf stream, with ad-hoc
// query rounds mixed into the writes. Before each round the site publishes
// its sketch to an operator (serialize, loopback, decode; no merge), so
// the workload also reports the codec and wire cost of a single site.

#include <algorithm>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "perfbench/src/workloads.h"
#include "src/dist/serialize.h"
#include "src/dist/transport.h"
#include "src/engine/continuous.h"
#include "src/stream/zipf.h"
#include "src/util/random.h"

namespace perfbench {
namespace {

using ecm::ExponentialHistogram;
using ecm::StreamEvent;
using Sketch = ecm::EcmSketch<ExponentialHistogram>;

constexpr uint64_t kWindow = 1ull << 16;
constexpr int kDomainBits = 22;  // 4M keys: the key universe exceeds L2
constexpr double kEpsilon = 0.05;
constexpr double kDelta = 0.05;
constexpr double kSkew = 1.1;
constexpr uint64_t kShiftEvery = 50'000;  // draws between hot-set rotations
constexpr uint64_t kStride = 7919;
constexpr size_t kHotKeys = 768;     // query keys: hottest keys...
constexpr size_t kQueryKeys = 1536;  // ...plus uniform keys
constexpr size_t kPointWatches = 16;
constexpr size_t kIngestSlice = 250;  // events per timed ingest call

volatile uint64_t g_sink = 0;

struct Operator {
  ecm::LoopbackTransport transport;
  std::optional<Sketch> decoded;
  uint64_t decode_failures = 0;
};

// Publishes the site's point-query sketch to the operator: serialize,
// ship, decode.
bool Publish(const ecm::StreamEngine& engine, int32_t id, Tracer* tracer,
             Operator* op, PassResult* result) {
  Scope collect(tracer, "collect", id);
  std::vector<uint8_t> image;
  {
    LayerCall call(result, tracer, "encode", id, Phase::kCollect);
    image = ecm::SerializeSketch(engine.sketch());
  }
  {
    LayerCall call(result, tracer, "transport", id, Phase::kCollect);
    op->transport.Send(0, ecm::kCoordinatorNode, image.data(), image.size());
  }
  LayerCall call(result, tracer, "decode", id, Phase::kCollect);
  auto sketch = ecm::DeserializeSketch<ExponentialHistogram>(image);
  if (!sketch.ok()) {
    ++op->decode_failures;
    result->Fail("decode: " + sketch.status().ToString());
    return false;
  }
  op->decoded.emplace(std::move(*sketch));
  return true;
}

struct RoundCounts {
  uint64_t point_queries = 0;
  uint64_t exact_answers = 0;
  double checksum = 0.0;
};

// Ad-hoc round: PointQueryExact over the key set at each range, the
// window total at each range, and the self-join size.
void QueryRound(const ecm::StreamEngine& engine,
                const std::vector<uint64_t>& keys,
                const std::vector<uint64_t>& ranges, int32_t id,
                Tracer* tracer, RoundCounts* q) {
  Scope round(tracer, "query", id);
  for (uint64_t range : ranges) {
    {
      Scope span(tracer, "query.l1", id);
      q->checksum += engine.sketch().EstimateL1(range);
    }
    Scope span(tracer, "query.point", id);
    for (uint64_t key : keys) {
      bool exact = false;
      q->checksum += engine.PointQueryExact(key, range, &exact);
      q->exact_answers += exact ? 1 : 0;
    }
    q->point_queries += keys.size();
  }
  Scope span(tracer, "query.selfjoin", id);
  q->checksum += engine.SelfJoin(kWindow);
}

}  // namespace

PassResult RunMonitorPass(const PassConfig& cfg, bool with_accuracy) {
  PassResult result;
  const uint64_t rounds = cfg.timed_events / kMonitorRoundEvery;
  const uint64_t timed_events = rounds * kMonitorRoundEvery;

  // ---- set-up: trace, engine, warm-up window --------------------------
  const int64_t setup_start = NowNs();
  const uint64_t universe = (1ull << kDomainBits) - 1;
  ecm::RotatingZipf zipf(universe, kSkew, kShiftEvery, kStride);
  ecm::Rng rng(ecm::Mix64(cfg.seed ^ 0x5174E5ull));
  std::vector<StreamEvent> events(kWindow + timed_events);
  for (size_t i = 0; i < events.size(); ++i) {
    events[i].ts = 1 + i;  // one arrival per tick
    events[i].key = zipf.Sample(rng);
  }
  // Query keys: the keys hottest over the timed events (the hot set
  // rotates, so these are the keys an operator would be asking about),
  // then uniform keys from the universe. Ties break by key.
  std::unordered_map<uint64_t, uint64_t> freq;
  for (size_t i = kWindow; i < events.size(); ++i) ++freq[events[i].key];
  std::vector<std::pair<uint64_t, uint64_t>> by_count(freq.begin(), freq.end());
  const size_t hot = std::min(kHotKeys, by_count.size());
  std::partial_sort(by_count.begin(), by_count.begin() + hot, by_count.end(),
                    [](const auto& a, const auto& b) {
                      return a.second != b.second ? a.second > b.second
                                                  : a.first < b.first;
                    });
  std::vector<uint64_t> keys;
  for (size_t i = 0; i < hot; ++i) keys.push_back(by_count[i].first);
  while (keys.size() < kQueryKeys) keys.push_back(1 + rng.Uniform(universe));
  result.gen_s = static_cast<double>(NowNs() - setup_start) * 1e-9;

  auto config = ecm::EcmConfig::Create(kEpsilon, kDelta,
                                       ecm::WindowMode::kTimeBased, kWindow,
                                       ecm::Mix64(cfg.seed ^ 0xE6E1ull));
  if (!config.ok()) {
    result.Fail("config: " + config.status().ToString());
    return result;
  }
  ecm::StreamEngine::Options options;
  options.sketch = *config;
  options.domain_bits = kDomainBits;
  ecm::StreamEngine engine(options);
  for (size_t i = 0; i < kPointWatches; ++i) {
    engine.WatchPoint(keys[i], kWindow / 16, 200.0, nullptr);
  }
  engine.WatchSelfJoin(kWindow, 2.0e7, nullptr);
  auto hh = engine.WatchHeavyHitters(0.01, kWindow, kWindow / 8, nullptr);
  if (!hh.ok()) {
    result.Fail("heavy hitters: " + hh.status().ToString());
    return result;
  }
  ecm::KeyedStoreConfig store_cfg;
  store_cfg.epsilon = kEpsilon;
  store_cfg.window_len = kWindow;
  store_cfg.max_keys = 1024;
  store_cfg.admit_threshold = 400.0;
  store_cfg.evict_threshold = 100.0;
  const ecm::KeyedCounterStore* store = engine.EnableKeyedStore(store_cfg);
  engine.IngestBatch(events.data(), kWindow);
  Operator op;
  result.setup_s = static_cast<double>(NowNs() - setup_start) * 1e-9;
  result.counts["stream.events"] = static_cast<double>(events.size());

  // ---- timed phase ---------------------------------------------------
  const ecm::StreamEngine::Stats eng0 = engine.stats();
  const ecm::KeyedStoreStats store0 = store->stats();
  const auto l1_0 = engine.sketch().l1_cache_stats();
  const std::vector<uint64_t> ranges = ExponentialRanges(kWindow);
  std::vector<uint32_t> cols(ecm::kMaxSketchDepth);
  RoundCounts q;
  uint64_t hash_sink = 0;
  int64_t excluded_ns = 0;
  Tracer tracer(cfg.traced);
  const int64_t start = NowNs();
  const int32_t root = tracer.Begin(kPassSpan);
  for (uint64_t r = 0; r < rounds; ++r) {
    const auto id = static_cast<int32_t>(r);
    const StreamEvent* block = events.data() + kWindow + r * kMonitorRoundEvery;
    if (tracer.enabled()) {
      const int64_t h0 = NowNs();
      {
        Scope span(&tracer, kHashSpan, id);
        for (size_t i = 0; i < kMonitorRoundEvery; ++i) {
          engine.sketch().RowBuckets(block[i].key, cols.data());
          hash_sink += cols[0];
        }
      }
      excluded_ns += NowNs() - h0;
    }
    for (size_t i = 0; i < kMonitorRoundEvery; i += kIngestSlice) {
      LayerCall call(&result, &tracer, "engine.ingest", id, Phase::kIngest);
      engine.IngestBatch(block + i, kIngestSlice);
    }
    ++result.attempted;
    const bool ok = Publish(engine, id, &tracer, &op, &result);
    if (ok && (r == 0 || r + 1 == rounds)) {
      const int64_t k0 = NowNs();
      {
        Scope span(&tracer, kCheckSpan, id);
        if (ecm::SerializeSketch(*op.decoded) !=
            ecm::SerializeSketch(engine.sketch())) {
          result.Fail("decode mismatch: publication " + std::to_string(r));
        }
      }
      excluded_ns += NowNs() - k0;
    }
    ++result.attempted;
    Timed segment(&result.segments, id, Phase::kQuery);
    QueryRound(engine, keys, ranges, id, &tracer, &q);
  }
  tracer.End(root);
  result.wall_s = static_cast<double>(NowNs() - start - excluded_ns) * 1e-9;
  result.events = timed_events;
  result.blocks = rounds;
  result.spans = tracer.spans();
  g_sink = hash_sink;

  // ---- untimed accounting --------------------------------------------
  auto& c = result.counts;
  const ecm::NetworkStats net = op.transport.stats();
  c["transport.messages"] = static_cast<double>(net.messages);
  c["transport.bytes"] = static_cast<double>(net.bytes);
  c["wire_bytes_per_event"] =
      static_cast<double>(net.bytes) / static_cast<double>(timed_events);
  c["encode.full_images"] = static_cast<double>(net.messages);
  c["encode.delta_images"] = 0;
  c["encode.rlz_images"] = 0;
  c["encode.raw_bytes"] = static_cast<double>(net.bytes);
  c["encode.wire_bytes"] = static_cast<double>(net.bytes);
  c["encode.wire_over_raw"] = net.bytes == 0 ? 0.0 : 1.0;
  c["decode.stale_base_resyncs"] = 0;
  c["decode.duplicates_absorbed"] = 0;
  c["decode.failures"] = static_cast<double>(op.decode_failures);
  c["merge.inputs"] = 0;
  c["merge.cells"] = 0;
  c["merge.out_bytes"] = 0;
  c["site.events"] = 0;
  const ecm::StreamEngine::Stats& eng = engine.stats();
  c["engine.events"] = static_cast<double>(eng.arrivals - eng0.arrivals);
  c["engine.alerts"] = static_cast<double>(eng.alerts - eng0.alerts);
  c["engine.point_evaluations"] =
      static_cast<double>(eng.point_evaluations - eng0.point_evaluations);
  c["engine.selfjoin_evaluations"] = static_cast<double>(
      eng.selfjoin_evaluations - eng0.selfjoin_evaluations);
  c["engine.hh_reports"] = static_cast<double>(eng.heavy_hitter_reports -
                                               eng0.heavy_hitter_reports);
  const ecm::KeyedStoreStats& ks = store->stats();
  c["keyed.admissions"] =
      static_cast<double>(ks.admissions - store0.admissions);
  c["keyed.evictions"] = static_cast<double>(ks.evictions - store0.evictions);
  c["keyed.capacity_refusals"] =
      static_cast<double>(ks.capacity_refusals - store0.capacity_refusals);
  c["keyed.exact_hit_ratio"] =
      q.point_queries == 0 ? 0.0
                           : static_cast<double>(q.exact_answers) /
                                 static_cast<double>(q.point_queries);
  c["keyed.memory_bytes"] = static_cast<double>(store->MemoryBytes());
  c["query.point_queries"] = static_cast<double>(q.point_queries);
  c["query.checksum"] = q.checksum;
  const auto l1 = engine.sketch().l1_cache_stats();
  const uint64_t hits = l1.hits - l1_0.hits;
  const uint64_t misses = l1.misses - l1_0.misses;
  c["query.l1_cache_hit_ratio"] =
      hits + misses == 0 ? 0.0
                         : static_cast<double>(hits) /
                               static_cast<double>(hits + misses);
  c["collect.samples"] = static_cast<double>(rounds);
  c["query.samples"] = static_cast<double>(rounds);
  size_t synopsis = engine.MemoryBytes();
  if (op.decoded) synopsis += op.decoded->MemoryBytes();
  c["synopsis_bytes"] = static_cast<double>(synopsis);

  if (with_accuracy) {
    const ecm::Timestamp now = engine.sketch().Now();
    const AccuracyResult acc = MeasureAccuracy(
        events, now, ranges, keys, engine.sketch().config().epsilon,
        [&](uint64_t key, uint64_t range) {
          return engine.PointQueryExact(key, range);
        });
    result.accuracy["point_error_avg"] = acc.error_avg;
    result.accuracy["accuracy.bound_exceed_frac"] = acc.bound_exceed_frac;
  }
  return result;
}

}  // namespace perfbench
