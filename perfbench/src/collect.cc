// collect-full and collect-compressed: 8 sites of EH ECM-sketches, a
// LoopbackTransport, and a coordinator that decodes the shipped images,
// merges the decoded sketches and runs one query round on the merged view.

#include <optional>
#include <string>
#include <vector>

#include "perfbench/src/workloads.h"
#include "src/core/ecm_sketch.h"
#include "src/dist/compress.h"
#include "src/dist/serialize.h"
#include "src/dist/site.h"
#include "src/dist/transport.h"
#include "src/stream/wc98_like.h"
#include "src/util/random.h"

namespace perfbench {
namespace {

using ecm::EcmSketch;
using ecm::ExponentialHistogram;
using ecm::StreamEvent;
using Sketch = EcmSketch<ExponentialHistogram>;

constexpr int kSites = 8;
constexpr uint64_t kWindow = 1ull << 16;
constexpr double kEpsilon = 0.05;
constexpr double kDelta = 0.05;
constexpr size_t kQueryKeys = 16384;  // half the hottest keys, half uniform
constexpr double kPhi = 0.001;  // ratio threshold counted by each round

// Keeps the hash probe's results observable.
volatile uint64_t g_sink = 0;

uint64_t CollectEvery(bool compressed) {
  return compressed ? kCompressedCollectEvery : kFullCollectEvery;
}

struct Coordinator {
  ecm::LoopbackTransport transport;
  // collect-full: the images decoded this collect (replaced in place, so
  // the previous collect's sketches are released inside the decode span).
  std::vector<std::optional<Sketch>> decoded;
  // collect-compressed: one channel per site.
  std::vector<ecm::SketchSender<ExponentialHistogram>> senders;
  std::vector<ecm::SketchReceiver<ExponentialHistogram>> receivers;
  std::vector<const Sketch*> inputs;
  std::optional<Sketch> view;
};

struct CollectCounts {
  uint64_t raw_bytes = 0;
  uint64_t wire_bytes = 0;
  uint64_t full_images = 0;
  uint64_t stale_base_resyncs = 0;
  uint64_t decode_failures = 0;
  uint64_t merge_inputs = 0;
  uint64_t merge_cells = 0;
  uint64_t merge_out_bytes = 0;
};

// Ships every site's sketch to the coordinator and merges what it decoded.
// Returns false on any failed Result.
bool Collect(std::vector<ecm::Site<ExponentialHistogram>>& sites,
             bool compressed, int32_t id, Tracer* tracer, Coordinator* co,
             CollectCounts* counts, PassResult* result) {
  Scope collect(tracer, "collect", id);
  bool ok = true;
  co->inputs.assign(sites.size(), nullptr);
  for (size_t s = 0; s < sites.size(); ++s) {
    const auto from = static_cast<ecm::NodeId>(s);
    if (!compressed) {
      std::vector<uint8_t> image;
      {
        LayerCall call(result, tracer, "encode", id, Phase::kCollect);
        image = ecm::SerializeSketch(sites[s].sketch());
      }
      {
        LayerCall call(result, tracer, "transport", id, Phase::kCollect);
        co->transport.Send(from, ecm::kCoordinatorNode, image.data(),
                           image.size());
      }
      LayerCall call(result, tracer, "decode", id, Phase::kCollect);
      auto sketch = ecm::DeserializeSketch<ExponentialHistogram>(image);
      if (!sketch.ok()) {
        ++counts->decode_failures;
        result->Fail("decode: " + sketch.status().ToString());
        ok = false;
        continue;
      }
      co->decoded[s].emplace(std::move(*sketch));
      co->inputs[s] = &*co->decoded[s];
      counts->raw_bytes += image.size();
      counts->wire_bytes += image.size();
      ++counts->full_images;
      continue;
    }
    ecm::SketchWireImage image;
    {
      LayerCall call(result, tracer, "encode", id, Phase::kCollect);
      image = co->senders[s].Ship(sites[s].sketch());
    }
    {
      LayerCall call(result, tracer, "transport", id, Phase::kCollect);
      co->transport.Send(from, ecm::kCoordinatorNode, image.bytes.data(),
                         image.bytes.size());
    }
    LayerCall call(result, tracer, "decode", id, Phase::kCollect);
    auto got = co->receivers[s].Receive(image.kind, image.bytes.data(),
                                        image.bytes.size());
    if (!got.ok() && got.status().code() == ecm::StatusCode::kStaleBase) {
      // The receiver lost its base: re-base the channel with a full image.
      ++counts->stale_base_resyncs;
      co->senders[s].Reset();
      image = co->senders[s].Ship(sites[s].sketch());
      co->transport.Send(from, ecm::kCoordinatorNode, image.bytes.data(),
                         image.bytes.size());
      got = co->receivers[s].Receive(image.kind, image.bytes.data(),
                                     image.bytes.size());
    }
    if (!got.ok()) {
      ++counts->decode_failures;
      result->Fail("receive: " + got.status().ToString());
      ok = false;
      continue;
    }
    co->inputs[s] = *got;
  }
  if (!ok) return false;
  LayerCall call(result, tracer, "merge", id, Phase::kCollect);
  auto merged = Sketch::Merge(co->inputs, co->inputs[0]->config().epsilon_sw);
  if (!merged.ok()) {
    result->Fail("merge: " + merged.status().ToString());
    return false;
  }
  co->view.emplace(std::move(*merged));
  counts->merge_inputs += co->inputs.size();
  counts->merge_cells += co->view->NumCounters();
  counts->merge_out_bytes += co->view->MemoryBytes();
  return true;
}

// Output checks: every decoded image re-serialises to the site's own
// image, and the merge of the decoded sketches equals the merge of the
// sites' in-memory sketches, byte for byte.
void CheckCollect(const std::vector<ecm::Site<ExponentialHistogram>>& sites,
                  const Coordinator& co, int32_t id, PassResult* result) {
  std::vector<const Sketch*> local;
  for (size_t s = 0; s < sites.size(); ++s) {
    local.push_back(&sites[s].sketch());
    if (ecm::SerializeSketch(*co.inputs[s]) !=
        ecm::SerializeSketch(sites[s].sketch())) {
      result->Fail("decode mismatch: site " + std::to_string(s) +
                   " collect " + std::to_string(id));
    }
  }
  auto merged = Sketch::Merge(local, local[0]->config().epsilon_sw);
  if (!merged.ok() ||
      ecm::SerializeSketch(*merged) != ecm::SerializeSketch(*co.view)) {
    result->Fail("merge mismatch: collect " + std::to_string(id));
  }
}

struct QueryCounts {
  uint64_t point_queries = 0;
  uint64_t heavy_keys = 0;
  uint64_t l1_hits = 0;
  uint64_t l1_misses = 0;
  double checksum = 0.0;
};

// One query round on the merged view: a batched point query over the key
// set at each range, the window total for the ratio threshold, and the
// self-join size normalised by the window total.
void QueryRound(const Sketch& view, const std::vector<uint64_t>& keys,
                const std::vector<uint64_t>& ranges, int32_t id,
                Tracer* tracer, std::vector<double>* est, QueryCounts* q) {
  Scope round(tracer, "query", id);
  const ecm::Timestamp now = view.Now();
  est->resize(keys.size());
  for (uint64_t range : ranges) {
    double l1 = 0.0;
    {
      Scope span(tracer, "query.l1", id);
      l1 = view.EstimateL1At(range, now);
    }
    {
      Scope span(tracer, "query.point", id);
      view.PointQueryBatchAt(keys.data(), keys.size(), range, now,
                             est->data());
    }
    for (double e : *est) {
      q->checksum += e;
      if (e >= kPhi * l1) ++q->heavy_keys;
    }
    q->point_queries += keys.size();
  }
  double f2 = 0.0;
  double l1 = 0.0;
  {
    Scope span(tracer, "query.selfjoin", id);
    f2 = view.SelfJoin(kWindow);
  }
  {
    Scope span(tracer, "query.l1", id);
    l1 = view.EstimateL1At(kWindow, now);
  }
  if (l1 > 0) q->checksum += f2 / (l1 * l1);
  // Each collect builds a fresh view, so its memo counts are this round's.
  q->l1_hits += view.l1_cache_stats().hits;
  q->l1_misses += view.l1_cache_stats().misses;
}

}  // namespace

std::vector<uint64_t> ExponentialRanges(uint64_t window_len) {
  std::vector<uint64_t> ranges;
  for (uint64_t r = 100; r < window_len; r *= 10) ranges.push_back(r);
  ranges.push_back(window_len);
  return ranges;
}

PassResult RunCollectPass(const PassConfig& cfg, bool compressed,
                          bool with_accuracy) {
  PassResult result;
  const uint64_t every = CollectEvery(compressed);
  const uint64_t blocks = cfg.timed_events / every;
  const uint64_t timed_events = blocks * every;

  // ---- set-up: trace, sites, warm-up window --------------------------
  const int64_t setup_start = NowNs();
  ecm::Wc98Config wc;
  wc.num_servers = kSites;
  wc.seed = ecm::Mix64(cfg.seed ^ 0x3C98ull);
  auto source = ecm::MakeWc98Stream(wc);
  std::vector<StreamEvent> events;
  events.reserve(kWindow * 11 / 10 + timed_events);
  while (events.empty() || events.back().ts <= kWindow) {
    events.push_back(source->Next());
  }
  const size_t warm_end = events.size() - 1;  // first event past the window
  while (events.size() < warm_end + timed_events) {
    events.push_back(source->Next());
  }
  // Per-site slices: the warm-up window, then one slice per collect block.
  std::vector<std::vector<StreamEvent>> warm(kSites);
  std::vector<std::vector<StreamEvent>> timed(kSites);
  std::vector<std::vector<size_t>> block_end(kSites);
  for (size_t i = 0; i < warm_end; ++i) {
    warm[events[i].node].push_back(events[i]);
  }
  for (uint64_t b = 0; b < blocks; ++b) {
    for (uint64_t i = warm_end + b * every; i < warm_end + (b + 1) * every;
         ++i) {
      timed[events[i].node].push_back(events[i]);
    }
    for (int s = 0; s < kSites; ++s) block_end[s].push_back(timed[s].size());
  }
  ecm::Rng key_rng(ecm::Mix64(cfg.seed ^ 0x6B65797Bull));
  std::vector<uint64_t> keys;
  for (size_t k = 1; k <= kQueryKeys / 2; ++k) keys.push_back(k);
  while (keys.size() < kQueryKeys) {
    keys.push_back(1 + key_rng.Uniform(wc.domain));
  }
  result.gen_s = static_cast<double>(NowNs() - setup_start) * 1e-9;

  auto config = ecm::EcmConfig::Create(kEpsilon, kDelta,
                                       ecm::WindowMode::kTimeBased, kWindow,
                                       /*seed=*/0xEC35EEDull);
  if (!config.ok()) {
    result.Fail("config: " + config.status().ToString());
    return result;
  }
  std::vector<ecm::Site<ExponentialHistogram>> sites;
  for (int s = 0; s < kSites; ++s) sites.emplace_back(s, *config);
  Coordinator co;
  co.decoded.resize(kSites);
  if (compressed) {
    co.senders.resize(kSites);
    co.receivers.resize(kSites);
  }
  for (int s = 0; s < kSites; ++s) {
    sites[s].IngestBatch(warm[s].data(), warm[s].size());
  }
  Tracer untraced(false);
  CollectCounts counts;
  if (compressed) {
    // Prime every channel with its full image, so the timed collects run
    // the steady compressed protocol.
    Collect(sites, compressed, -1, &untraced, &co, &counts, &result);
    ++result.attempted;
    result.segments.clear();  // set-up, not part of the timed schedule
  }
  result.setup_s = static_cast<double>(NowNs() - setup_start) * 1e-9;
  result.counts["stream.events"] = static_cast<double>(events.size());

  // ---- timed phase ---------------------------------------------------
  counts = CollectCounts{};
  const ecm::NetworkStats net0 = co.transport.stats();
  ecm::CompressionStats enc0;
  uint64_t dups0 = 0;
  for (int s = 0; compressed && s < kSites; ++s) {
    enc0.full_images += co.senders[s].stats().full_images;
    enc0.delta_images += co.senders[s].stats().delta_images;
    enc0.rlz_images += co.senders[s].stats().rlz_images;
    enc0.raw_bytes += co.senders[s].stats().raw_bytes;
    enc0.wire_bytes += co.senders[s].stats().wire_bytes;
    dups0 += co.receivers[s].duplicates_absorbed();
  }
  const std::vector<uint64_t> ranges = ExponentialRanges(kWindow);
  std::vector<double> est;
  std::vector<uint32_t> cols(ecm::kMaxSketchDepth);
  QueryCounts q;
  uint64_t hash_sink = 0;
  int64_t excluded_ns = 0;
  Tracer tracer(cfg.traced);
  const int64_t start = NowNs();
  const int32_t root = tracer.Begin(kPassSpan);
  for (uint64_t b = 0; b < blocks; ++b) {
    const auto id = static_cast<int32_t>(b);
    for (int s = 0; s < kSites; ++s) {
      const size_t lo = b == 0 ? 0 : block_end[s][b - 1];
      const size_t n = block_end[s][b] - lo;
      const StreamEvent* slice = timed[s].data() + lo;
      if (tracer.enabled()) {
        // Hash probe: the bucket hashing of this slice, timed on its own.
        const int64_t h0 = NowNs();
        {
          Scope span(&tracer, kHashSpan, id);
          for (size_t i = 0; i < n; ++i) {
            sites[s].sketch().RowBuckets(slice[i].key, cols.data());
            hash_sink += cols[0];
          }
        }
        excluded_ns += NowNs() - h0;
      }
      LayerCall call(&result, &tracer, "site.ingest", id, Phase::kIngest);
      sites[s].IngestBatch(slice, n);
    }
    ++result.attempted;
    if (!Collect(sites, compressed, id, &tracer, &co, &counts, &result)) {
      continue;
    }
    if (b == 0 || b + 1 == blocks) {
      const int64_t k0 = NowNs();
      {
        Scope span(&tracer, kCheckSpan, id);
        CheckCollect(sites, co, id, &result);
      }
      excluded_ns += NowNs() - k0;
    }
    ++result.attempted;
    Timed segment(&result.segments, id, Phase::kQuery);
    QueryRound(*co.view, keys, ranges, id, &tracer, &est, &q);
  }
  tracer.End(root);
  result.wall_s = static_cast<double>(NowNs() - start - excluded_ns) * 1e-9;
  result.events = timed_events;
  result.blocks = blocks;
  result.spans = tracer.spans();

  // ---- untimed accounting --------------------------------------------
  auto& c = result.counts;
  const ecm::NetworkStats net = co.transport.stats();
  c["transport.messages"] = static_cast<double>(net.messages - net0.messages);
  c["transport.bytes"] = static_cast<double>(net.bytes - net0.bytes);
  c["wire_bytes_per_event"] =
      static_cast<double>(net.bytes - net0.bytes) /
      static_cast<double>(timed_events);
  if (compressed) {
    ecm::CompressionStats enc;
    uint64_t dups = 0;
    for (int s = 0; s < kSites; ++s) {
      enc.full_images += co.senders[s].stats().full_images;
      enc.delta_images += co.senders[s].stats().delta_images;
      enc.rlz_images += co.senders[s].stats().rlz_images;
      enc.raw_bytes += co.senders[s].stats().raw_bytes;
      enc.wire_bytes += co.senders[s].stats().wire_bytes;
      dups += co.receivers[s].duplicates_absorbed();
    }
    counts.full_images = enc.full_images - enc0.full_images;
    c["encode.delta_images"] =
        static_cast<double>(enc.delta_images - enc0.delta_images);
    c["encode.rlz_images"] =
        static_cast<double>(enc.rlz_images - enc0.rlz_images);
    counts.raw_bytes = enc.raw_bytes - enc0.raw_bytes;
    counts.wire_bytes = enc.wire_bytes - enc0.wire_bytes;
    c["decode.duplicates_absorbed"] = static_cast<double>(dups - dups0);
  } else {
    c["encode.delta_images"] = 0;
    c["encode.rlz_images"] = 0;
    c["decode.duplicates_absorbed"] = 0;
  }
  c["encode.full_images"] = static_cast<double>(counts.full_images);
  c["encode.raw_bytes"] = static_cast<double>(counts.raw_bytes);
  c["encode.wire_bytes"] = static_cast<double>(counts.wire_bytes);
  c["encode.wire_over_raw"] = counts.raw_bytes == 0
                                  ? 0.0
                                  : static_cast<double>(counts.wire_bytes) /
                                        static_cast<double>(counts.raw_bytes);
  c["decode.stale_base_resyncs"] =
      static_cast<double>(counts.stale_base_resyncs);
  c["decode.failures"] = static_cast<double>(counts.decode_failures);
  c["merge.inputs"] = static_cast<double>(counts.merge_inputs);
  c["merge.cells"] = static_cast<double>(counts.merge_cells);
  c["merge.out_bytes"] = static_cast<double>(counts.merge_out_bytes);
  uint64_t site_events = 0;
  for (const auto& site : sites) site_events += site.updates();
  c["site.events"] = static_cast<double>(site_events - warm_end);
  c["query.point_queries"] = static_cast<double>(q.point_queries);
  c["query.heavy_keys"] = static_cast<double>(q.heavy_keys);
  c["query.checksum"] = q.checksum;
  g_sink = hash_sink;
  c["collect.samples"] = static_cast<double>(blocks);
  c["query.samples"] = static_cast<double>(blocks);
  c["query.l1_cache_hit_ratio"] =
      q.l1_hits + q.l1_misses == 0
          ? 0.0
          : static_cast<double>(q.l1_hits) /
                static_cast<double>(q.l1_hits + q.l1_misses);
  size_t synopsis = 0;
  for (const auto& site : sites) synopsis += site.sketch().MemoryBytes();
  if (co.view) synopsis += co.view->MemoryBytes();
  for (const auto& r : co.receivers) {
    if (r.sketch()) synopsis += r.sketch()->MemoryBytes();
  }
  c["synopsis_bytes"] = static_cast<double>(synopsis);

  if (with_accuracy && co.view) {
    const ecm::Timestamp now = co.view->Now();
    const AccuracyResult acc = MeasureAccuracy(
        events, now, ranges, keys, co.view->config().epsilon,
        [&](uint64_t key, uint64_t range) {
          return co.view->PointQueryAt(key, range, now);
        });
    result.accuracy["point_error_avg"] = acc.error_avg;
    result.accuracy["accuracy.bound_exceed_frac"] = acc.bound_exceed_frac;
  }
  return result;
}

}  // namespace perfbench
