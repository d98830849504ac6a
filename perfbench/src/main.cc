// perfbench: one steady, layer-by-layer benchmark of the site -> wire ->
// coordinator -> query path. See perfbench/README.md.
//
//   perfbench --workload collect-full --seed 1 --seconds 40 --trace 0
//
// Runs passes of the workload until --seconds have elapsed (and at least
// enough passes for 100 collect samples), then prints two JSON lines: an
// "info" line with the build and run context, and last the result line
// with "correct", "attempted", "failed" and "metrics". With --trace 0 the
// metrics are the end-to-end ones, from untraced passes. With --trace 1
// passes alternate untraced and traced, and the metrics are the per-layer
// ones from the traced passes, plus the tracing overhead. Exits 1 if any
// output check failed, 2 on bad usage.

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <map>
#include <numeric>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "perfbench/src/common.h"
#include "perfbench/src/workloads.h"

#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif
#ifndef PERFBENCH_FLAGS
#define PERFBENCH_FLAGS "unknown"
#endif

namespace perfbench {
namespace {

struct Args {
  Workload workload = Workload::kCollectFull;
  std::string workload_name;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  uint64_t timed_events = 0;  // 0 = the workload's default
  uint64_t passes = 0;        // 0 = run for --seconds
  std::string spans_path;     // where traced spans are written, if set
  bool all_metrics = false;   // print both metric sets (tests)
};

[[noreturn]] void Usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "{collect-full|collect-compressed|site-monitor} --seed N "
               "--seconds S --trace {0|1} [--timed-events N] [--passes N] "
               "[--spans FILE] [--all-metrics 1]\n",
               msg);
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    const std::string v = argv[++i];
    if (flag == "--workload") {
      a.workload_name = v;
      if (v == "collect-full") {
        a.workload = Workload::kCollectFull;
      } else if (v == "collect-compressed") {
        a.workload = Workload::kCollectCompressed;
      } else if (v == "site-monitor") {
        a.workload = Workload::kSiteMonitor;
      } else {
        Usage(("unknown workload " + v).c_str());
      }
    } else if (flag == "--seed") {
      a.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(v.c_str(), nullptr);
    } else if (flag == "--trace") {
      a.trace = v == "1";
    } else if (flag == "--timed-events") {
      a.timed_events = std::strtoull(v.c_str(), nullptr, 10);
    } else if (flag == "--passes") {
      a.passes = std::strtoull(v.c_str(), nullptr, 10);
    } else if (flag == "--spans") {
      a.spans_path = v;
    } else if (flag == "--all-metrics") {
      a.all_metrics = v == "1";
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (a.workload_name.empty()) Usage("--workload is required");
  return a;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Nearest-rank percentile.
double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  auto rank = static_cast<size_t>(std::ceil(p * static_cast<double>(v.size())));
  rank = std::clamp<size_t>(rank, 1, v.size());
  return v[rank - 1];
}

// Layers whose self time adds up to the pass wall. "pass" and "collect"
// are the benchmark's own loop; "hash" and "check" are measurement-only
// work already subtracted from the wall.
const std::set<std::string>& LayerSpans() {
  static const std::set<std::string> layers = {
      "site.ingest", "engine.ingest", "encode",    "transport",
      "decode",      "merge",         "query",     "query.l1",
      "query.point", "query.selfjoin"};
  return layers;
}

// Per-block span totals of one traced pass: self time (duration minus
// the children's durations) and total duration per span name, indexed by
// the span's block id, plus the summed self time of all layer spans.
struct BlockTotals {
  std::map<std::string, std::vector<double>> self_ns;
  std::map<std::string, std::vector<double>> total_ns;
  double layer_ns = 0.0;
};

BlockTotals Totals(const std::vector<Span>& spans, size_t blocks) {
  std::vector<double> child_ns(spans.size(), 0.0);
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      child_ns[static_cast<size_t>(s.parent)] +=
          static_cast<double>(s.end_ns - s.start_ns);
    }
  }
  BlockTotals t;
  for (size_t i = 0; i < spans.size(); ++i) {
    const double dur = static_cast<double>(spans[i].end_ns - spans[i].start_ns);
    if (LayerSpans().count(spans[i].name)) t.layer_ns += dur - child_ns[i];
    if (spans[i].id < 0 || static_cast<size_t>(spans[i].id) >= blocks) continue;
    auto& self = t.self_ns[spans[i].name];
    auto& total = t.total_ns[spans[i].name];
    self.resize(blocks, 0.0);
    total.resize(blocks, 0.0);
    self[static_cast<size_t>(spans[i].id)] += dur - child_ns[i];
    total[static_cast<size_t>(spans[i].id)] += dur;
  }
  return t;
}

// Element-wise best (minimum) across passes. Every pass replays the same
// schedule on the same state, so an element's minimum is its cost with
// the least interference from the rest of the machine.
std::vector<double> BestOfPasses(const std::vector<std::vector<double>>& passes) {
  std::vector<double> best;
  for (const auto& v : passes) {
    if (best.size() < v.size()) {
      best.resize(v.size(), std::numeric_limits<double>::infinity());
    }
    for (size_t i = 0; i < v.size(); ++i) best[i] = std::min(best[i], v[i]);
  }
  return best;
}

// The timed segments of a set of passes, each at its best across them,
// summed per block into collect and query latencies and into the total.
struct BestTimes {
  double total_ms = 0.0;
  std::vector<double> collect_ms;  ///< per block
  std::vector<double> query_ms;    ///< per block that ran a round
};

BestTimes Best(const std::vector<PassResult>& passes, size_t blocks) {
  std::vector<std::vector<double>> ms;
  for (const auto& r : passes) {
    ms.emplace_back();
    for (const Segment& s : r.segments) ms.back().push_back(s.ms);
  }
  const std::vector<double> best = BestOfPasses(ms);
  BestTimes t;
  if (passes.empty()) return t;
  std::vector<double> collect(blocks, 0.0);
  std::vector<double> query(blocks, -1.0);
  const std::vector<Segment>& schedule = passes.front().segments;
  for (size_t i = 0; i < best.size() && i < schedule.size(); ++i) {
    t.total_ms += best[i];
    const auto b = static_cast<size_t>(schedule[i].block);
    if (b >= blocks) continue;
    if (schedule[i].phase == Phase::kCollect) collect[b] += best[i];
    if (schedule[i].phase == Phase::kQuery) query[b] = best[i];
  }
  t.collect_ms = collect;
  for (double q : query) {
    if (q >= 0) t.query_ms.push_back(q);
  }
  return t;
}

// True iff both passes timed the same segments in the same order.
bool SameSchedule(const PassResult& a, const PassResult& b) {
  if (a.segments.size() != b.segments.size()) return false;
  for (size_t i = 0; i < a.segments.size(); ++i) {
    if (a.segments[i].block != b.segments[i].block ||
        a.segments[i].phase != b.segments[i].phase) {
      return false;
    }
  }
  return true;
}

double Sum(const std::vector<double>& v) {
  return std::accumulate(v.begin(), v.end(), 0.0);
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void PrintJsonString(const std::string& s) {
  std::putchar('"');
  for (char ch : s) {
    if (ch == '"' || ch == '\\') std::putchar('\\');
    if (static_cast<unsigned char>(ch) < 0x20) {
      std::printf("\\u%04x", ch);
    } else {
      std::putchar(ch);
    }
  }
  std::putchar('"');
}

PassResult RunPass(const Args& args, const PassConfig& cfg,
                   bool with_accuracy) {
  switch (args.workload) {
    case Workload::kCollectFull:
      return RunCollectPass(cfg, /*compressed=*/false, with_accuracy);
    case Workload::kCollectCompressed:
      return RunCollectPass(cfg, /*compressed=*/true, with_accuracy);
    case Workload::kSiteMonitor:
      return RunMonitorPass(cfg, with_accuracy);
  }
  return {};
}

void WriteSpans(const std::string& path, const std::vector<PassResult>& runs) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "pass\tindex\tname\tparent\tid\tstart_ns\tend_ns\n");
  for (size_t p = 0; p < runs.size(); ++p) {
    const auto& spans = runs[p].spans;
    for (size_t i = 0; i < spans.size(); ++i) {
      std::fprintf(f, "%zu\t%zu\t%s\t%d\t%d\t%lld\t%lld\n", p, i,
                   spans[i].name, spans[i].parent, spans[i].id,
                   static_cast<long long>(spans[i].start_ns),
                   static_cast<long long>(spans[i].end_ns));
    }
  }
  std::fclose(f);
}

int Main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  PassConfig cfg;
  cfg.seed = args.seed;
  cfg.timed_events = args.timed_events ? args.timed_events
                                       : DefaultTimedEvents(args.workload);
  const uint64_t per_pass = CollectsPerPass(args.workload, cfg.timed_events);
  if (per_pass == 0) Usage("--timed-events too small for one collect");
  // Enough timed passes for >= 100 collect samples, so >= 10 lie beyond
  // p90; with --trace 1, at least one untraced and one traced pass.
  uint64_t min_passes = std::max<uint64_t>(5, (100 + per_pass - 1) / per_pass);
  if (args.passes) min_passes = args.passes;

  // Pass 0 warms the heap and caches: its counts and accuracy are used,
  // its timings are not.
  const int64_t run_start = NowNs();
  PassResult first = RunPass(args, cfg, /*with_accuracy=*/true);
  std::vector<PassResult> untraced;
  std::vector<PassResult> traced;
  for (uint64_t p = 1;; ++p) {
    const double elapsed = static_cast<double>(NowNs() - run_start) * 1e-9;
    if (p > min_passes && (args.passes || elapsed >= args.seconds)) break;
    cfg.traced = args.trace && p % 2 == 1;
    PassResult r = RunPass(args, cfg, /*with_accuracy=*/false);
    (cfg.traced ? traced : untraced).push_back(std::move(r));
  }

  std::vector<PassResult*> all = {&first};
  std::vector<PassResult*> timed;
  for (auto& r : untraced) timed.push_back(&r);
  for (auto& r : traced) timed.push_back(&r);
  all.insert(all.end(), timed.begin(), timed.end());

  // Every count must repeat exactly on every pass: the schedule is a
  // function of the seed alone.
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> failures;
  for (PassResult* r : all) {
    if (r != &first && r->counts != first.counts) {
      r->Fail("counts differ between passes of one run");
    }
    if (r != &first && !SameSchedule(*r, first)) {
      r->Fail("timed segments differ between passes of one run");
    }
    attempted += r->attempted;
    failed += r->failed;
    for (const auto& f : r->failures) {
      if (failures.size() < 8) failures.push_back(f);
    }
  }
  const auto count = [&](const std::string& name) {
    const auto it = first.counts.find(name);
    return it == first.counts.end() ? 0.0 : it->second;
  };

  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  // ---- end-to-end (untraced passes) ----------------------------------
  std::vector<double> setup;
  std::vector<double> gen;
  for (PassResult* r : timed) {
    setup.push_back(r->setup_s);
    gen.push_back(r->gen_s);
  }
  const auto blocks = static_cast<size_t>(first.blocks);
  const BestTimes best = Best(untraced, blocks);
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto acc = [&](const std::string& name) {
    const auto it = first.accuracy.find(name);
    return it == first.accuracy.end() ? 0.0 : it->second;
  };
  end_to_end.push_back({"setup_s", Median(setup), "s"});
  end_to_end.push_back(
      {"events_per_s",
       best.total_ms > 0
           ? static_cast<double>(first.events) / (best.total_ms * 1e-3)
           : 0.0,
       "1/s"});
  end_to_end.push_back(
      {"collect_ms_p50", Percentile(best.collect_ms, 0.5), "ms"});
  end_to_end.push_back(
      {"collect_ms_p90", Percentile(best.collect_ms, 0.9), "ms"});
  end_to_end.push_back({"query_ms_p50", Percentile(best.query_ms, 0.5), "ms"});
  end_to_end.push_back({"query_ms_p90", Percentile(best.query_ms, 0.9), "ms"});
  end_to_end.push_back(
      {"wire_bytes_per_event", count("wire_bytes_per_event"), "bytes/event"});
  end_to_end.push_back({"synopsis_bytes", count("synopsis_bytes"), "bytes"});
  end_to_end.push_back(
      {"peak_rss_mb", static_cast<double>(usage.ru_maxrss) / 1024.0, "MB"});
  end_to_end.push_back({"point_error_avg", acc("point_error_avg"), "frac"});

  // ---- per-layer (traced passes) -------------------------------------
  std::map<std::string, std::vector<std::vector<double>>> self_ns;
  std::vector<std::vector<double>> query_ns;
  std::vector<std::vector<double>> hash_ns;
  double layer_ns = 0.0;
  double wall_ns = 0.0;
  for (const auto& r : traced) {
    BlockTotals t = Totals(r.spans, blocks);
    for (const char* name :
         {"site.ingest", "engine.ingest", "encode", "transport", "decode",
          "merge", "query.point", "query.selfjoin"}) {
      self_ns[name].push_back(t.self_ns[name]);
    }
    query_ns.push_back(t.total_ns["query"]);
    hash_ns.push_back(t.total_ns[kHashSpan]);
    layer_ns += t.layer_ns;
    wall_ns += r.wall_s * 1e9;
  }
  // Per-layer time of one pass: the sum over blocks of the block's best.
  const auto layer_ms = [&](const std::string& name) {
    return Sum(BestOfPasses(self_ns[name])) * 1e-6;
  };
  const double site_events = count("site.events");
  per_layer.push_back({"stream.gen_s", Median(gen), "s"});
  per_layer.push_back({"stream.events", count("stream.events"), "count"});
  per_layer.push_back(
      {"hash.ns_per_event",
       Sum(BestOfPasses(hash_ns)) / static_cast<double>(first.events), "ns"});
  per_layer.push_back({"site.ingest_s", layer_ms("site.ingest") * 1e-3, "s"});
  per_layer.push_back(
      {"site.ns_per_event",
       site_events > 0 ? layer_ms("site.ingest") * 1e6 / site_events : 0.0, "ns"});
  per_layer.push_back({"site.events", site_events, "count"});
  per_layer.push_back({"engine.ingest_s", layer_ms("engine.ingest") * 1e-3, "s"});
  for (const char* name :
       {"engine.alerts", "engine.point_evaluations",
        "engine.selfjoin_evaluations", "engine.hh_reports", "keyed.admissions",
        "keyed.evictions", "keyed.capacity_refusals"}) {
    per_layer.push_back({name, count(name), "count"});
  }
  per_layer.push_back(
      {"keyed.exact_hit_ratio", count("keyed.exact_hit_ratio"), "ratio"});
  per_layer.push_back({"keyed.memory_bytes", count("keyed.memory_bytes"), "bytes"});
  per_layer.push_back({"encode.ms", layer_ms("encode"), "ms"});
  per_layer.push_back({"encode.raw_bytes", count("encode.raw_bytes"), "bytes"});
  per_layer.push_back({"encode.wire_bytes", count("encode.wire_bytes"), "bytes"});
  per_layer.push_back(
      {"encode.wire_over_raw", count("encode.wire_over_raw"), "ratio"});
  for (const char* name :
       {"encode.full_images", "encode.delta_images", "encode.rlz_images"}) {
    per_layer.push_back({name, count(name), "count"});
  }
  per_layer.push_back({"transport.ms", layer_ms("transport"), "ms"});
  per_layer.push_back(
      {"transport.messages", count("transport.messages"), "count"});
  per_layer.push_back({"transport.bytes", count("transport.bytes"), "bytes"});
  per_layer.push_back({"decode.ms", layer_ms("decode"), "ms"});
  for (const char* name : {"decode.stale_base_resyncs",
                           "decode.duplicates_absorbed", "decode.failures"}) {
    per_layer.push_back({name, count(name), "count"});
  }
  per_layer.push_back({"merge.ms", layer_ms("merge"), "ms"});
  per_layer.push_back({"merge.inputs", count("merge.inputs"), "count"});
  per_layer.push_back({"merge.cells", count("merge.cells"), "count"});
  per_layer.push_back({"merge.out_bytes", count("merge.out_bytes"), "bytes"});
  per_layer.push_back({"query.ms", Sum(BestOfPasses(query_ns)) * 1e-6, "ms"});
  per_layer.push_back(
      {"query.point_queries", count("query.point_queries"), "count"});
  per_layer.push_back({"query.point_ms", layer_ms("query.point"), "ms"});
  per_layer.push_back({"query.selfjoin_ms", layer_ms("query.selfjoin"), "ms"});
  per_layer.push_back(
      {"query.l1_cache_hit_ratio", count("query.l1_cache_hit_ratio"), "ratio"});
  per_layer.push_back({"accuracy.bound_exceed_frac",
                     acc("accuracy.bound_exceed_frac"), "frac"});
  const double layer_sum_frac = wall_ns > 0 ? layer_ns / wall_ns : 0.0;
  per_layer.push_back({"trace.layer_sum_frac", layer_sum_frac, "frac"});
  const double traced_ms = Best(traced, blocks).total_ms;
  per_layer.push_back(
      {"trace.overhead_frac",
       traced.empty() || best.total_ms <= 0 ? 0.0
                                            : traced_ms / best.total_ms - 1.0,
       "frac"});
  per_layer.push_back({"collect.samples", count("collect.samples"), "count"});
  per_layer.push_back({"query.samples", count("query.samples"), "count"});

  // A traced run whose layers explain too little of its wall time has a
  // blind spot: that is a failed check of the benchmark itself.
  bool layers_ok = true;
  if (!traced.empty() && layer_sum_frac < 0.9) {
    layers_ok = false;
    if (failures.size() < 8) failures.push_back("layer sum below 0.9 of wall");
  }
  if (!args.spans_path.empty() && !traced.empty()) {
    WriteSpans(args.spans_path, traced);
  }

  const bool correct = failed == 0 && layers_ok;
  std::vector<Metric> all_metrics = end_to_end;
  all_metrics.insert(all_metrics.end(), per_layer.begin(), per_layer.end());
  std::printf("{\"info\": {\"workload\": ");
  PrintJsonString(args.workload_name);
  std::printf(
      ", \"seed\": %llu, \"nproc\": %u, \"compiler\": ",
      static_cast<unsigned long long>(args.seed),
      std::thread::hardware_concurrency());
  PrintJsonString(PERFBENCH_COMPILER);
  std::printf(", \"flags\": ");
  PrintJsonString(PERFBENCH_FLAGS);
  std::printf(
      ", \"timed_events_per_pass\": %llu, \"untraced_passes\": %zu, "
      "\"traced_passes\": %zu, \"failed_frac\": %.17g, \"failures\": [",
      static_cast<unsigned long long>(first.events), untraced.size(),
      traced.size(),
      attempted == 0 ? 0.0
                     : static_cast<double>(failed) /
                           static_cast<double>(attempted));
  for (size_t i = 0; i < failures.size(); ++i) {
    if (i) std::printf(", ");
    PrintJsonString(failures[i]);
  }
  std::printf("]}}\n");
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  const std::vector<Metric>& metrics =
      args.all_metrics ? all_metrics : args.trace ? per_layer : end_to_end;
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i) std::printf(", ");
    PrintJsonString(metrics[i].name);
    std::printf(": {\"value\": %.17g, \"unit\": ", metrics[i].value);
    PrintJsonString(metrics[i].unit);
    std::printf("}");
  }
  std::printf("}}\n");
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
