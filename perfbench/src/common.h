// Shared pieces of the layer-by-layer benchmark: the run settings, the
// span recorder that times calls into each layer from outside, and the
// per-pass result every workload fills in.
//
// A run is a sequence of passes. Each pass sets its workload up anew
// (trace generation, construction, one warm-up window) and then
// replays a fixed, seed-determined event segment through the system as
// fast as it is accepted. Collects and query rounds are scheduled by event
// count, so every count a pass produces is a function of the seed alone.

#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Settings of one pass; the workload fills in defaults, the command line
/// may shrink them for quick checks.
struct PassConfig {
  uint64_t seed = 1;
  uint64_t timed_events = 0;  ///< timed events in one pass
  bool traced = false;
};

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// One timed call into a layer. `id` is the collect or round number the
/// span belongs to (-1 outside any).
struct Span {
  const char* name;
  int64_t start_ns;
  int64_t end_ns;
  int32_t parent;
  int32_t id;
};

/// In-memory span recorder. When disabled, Begin/End cost nothing; the
/// spans are written out when the run ends.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {
    if (enabled_) spans_.reserve(1 << 14);
  }

  int32_t Begin(const char* name, int32_t id = -1) {
    if (!enabled_) return -1;
    const auto idx = static_cast<int32_t>(spans_.size());
    spans_.push_back(Span{name, NowNs(), 0, open_, id});
    open_ = idx;
    return idx;
  }

  void End(int32_t idx) {
    if (idx < 0) return;
    spans_[static_cast<size_t>(idx)].end_ns = NowNs();
    open_ = spans_[static_cast<size_t>(idx)].parent;
  }

  bool enabled() const { return enabled_; }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool enabled_;
  std::vector<Span> spans_;
  int32_t open_ = -1;
};

/// RAII span.
class Scope {
 public:
  Scope(Tracer* tracer, const char* name, int32_t id = -1)
      : tracer_(tracer), idx_(tracer->Begin(name, id)) {}
  ~Scope() { tracer_->End(idx_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer* tracer_;
  int32_t idx_;
};

/// What a timed segment belongs to.
enum class Phase : uint8_t { kIngest, kCollect, kQuery };

/// One timed call (or short run of calls) of the schedule. A block is the
/// events up to one collect or query round, then that collect and round.
/// Segments are short (about 0.1 to 10 ms), so the best of several passes
/// finds each one free of interference from the rest of the machine.
struct Segment {
  int32_t block;
  Phase phase;
  double ms;
};

/// RAII segment timer: appends the segment when it ends.
class Timed {
 public:
  Timed(std::vector<Segment>* out, int32_t block, Phase phase)
      : out_(out), block_(block), phase_(phase), start_(NowNs()) {}
  ~Timed() {
    out_->push_back(
        Segment{block_, phase_, static_cast<double>(NowNs() - start_) * 1e-6});
  }
  Timed(const Timed&) = delete;
  Timed& operator=(const Timed&) = delete;

 private:
  std::vector<Segment>* out_;
  int32_t block_;
  Phase phase_;
  int64_t start_;
};

/// Span names. The root span of a pass and the two measurement-only spans
/// (the hash probe and the output checks) are not layers: the checks and
/// the probe are subtracted from the pass wall, and the root's self time
/// is the benchmark's own loop.
inline constexpr const char* kPassSpan = "pass";
inline constexpr const char* kHashSpan = "hash";
inline constexpr const char* kCheckSpan = "check";

/// Everything one pass measured.
struct PassResult {
  // Set-up, timed by the workload.
  double gen_s = 0.0;
  double setup_s = 0.0;
  // Timed phase: wall time with checks and probes taken out, and the
  // timed segments in schedule order (identical order on every pass).
  double wall_s = 0.0;
  uint64_t events = 0;
  uint64_t blocks = 0;
  std::vector<Segment> segments;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> failures;  ///< first few failure messages
  /// Deterministic per-pass counts (identical on every pass of a run).
  std::map<std::string, double> counts;
  /// Filled only on the pass that computes accuracy against exact truth.
  std::map<std::string, double> accuracy;
  std::vector<Span> spans;

  void Fail(const std::string& what) {
    ++failed;
    if (failures.size() < 8) failures.push_back(what);
  }
};

/// One timed call into a layer: a segment of the pass, and in a traced
/// pass also a span.
class LayerCall {
 public:
  LayerCall(PassResult* result, Tracer* tracer, const char* name,
            int32_t id, Phase phase)
      : timed_(&result->segments, id, phase), scope_(tracer, name, id) {}

 private:
  Timed timed_;  // constructed first, destroyed last: covers the span
  Scope scope_;
};

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
