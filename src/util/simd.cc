#include "src/util/simd.h"

#include <atomic>

namespace ecm {

namespace {

SimdLevel ProbeCpu() {
#if defined(__x86_64__) || defined(_M_X64)
  if (__builtin_cpu_supports("avx2")) return SimdLevel::kAVX2;
#endif
  return SimdLevel::kScalar;
}

// -1 = no override; otherwise the forced SimdLevel. Relaxed atomics: the
// override is test/bench plumbing, and every tier computes identical
// results, so a racing reader picking either value is benign.
std::atomic<int> g_forced{-1};

}  // namespace

SimdLevel DetectedSimdLevel() {
  static const SimdLevel level = ProbeCpu();
  return level;
}

bool SimdLevelSupported(SimdLevel level) {
  return level == SimdLevel::kScalar || level == DetectedSimdLevel();
}

SimdLevel ActiveSimdLevel() {
  int forced = g_forced.load(std::memory_order_relaxed);
  if (forced >= 0) return static_cast<SimdLevel>(forced);
  return DetectedSimdLevel();
}

bool ForceSimdLevel(SimdLevel level) {
  if (!SimdLevelSupported(level)) return false;
  g_forced.store(static_cast<int>(level), std::memory_order_relaxed);
  return true;
}

void ResetSimdLevel() { g_forced.store(-1, std::memory_order_relaxed); }

const char* SimdLevelName(SimdLevel level) {
  return level == SimdLevel::kAVX2 ? "avx2" : "scalar";
}

}  // namespace ecm
