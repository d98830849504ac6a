// Runtime SIMD dispatch for the sketch hot kernels.
//
// The vector kernels (util/simd_kernels.h) are compiled for every tier in
// one translation unit via function target attributes, so a stock Release
// build — no -march=native — still ships AVX2 code and selects it at run
// time from one cpuid probe. `ECM_NATIVE` remains the max-opt vehicle
// (whole-program -march=native + LTO); this layer only decides which
// hand-written kernel variant the portable build executes.
//
// Every vector kernel has a scalar twin that is bit-identical (the hash
// arithmetic is exact integer math), so forcing a tier with
// ForceSimdLevel() changes speed, never results. Tests run forced-scalar,
// forced-AVX2 and auto against the scalar reference; benches force the
// scalar tier to record ablation rows.

#ifndef ECM_UTIL_SIMD_H_
#define ECM_UTIL_SIMD_H_

#include <cstdint>

namespace ecm {

/// Instruction-set tiers the hand-written kernels exist for, in strictly
/// increasing capability order. kAVX2 requires a cpuid probe; everything
/// else (non-x86 builds, pre-AVX2 CPUs) runs kScalar. The values are
/// stable: bench rows parameterize on them.
enum class SimdLevel : uint8_t {
  kScalar = 0,
  kAVX2 = 2,
};

/// Highest tier this CPU supports (cpuid, probed once and cached).
SimdLevel DetectedSimdLevel();

/// True iff `level`'s kernels may execute on this CPU.
bool SimdLevelSupported(SimdLevel level);

/// The tier kernels dispatch to: a ForceSimdLevel() override if one is
/// set, else DetectedSimdLevel().
SimdLevel ActiveSimdLevel();

/// Pins dispatch to `level` (tests and bench ablations). Returns false —
/// and changes nothing — if the CPU cannot execute that tier.
bool ForceSimdLevel(SimdLevel level);

/// Clears a ForceSimdLevel() override (back to detection).
void ResetSimdLevel();

/// "scalar" / "avx2" (stable: bench row names use it).
const char* SimdLevelName(SimdLevel level);

/// Read-prefetch of the cache line holding `p` (no-op where unsupported).
/// The d-row sketch walks issue these for all d counter slots before
/// touching the first one, hiding the row-to-row cache misses.
inline void PrefetchRead(const void* p) {
#if defined(__GNUC__) || defined(__clang__)
  __builtin_prefetch(p, /*rw=*/0, /*locality=*/3);
#else
  (void)p;
#endif
}

}  // namespace ecm

#endif  // ECM_UTIL_SIMD_H_
