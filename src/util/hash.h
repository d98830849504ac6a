// Hash families used by the sketches.
//
// Count-Min rows need pairwise-independent (2-universal) hash functions; we
// use the classic Carter–Wegman construction over the Mersenne prime 2^61-1,
// which is exact for 64-bit keys after a 64-bit mixing step. Randomized
// waves need a geometric level assignment, derived from a strong 64-bit
// mixer (SplitMix64 finalizer).
//
// Update-path layout: a sketch Add/PointQuery needs all d row buckets of
// one key. BucketsMixed computes the Mix64 step once and derives every
// row's bucket from the shared mixed word, and the bucket reduction uses
// Lemire's multiply-shift fast range instead of a hardware divide. Two
// sketches agree on bucket placement iff they share seed and depth;
// serialized configs still carry the reduction's wire byte so encodings
// from a different reduction are rejected instead of silently misread.

#ifndef ECM_UTIL_HASH_H_
#define ECM_UTIL_HASH_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/util/simd_kernels.h"

namespace ecm {

/// 64-bit finalizer (SplitMix64 / Murmur3-style avalanche). Bijective.
inline uint64_t Mix64(uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

/// Largest Count-Min depth the one-pass update path supports (also the
/// cap enforced by the wire format). d = ceil(ln(1/δ)) reaches 64 only for
/// δ < 2e-28, far beyond any practical failure budget.
inline constexpr int kMaxSketchDepth = 64;

/// One member of a 2-universal family h(x) = ((a*x + b) mod p) mod w,
/// p = 2^61 - 1. `a` is drawn from [1, p), `b` from [0, p).
///
/// The input key is first passed through Mix64 so that adversarially
/// structured keys (sequential IPs, aligned pointers) still spread.
class PairwiseHash {
 public:
  PairwiseHash() : a_(1), b_(0) {}

  /// Constructs a member of the family from two 64-bit seeds.
  PairwiseHash(uint64_t seed_a, uint64_t seed_b);

  /// Hashes `key` into [0, width).
  uint32_t Bucket(uint64_t key, uint32_t width) const {
    return Reduce(Raw(key), width);
  }

  /// The full 61-bit hash value before reduction to a bucket.
  uint64_t Raw(uint64_t key) const { return RawMixed(Mix64(key)); }

  /// Same as Raw, but for a key already passed through Mix64 — the shared
  /// per-Add mixing step of the one-pass sketch update path.
  uint64_t RawMixed(uint64_t mixed) const {
    uint64_t v = MulModMersenne61(a_, mixed) + b_;
    return v >= kMersenne61 ? v - kMersenne61 : v;
  }

  /// Reduces a 61-bit hash value to [0, width): Lemire fast range over
  /// the hash's high 32 bits. raw < 2^61, so raw >> 29 is a uniform
  /// 32-bit word and the product fits 64 bits.
  static uint32_t Reduce(uint64_t raw, uint32_t width) {
    return static_cast<uint32_t>(((raw >> 29) * width) >> 32);
  }

  uint64_t a() const { return a_; }
  uint64_t b() const { return b_; }

  static constexpr uint64_t kMersenne61 = (1ULL << 61) - 1;

  /// (x * y) mod (2^61 - 1) without overflow, using 128-bit products.
  static uint64_t MulModMersenne61(uint64_t x, uint64_t y);

 private:
  uint64_t a_;  // in [1, p)
  uint64_t b_;  // in [0, p)
};

/// A family of `d` independent PairwiseHash functions, one per Count-Min
/// row, all derived deterministically from a single seed. Two families
/// built from the same (seed, d) are identical — the property that makes
/// sketches mergeable across machines.
class HashFamily {
 public:
  HashFamily() = default;

  /// Creates `d` hash functions seeded from `seed`.
  explicit HashFamily(uint64_t seed, int d);

  /// Hashes key with function `row` into [0, width).
  uint32_t Bucket(int row, uint64_t key, uint32_t width) const {
    return funcs_[row].Bucket(key, width);
  }

  /// One-pass bucket computation: mixes `key` once and fills
  /// `out[0..depth)` with every row's bucket in [0, width). `out` must
  /// have room for depth() entries (kMaxSketchDepth always suffices).
  /// Goes through the SIMD-dispatched row-parallel kernel.
  void BucketsMixed(uint64_t key, uint32_t width, uint32_t* out) const {
    BucketsForMixed(Mix64(key), width, out);
  }

  /// BucketsMixed for a key that is already Mix64-ed — the shape batched
  /// callers use after one Mix64Batch pass over all keys.
  void BucketsForMixed(uint64_t mixed, uint32_t width, uint32_t* out) const {
    internal::ActiveHashKernels().buckets_mixed(
        coeff_a_.data(), coeff_b_.data(), funcs_.size(), mixed, width, out);
  }

  /// out[k] = Mix64(keys[k]) for k in [0, n), SIMD-dispatched — the shared
  /// mixing pass in front of BucketsForMixed / BucketsRowMajor.
  static void Mix64Batch(const uint64_t* keys, size_t n, uint64_t* out) {
    internal::ActiveHashKernels().mix64_batch(keys, n, out);
  }

  /// Key-parallel batch: fills the row-major matrix out[row * n + k] with
  /// the bucket of pre-mixed key `mixed[k]` in row `row`. Row-major so
  /// each row's sweep (and the key-parallel kernel filling it) streams one
  /// contiguous span. `out` must hold depth() * n entries.
  void BucketsRowMajor(const uint64_t* mixed, size_t n, uint32_t width,
                       uint32_t* out) const;

  int depth() const { return static_cast<int>(funcs_.size()); }
  uint64_t seed() const { return seed_; }

  /// True iff the two families were built from the same seed and depth
  /// (and therefore produce identical mappings).
  bool SameAs(const HashFamily& other) const {
    return seed_ == other.seed_ && funcs_.size() == other.funcs_.size();
  }

  /// The SoA coefficient arrays are padded to a multiple of this many
  /// entries so the vector kernels may always load a full vector at any
  /// in-range row (lanes past depth() are computed and discarded).
  static constexpr size_t kCoeffPad = 8;

 private:
  uint64_t seed_ = 0;
  std::vector<PairwiseHash> funcs_;
  // funcs_[i].a()/b() duplicated as padded structure-of-arrays so the
  // row-parallel kernel loads coefficients contiguously.
  std::vector<uint64_t> coeff_a_;
  std::vector<uint64_t> coeff_b_;
};

}  // namespace ecm

#endif  // ECM_UTIL_HASH_H_
