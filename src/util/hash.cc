#include "src/util/hash.h"

#include "src/util/random.h"

namespace ecm {

uint64_t PairwiseHash::MulModMersenne61(uint64_t x, uint64_t y) {
  __uint128_t prod = static_cast<__uint128_t>(x) * y;
  // Two folding rounds reduce any 128-bit product exactly mod 2^61-1. One
  // round is not enough for full 64-bit operands (e.g. Mix64 outputs): the
  // first fold can leave up to 65 bits, which a single conditional
  // subtraction cannot bring below the modulus.
  __uint128_t folded = (prod & kMersenne61) + (prod >> 61);
  uint64_t sum =
      static_cast<uint64_t>((folded & kMersenne61) + (folded >> 61));
  if (sum >= kMersenne61) sum -= kMersenne61;
  return sum;
}

PairwiseHash::PairwiseHash(uint64_t seed_a, uint64_t seed_b) {
  a_ = Mix64(seed_a) % (kMersenne61 - 1) + 1;  // in [1, p)
  b_ = Mix64(seed_b) % kMersenne61;            // in [0, p)
}

HashFamily::HashFamily(uint64_t seed, int d) : seed_(seed) {
  funcs_.reserve(d);
  for (int i = 0; i < d; ++i) {
    // Distinct, deterministic sub-seeds per row.
    uint64_t sa = Mix64(seed ^ (0xA5A5A5A5ULL + 2 * i));
    uint64_t sb = Mix64(seed ^ (0x5A5A5A5AULL + 2 * i + 1));
    funcs_.emplace_back(sa, sb);
  }
  // Padded SoA mirror for the vector kernels; the (a=1, b=0) identity
  // padding is never observable — tail lanes are dropped before stores.
  const size_t padded =
      (static_cast<size_t>(d) + kCoeffPad - 1) / kCoeffPad * kCoeffPad;
  coeff_a_.assign(padded, 1);
  coeff_b_.assign(padded, 0);
  for (int i = 0; i < d; ++i) {
    coeff_a_[i] = funcs_[i].a();
    coeff_b_[i] = funcs_[i].b();
  }
}

void HashFamily::BucketsRowMajor(const uint64_t* mixed, size_t n,
                                 uint32_t width, uint32_t* out) const {
  const auto& kernels = internal::ActiveHashKernels();
  for (size_t row = 0; row < funcs_.size(); ++row) {
    kernels.buckets_row(coeff_a_[row], coeff_b_[row], mixed, n, width,
                        out + row * n);
  }
}

}  // namespace ecm
