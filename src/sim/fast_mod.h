// Exact remainder by a runtime-constant divisor without a division.
//
// A 64-bit `x % d` compiles to a hardware divide, tens of cycles with
// no overlap, and the cluster's per-request routing takes several of
// them (key -> object, key -> pod, key -> bay, alias-table bucket).
// Lemire, Kaser and Kurz ("Faster remainder by direct computation",
// 2019) compute it from a precomputed 128-bit reciprocal
// c = ceil(2^128 / d) instead:
//
//   x % d == ((c * x) mod 2^128) * d >> 128
//
// which is exact for every 64-bit x whenever 2^128 >= 2^64 * d, i.e.
// for every divisor 0 < d < 2^64 (the paper's Theorem 1 with N = 64,
// F = 128). The cost is four 64x64->128 multiplies. For d == 1 the
// reciprocal wraps to 0 and the formula still yields 0.
#pragma once

#include <cstdint>

namespace deepnote::sim {

class FastMod {
 public:
  FastMod() = default;
  /// Requires d > 0.
  explicit FastMod(std::uint64_t d)
      : m_(~static_cast<unsigned __int128>(0) / d + 1), d_(d) {}

  std::uint64_t divisor() const { return d_; }

  /// Exactly x % divisor().
  std::uint64_t operator()(std::uint64_t x) const {
    const unsigned __int128 low = m_ * x;  // c * x mod 2^128
    // floor(low * d / 2^128), split across the two 64-bit halves of low.
    const unsigned __int128 bottom =
        (static_cast<unsigned __int128>(static_cast<std::uint64_t>(low)) *
         d_) >> 64;
    const unsigned __int128 top =
        static_cast<unsigned __int128>(static_cast<std::uint64_t>(low >> 64)) *
        d_;
    return static_cast<std::uint64_t>((bottom + top) >> 64);
  }

 private:
  unsigned __int128 m_ = 0;
  std::uint64_t d_ = 1;
};

}  // namespace deepnote::sim
