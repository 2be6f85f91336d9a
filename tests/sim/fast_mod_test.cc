#include "sim/fast_mod.h"

#include <gtest/gtest.h>

#include <cstdint>

#include "sim/rng.h"

namespace deepnote::sim {
namespace {

// Every divisor the engine can meet is far below 2^32 (pods, bays,
// objects, keyspace); the list adds the extremes of that range and a
// few past it, where the reciprocal is still exact.
constexpr std::uint64_t kDivisors[] = {
    1,           2,           3,           5,
    7,           200,         2000,        999983,
    0xffffffffu, 0xfffffffbu, 1ull << 32,  (1ull << 32) + 1,
    (1ull << 63) + 3, ~0ull};

class FastModTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FastModTest, SmallNumeratorsMatchTheRemainder) {
  const std::uint64_t d = GetParam();
  const FastMod mod(d);
  ASSERT_EQ(mod.divisor(), d);
  for (std::uint64_t x = 0; x < 4096; ++x) {
    ASSERT_EQ(mod(x), x % d) << "x=" << x << " d=" << d;
  }
}

TEST_P(FastModTest, TopNumeratorsMatchTheRemainder) {
  const std::uint64_t d = GetParam();
  const FastMod mod(d);
  for (std::uint64_t i = 1; i <= 4096; ++i) {
    const std::uint64_t x = 0 - i;  // 2^64 - i
    ASSERT_EQ(mod(x), x % d) << "x=" << x << " d=" << d;
  }
}

TEST_P(FastModTest, RandomNumeratorsMatchTheRemainder) {
  const std::uint64_t d = GetParam();
  const FastMod mod(d);
  Rng rng(0xfa57 ^ d);
  for (int i = 0; i < 1000000; ++i) {
    const std::uint64_t x = rng.next_u64();
    ASSERT_EQ(mod(x), x % d) << "x=" << x << " d=" << d;
  }
}

TEST_P(FastModTest, MultiplesAndTheirNeighboursMatchTheRemainder) {
  // x = k*d - 1, k*d, k*d + 1: where an inexact reciprocal shows first.
  const std::uint64_t d = GetParam();
  const FastMod mod(d);
  Rng rng(0x3a11 ^ d);
  for (int i = 0; i < 100000; ++i) {
    const std::uint64_t k = rng.next_u64() % (~0ull / d);
    for (const std::uint64_t x : {k * d - 1, k * d, k * d + 1}) {
      ASSERT_EQ(mod(x), x % d) << "x=" << x << " d=" << d;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Divisors, FastModTest,
                         ::testing::ValuesIn(kDivisors));

}  // namespace
}  // namespace deepnote::sim
