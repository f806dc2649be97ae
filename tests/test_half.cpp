// binary16 / bfloat16 emulation: rounding, special values, overflow
// accounting (the §3.3 mechanism).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>

#include "numeric/bfloat16.hpp"
#include "numeric/half.hpp"
#include "numeric/precision.hpp"

namespace {

using et::numeric::bfloat16;
using et::numeric::f32x4;
using et::numeric::half;
using et::numeric::i32x4;
using et::numeric::overflow_count;
using et::numeric::overflows_fp16;
using et::numeric::Precision;
using et::numeric::reset_overflow_count;
using et::numeric::round_fp16;
using et::numeric::round_fp16_lanes;

TEST(Half, ExactSmallIntegersRoundTrip) {
  for (int i = -2048; i <= 2048; ++i) {
    EXPECT_EQ(static_cast<float>(half(static_cast<float>(i))),
              static_cast<float>(i))
        << "integer " << i;
  }
}

TEST(Half, PowersOfTwoRoundTrip) {
  for (int e = -14; e <= 15; ++e) {
    const float v = std::ldexp(1.0f, e);
    EXPECT_EQ(static_cast<float>(half(v)), v) << "2^" << e;
  }
}

TEST(Half, MaxFiniteIs65504) {
  EXPECT_EQ(static_cast<float>(half(65504.0f)), 65504.0f);
  EXPECT_TRUE(half(65504.0f).is_finite());
}

TEST(Half, OverflowProducesInfAndCounts) {
  reset_overflow_count();
  const half h(70000.0f);
  EXPECT_TRUE(h.is_inf());
  EXPECT_FALSE(h.signbit());
  EXPECT_EQ(overflow_count(), 1u);

  const half hneg(-1.0e6f);
  EXPECT_TRUE(hneg.is_inf());
  EXPECT_TRUE(hneg.signbit());
  EXPECT_EQ(overflow_count(), 2u);
  reset_overflow_count();
  EXPECT_EQ(overflow_count(), 0u);
}

TEST(Half, RoundingBoundaryAt65520) {
  // 65519.99 rounds down to 65504; 65520 is the tie that rounds to inf.
  reset_overflow_count();
  EXPECT_TRUE(half(65519.0f).is_finite());
  EXPECT_EQ(overflow_count(), 0u);
  EXPECT_TRUE(half(65520.0f).is_inf());
  EXPECT_EQ(overflow_count(), 1u);
  reset_overflow_count();
}

TEST(Half, InfAndNanPropagateWithoutCounting) {
  reset_overflow_count();
  const float inf = std::numeric_limits<float>::infinity();
  EXPECT_TRUE(half(inf).is_inf());
  EXPECT_TRUE(half(-inf).is_inf());
  EXPECT_TRUE(half(std::nanf("")).is_nan());
  EXPECT_EQ(overflow_count(), 0u) << "inf/NaN inputs are not overflows";
}

TEST(Half, SubnormalsRepresentable) {
  // Smallest positive subnormal is 2^-24.
  const float tiny = std::ldexp(1.0f, -24);
  EXPECT_EQ(static_cast<float>(half(tiny)), tiny);
  // Below half of it rounds to zero.
  EXPECT_EQ(static_cast<float>(half(std::ldexp(1.0f, -26))), 0.0f);
}

TEST(Half, SignedZero) {
  EXPECT_EQ(half(0.0f).bits(), 0u);
  EXPECT_EQ(half(-0.0f).bits(), 0x8000u);
}

TEST(Half, RoundToNearestEvenTies) {
  // 1 + 2^-11 is exactly halfway between 1 and 1+2^-10: ties to even (1).
  const float tie = 1.0f + std::ldexp(1.0f, -11);
  EXPECT_EQ(static_cast<float>(half(tie)), 1.0f);
  // 1 + 3·2^-11 is halfway between 1+2^-10 and 1+2^-9: ties to even
  // (1+2^-9, whose mantissa LSB is 0).
  const float tie2 = 1.0f + 3.0f * std::ldexp(1.0f, -11);
  EXPECT_EQ(static_cast<float>(half(tie2)), 1.0f + std::ldexp(1.0f, -9));
}

#ifdef __FLT16_MAX__
TEST(Half, MatchesHardwareFloat16OnRandomValues) {
  std::mt19937_64 rng(123);
  std::uniform_real_distribution<float> dist(-70000.0f, 70000.0f);
  for (int i = 0; i < 20000; ++i) {
    const float v = dist(rng);
    const float ours = static_cast<float>(half(v));
    const float theirs = static_cast<float>(static_cast<_Float16>(v));
    EXPECT_EQ(ours, theirs) << "value " << v;
  }
  reset_overflow_count();
}
#endif

TEST(Half, ArithmeticRoundsPerOperation) {
  // 2048 + 1 is not representable (spacing is 2 at that magnitude).
  const half a(2048.0f);
  const half b(1.0f);
  EXPECT_EQ(static_cast<float>(a + b), 2048.0f);
  const half c(2.0f);
  EXPECT_EQ(static_cast<float>(a + c), 2050.0f);
}

TEST(Bfloat16, WiderRangeNoOverflowWhereHalfOverflows) {
  reset_overflow_count();
  const bfloat16 big(1.0e20f);
  EXPECT_TRUE(big.is_finite());
  EXPECT_EQ(overflow_count(), 0u);
  EXPECT_NEAR(static_cast<float>(big), 1.0e20f, 1.0e18f);
}

TEST(Bfloat16, LowerPrecisionThanHalfNearOne) {
  // bf16 has 8 candidate mantissa bits vs half's 10.
  const float v = 1.0f + std::ldexp(1.0f, -9);  // representable in half
  EXPECT_EQ(static_cast<float>(half(v)), v);
  EXPECT_NE(static_cast<float>(bfloat16(v)), v);
}

TEST(PrecisionPolicy, AccumulatorBytes) {
  EXPECT_EQ(et::numeric::accumulator_bytes(Precision::kPureFp16), 2u);
  EXPECT_EQ(et::numeric::accumulator_bytes(Precision::kMixed), 4u);
  EXPECT_EQ(et::numeric::accumulator_bytes(Precision::kFp32), 4u);
  EXPECT_EQ(et::numeric::storage_bytes(Precision::kMixed), 2u);
}

TEST(PrecisionPolicy, PureFp16FmaOverflows) {
  reset_overflow_count();
  float acc = 0.0f;
  for (int i = 0; i < 16; ++i) {
    acc = et::numeric::fma_step(Precision::kPureFp16, 250.0f, 250.0f, acc);
  }
  EXPECT_TRUE(std::isinf(acc)) << "16 × 62500 overflows binary16";
  EXPECT_GT(overflow_count(), 0u);
  reset_overflow_count();
}

TEST(PrecisionPolicy, MixedFmaDoesNotOverflow) {
  reset_overflow_count();
  float acc = 0.0f;
  for (int i = 0; i < 16; ++i) {
    acc = et::numeric::fma_step(Precision::kMixed, 250.0f, 250.0f, acc);
  }
  EXPECT_FALSE(std::isinf(acc));
  EXPECT_NEAR(acc, 16.0f * 62500.0f, 200.0f);
  EXPECT_EQ(overflow_count(), 0u);
  reset_overflow_count();
}

class HalfSweep : public ::testing::TestWithParam<float> {};

TEST_P(HalfSweep, RoundTripWithinHalfUlp) {
  const float v = GetParam();
  const float r = static_cast<float>(half(v));
  // |v - round(v)| must be at most half the spacing at v's magnitude.
  const float spacing = std::ldexp(
      1.0f, std::max(-24, std::ilogb(std::abs(v) > 0 ? v : 1.0f) - 10));
  EXPECT_LE(std::abs(v - r), spacing * 0.5f + 1e-12f) << v;
}

INSTANTIATE_TEST_SUITE_P(Values, HalfSweep,
                         ::testing::Values(0.1f, -0.1f, 3.14159f, 1e-3f,
                                           -2.71828f, 123.456f, -999.9f,
                                           6e-5f, 1e-7f, 40000.0f));

// round_fp16 against the out-of-line conversion on every float bit
// pattern: the same result bits and the same overflow count, which
// overflows_fp16 must also predict. round_fp16_lanes, four consecutive
// patterns at a time, must give the same bits with its flag clear for
// every finite |x| < 65520 and set its flag for everything else. Where the compiler has _Float16 it is
// a third, independent rounding (NaN compared by class: the payload is not
// part of the rounding contract). Without F16C it is a ~60 ns library
// call, so it checks 1 pattern in 16: every sign, exponent and dropped
// 13-bit tail, with mantissa bits 13..16 zero. Sharded so ctest -j
// spreads the 2^32 values over its workers.
constexpr std::uint32_t kRoundShards = 16;

class RoundFp16Exhaustive : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(RoundFp16Exhaustive, MatchesHalfOnEveryBitPattern) {
  const std::uint64_t per_shard = (std::uint64_t{1} << 32) / kRoundShards;
  const std::uint64_t begin = GetParam() * per_shard;
  std::uint64_t mismatches = 0, count_mismatches = 0, f16_mismatches = 0;
  std::uint64_t lane_mismatches = 0;
  std::uint64_t overflows = 0;
  std::uint64_t c2 = overflow_count();
  f32x4 lanes{};
  std::uint32_t lane_want[4] = {};
  for (std::uint64_t b = begin; b < begin + per_shard; ++b) {
    const float x = std::bit_cast<float>(static_cast<std::uint32_t>(b));
    const std::uint64_t c0 = c2;
    const float want = static_cast<float>(half(x));
    const std::uint64_t c1 = overflow_count();
    const float got = round_fp16(x);
    c2 = overflow_count();
    if (std::bit_cast<std::uint32_t>(got) !=
            std::bit_cast<std::uint32_t>(want) &&
        ++mismatches <= 5) {
      ADD_FAILURE() << std::hex << "bits 0x" << b << ": round_fp16 0x"
                    << std::bit_cast<std::uint32_t>(got) << ", half 0x"
                    << std::bit_cast<std::uint32_t>(want);
    }
    if ((c2 - c1 != c1 - c0 || overflows_fp16(x) != (c1 - c0 == 1)) &&
        ++count_mismatches <= 5) {
      ADD_FAILURE() << std::hex << "bits 0x" << b << ": overflow delta "
                    << c2 - c1 << " vs " << c1 - c0 << ", overflows_fp16 "
                    << overflows_fp16(x);
    }
    overflows += c1 - c0;
    lanes[b % 4] = x;
    lane_want[b % 4] = std::bit_cast<std::uint32_t>(want);
    if (b % 4 == 3) {
      i32x4 flag{};
      const f32x4 r = round_fp16_lanes(lanes, flag);
      for (std::uint32_t t = 0; t < 4; ++t) {
        const std::uint64_t bt = b - 3 + t;
        const bool in_range = (bt & 0x7fffffffu) < 0x477ff000u;
        const bool ok =
            in_range ? flag[t] == 0 &&
                           std::bit_cast<std::uint32_t>(r[t]) == lane_want[t]
                     : flag[t] != 0;
        if (!ok && ++lane_mismatches <= 5) {
          ADD_FAILURE() << std::hex << "bits 0x" << bt
                        << ": round_fp16_lanes 0x"
                        << std::bit_cast<std::uint32_t>(r[t]) << " flag "
                        << flag[t] << ", half 0x" << lane_want[t];
        }
      }
    }
#ifdef __FLT16_MAX__
    if (((b >> 13) & 0xfu) != 0) continue;
    const float hw = static_cast<float>(static_cast<_Float16>(x));
    const bool agree = std::isnan(hw)
                           ? std::isnan(got)
                           : std::bit_cast<std::uint32_t>(hw) ==
                                 std::bit_cast<std::uint32_t>(got);
    if (!agree && ++f16_mismatches <= 5) {
      ADD_FAILURE() << std::hex << "bits 0x" << b << ": round_fp16 0x"
                    << std::bit_cast<std::uint32_t>(got) << ", _Float16 0x"
                    << std::bit_cast<std::uint32_t>(hw);
    }
#endif
  }
  EXPECT_EQ(mismatches, 0u);
  EXPECT_EQ(count_mismatches, 0u);
  EXPECT_EQ(f16_mismatches, 0u);
  EXPECT_EQ(lane_mismatches, 0u);
  // Every finite |x| >= 65520 overflows exactly once: the magnitudes
  // 0x477ff000 up to (not including) inf's 0x7f800000.
  const std::uint64_t lo = begin & 0x7fffffffu;
  const std::uint64_t hi = lo + per_shard;
  const std::uint64_t first = std::max<std::uint64_t>(lo, 0x477ff000u);
  const std::uint64_t last = std::min<std::uint64_t>(hi, 0x7f800000u);
  EXPECT_EQ(overflows, last > first ? last - first : 0);
}

INSTANTIATE_TEST_SUITE_P(Shards, RoundFp16Exhaustive,
                         ::testing::Range(std::uint32_t{0}, kRoundShards));

}  // namespace
