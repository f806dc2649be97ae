// Accumulator-precision policies for the simulated tensor-core GEMMs.
//
// V100S tensor cores multiply FP16×FP16 and accumulate in either FP16
// ("pure FP16") or FP32 ("mixed precision") — §2.2 of the paper. Pure
// FP16 halves the shared-memory footprint of an intermediate row and
// skips FP32->FP16 conversion before masking/softmax (§3.3), but
// overflows on unscaled Q·K^T; E.T.'s scale-reordering fixes that.
#pragma once

#include <cstddef>
#include <cstring>
#include <string_view>

#include "numeric/bfloat16.hpp"
#include "numeric/half.hpp"

namespace et::numeric {

enum class Precision {
  kFp32,       ///< plain float math (general cores; no tensor core)
  kPureFp16,   ///< FP16 multiply, FP16 accumulate
  kMixed,      ///< FP16 multiply, FP32 accumulate (tensor-core default)
  kBf16Mixed,  ///< BF16 multiply, FP32 accumulate (A100/TPU style)
};

[[nodiscard]] constexpr std::string_view to_string(Precision p) noexcept {
  switch (p) {
    case Precision::kFp32: return "fp32";
    case Precision::kPureFp16: return "fp16";
    case Precision::kMixed: return "mixed";
    case Precision::kBf16Mixed: return "bf16";
  }
  return "?";
}

/// Bytes per element of the *storage* type under a policy.
[[nodiscard]] constexpr std::size_t storage_bytes(Precision p) noexcept {
  return p == Precision::kFp32 ? 4 : 2;
}

/// Bytes per element of the *accumulator* under a policy (what an
/// intermediate row of Q·K^T occupies in shared memory — §3.3 overhead (i)).
[[nodiscard]] constexpr std::size_t accumulator_bytes(Precision p) noexcept {
  return p == Precision::kPureFp16 ? 2 : 4;
}

/// One simulated tensor-core FMA step: d = a*b + c with the policy's
/// rounding applied at each accumulation, which is what produces the
/// Fig. 4 overflow pattern for kPureFp16.
[[nodiscard]] inline float fma_step(Precision p, float a, float b, float c) {
  switch (p) {
    case Precision::kFp32:
      return a * b + c;
    case Precision::kPureFp16:
      return round_fp16(round_fp16(round_fp16(a) * round_fp16(b)) +
                        round_fp16(c));
    case Precision::kMixed:
      return round_fp16(a) * round_fp16(b) + c;
    case Precision::kBf16Mixed:
      return static_cast<float>(bfloat16(a)) * static_cast<float>(bfloat16(b)) +
             c;
  }
  return a * b + c;
}

/// Round a finished accumulator back to the storage type of the policy
/// (the "convert FP32 back to FP16 for masking/softmax" step of §3.3).
[[nodiscard]] inline float round_to_storage(Precision p, float x) {
  switch (p) {
    case Precision::kFp32:
      return x;
    case Precision::kPureFp16:
    case Precision::kMixed:
      return round_fp16(x);
    case Precision::kBf16Mixed:
      return static_cast<float>(bfloat16(x));
  }
  return x;
}

/// Output columns of one dot16_fp16 call.
inline constexpr std::size_t kDotLanes = 16;

namespace detail {
template <bool Pure>
[[nodiscard]] inline bool dot16_fp16(const float* a, const float* b,
                                     std::size_t kk, float* out) noexcept {
  f32x4 acc[4] = {};
  i32x4 flag{};
  for (std::size_t k = 0; k < kk; ++k) {
    for (std::size_t v = 0; v < 4; ++v) {
      f32x4 bv;
      std::memcpy(&bv, b + kDotLanes * k + 4 * v, sizeof bv);
      const f32x4 prod = a[k] * bv;
      if constexpr (Pure) {
        acc[v] =
            round_fp16_lanes(round_fp16_lanes(prod, flag) + acc[v], flag);
      } else {
        acc[v] += prod;
      }
    }
  }
  for (std::size_t v = 0; v < 4; ++v) {
    if constexpr (!Pure) acc[v] = round_fp16_lanes(acc[v], flag);
    std::memcpy(out + 4 * v, &acc[v], sizeof acc[v]);
  }
  return !any_lane(flag);
}
}  // namespace detail

/// Sixteen dot products under kPureFp16 or kMixed, four lanes at a time:
/// out[t] = Σ_k a[k]·b[16k + t], summed over k in order, then rounded to
/// binary16 (round_to_storage). a and b hold binary16 values, so every
/// product is exact in binary32 and a kPureFp16 accumulator is always a
/// binary16 value: each step rounds the product and the sum, which is
/// fma_step exactly, and kMixed rounds only the finished sum. Returns
/// false, with out unspecified and nothing counted, when any lane reaches
/// |x| >= 65520, inf or NaN at any rounding: the caller recomputes those
/// outputs with the per-step loop, whose conversions count the overflows.
[[nodiscard]] inline bool dot16_fp16(Precision p, const float* a,
                                     const float* b, std::size_t kk,
                                     float* out) noexcept {
  return p == Precision::kPureFp16 ? detail::dot16_fp16<true>(a, b, kk, out)
                                   : detail::dot16_fp16<false>(a, b, kk, out);
}

}  // namespace et::numeric
