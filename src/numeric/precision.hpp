// Accumulator-precision policies for the simulated tensor-core GEMMs.
//
// V100S tensor cores multiply FP16×FP16 and accumulate in either FP16
// ("pure FP16") or FP32 ("mixed precision") — §2.2 of the paper. Pure
// FP16 halves the shared-memory footprint of an intermediate row and
// skips FP32->FP16 conversion before masking/softmax (§3.3), but
// overflows on unscaled Q·K^T; E.T.'s scale-reordering fixes that.
#pragma once

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

}  // namespace et::numeric
