// INT8 post-training quantization — the §2.2/§6 extension point (A100
// tensor cores run INT8 at 2× the FP16 rate; GOBO [60] quantizes
// attention models for latency/energy). E.T.'s pruning composes with
// quantization: a pruned weight quantizes its dense materialization and
// zeros survive exactly (0 / scale rounds to 0), so the mask is preserved
// bit for bit.
//
// Scheme: symmetric per-channel int8 with an FP scale,
//   w ≈ scale_r · q,  q ∈ [-127, 127],
// per output row for weights and per input row for activations. Per-ROW
// activation scales (not per-tensor) are what make the batched decode
// tick bit-identical to the sequential one: row i of a stacked batch
// quantizes exactly as it would alone, so stacking rows never perturbs
// another sequence's math (the differential-harness contract,
// docs/quantization.md).
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "core/exec_context.hpp"
#include "tensor/matrix.hpp"

namespace et::quant {

struct QuantizedWeight {
  tensor::Matrix<std::int8_t> q;   ///< (out × in)
  std::vector<float> row_scale;    ///< per output row
  [[nodiscard]] std::size_t rows() const noexcept { return q.rows(); }
  [[nodiscard]] std::size_t cols() const noexcept { return q.cols(); }
  [[nodiscard]] bool empty() const noexcept { return q.rows() == 0; }
};

/// Symmetric per-row quantization of a weight matrix.
[[nodiscard]] QuantizedWeight quantize_weight(const tensor::MatrixF& w);

/// Reconstruct the FP32 view (for error measurement / tests).
[[nodiscard]] tensor::MatrixF dequantize(const QuantizedWeight& w);

/// Largest |w - dequantize(quantize(w))| relative to the row scale — the
/// quantization step is scale/1, so this is ≤ 0.5 for a correct rounding.
/// Throws std::invalid_argument when `qw` is not shaped like `w`.
[[nodiscard]] double max_quantization_error_steps(const tensor::MatrixF& w,
                                                  const QuantizedWeight& qw);

/// Y = X · Wᵀ with an INT8 tensor-core kernel: each row of X is quantized
/// with its own on-the-fly scale, the int32 accumulators are rescaled to
/// float in the epilogue (acc · xscale_i · row_scale_j). Traffic: 1-byte
/// operands; compute: 2× the FP16 tensor rate. Row-wise independent math
/// — row i's result depends only on row i of X — so the batched decode
/// tick and a per-sequence call produce bit-identical rows. Throws
/// std::invalid_argument, before launching, when W's columns do not match
/// X's or its row scales do not match its rows.
[[nodiscard]] tensor::MatrixF int8_linear(core::ExecContext& ctx,
                                          const tensor::MatrixF& x,
                                          const QuantizedWeight& w,
                                          std::string_view name =
                                              "int8_linear");

/// The batched-panel variant (mirrors kernels::batched_gemm_nt): one
/// fused launch computes X · Wᵀ for every weight panel, staging the
/// quantized A strips once — decode is launch- and weight-load-bound, so
/// the fused q/k/v projection is what keeps the INT8 tick ahead of the
/// fp16 one. Each output is numerically IDENTICAL to the corresponding
/// int8_linear call (same per-row scales, same accumulation order); only
/// the device accounting is fused. Throws std::invalid_argument, before
/// launching, on an empty batch or a null or mismatched panel.
[[nodiscard]] std::vector<tensor::MatrixF> int8_batched_linear(
    core::ExecContext& ctx, const tensor::MatrixF& x,
    const std::vector<const QuantizedWeight*>& ws,
    std::string_view name = "int8_batched_linear");

}  // namespace et::quant
