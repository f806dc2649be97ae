// Pointwise and row-wise kernels of the modular encoder pipeline.
//
// In the baseline ("modular") implementation each of these is its own
// kernel launch that round-trips its operand through global memory —
// exactly the overhead E.T.'s on-the-fly operator removes (§1 issues
// (i)/(ii)). They are also used by the TensorRT-like baseline after
// vertical fusion (fewer launches, same global traffic for GEMM outputs).
#pragma once

#include <cmath>
#include <span>
#include <string_view>

#include "gpusim/device.hpp"
#include "numeric/precision.hpp"
#include "tensor/matrix.hpp"

namespace et::kernels {

/// M *= factor (the 1/sqrt(d_k) scaling operator, step ② of Fig. 3).
void scale(gpusim::Device& dev, tensor::MatrixF& m, float factor,
           numeric::Precision p = numeric::Precision::kFp32,
           std::string_view name = "scale");

/// M(r, :) += bias. Throws std::invalid_argument, before launching, when
/// bias.size() != M.cols().
void add_bias(gpusim::Device& dev, tensor::MatrixF& m,
              std::span<const float> bias,
              numeric::Precision p = numeric::Precision::kFp32,
              std::string_view name = "add_bias");

/// A += B (residual connection). Throws std::invalid_argument, before
/// launching, when the shapes differ.
void residual_add(gpusim::Device& dev, tensor::MatrixF& a,
                  const tensor::MatrixF& b,
                  numeric::Precision p = numeric::Precision::kFp32,
                  std::string_view name = "residual_add");

/// GELU's tanh approximation: the one formula of the gelu kernel and of
/// the fused bias+GELU epilogue (nn::layer_tail).
[[nodiscard]] inline float gelu_tanh(float v) noexcept {
  constexpr float kSqrt2OverPi = 0.7978845608028654f;
  const float inner = kSqrt2OverPi * (v + 0.044715f * v * v * v);
  return 0.5f * v * (1.0f + std::tanh(inner));
}

/// GELU (tanh approximation, gelu_tanh) in place.
void gelu(gpusim::Device& dev, tensor::MatrixF& m,
          numeric::Precision p = numeric::Precision::kFp32,
          std::string_view name = "gelu");

/// Set entries above the diagonal to -inf (the §2.1 causal mask applied
/// to one head's seq×seq score matrix, step ④ of Fig. 3).
void causal_mask(gpusim::Device& dev, tensor::MatrixF& scores,
                 std::string_view name = "mask");

/// Row-wise softmax (max-subtracted), step ⑤ of Fig. 3. Storage rounding
/// per `p` is applied to the result.
void softmax_rows(gpusim::Device& dev, tensor::MatrixF& m,
                  numeric::Precision p = numeric::Precision::kFp32,
                  std::string_view name = "softmax");

/// Fused residual-add + layer normalization in ONE kernel (the
/// FasterTransformer addBiasResidualLayerNorm pattern, also used by
/// E.T.'s pipeline): a single global round trip instead of two. Throws
/// std::invalid_argument, before launching, when the residual's shape or
/// a gamma/beta length disagrees with A.
void fused_residual_layernorm(gpusim::Device& dev, tensor::MatrixF& a,
                              const tensor::MatrixF& residual,
                              std::span<const float> gamma,
                              std::span<const float> beta,
                              numeric::Precision p = numeric::Precision::kFp32,
                              std::string_view name = "residual_layernorm");

/// Row-wise layer normalization with affine parameters. Throws
/// std::invalid_argument, before launching, when a gamma/beta length is
/// not M.cols().
void layernorm(gpusim::Device& dev, tensor::MatrixF& m,
               std::span<const float> gamma, std::span<const float> beta,
               float eps = 1e-5f,
               numeric::Precision p = numeric::Precision::kFp32,
               std::string_view name = "layernorm");

/// Gather the listed columns of X into a condensed matrix — the
/// "X_adjusted" pre-processing of column pruning (Fig. 5b). Throws
/// std::invalid_argument, before launching, when a listed column is not a
/// column of X.
[[nodiscard]] tensor::MatrixF gather_cols(
    gpusim::Device& dev, const tensor::MatrixF& x,
    std::span<const std::uint32_t> cols,
    numeric::Precision p = numeric::Precision::kFp32,
    std::string_view name = "gather_cols");

/// Scatter a condensed matrix back to `out_cols` columns, zero elsewhere —
/// the post-processing a row-pruned linear needs when its consumer expects
/// the full width (Fig. 5a).
[[nodiscard]] tensor::MatrixF scatter_cols(
    gpusim::Device& dev, const tensor::MatrixF& condensed,
    std::span<const std::uint32_t> cols, std::size_t out_cols,
    numeric::Precision p = numeric::Precision::kFp32,
    std::string_view name = "scatter_cols");

}  // namespace et::kernels
