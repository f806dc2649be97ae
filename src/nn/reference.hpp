// Double-precision host reference for the encoder forward pass. This is
// the oracle the pipeline implementations are validated against; it never
// records device kernels.
#pragma once

#include "core/config.hpp"
#include "nn/encoder.hpp"
#include "tensor/matrix.hpp"

namespace et::nn {

/// Multi-head self-attention (no pruning, no precompute) in double.
[[nodiscard]] tensor::MatrixF reference_attention(
    const tensor::MatrixF& x, const core::AttentionWeights& w,
    const core::AttentionConfig& cfg);

/// Full encoder layer in double.
[[nodiscard]] tensor::MatrixF reference_encoder(const tensor::MatrixF& x,
                                                const EncoderWeights& w,
                                                const core::AttentionConfig& cfg);

}  // namespace et::nn
