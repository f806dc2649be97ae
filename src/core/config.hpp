// Configuration of one self-attention computation.
#pragma once

#include <cmath>
#include <stdexcept>
#include <cstddef>

#include "numeric/precision.hpp"

namespace et::core {

struct AttentionConfig {
  std::size_t seq_len = 128;
  std::size_t d_model = 768;
  std::size_t num_heads = 12;

  /// Arithmetic policy for the attention kernels. The paper's E.T. runs
  /// pure FP16 (enabled by the scale reordering); the baselines need
  /// mixed precision to avoid the Fig. 4 overflow.
  numeric::Precision precision = numeric::Precision::kFp32;

  /// §3.3: apply the 1/sqrt(d_k) scaling to Q *before* Q·Kᵀ instead of to
  /// the scores after. Mathematically identical; numerically it keeps the
  /// products inside the FP16 range.
  bool scale_before_multiply = true;

  /// Apply the §2.1 lower-triangular mask (decoder-style models).
  bool causal_mask = true;

  /// Flash-attention tile shape: each flash CTA owns a Br-row query tile
  /// of one head and streams K/V in Bc-column blocks through its online
  /// softmax (FlashAttention-2 partitions the seq-length dimension this
  /// way). Only the tile — never a full score row — lives in shared
  /// memory, so flash_shared_bytes is seq_len-independent. Tests shrink
  /// these to cross tile boundaries at small sizes.
  std::size_t flash_block_rows = 64;  ///< Br
  std::size_t flash_block_cols = 64;  ///< Bc

  [[nodiscard]] std::size_t d_k() const noexcept {
    return d_model / num_heads;
  }
  [[nodiscard]] float scale() const noexcept {
    return 1.0f / std::sqrt(static_cast<float>(d_k()));
  }

  /// Throws std::invalid_argument on an inconsistent configuration.
  void validate() const {
    if (num_heads == 0 || d_model == 0 || seq_len == 0) {
      throw std::invalid_argument(
          "AttentionConfig: seq_len, d_model and num_heads must be nonzero");
    }
    if (d_model % num_heads != 0) {
      throw std::invalid_argument(
          "AttentionConfig: d_model must be divisible by num_heads");
    }
    if (flash_block_rows == 0 || flash_block_cols == 0) {
      throw std::invalid_argument(
          "AttentionConfig: flash tile dimensions must be nonzero");
    }
  }
};

}  // namespace et::core
