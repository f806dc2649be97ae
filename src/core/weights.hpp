// Self-attention weights in any mix of pruned formats, plus the
// pre-computed linear transformation of §3.1 / Eq. 5.
//
// All four matrices are (d_model × d_model) in (out × in) orientation.
// Head h of W_Q/W_K/W_V is its row block [h·d_k, (h+1)·d_k); head h of
// W_O is its *column* block (because W_O consumes the concatenated Z).
//
// Pre-computation folds W_V and W_O into
//     W_VO = ‖_h ( W_V,hᵀ · W_O,hᵀ )          (d_model × H·d_model)
// evaluated before inference. When W_O is row-pruned the same output
// columns vanish from every head block, so W_VO condenses to
// (d_model × H·kept) — stored here transposed as (H·kept × d_model) so the
// standard X·Wᵀ kernel applies. §4.3 pairs this with a dense W_V.
#pragma once

#include <cstdint>
#include <vector>

#include "core/config.hpp"
#include "sparse/formats.hpp"
#include "tensor/matrix.hpp"

namespace et::core {

struct PrecomputedVO {
  /// (H·kept) × d_model, head-major: rows [h·kept, (h+1)·kept) hold head
  /// h's condensed W_VO block.
  tensor::MatrixF weight;
  /// For each condensed column, its original output index in [0, d_model).
  /// Identical for every head (they share the output dimension).
  std::vector<std::uint32_t> kept_cols;
  std::size_t num_heads = 0;

  [[nodiscard]] bool empty() const noexcept { return weight.empty(); }
  [[nodiscard]] std::size_t kept() const noexcept { return kept_cols.size(); }
};

struct AttentionWeights {
  sparse::AnyWeight wq;
  sparse::AnyWeight wk;
  sparse::AnyWeight wv;
  sparse::AnyWeight wo;
  /// Non-empty when the pre-computed linear transformation is in use; the
  /// attention operators then ignore wv/wo at inference time.
  PrecomputedVO vo;

  [[nodiscard]] bool has_precomputed() const noexcept { return !vo.empty(); }

  /// True when wv is row-pruned with the same number of kept rows in every
  /// head block — the attention-aware layout (§4.3 / Table 1) that lets
  /// E.T.'s operators consume the *condensed* V (fewer S·V columns)
  /// instead of a zero-padded one. Baselines always scatter back to full
  /// width, which is the [21] limitation the paper calls out in §6.
  [[nodiscard]] bool v_condensable(std::size_t num_heads) const;
};

/// The V side of attention as E.T.'s operators consume it: the context
/// operand the scores multiply, and its width.
///   kFolded    — M = X·W_VOᵀ under the pre-computed fold, H·kept wide;
///   kCondensed — the condensed V of a condensable row-pruned W_V, Σkept
///                wide;
///   kFull      — the full V, d_model wide.
/// The operators project by it and price their kernels at its width; the
/// decode KV caches store their V plane at it (nn::Model::v_width).
struct VSide {
  enum class Layout { kFull, kCondensed, kFolded };
  Layout layout = Layout::kFull;
  std::size_t width = 0;
};

[[nodiscard]] VSide v_side(const AttentionWeights& w,
                           const AttentionConfig& cfg);

/// Build dense attention weights with deterministic random values scaled
/// like trained transformer weights.
[[nodiscard]] AttentionWeights make_dense_weights(const AttentionConfig& cfg,
                                                  std::uint64_t seed);

/// Compute W_VO (Eq. 5) on the host from dense W_V and W_O with an
/// optional set of kept W_O rows (row pruning). `kept_rows` empty means
/// all rows kept. This is a pre-inference step, so no device kernels are
/// recorded — exactly like the paper, which computes it "beforehand".
/// Throws std::invalid_argument, before reading either weight, unless
/// W_V and W_O are equal square matrices, num_heads divides their width,
/// and kept_rows is strictly increasing and below it.
[[nodiscard]] PrecomputedVO precompute_vo(const tensor::MatrixF& wv,
                                          const tensor::MatrixF& wo,
                                          std::size_t num_heads,
                                          std::vector<std::uint32_t> kept_rows = {});

}  // namespace et::core
