// Host-side numerical core shared by every attention implementation.
//
// The four implementations in attention.hpp differ in *kernel structure*
// (launch counts, traffic, where intermediates live) — that is what the
// simulated Device records. Their arithmetic is the same function, so it
// is factored here once, with the precision policy applied at the same
// algorithmic points a tensor-core kernel would round:
//   - Q·Kᵀ accumulation (per policy, pure-FP16 rounds every step — the
//     §3.3 overflow site),
//   - the scaling operator, before or after the multiply (§3.3 reorder),
//   - softmax output,
//   - the S·V (or S·M) accumulation.
// Under kPureFp16 and kMixed, attention_math runs Q·Kᵀ and S·V sixteen
// chains at a time over K and the context rounded to binary16 once per
// call, with the per-step loop's outputs and overflow counts
// (docs/simulator.md, "Host cost of the numerics").
#pragma once

#include "core/config.hpp"
#include "core/thread_pool.hpp"
#include "core/weights.hpp"
#include "tensor/matrix.hpp"

namespace et::core::detail {

/// Compute multi-head attention output (seq × d_model) from Q and K
/// (seq × d_model) and one of three context operands:
///   - `context` = V (seq × d_model), when `vo` and `v_kept` are null,
///     producing the concatenated Z (the caller then applies W_O);
///   - `context` = M = X·W_VOᵀ (seq × H·kept), when `vo` is non-null,
///     producing the already-combined output scattered to full width
///     (Eq. 5 path; no W_O linear follows);
///   - `context` = condensed V (seq × H·K), when `v_kept` is non-null:
///     the attention-aware row-pruned W_V case. `v_kept` lists, head-major,
///     the original d_model column each condensed column maps to; the
///     returned Z is full width with zeros at pruned positions (W_O linear
///     still follows).
///
/// Rows of the output are independent (even in the W_VO head-sum case the
/// accumulation is row-private), so a non-null `pool` partitions the row
/// loop with ThreadPool's thread-count-invariant chunks; the per-row math
/// is untouched, so results are bit-identical at any thread count. This is
/// a pure-math region — no Device calls happen inside.
[[nodiscard]] tensor::MatrixF attention_math(
    const tensor::MatrixF& q, const tensor::MatrixF& k,
    const tensor::MatrixF& context, const PrecomputedVO* vo,
    const std::vector<std::uint32_t>* v_kept, const AttentionConfig& cfg,
    ThreadPool* pool = nullptr);

/// Streaming (FlashAttention-2) evaluation of the same function, with the
/// same three context-operand forms. Keys/values are consumed in
/// cfg.flash_block_cols-wide blocks through an online softmax: each query
/// row carries a running max m and denominator ℓ, and every new block
/// rescales the existing partial output by exp(m_old − m_new) — so no
/// score row is ever held at full width, mirroring what the simulated
/// flash kernel keeps out of global memory.
///
/// Numerics: Q·Kᵀ follows the same precision policy (and §3.3 scale
/// reordering / pure-FP16 overflow behavior) as attention_math; the
/// output accumulator stays FP32 across blocks (flash kernels keep O in
/// FP32 registers while rescaling) with multiplicands rounded to the
/// policy's storage type, and a single round to storage after the final
/// 1/ℓ normalization. The blockwise reassociation makes results
/// bounded-error — not bit-identical — vs attention_math.
///
/// Work is partitioned across cfg.flash_block_rows-row query tiles (the
/// FlashAttention-2 seq-length split) on `pool`; each row is computed by
/// exactly one tile with tile-size-dependent but thread-count-independent
/// math, so results are bit-identical at any thread count.
[[nodiscard]] tensor::MatrixF flash_attention_math(
    const tensor::MatrixF& q, const tensor::MatrixF& k,
    const tensor::MatrixF& context, const PrecomputedVO* vo,
    const std::vector<std::uint32_t>* v_kept, const AttentionConfig& cfg,
    ThreadPool* pool = nullptr);

}  // namespace et::core::detail
