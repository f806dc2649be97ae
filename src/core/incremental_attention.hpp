// Incremental (autoregressive) attention over a paged KV cache — the
// inference regime of the decoder-only models the paper cites (GPT-3 is
// "12 layers of decoders", §2.1). Each generated token projects one new
// K/V row, appends it to its slot's PagedKVCache, and attends over
// everything so far: the on-the-fly operator degenerates to a single-row
// instance whose score row still lives entirely in shared memory.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/block_allocator.hpp"
#include "core/config.hpp"
#include "core/exec_context.hpp"
#include "core/weights.hpp"
#include "tensor/matrix.hpp"

namespace et::core {

/// One autoregressive attention step: `x_row` is the current token's
/// hidden state (1 × d_model). Projects q/k for the new token, projects
/// the V-side operand in whatever layout `w` deploys — a full-width v
/// row, the condensed v of a condensable row-pruned W_V (§4.3), or the
/// m = x·W_VOᵀ row of the pre-computed fold (§3.1, in which case w.wo is
/// already folded in and is NOT applied) — appends to the cache, and
/// returns the attention output (1 × d_model) attending over the whole
/// cache. The cache's V plane must have been sized for the layout
/// (nn::Model::v_width); a mismatch fails the append before either plane
/// is written.
[[nodiscard]] tensor::MatrixF incremental_attention(ExecContext& ctx,
                                                    const tensor::MatrixF& x_row,
                                                    const AttentionWeights& w,
                                                    const AttentionConfig& cfg,
                                                    PagedKVCache& cache);

/// Append one token's projected K and V rows to `cache`. A traffic-only
/// device ran no projection math, so there the rows are first zeroed and
/// the cache receives what a zero projection writes: a pool never holds
/// storage that nothing wrote. Throws as PagedKVCache::append.
void append_kv(const gpusim::Device& dev, PagedKVCache& cache,
               std::span<float> k_row, std::span<float> v_row);

/// One decode row of an attention step: the token's projected query, the
/// cache it attends over (this token's K/V row already appended), and the
/// d_model-wide output row it writes. Every span is a view the caller
/// owns.
struct DecodeRow {
  std::span<const float> q;
  const PagedKVCache* cache = nullptr;
  std::span<float> z;
};

/// The post-append half of incremental_attention, and the only place the
/// incremental_otf_attention launch is recorded: ONE launch for every row
/// in `rows`, each a 1-row OTF instance over its own cache (the batch ×
/// heads grid of FlashAttention-2, applied to decode). The grid is
/// heads × rows CTAs; shared memory per CTA is sized by the longest
/// cache; load/store bytes and ops are the sum of each row's own 1-row
/// record (1-byte K/V elements plus two FP32 scales per cached row on a
/// kInt8 pool), so a one-row step records exactly the single-sequence
/// launch. Unless the device is traffic-only, each row's z is then
/// written on ctx.pool(), which records nothing: z is the output BEFORE
/// W_O when `vo` is null (the caller applies its own output projection —
/// the split that lets the INT8 and batched decode paths swap every
/// projection GEMM while sharing this step byte for byte), or the final
/// folded output when `vo` is set. The per-row math does not depend on
/// the batch, so every row is bit-identical to a batch-of-one step.
void incremental_attention_step(ExecContext& ctx,
                                std::span<const DecodeRow> rows,
                                const PrecomputedVO* vo,
                                const std::vector<std::uint32_t>* v_kept,
                                const AttentionConfig& cfg);

}  // namespace et::core
