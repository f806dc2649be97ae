#include "core/incremental_attention.hpp"

#include <algorithm>
#include <cassert>

#include "core/attention_math.hpp"
#include "kernels/gemm.hpp"
#include "kernels/linear.hpp"

namespace et::core {

tensor::MatrixF incremental_attention(ExecContext& ctx,
                                      const tensor::MatrixF& x_row,
                                      const AttentionWeights& w,
                                      const AttentionConfig& cfg,
                                      PagedKVCache& cache) {
  cfg.validate();
  assert(x_row.rows() == 1 && x_row.cols() == cfg.d_model);

  kernels::LinearOptions opt;
  opt.precision = cfg.precision;

  // Project the new token's q/k (two skinny GEMMs — generation is
  // kernel-launch- and weight-load-bound, which these counters expose).
  const tensor::MatrixF q = kernels::linear(ctx, x_row, w.wq, opt,
                                            "gen_q_linear").y;
  tensor::MatrixF k_new = kernels::linear(ctx, x_row, w.wk, opt,
                                          "gen_k_linear").y;

  // The V-side operand, in the layout the cache stores (docs/attention.md,
  // "Weight layouts in the decode path"):
  //   - pre-computed W_VO (§3.1): the cached row is m = x·W_VOᵀ, H·kept
  //     wide — the condensed operand of the incremental S·(X·W_VO). W_O
  //     is folded into those rows, so the step ends at the attention
  //     output (no gen_out_linear);
  //   - condensable row-pruned W_V (§4.3): the cached row is the
  //     condensed v (Σkept wide); attention writes the kept coordinates
  //     and W_O applies as usual;
  //   - anything else: a full-width dense v row.
  const PrecomputedVO* vo = nullptr;
  std::vector<std::uint32_t> v_kept;
  tensor::MatrixF v_new;
  if (w.has_precomputed()) {
    vo = &w.vo;
    v_new = kernels::gemm_nt(ctx, x_row, w.vo.weight, cfg.precision, nullptr,
                             "gen_vo_linear");
  } else if (w.v_condensable(cfg.num_heads)) {
    kernels::LinearOptions vopt = opt;
    vopt.scatter_row_pruned_output = false;
    auto res = kernels::linear(ctx, x_row, w.wv, vopt, "gen_v_linear");
    v_new = std::move(res.y);
    v_kept = std::move(res.nonzero_cols);
  } else {
    v_new = kernels::linear(ctx, x_row, w.wv, opt, "gen_v_linear").y;
  }
  tensor::MatrixF z(1, cfg.d_model);
  append_kv(ctx.device(), cache, k_new.row(0), v_new.row(0));
  const DecodeRow row{q.row(0), &cache, z.row(0)};
  incremental_attention_step(ctx, {&row, 1}, vo,
                             v_kept.empty() ? nullptr : &v_kept, cfg);
  if (vo != nullptr) return z;  // W_O is folded into the cached rows
  return kernels::linear(ctx, z, w.wo, opt, "gen_out_linear").y;
}

void append_kv(const gpusim::Device& dev, PagedKVCache& cache,
               std::span<float> k_row, std::span<float> v_row) {
  if (dev.traffic_only()) {
    std::fill(k_row.begin(), k_row.end(), 0.0f);
    std::fill(v_row.begin(), v_row.end(), 0.0f);
  }
  cache.append(k_row, v_row);
}

void incremental_attention_step(ExecContext& ctx,
                                std::span<const DecodeRow> rows,
                                const PrecomputedVO* vo,
                                const std::vector<std::uint32_t>* v_kept,
                                const AttentionConfig& cfg) {
  gpusim::Device& dev = ctx.device();
  const std::size_t d = cfg.d_model;
  const std::size_t sb = numeric::storage_bytes(cfg.precision);
  const std::size_t acc = numeric::accumulator_bytes(cfg.precision);

  // One fused kernel: every row's query against its own cache, one head
  // per CTA. Each score row (H × ctx_len entries across CTAs) stays in
  // shared memory — a 1-row OTF instance per sequence — so the CTA
  // footprint is set by the longest context.
  std::size_t longest = 0;
  std::uint64_t loads = 0, flops = 0, softmax_ops = 0;
  for (const DecodeRow& r : rows) {
    assert(r.q.size() == d && r.z.size() == d);
    const std::size_t ctx_len = r.cache->used();
    const std::size_t vw = r.cache->v_width();  // condensed V re-read
    // Cached K/V rows: one byte per element plus two FP32 scales per row
    // under an INT8 pool — the traffic the quarter-size cache actually
    // moves.
    const std::size_t kv_row_bytes =
        r.cache->precision() == KvPrecision::kInt8
            ? (d + vw) + 2 * sizeof(float)
            : (d + vw) * sb;
    longest = std::max(longest, ctx_len);
    loads += d * sb + ctx_len * kv_row_bytes;     // q, cached K and V planes
    flops += 2ull * ctx_len * (d + vw);           // q·K^T and s·V
    softmax_ops += 5ull * ctx_len * cfg.num_heads;
  }
  {
    auto launch = dev.launch(
        {.name = "incremental_otf_attention",
         .ctas = cfg.num_heads * rows.size(),
         .shared_bytes_per_cta = cfg.d_k() * acc + longest * acc,
         .pattern = gpusim::AccessPattern::kTiled});
    launch.load_bytes(loads);
    launch.store_bytes(rows.size() * d * sb);  // one output row each
    if (cfg.precision == numeric::Precision::kFp32) {
      launch.fp_ops(flops + softmax_ops);
    } else {
      launch.tensor_ops(flops);
      launch.fp_ops(softmax_ops);
    }
  }
  if (dev.traffic_only()) return;

  AttentionConfig step_cfg = cfg;
  step_cfg.seq_len = 1;
  // The query is the latest position: it may attend to the whole cache,
  // so no mask applies within this step.
  step_cfg.causal_mask = false;
  ctx.pool().parallel_for(
      rows.size(),
      [&](std::size_t b) {
        const DecodeRow& r = rows[b];
        tensor::MatrixF q_row(1, d);
        std::copy(r.q.begin(), r.q.end(), q_row.row(0).begin());
        const tensor::MatrixF zr =
            detail::attention_math(q_row, r.cache->k_prefix(),
                                   r.cache->v_prefix(), vo, v_kept, step_cfg);
        std::copy(zr.row(0).begin(), zr.row(0).end(), r.z.begin());
      },
      /*grain=*/1);
}

}  // namespace et::core
