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
  const tensor::MatrixF k_new = kernels::linear(ctx, x_row, w.wk, opt,
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
  incremental_attention_step(ctx, q.row(0), k_new.row(0), v_new.row(0), vo,
                             v_kept.empty() ? nullptr : &v_kept, cfg, cache,
                             z.row(0));
  if (vo != nullptr) return z;  // W_O is folded into the cached rows
  return kernels::linear(ctx, z, w.wo, opt, "gen_out_linear").y;
}

void incremental_attention_step(ExecContext& ctx, std::span<const float> q,
                                std::span<const float> k_new,
                                std::span<const float> v_new,
                                const PrecomputedVO* vo,
                                const std::vector<std::uint32_t>* v_kept,
                                const AttentionConfig& cfg,
                                PagedKVCache& cache, std::span<float> z) {
  gpusim::Device& dev = ctx.device();
  cache.append(k_new, v_new);

  const std::size_t ctx_len = cache.used();
  const std::size_t d = cfg.d_model;
  assert(q.size() == d && z.size() == d);
  const std::size_t vw = cache.v_width();  // condensed V re-read every step
  const std::size_t sb = numeric::storage_bytes(cfg.precision);
  // Cached K/V rows: one byte per element plus two FP32 scales per row
  // under an INT8 pool — the traffic the quarter-size cache actually
  // moves.
  const std::size_t kv_row_bytes = cache.precision() == KvPrecision::kInt8
                                       ? (d + vw) + 2 * sizeof(float)
                                       : (d + vw) * sb;

  // One fused kernel: the single query row against the cache. The score
  // row (H × ctx_len entries across CTAs) stays in shared memory — a
  // 1-row OTF instance.
  {
    auto launch = dev.launch(
        {.name = "incremental_otf_attention",
         .ctas = cfg.num_heads,
         .shared_bytes_per_cta =
             cfg.d_k() * numeric::accumulator_bytes(cfg.precision) +
             ctx_len * numeric::accumulator_bytes(cfg.precision),
         .pattern = gpusim::AccessPattern::kTiled});
    launch.load_bytes(d * sb);                    // q
    launch.load_bytes(ctx_len * kv_row_bytes);    // cached K and V planes
    launch.store_bytes(d * sb);                   // one output row
    const std::uint64_t flops = 2ull * ctx_len * (d + vw);  // q·K^T and s·V
    if (cfg.precision == numeric::Precision::kFp32) {
      launch.fp_ops(flops + 5ull * ctx_len * cfg.num_heads);
    } else {
      launch.tensor_ops(flops);
      launch.fp_ops(5ull * ctx_len * cfg.num_heads);
    }
  }
  if (dev.traffic_only()) return;

  AttentionConfig step_cfg = cfg;
  step_cfg.seq_len = 1;
  // The query is the latest position: it may attend to the whole cache,
  // so no mask applies within this step.
  step_cfg.causal_mask = false;
  tensor::MatrixF q_row(1, d);
  std::copy(q.begin(), q.end(), q_row.row(0).begin());
  const tensor::MatrixF zr = detail::attention_math(
      q_row, cache.k_prefix(), cache.v_prefix(), vo, v_kept, step_cfg);
  std::copy(zr.row(0).begin(), zr.row(0).end(), z.begin());
}

}  // namespace et::core
