#include "core/attention.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <string>
#include <string_view>

#include "core/attention_math.hpp"
#include "kernels/elementwise.hpp"
#include "kernels/gemm.hpp"
#include "kernels/linear.hpp"
#include "tensor/matrix.hpp"

namespace et::core {

namespace {

using gpusim::AccessPattern;
using numeric::Precision;

constexpr std::size_t ceil_div(std::size_t a, std::size_t b) {
  return (a + b - 1) / b;
}

/// Tile-staging buffers shrink to whatever the device offers (kernels pick
/// smaller tiles on scratchpad-constrained hardware); only footprints that
/// are *algorithmically required* — like Eq. 6's score row — stay fixed
/// and can overflow.
std::size_t clamp_shared(const gpusim::DeviceSpec& spec, std::size_t bytes) {
  return std::min(bytes, spec.shared_mem_per_cta_bytes);
}

/// A launch record under construction, built without a device: the
/// counters start at zero and the latency-model fields stay unset.
gpusim::KernelStats kernel(std::string_view name, std::size_t ctas,
                           std::size_t shared_bytes_per_cta,
                           AccessPattern pattern) {
  gpusim::KernelStats st;
  st.name = gpusim::KernelName::intern(name);
  st.ctas = ctas;
  st.shared_bytes_per_cta = shared_bytes_per_cta;
  st.pattern = pattern;
  return st;
}

/// GEMM flops run on the tensor cores below FP32; pointwise work always
/// runs on the general cores.
void count_ops(gpusim::KernelStats& st, Precision p, std::uint64_t gemm_flops,
               std::uint64_t pointwise) {
  if (p == Precision::kFp32) {
    st.fp_ops += gemm_flops + pointwise;
  } else {
    st.tensor_ops += gemm_flops;
    st.fp_ops += pointwise;
  }
}

/// Launch one record on `dev`; the device runs the latency model and logs
/// it. Throws gpusim::SharedMemOverflow when the kernel does not fit.
void record(gpusim::Device& dev, const gpusim::KernelStats& st) {
  auto launch = dev.launch({.name = st.name.view(),
                            .ctas = st.ctas,
                            .shared_bytes_per_cta = st.shared_bytes_per_cta,
                            .pattern = st.pattern});
  launch.load_bytes(st.global_load_bytes);
  launch.store_bytes(st.global_store_bytes);
  launch.score_bytes(st.score_bytes);
  launch.fp_ops(st.fp_ops);
  launch.tensor_ops(st.tensor_ops);
}

/// Record E.T.'s attention kernels in launch order; a kernel that does not
/// fit throws, with the kernels before it already recorded.
void record(gpusim::Device& dev, const AttentionKernels& kernels) {
  for (const gpusim::KernelStats& st : kernels.view()) record(dev, st);
}

/// Q/K/context projections shared by every implementation.
struct Projections {
  tensor::MatrixF q;
  tensor::MatrixF k;
  /// V (full or condensed), or M = X·W_VOᵀ on the pre-computed path.
  tensor::MatrixF ctx;
  /// ctx's layout and width — what the attention kernels are priced at.
  VSide v;
  const PrecomputedVO* vo = nullptr;
  /// Head-major original-column map when ctx is a condensed V.
  std::vector<std::uint32_t> v_kept;
  [[nodiscard]] const std::vector<std::uint32_t>* v_kept_ptr() const {
    return v_kept.empty() ? nullptr : &v_kept;
  }
};

bool try_fused_qkv(ExecContext& ctx, const tensor::MatrixF& x,
                   const AttentionWeights& w, const AttentionConfig& cfg,
                   Projections& pr);

/// Q, K and the context operand from `x`. E.T.'s operators read the V
/// side as v_side lays it out; the baselines always read the full V — the
/// [21] limitation the paper calls out in §6. With `fuse_qkv`, three
/// dense weights (and, for E.T., a full V side) run Q/K/V as one GEMM.
///
/// Every operator projects here before its first launch, so this is where
/// the input is checked: each kernel reads cfg.seq_len rows of Q and
/// d_model-wide rows of every operand.
Projections project(ExecContext& ctx, const tensor::MatrixF& x,
                    const AttentionWeights& w, const AttentionConfig& cfg,
                    bool et_operators, bool fuse_qkv) {
  cfg.validate();
  if (x.rows() != cfg.seq_len || x.cols() != cfg.d_model) {
    throw std::invalid_argument(
        "attention: x is " + std::to_string(x.rows()) + "x" +
        std::to_string(x.cols()) + " but seq_len x d_model is " +
        std::to_string(cfg.seq_len) + "x" + std::to_string(cfg.d_model));
  }
  kernels::LinearOptions opt;
  opt.precision = cfg.precision;

  Projections pr;
  pr.v = et_operators ? v_side(w, cfg)
                      : VSide{VSide::Layout::kFull, cfg.d_model};
  if (fuse_qkv && pr.v.layout == VSide::Layout::kFull &&
      try_fused_qkv(ctx, x, w, cfg, pr)) {
    // Below the pruning regime E.T. also batches Q/K/V into one autotuned
    // GEMM — the "best cuBLAS routine" search of §5.2.1.
    return pr;
  }
  pr.q = kernels::linear(ctx, x, w.wq, opt, "q_linear").y;
  pr.k = kernels::linear(ctx, x, w.wk, opt, "k_linear").y;
  switch (pr.v.layout) {
    case VSide::Layout::kFolded:
      // One dense GEMM against the pre-computed (H·kept × d) matrix — the
      // fold of steps ① (V part) and ⑦ (Eq. 5).
      pr.vo = &w.vo;
      pr.ctx = kernels::gemm_nt(ctx, x, w.vo.weight, cfg.precision, nullptr,
                                "vo_linear");
      break;
    case VSide::Layout::kCondensed: {
      // Attention-aware row-pruned W_V: keep the GEMM output condensed so
      // step ⑥ touches only the surviving columns (§5.3.3).
      opt.scatter_row_pruned_output = false;
      auto res = kernels::linear(ctx, x, w.wv, opt, "v_linear");
      pr.ctx = std::move(res.y);
      pr.v_kept = std::move(res.nonzero_cols);
      break;
    }
    case VSide::Layout::kFull:
      pr.ctx = kernels::linear(ctx, x, w.wv, opt, "v_linear").y;
      break;
  }
  assert(pr.ctx.cols() == pr.v.width);
  return pr;
}

/// TensorRT-style horizontally-fused QKV projection: when all three
/// weights are dense, one GEMM against the row-wise stack of W_Q, W_K and
/// W_V, run straight from the three weights (gemm_nt_panels).
bool try_fused_qkv(ExecContext& ctx, const tensor::MatrixF& x,
                   const AttentionWeights& w, const AttentionConfig& cfg,
                   Projections& pr) {
  const auto* dq = std::get_if<sparse::DenseWeight>(&w.wq);
  const auto* dkw = std::get_if<sparse::DenseWeight>(&w.wk);
  const auto* dv = std::get_if<sparse::DenseWeight>(&w.wv);
  if (dq == nullptr || dkw == nullptr || dv == nullptr) return false;

  const tensor::MatrixF* const panels[] = {&dq->matrix(), &dkw->matrix(),
                                           &dv->matrix()};
  auto qkv = kernels::gemm_nt_panels(ctx, x, panels, cfg.precision, nullptr,
                                     "qkv_linear");
  pr.q = std::move(qkv[0]);
  pr.k = std::move(qkv[1]);
  pr.ctx = std::move(qkv[2]);
  pr.v = {VSide::Layout::kFull, cfg.d_model};
  return true;
}

/// Record a batched per-head GEMM kernel (one launch covering all heads),
/// e.g. torch.bmm or the TensorRT batched-GEMM step. Loads both operands
/// once, stores the result once. `score_elems` tags how many of those
/// elements belong to the S matrix (stored by Q·Kᵀ, loaded by S·V).
void record_batched_gemm(gpusim::Device& dev, std::string_view name,
                         std::size_t load_elems_a, std::size_t load_elems_b,
                         std::size_t store_elems, std::uint64_t flops,
                         std::size_t ctas, Precision p,
                         std::size_t score_elems = 0) {
  const std::size_t sb = numeric::storage_bytes(p);
  gpusim::KernelStats st =
      kernel(name, ctas, clamp_shared(dev.spec(), 2 * 256 * 16 * sb),
             AccessPattern::kTiled);
  st.global_load_bytes = (load_elems_a + load_elems_b) * sb;
  st.global_store_bytes = store_elems * sb;
  st.score_bytes = static_cast<std::uint64_t>(score_elems) * sb;
  count_ops(st, p, flops, 0);
  record(dev, st);
}

/// Record a kernel over the batched per-head score matrix (scale / mask /
/// softmax in the unfused pipelines). These kernels walk the head-major
/// S layout with transposed/strided accesses, which is why the paper
/// measures them at only ~8.6% of peak bandwidth (Fig. 12).
void record_score_stream(gpusim::Device& dev, std::string_view name,
                         std::size_t elems, double load_frac,
                         double store_frac, std::uint64_t flops,
                         Precision p) {
  const std::size_t sb = numeric::storage_bytes(p);
  gpusim::KernelStats st = kernel(name, std::max<std::size_t>(1, elems / 4096),
                                  0, AccessPattern::kStrided);
  st.global_load_bytes = static_cast<std::uint64_t>(
      static_cast<double>(elems * sb) * load_frac);
  st.global_store_bytes = static_cast<std::uint64_t>(
      static_cast<double>(elems * sb) * store_frac);
  // Everything a score-stream kernel touches IS the score matrix.
  st.score_bytes = st.global_load_bytes + st.global_store_bytes;
  st.fp_ops = flops;
  record(dev, st);
}

/// Steps ②–⑥ on the host (a traffic-only device only models them, and
/// its output values are unspecified), then the output linear ⑦ unless
/// the W_VO fold already applied it (Eq. 5).
tensor::MatrixF attend(ExecContext& ctx, const Projections& pr,
                       const AttentionWeights& w, const AttentionConfig& cfg,
                       bool online_softmax = false) {
  tensor::MatrixF z =
      ctx.device().traffic_only()
          ? tensor::MatrixF::uninitialized(cfg.seq_len, cfg.d_model)
      : online_softmax
          ? detail::flash_attention_math(pr.q, pr.k, pr.ctx, pr.vo,
                                         pr.v_kept_ptr(), cfg, &ctx.pool())
          : detail::attention_math(pr.q, pr.k, pr.ctx, pr.vo,
                                   pr.v_kept_ptr(), cfg, &ctx.pool());
  if (pr.vo != nullptr) return z;
  kernels::LinearOptions opt;
  opt.precision = cfg.precision;
  return kernels::linear(ctx, z, w.wo, opt, "out_linear").y;
}

}  // namespace

std::size_t otf_shared_bytes(const AttentionConfig& cfg) {
  const std::size_t acc = numeric::accumulator_bytes(cfg.precision);
  const std::size_t tile_height = 16;
  // Eq. 6: tileHeight·d_k (the Q tile) + tileHeight·seqLen (the score
  // tile row), plus a double-buffered 16×16 staging tile for K/V.
  return tile_height * cfg.d_k() * acc + tile_height * cfg.seq_len * acc +
         2 * 16 * 16 * numeric::storage_bytes(cfg.precision);
}

std::size_t flash_shared_bytes(const AttentionConfig& cfg) {
  // Deliberately independent of how much K/V streams past the CTA — the
  // score tile is Br×Bc no matter the sequence length, which is why flash
  // keeps fitting where Eq. 6 overflows.
  const std::size_t acc = numeric::accumulator_bytes(cfg.precision);
  // Eq. 6 with the seqLen-wide score row replaced by the fixed Bc-wide
  // block: Br·d_k (the Q tile) + Br·Bc (the score tile), plus
  // double-buffered 16×16 staging tiles for both K and V.
  return cfg.flash_block_rows * cfg.d_k() * acc +
         cfg.flash_block_rows * cfg.flash_block_cols * acc +
         4 * 16 * 16 * numeric::storage_bytes(cfg.precision);
}

// --------------------------------------------------------------------------
// PyTorch-like modular pipeline: every operator is its own kernel.
// --------------------------------------------------------------------------
tensor::MatrixF modular_attention(ExecContext& ctx, const tensor::MatrixF& x,
                                  const AttentionWeights& w,
                                  const AttentionConfig& cfg) {
  gpusim::Device& dev = ctx.device();
  Projections pr = project(ctx, x, w, cfg, /*et_operators=*/false,
                           /*fuse_qkv=*/false);
  const std::size_t s = cfg.seq_len;
  const std::size_t d = cfg.d_model;
  const std::size_t h = cfg.num_heads;
  const std::size_t score_elems = s * s * h;
  const Precision p = cfg.precision;

  // torch.bmm(Q, K^T): batched over heads. S is stored once here…
  record_batched_gemm(dev, "bmm_qk", s * d, s * d, score_elems,
                      2ull * s * s * d, h * ceil_div(s, 128) * ceil_div(s, 128),
                      p, score_elems);
  // Separate scale, mask, softmax kernels, each a full global round trip.
  record_score_stream(dev, "scale", score_elems, 1.0, 1.0, score_elems, p);
  record_score_stream(dev, "mask", score_elems, 1.0, 1.0, score_elems / 2, p);
  record_score_stream(dev, "softmax", score_elems, 1.0, 1.0, 5 * score_elems,
                      p);
  // …and loaded again by torch.bmm(S, V).
  record_batched_gemm(dev, "bmm_sv", score_elems, s * d, s * d,
                      2ull * s * s * d, h * ceil_div(s, 128) * ceil_div(d, 128),
                      p, score_elems);
  return attend(ctx, pr, w, cfg);
}

// --------------------------------------------------------------------------
// TensorRT-like pipeline: fused QKV projection, batched score GEMMs,
// vertically-fused pointwise ops — but intermediates still in global
// memory (steps ①,③,④,⑤,⑥,⑦ of Fig. 12).
// --------------------------------------------------------------------------
tensor::MatrixF fused_attention(ExecContext& ctx, const tensor::MatrixF& x,
                                const AttentionWeights& w,
                                const AttentionConfig& cfg,
                                bool aggressive_fusion) {
  gpusim::Device& dev = ctx.device();
  const Projections pr = project(ctx, x, w, cfg, /*et_operators=*/false,
                                 /*fuse_qkv=*/true);
  const std::size_t s = cfg.seq_len;
  const std::size_t d = cfg.d_model;
  const std::size_t h = cfg.num_heads;
  const std::size_t score_elems = s * s * h;
  const Precision p = cfg.precision;

  // ③ batched Q·Kᵀ with the scaling folded in (TensorRT fuses the
  // element-wise scale into the GEMM epilogue).
  record_batched_gemm(dev, "trt_qk_scale", s * d, s * d, score_elems,
                      2ull * s * s * d + score_elems,
                      h * ceil_div(s, 128) * ceil_div(s, 128), p, score_elems);
  if (aggressive_fusion) {
    // FasterTransformer: ④+⑤ fused — S transits global memory once.
    record_score_stream(dev, "ft_mask_softmax", score_elems, 1.0, 1.0,
                        5 * score_elems + score_elems / 2, p);
  } else {
    // ④ masking, ⑤ softmax: two kernels (per Fig. 12's step list).
    record_score_stream(dev, "trt_mask", score_elems, 1.0, 1.0,
                        score_elems / 2, p);
    record_score_stream(dev, "trt_softmax", score_elems, 1.0, 1.0,
                        5 * score_elems, p);
  }
  // ⑥ batched S·V.
  record_batched_gemm(dev, "trt_sv", score_elems, s * d, s * d,
                      2ull * s * s * d, h * ceil_div(s, 128) * ceil_div(d, 128),
                      p, score_elems);
  return attend(ctx, pr, w, cfg);
}

// --------------------------------------------------------------------------
// E.T.'s attention kernels: the launch records of steps ②–⑥, written once
// for the operators below and for choose_attention_impl's pricing.
// --------------------------------------------------------------------------

// Full on-the-fly kernel (Eq. 6): steps ②–⑥ in one kernel; each CTA owns a
// 16-row tile and keeps Q·Kᵀ and S in shared memory.
AttentionKernels otf_kernels(const AttentionConfig& cfg, const VSide& v) {
  const std::size_t s = cfg.seq_len;
  const std::size_t d = cfg.d_model;
  const std::size_t h = cfg.num_heads;
  const std::size_t sb = numeric::storage_bytes(cfg.precision);
  const bool folded = v.layout == VSide::Layout::kFolded;

  const std::size_t row_tiles = ceil_div(s, 16);
  // Without pre-computation a CTA owns (head, row-tile); with it the CTA
  // iterates all heads for its row tile so the Eq. 4/5 head-sum stays in
  // registers.
  gpusim::KernelStats st =
      kernel("otf_attention", folded ? row_tiles : row_tiles * h,
             otf_shared_bytes(cfg), AccessPattern::kTiled);
  // Q read once; K and the context operand re-read once per row tile —
  // the deliberate extra-loads-for-zero-intermediate-stores trade of
  // §5.2.5 (Fig. 11).
  st.global_load_bytes =
      static_cast<std::uint64_t>(s) * d * sb +
      static_cast<std::uint64_t>(row_tiles) * s * d * sb +
      static_cast<std::uint64_t>(row_tiles) * s * v.width * sb;
  // Only the final output touches global memory. With a condensed context
  // operand only the surviving columns are written.
  st.global_store_bytes =
      static_cast<std::uint64_t>(s) * (folded ? d : v.width) * sb;
  const std::uint64_t pointwise = s * d /*scale*/ +
                                  5ull * s * s * h /*softmax*/ +
                                  s * s * h / 2 /*mask*/;
  count_ops(st, cfg.precision, 2ull * s * s * d + 2ull * s * s * v.width,
            pointwise);
  return {{st}, 1};
}

// Streaming flash kernel (FlashAttention-2): each CTA owns a Br-row query
// tile — the seq-length work partitioning — and streams K/V through its
// online softmax in Bc-column blocks. Q·Kᵀ and S never exist in global
// memory at ANY length; the only score-derived global traffic is the
// per-row (m, ℓ) statistics, O(N).
AttentionKernels flash_kernels(const AttentionConfig& cfg, const VSide& v) {
  const std::size_t s = cfg.seq_len;
  const std::size_t d = cfg.d_model;
  const std::size_t h = cfg.num_heads;
  const std::size_t sb = numeric::storage_bytes(cfg.precision);
  const std::size_t acc = numeric::accumulator_bytes(cfg.precision);
  const bool folded = v.layout == VSide::Layout::kFolded;

  const std::size_t row_tiles = ceil_div(s, cfg.flash_block_rows);
  const std::size_t kv_blocks = ceil_div(s, cfg.flash_block_cols);
  // Same CTA ownership rule as OTF (pre-computation keeps the head sum in
  // registers), but over Br-row tiles instead of 16-row ones.
  gpusim::KernelStats st =
      kernel("flash_attention", folded ? row_tiles : row_tiles * h,
             flash_shared_bytes(cfg), AccessPattern::kTiled);
  // Q read once; K and the context operand re-read once per Br-row tile —
  // the OTF trade again, but Br = 64 re-reads 4x less than 16-row tiles.
  st.global_load_bytes =
      static_cast<std::uint64_t>(s) * d * sb +
      static_cast<std::uint64_t>(row_tiles) * s * d * sb +
      static_cast<std::uint64_t>(row_tiles) * s * v.width * sb;
  // The running (m, ℓ) pair per row and head — the logsumexp line real
  // flash kernels persist — is the operator's entire score-side global
  // traffic: linear in N where partial-OTF's S round trip is quadratic.
  const std::uint64_t stats_bytes = 2ull * s * h * acc;
  st.global_store_bytes =
      static_cast<std::uint64_t>(s) * (folded ? d : v.width) * sb +
      stats_bytes;
  st.score_bytes = stats_bytes;
  // Online softmax costs one extra op per score (the running-max compare)
  // plus an accumulator rescale of each row's output block per K/V block.
  const std::uint64_t pointwise =
      s * d /*scale*/ + 6ull * s * s * h /*online softmax*/ +
      static_cast<std::uint64_t>(s) * kv_blocks * (v.width + 2 * h)
      /*rescale*/;
  count_ops(st, cfg.precision, 2ull * s * s * d + 2ull * s * s * v.width,
            pointwise);
  return {{st}, 1};
}

// Partial on-the-fly kernels (§3.2): ②–③ as one outer-product GEMM kernel
// (Q, K read once; S written once), ④–⑥ as a second fused kernel.
AttentionKernels partial_otf_kernels(const gpusim::DeviceSpec& spec,
                                     const AttentionConfig& cfg,
                                     const VSide& v) {
  const std::size_t s = cfg.seq_len;
  const std::size_t d = cfg.d_model;
  const std::size_t h = cfg.num_heads;
  const std::size_t sb = numeric::storage_bytes(cfg.precision);
  const std::size_t acc = numeric::accumulator_bytes(cfg.precision);
  const std::size_t score_elems = s * s * h;
  const bool folded = v.layout == VSide::Layout::kFolded;

  // Kernel A: ②–③. Outer-product decomposition reads Q and K exactly
  // once and writes the full score matrix once.
  gpusim::KernelStats qk =
      kernel("partial_otf_qk", h * ceil_div(s, 128) * ceil_div(s, 128),
             clamp_shared(spec, 2 * 256 * 16 * sb), AccessPattern::kTiled);
  qk.global_load_bytes = 2ull * s * d * sb;
  qk.global_store_bytes = static_cast<std::uint64_t>(score_elems) * sb;
  qk.score_bytes = static_cast<std::uint64_t>(score_elems) * sb;
  count_ops(qk, cfg.precision, 2ull * s * s * d, s * d /*scale*/);

  // Kernel B: ④–⑥. A CTA stages up to 32 score rows in shared memory,
  // masks, softmaxes and multiplies against the context operand, which is
  // re-read once per row tile (less re-reading than the full OTF kernel's
  // 16-row granularity, at the price of S traffic). On devices with a
  // small scratchpad the row tile shrinks — V re-reads grow accordingly,
  // which the traffic accounting below reflects.
  const std::size_t staging = 2 * 16 * 16 * sb;
  const std::size_t capacity = spec.shared_mem_per_cta_bytes;
  const std::size_t rows_per_cta = std::clamp<std::size_t>(
      capacity > staging ? (capacity - staging) / (s * acc) : 1, 1, 32);
  const std::size_t row_tiles = ceil_div(s, rows_per_cta);
  gpusim::KernelStats sv =
      kernel("partial_otf_softmax_sv", (folded ? 1 : h) * row_tiles,
             rows_per_cta * s * acc + staging, AccessPattern::kTiled);
  sv.global_load_bytes =
      static_cast<std::uint64_t>(score_elems) * sb +
      static_cast<std::uint64_t>(row_tiles) * s * v.width * sb;
  sv.score_bytes = static_cast<std::uint64_t>(score_elems) * sb;
  sv.global_store_bytes = static_cast<std::uint64_t>(s) * d * sb;
  count_ops(sv, cfg.precision, 2ull * s * s * v.width,
            5ull * score_elems + score_elems / 2);
  return {{qk, sv}, 2};
}

// --------------------------------------------------------------------------
// E.T.'s operators: projections, the attention kernel(s), and the output
// linear unless the W_VO fold absorbed it.
// --------------------------------------------------------------------------
tensor::MatrixF otf_attention(ExecContext& ctx, const tensor::MatrixF& x,
                              const AttentionWeights& w,
                              const AttentionConfig& cfg) {
  const Projections pr = project(ctx, x, w, cfg, true, true);
  record(ctx.device(), otf_kernels(cfg, pr.v));
  return attend(ctx, pr, w, cfg);
}

tensor::MatrixF flash_attention(ExecContext& ctx, const tensor::MatrixF& x,
                                const AttentionWeights& w,
                                const AttentionConfig& cfg) {
  const Projections pr = project(ctx, x, w, cfg, true, true);
  record(ctx.device(), flash_kernels(cfg, pr.v));
  return attend(ctx, pr, w, cfg, /*online_softmax=*/true);
}

tensor::MatrixF partial_otf_attention(ExecContext& ctx,
                                      const tensor::MatrixF& x,
                                      const AttentionWeights& w,
                                      const AttentionConfig& cfg) {
  const Projections pr = project(ctx, x, w, cfg, true, true);
  record(ctx.device(), partial_otf_kernels(ctx.device().spec(), cfg, pr.v));
  return attend(ctx, pr, w, cfg);
}

}  // namespace et::core
