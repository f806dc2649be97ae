#include "kernels/gemm.hpp"

#include <algorithm>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/thread_pool.hpp"
#include "gpusim/latency_model.hpp"

namespace et::kernels {

namespace {

using numeric::Precision;

/// Output columns per packed block of B: dot16_fp16's width.
constexpr std::size_t kLanes = numeric::kDotLanes;

constexpr std::size_t ceil_div(std::size_t a, std::size_t b) {
  return (a + b - 1) / b;
}

std::string shape(const tensor::MatrixF& x) {
  return std::to_string(x.rows()) + "x" + std::to_string(x.cols());
}

/// Build the traffic/FLOP record a blocked GEMM kernel incurs without
/// running it. Shared by the launch path and the autotuner.
gpusim::KernelStats gemm_counters(std::size_t m, std::size_t n,
                                  std::size_t k, Precision p,
                                  const GemmAlgo& algo) {
  const std::size_t sb = numeric::storage_bytes(p);
  const std::size_t blocks_m = ceil_div(m, algo.block_m);
  const std::size_t blocks_n = ceil_div(n, algo.block_n);

  gpusim::KernelStats st;
  st.ctas = blocks_m * blocks_n * algo.split_k;
  st.pattern = gpusim::AccessPattern::kTiled;
  // Each CTA stages one block_m×16 A-tile strip and one block_n×16 B-tile
  // strip, double-buffered, plus nothing for C (accumulated in registers).
  st.shared_bytes_per_cta = 2 * (algo.block_m + algo.block_n) * 16 * sb;
  // Every block column of C re-reads the whole A panel; every block row of
  // C re-reads the whole B panel. This is the classic blocked-GEMM traffic
  // m*k*(n/block_n) + n*k*(m/block_m). Split-K writes (and re-reads) one
  // partial C per split before the reduction.
  st.global_load_bytes =
      static_cast<std::uint64_t>(blocks_n) * m * k * sb +
      static_cast<std::uint64_t>(blocks_m) * n * k * sb +
      (algo.split_k > 1
           ? static_cast<std::uint64_t>(algo.split_k) * m * n * sb
           : 0);
  st.global_store_bytes =
      static_cast<std::uint64_t>(algo.split_k) * m * n * sb;
  const std::uint64_t flops = 2ull * m * n * k;
  if (p == Precision::kFp32) {
    st.fp_ops = flops;
  } else {
    st.tensor_ops = flops;
  }
  return st;
}

/// A GEMM operand rounded to binary16 once per call, or nullopt.
using Fp16Operand = std::optional<std::vector<float>>;

/// A rounded once for every GEMM that shares it, as its m rows of k
/// elements; nullopt under the policies that do not round operands to
/// binary16, and (with the overflow counter untouched) when a finite
/// element overflows on rounding: that call keeps the per-multiply-add
/// loop, which counts the overflow once per use as the per-step
/// conversion always has.
Fp16Operand round_a(Precision p, const tensor::MatrixF& a) {
  if (p != Precision::kPureFp16 && p != Precision::kMixed) return std::nullopt;
  std::vector<float> out(a.size());
  if (!numeric::round_fp16_into(a.data(), out.data(), a.size())) {
    return std::nullopt;
  }
  return out;
}

/// B rounded to binary16 as round_a rounds A, and packed for dot16_fp16:
/// its n rows (the output columns) in blocks of 16, laid out
/// [block][k][16], the last block zero-padded.
Fp16Operand pack_b(const tensor::MatrixF& b) {
  const std::size_t n = b.rows();
  const std::size_t kk = b.cols();
  std::vector<float> out(ceil_div(n, kLanes) * kk * kLanes, 0.0f);
  bool ok = true;
  for (std::size_t j = 0; j < n && ok; ++j) {
    ok = numeric::round_fp16_into(
        b.row(j).data(),
        out.data() + (j / kLanes) * kk * kLanes + j % kLanes, kk, kLanes);
  }
  if (!ok) return std::nullopt;
  return out;
}

/// kPureFp16 and kMixed over operands rounded once: a16 is m×k, b16 is
/// pack_b's. Each row runs sixteen output columns per dot16_fp16 call. A
/// block in which a lane left binary16's range is recomputed with `mac`,
/// fma_step over binary16 operands: they are already rounded and a
/// kPureFp16 accumulator is always a binary16 value, so only the product
/// and the sum round, and the conversions count the block's overflows.
/// Each output sums over k in order either way, so outputs and overflow
/// counts equal the per-step fma_step loop's bit for bit.
void gemm_math_fp16(const std::vector<float>& a16,
                    const std::vector<float>& b16, std::size_t kk,
                    tensor::MatrixF& c, Precision p, core::ThreadPool& pool) {
  const std::size_t n = c.cols();
  const auto mac = [p](float x, float y, float acc) {
    return p == Precision::kPureFp16
               ? numeric::round_fp16(numeric::round_fp16(x * y) + acc)
               : x * y + acc;
  };
  pool.parallel_for(c.rows(), [&](std::size_t i) {
    const float* ar = a16.data() + i * kk;
    for (std::size_t j0 = 0; j0 < n; j0 += kLanes) {
      const float* bb = b16.data() + j0 * kk;
      const std::size_t cols = std::min(kLanes, n - j0);
      float out[kLanes];
      if (!numeric::dot16_fp16(p, ar, bb, kk, out)) {
        for (std::size_t t = 0; t < cols; ++t) {
          float acc = 0.0f;
          for (std::size_t k = 0; k < kk; ++k) {
            acc = mac(ar[k], bb[k * kLanes + t], acc);
          }
          out[t] = numeric::round_to_storage(p, acc);
        }
      }
      std::copy(out, out + cols, c.row(i).begin() + j0);
    }
  });
}

/// Run the actual math: C(i,j) = Σ_k a(i,k)·b(j,k), with rounding per
/// the precision policy applied at each accumulate step (tile-granularity
/// rounding is what real tensor cores do; per-step rounding is the
/// conservative software equivalent and reproduces the Fig. 4 overflow).
/// `a16` is round_a(p, a); under kPureFp16 and kMixed, B is rounded here
/// once and the math runs on the rounded copies.
///
/// Rows are independent, so the pool partitions over i. No device calls
/// happen inside: a pure-math region.
void gemm_math(const tensor::MatrixF& a, const Fp16Operand& a16,
               const tensor::MatrixF& b, tensor::MatrixF& c, Precision p,
               core::ThreadPool& pool) {
  const std::size_t m = a.rows();
  const std::size_t n = b.rows();
  const std::size_t kk = a.cols();

  if (a16) {
    if (const Fp16Operand b16 = pack_b(b)) {
      gemm_math_fp16(*a16, *b16, kk, c, p, pool);
      return;
    }
  }

  if (p == Precision::kFp32) {
    pool.parallel_for(m, [&](std::size_t i) {
      for (std::size_t j = 0; j < n; ++j) {
        float acc = 0.0f;
        for (std::size_t k = 0; k < kk; ++k) {
          acc += a(i, k) * b(j, k);
        }
        c(i, j) = acc;
      }
    });
    return;
  }

  pool.parallel_for(m, [&](std::size_t i) {
    for (std::size_t j = 0; j < n; ++j) {
      float acc = 0.0f;
      for (std::size_t k = 0; k < kk; ++k) {
        acc = numeric::fma_step(p, a(i, k), b(j, k), acc);
      }
      c(i, j) = numeric::round_to_storage(p, acc);
    }
  });
}

/// Autotune unless `algo` is given, then record the launch of one blocked
/// m×n×k GEMM, named name[algo]. The one launch record of gemm_nt and its
/// panels form.
void launch_gemm(gpusim::Device& dev, std::size_t m, std::size_t n,
                 std::size_t k, Precision p, const GemmAlgo* algo,
                 std::string_view name) {
  if (algo == nullptr) algo = &autotune_gemm(dev.spec(), m, n, k, p);
  const auto st = gemm_counters(m, n, k, p, *algo);
  auto launch =
      dev.launch({.name = std::string(name) + "[" + algo->name + "]",
                  .ctas = st.ctas,
                  .shared_bytes_per_cta = st.shared_bytes_per_cta,
                  .pattern = st.pattern});
  launch.load_bytes(st.global_load_bytes);
  launch.store_bytes(st.global_store_bytes);
  launch.fp_ops(st.fp_ops);
  launch.tensor_ops(st.tensor_ops);
}

/// Throw, before any launch, unless there is at least one panel and every
/// panel is an n_i×k matrix for A's k. Returns Σ n_i.
std::size_t check_panels(std::string_view name, const tensor::MatrixF& a,
                         std::span<const tensor::MatrixF* const> bs) {
  if (bs.empty()) {
    throw std::invalid_argument(std::string(name) + ": empty batch");
  }
  std::size_t n = 0;
  for (std::size_t i = 0; i < bs.size(); ++i) {
    if (bs[i] == nullptr || bs[i]->cols() != a.cols()) {
      throw std::invalid_argument(
          std::string(name) + ": A is " + shape(a) + " but B panel " +
          std::to_string(i) + " is " +
          (bs[i] == nullptr ? std::string("null") : shape(*bs[i])));
    }
    n += bs[i]->rows();
  }
  return n;
}

/// cs[i] = A · B_iᵀ; the math writes every element, and a traffic-only
/// device runs none, so the outputs start uninitialized. A is rounded once
/// for every panel and each panel rounds its own B, so a panel with an
/// operand that overflows on rounding takes the per-step loop by itself.
void panel_products(core::ExecContext& ctx, const tensor::MatrixF& a,
                    std::span<const tensor::MatrixF* const> bs,
                    std::span<tensor::MatrixF> cs, Precision p) {
  const bool math = !ctx.device().traffic_only();
  const Fp16Operand a16 = math ? round_a(p, a) : std::nullopt;
  for (std::size_t i = 0; i < bs.size(); ++i) {
    cs[i] = tensor::MatrixF::uninitialized(a.rows(), bs[i]->rows());
    if (math) gemm_math(a, a16, *bs[i], cs[i], p, ctx.pool());
  }
}

/// The panels form, writing panel i's product to cs[i]; gemm_nt passes
/// one panel and one output without allocating a list of them.
void gemm_nt_into(core::ExecContext& ctx, const tensor::MatrixF& a,
                  std::span<const tensor::MatrixF* const> bs,
                  std::span<tensor::MatrixF> cs, Precision p,
                  const GemmAlgo* algo, std::string_view name) {
  const std::size_t n = check_panels(name, a, bs);
  launch_gemm(ctx.device(), a.rows(), n, a.cols(), p, algo, name);
  panel_products(ctx, a, bs, cs, p);
}

}  // namespace

const std::vector<GemmAlgo>& gemm_algos() {
  static const std::vector<GemmAlgo> algos = {
      {"algo0_64x64", 64, 64, 1},      {"algo1_64x128", 64, 128, 1},
      {"algo2_128x64", 128, 64, 1},    {"algo3_128x128", 128, 128, 1},
      {"algo4_128x256", 128, 256, 1},  {"algo5_256x128", 256, 128, 1},
      {"algo6_128x128_sk4", 128, 128, 4},
      {"algo7_64x64_sk8", 64, 64, 8},
      {"algo8_64x128_sk4", 64, 128, 4},
      // Small-tile fallbacks for scratchpad-constrained devices (§7's
      // "adjusting the hyper-parameters" for other accelerators).
      {"algo9_32x32", 32, 32, 1},
      {"algo10_16x16", 16, 16, 1},
  };
  return algos;
}

const GemmAlgo& gemm_algo5() { return gemm_algos()[5]; }

const GemmAlgo& autotune_gemm(const gpusim::DeviceSpec& spec, std::size_t m,
                              std::size_t n, std::size_t k,
                              numeric::Precision p) {
  const GemmAlgo* best = nullptr;
  double best_us = 0.0;
  for (const auto& algo : gemm_algos()) {
    if (2 * (algo.block_m + algo.block_n) * 16 * numeric::storage_bytes(p) >
        spec.shared_mem_per_cta_bytes) {
      continue;
    }
    const auto st = gemm_counters(m, n, k, p, algo);
    const double us = gpusim::estimate_latency(st, spec).total_us;
    if (best == nullptr || us < best_us) {
      best = &algo;
      best_us = us;
    }
  }
  if (best == nullptr) {
    throw std::runtime_error(
        "autotune_gemm: no GEMM algorithm fits in " +
        std::to_string(spec.shared_mem_per_cta_bytes) +
        " B of shared memory");
  }
  return *best;
}

tensor::MatrixF gemm_nt(core::ExecContext& ctx, const tensor::MatrixF& a,
                        const tensor::MatrixF& b, numeric::Precision p,
                        const GemmAlgo* algo, std::string_view name) {
  const tensor::MatrixF* const panel = &b;
  tensor::MatrixF c;
  gemm_nt_into(ctx, a, {&panel, 1}, {&c, 1}, p, algo, name);
  return c;
}

std::vector<tensor::MatrixF> gemm_nt_panels(
    core::ExecContext& ctx, const tensor::MatrixF& a,
    std::span<const tensor::MatrixF* const> bs, numeric::Precision p,
    const GemmAlgo* algo, std::string_view name) {
  std::vector<tensor::MatrixF> cs(bs.size());
  gemm_nt_into(ctx, a, bs, cs, p, algo, name);
  return cs;
}

std::vector<tensor::MatrixF> batched_gemm_nt(
    core::ExecContext& ctx, const tensor::MatrixF& a,
    const std::vector<const tensor::MatrixF*>& bs, numeric::Precision p,
    const GemmAlgo* algo, std::string_view name) {
  gpusim::Device& dev = ctx.device();
  const std::uint64_t n_total = check_panels(name, a, bs);
  const std::size_t m = a.rows();
  const std::size_t kk = a.cols();
  const std::size_t sb = numeric::storage_bytes(p);

  // Autotune once for the widest problem in the batch; one fused kernel
  // must run a single block shape for every panel.
  std::size_t n_max = 0;
  for (const auto* b : bs) n_max = std::max(n_max, b->rows());
  if (algo == nullptr) algo = &autotune_gemm(dev.spec(), m, n_max, kk, p);

  const std::size_t blocks_m = ceil_div(m, algo->block_m);
  std::uint64_t ctas = 0;
  std::uint64_t b_loads = 0;
  std::uint64_t a_loads = 0;
  for (const auto* b : bs) {
    const std::size_t blocks_n = ceil_div(b->rows(), algo->block_n);
    ctas += blocks_m * blocks_n * algo->split_k;
    b_loads += static_cast<std::uint64_t>(blocks_m) * b->rows() * kk * sb;
    // The A strips are staged once and reused by every panel, so only the
    // widest panel's re-read factor is charged (vs once per gemm_nt call).
    a_loads = std::max(
        a_loads, static_cast<std::uint64_t>(blocks_n) * m * kk * sb);
  }
  auto launch = dev.launch(
      {.name = std::string(name) + "[" + algo->name + "x" +
                   std::to_string(bs.size()) + "]",
       .ctas = static_cast<std::size_t>(ctas),
       .shared_bytes_per_cta = 2 * (algo->block_m + algo->block_n) * 16 * sb,
       .pattern = gpusim::AccessPattern::kTiled});
  launch.load_bytes(a_loads + b_loads);
  launch.store_bytes(static_cast<std::uint64_t>(algo->split_k) * m * n_total *
                     sb);
  const std::uint64_t flops = 2ull * m * n_total * kk;
  if (p == Precision::kFp32) {
    launch.fp_ops(flops);
  } else {
    launch.tensor_ops(flops);
  }
  std::vector<tensor::MatrixF> out(bs.size());
  panel_products(ctx, a, bs, out, p);
  return out;
}

}  // namespace et::kernels
