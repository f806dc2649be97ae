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

/// A GEMM operand rounded to binary16 once per call, as float rows of k
/// elements: A as stored, B as its n rows of k whichever way round it is
/// stored, so the inner loop walks both contiguously.
using Fp16Rows = std::optional<std::vector<float>>;

/// Round `x` (its columns when `by_column`) to binary16 rows. Returns
/// nullopt, with the overflow counter untouched, when a finite element
/// overflows on rounding: that call keeps the per-multiply-add loop, which
/// counts the overflow once per use as the per-step conversion always has.
Fp16Rows round_fp16_rows(const tensor::MatrixF& x, bool by_column) {
  const std::size_t rows = by_column ? x.cols() : x.rows();
  const std::size_t kk = by_column ? x.rows() : x.cols();
  std::vector<float> out(rows * kk);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t k = 0; k < kk; ++k) {
      const float v = by_column ? x(k, r) : x(r, k);
      if (numeric::overflows_fp16(v)) return std::nullopt;
      out[r * kk + k] = numeric::round_fp16(v);
    }
  }
  return out;
}

/// A rounded once for every GEMM that shares it; nullopt under the
/// policies that do not round operands to binary16.
Fp16Rows round_a(Precision p, const tensor::MatrixF& a) {
  if (p != Precision::kPureFp16 && p != Precision::kMixed) return std::nullopt;
  return round_fp16_rows(a, false);
}

/// kPureFp16 (Pure) and kMixed over operands rounded once: a16 is m×k,
/// b16 n×k. A product of two binary16 values has at most 11+11 significant
/// bits, so it is exact in binary32, and a kPureFp16 accumulator is always
/// a binary16 value, so fma_step's rounding of it is the identity: each
/// multiply-add rounds only the product and the sum, and kMixed rounds
/// nothing. kCols output columns advance together so their dependent
/// chains overlap; each output still sums over k in order, so outputs and
/// overflow counts equal the per-step fma_step loop's bit for bit.
template <bool Pure>
void gemm_math_fp16(const std::vector<float>& a16,
                    const std::vector<float>& b16, std::size_t kk,
                    tensor::MatrixF& c, Precision p, core::ThreadPool& pool) {
  constexpr std::size_t kCols = 4;
  const std::size_t n = c.cols();
  const auto mac = [](float x, float y, float acc) {
    if constexpr (Pure) {
      return numeric::round_fp16(numeric::round_fp16(x * y) + acc);
    } else {
      return x * y + acc;
    }
  };
  pool.parallel_for(c.rows(), [&](std::size_t i) {
    const float* ar = a16.data() + i * kk;
    std::size_t j = 0;
    for (; j + kCols <= n; j += kCols) {
      const float* br = b16.data() + j * kk;
      float acc[kCols] = {};
      for (std::size_t k = 0; k < kk; ++k) {
        for (std::size_t t = 0; t < kCols; ++t) {
          acc[t] = mac(ar[k], br[t * kk + k], acc[t]);
        }
      }
      for (std::size_t t = 0; t < kCols; ++t) {
        c(i, j + t) = numeric::round_to_storage(p, acc[t]);
      }
    }
    for (; j < n; ++j) {
      const float* br = b16.data() + j * kk;
      float acc = 0.0f;
      for (std::size_t k = 0; k < kk; ++k) acc = mac(ar[k], br[k], acc);
      c(i, j) = numeric::round_to_storage(p, acc);
    }
  });
}

/// Run the actual math: C(i,j) = Σ_k a(i,k)·b_row(j)(k), with rounding per
/// the precision policy applied at each accumulate step (tile-granularity
/// rounding is what real tensor cores do; per-step rounding is the
/// conservative software equivalent and reproduces the Fig. 4 overflow).
/// `a16` is round_a(p, a); under kPureFp16 and kMixed, B is rounded here
/// once and the math runs on the rounded copies.
///
/// Rows are independent, so the pool partitions over i. No device calls
/// happen inside: a pure-math region.
template <bool Transposed>
void gemm_math(const tensor::MatrixF& a, const Fp16Rows& a16,
               const tensor::MatrixF& b, tensor::MatrixF& c, Precision p,
               core::ThreadPool& pool) {
  const std::size_t m = a.rows();
  const std::size_t n = Transposed ? b.rows() : b.cols();
  const std::size_t kk = a.cols();

  if (a16) {
    if (const Fp16Rows b16 = round_fp16_rows(b, !Transposed)) {
      if (p == Precision::kPureFp16) {
        gemm_math_fp16<true>(*a16, *b16, kk, c, p, pool);
      } else {
        gemm_math_fp16<false>(*a16, *b16, kk, c, p, pool);
      }
      return;
    }
  }

  if (p == Precision::kFp32) {
    pool.parallel_for(m, [&](std::size_t i) {
      for (std::size_t j = 0; j < n; ++j) {
        float acc = 0.0f;
        for (std::size_t k = 0; k < kk; ++k) {
          acc += a(i, k) * (Transposed ? b(j, k) : b(k, j));
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
        acc = numeric::fma_step(p, a(i, k), Transposed ? b(j, k) : b(k, j),
                                acc);
      }
      c(i, j) = numeric::round_to_storage(p, acc);
    }
  });
}

/// Autotune unless `algo` is given, then record the launch of one blocked
/// m×n×k GEMM, named name[algo]. The one launch record of gemm_nt, its
/// panels form and gemm_nn.
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

/// cs[i] = A · B_iᵀ, left zero on a traffic-only device. A is rounded once
/// for every panel and each panel rounds its own B, so a panel with an
/// operand that overflows on rounding takes the per-step loop by itself.
void panel_products(core::ExecContext& ctx, const tensor::MatrixF& a,
                    std::span<const tensor::MatrixF* const> bs,
                    std::span<tensor::MatrixF> cs, Precision p) {
  const bool math = !ctx.device().traffic_only();
  const Fp16Rows a16 = math ? round_a(p, a) : std::nullopt;
  for (std::size_t i = 0; i < bs.size(); ++i) {
    cs[i] = tensor::MatrixF(a.rows(), bs[i]->rows());
    if (math) gemm_math<true>(a, a16, *bs[i], cs[i], p, ctx.pool());
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

tensor::MatrixF gemm_nn(core::ExecContext& ctx, const tensor::MatrixF& a,
                        const tensor::MatrixF& b, numeric::Precision p,
                        const GemmAlgo* algo, std::string_view name) {
  if (b.rows() != a.cols()) {
    throw std::invalid_argument(std::string(name) + ": A is " + shape(a) +
                                " but B is " + shape(b));
  }
  launch_gemm(ctx.device(), a.rows(), b.cols(), a.cols(), p, algo, name);
  tensor::MatrixF c(a.rows(), b.cols());
  if (!ctx.device().traffic_only()) {
    gemm_math<false>(a, round_a(p, a), b, c, p, ctx.pool());
  }
  return c;
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
