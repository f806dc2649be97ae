// Simulated kernels: numerics against the double-precision oracle and
// traffic/structure sanity.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "gpusim/device.hpp"
#include "kernels/elementwise.hpp"
#include "kernels/gemm.hpp"
#include "numeric/half.hpp"
#include "tensor/compare.hpp"
#include "tensor/random.hpp"
#include "tensor/reference_gemm.hpp"

namespace {

using et::gpusim::Device;
using et::kernels::batched_gemm_nt;
using et::kernels::gemm_nt;
using et::kernels::gemm_nt_panels;
using et::numeric::half;
using et::numeric::overflow_count;
using et::numeric::Precision;
using et::tensor::MatrixF;

class GemmSizes
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(GemmSizes, NtMatchesReference) {
  const auto [m, n, k] = GetParam();
  MatrixF a(m, k), b(n, k);
  et::tensor::fill_normal(a, 1);
  et::tensor::fill_normal(b, 2);
  Device dev;
  et::core::ExecContext ctx(dev);
  const MatrixF c = gemm_nt(ctx, a, b);
  const MatrixF ref = et::tensor::reference_gemm_nt(a, b);
  EXPECT_TRUE(allclose(c, ref, 1e-3, 1e-3))
      << "max diff " << max_abs_diff(c, ref);
  EXPECT_EQ(dev.launch_count(), 1u);
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, GemmSizes,
    ::testing::Values(std::tuple{1, 1, 1}, std::tuple{3, 5, 7},
                      std::tuple{16, 16, 16}, std::tuple{32, 48, 64},
                      std::tuple{17, 31, 13}, std::tuple{128, 64, 32}));

TEST(Gemm, MixedPrecisionCloseToFp32) {
  MatrixF a(24, 40), b(24, 40);
  et::tensor::fill_normal(a, 5);
  et::tensor::fill_normal(b, 6);
  Device dev;
  et::core::ExecContext ctx(dev);
  const MatrixF fp32 = gemm_nt(ctx, a, b, Precision::kFp32);
  const MatrixF mixed = gemm_nt(ctx, a, b, Precision::kMixed);
  EXPECT_TRUE(allclose(mixed, fp32, 0.05, 0.02))
      << "max diff " << max_abs_diff(mixed, fp32);
}

TEST(Gemm, TensorOpsOnlyForFp16Paths) {
  MatrixF a(16, 16), b(16, 16);
  et::tensor::fill_normal(a, 7);
  et::tensor::fill_normal(b, 8);
  Device dev;
  et::core::ExecContext ctx(dev);
  (void)gemm_nt(ctx, a, b, Precision::kFp32);
  (void)gemm_nt(ctx, a, b, Precision::kMixed);
  EXPECT_EQ(dev.history()[0].tensor_ops, 0u);
  EXPECT_GT(dev.history()[0].fp_ops, 0u);
  EXPECT_GT(dev.history()[1].tensor_ops, 0u);
  EXPECT_EQ(dev.history()[1].fp_ops, 0u);
}

TEST(Gemm, AutotunerPrefersBigBlocksForBigProblems) {
  const et::gpusim::DeviceSpec spec;
  const auto& algo =
      et::kernels::autotune_gemm(spec, 4096, 4096, 4096, Precision::kMixed);
  EXPECT_GE(algo.block_m * algo.block_n, 128u * 128u)
      << "picked " << algo.name;
}

TEST(Gemm, TrafficOnlySkipsMath) {
  // Operands beyond binary16's range: the math counts overflows. A
  // traffic-only device records the launch and runs no math, and its
  // output has the product's shape and unspecified values.
  MatrixF a(8, 8, 1e5f), b(8, 8, 1e5f);
  Device real;
  et::core::ExecContext real_ctx(real);
  std::uint64_t before = et::numeric::overflow_count();
  (void)gemm_nt(real_ctx, a, b, Precision::kPureFp16);
  EXPECT_GT(et::numeric::overflow_count(), before) << "the math ran";

  Device dev;
  et::core::ExecContext ctx(dev);
  dev.set_traffic_only(true);
  before = et::numeric::overflow_count();
  const MatrixF c = gemm_nt(ctx, a, b, Precision::kPureFp16);
  EXPECT_EQ(et::numeric::overflow_count(), before) << "math skipped";
  EXPECT_EQ(c.rows(), 8u);
  EXPECT_EQ(c.cols(), 8u);
  EXPECT_EQ(dev.launch_count(), 1u);
  EXPECT_GT(dev.history()[0].total_bytes(), 0u);
}

TEST(Gemm, NtRejectsMismatchedOperandShapes) {
  const MatrixF a(4, 8), b(5, 7);
  Device dev;
  et::core::ExecContext ctx(dev);
  EXPECT_THROW((void)gemm_nt(ctx, a, b, Precision::kPureFp16),
               std::invalid_argument);
  EXPECT_EQ(dev.launch_count(), 0u);
}

TEST(Gemm, BatchedNtRejectsMismatchedPanels) {
  const MatrixF a(4, 8), good(5, 8), bad(5, 7);
  Device dev;
  et::core::ExecContext ctx(dev);
  EXPECT_THROW((void)batched_gemm_nt(ctx, a, {&good, &bad}, Precision::kMixed),
               std::invalid_argument);
  EXPECT_THROW((void)batched_gemm_nt(ctx, a, {&good, nullptr}),
               std::invalid_argument);
  EXPECT_THROW((void)batched_gemm_nt(ctx, a, {}), std::invalid_argument);
  EXPECT_EQ(dev.launch_count(), 0u);
}

// The binary16 GEMM paths against an oracle that shares none of their
// code: a naive triple loop over `half` operators. kPureFp16 rounds each
// product and each sum to binary16; kMixed rounds the operands and the
// finished FP32 sum. Outputs must match bit for bit (NaN by class: which
// of two NaN operands a multiply or add keeps depends on operand order,
// which the compiler may swap) and the overflow counter must move by the
// same amount, at 1 and 4 threads.
MatrixF half_oracle_nt(const MatrixF& a, const MatrixF& bt, Precision p) {
  MatrixF c(a.rows(), bt.rows());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < bt.rows(); ++j) {
      if (p == Precision::kPureFp16) {
        half acc(0.0f);
        for (std::size_t k = 0; k < a.cols(); ++k) {
          acc = half(a(i, k)) * half(bt(j, k)) + acc;
        }
        c(i, j) = static_cast<float>(acc);
      } else {
        float acc = 0.0f;
        for (std::size_t k = 0; k < a.cols(); ++k) {
          acc = static_cast<float>(half(a(i, k))) *
                    static_cast<float>(half(bt(j, k))) +
                acc;
        }
        c(i, j) = static_cast<float>(half(acc));
      }
    }
  }
  return c;
}

/// Bit-identical to want's columns [col0, col0 + got.cols()), except that
/// any two NaNs match.
::testing::AssertionResult same_columns(const MatrixF& got,
                                        const MatrixF& want,
                                        std::size_t col0) {
  if (got.rows() != want.rows() || col0 + got.cols() > want.cols()) {
    return ::testing::AssertionFailure() << "shape differs";
  }
  for (std::size_t i = 0; i < got.rows(); ++i) {
    for (std::size_t j = 0; j < got.cols(); ++j) {
      const float g = got(i, j);
      const float w = want(i, col0 + j);
      if (std::isnan(g) && std::isnan(w)) continue;
      if (std::bit_cast<std::uint32_t>(g) != std::bit_cast<std::uint32_t>(w)) {
        return ::testing::AssertionFailure()
               << "(" << i << "," << j << "): got " << g << ", oracle " << w;
      }
    }
  }
  return ::testing::AssertionSuccess();
}

/// Bit-identical, except that any two NaNs match.
::testing::AssertionResult same_values(const MatrixF& got,
                                       const MatrixF& want) {
  if (got.cols() != want.cols()) {
    return ::testing::AssertionFailure() << "shape differs";
  }
  return same_columns(got, want, 0);
}

struct OperandCase {
  const char* name;
  float a_scale, b_scale;  ///< standard deviation of the normal fill
  float special;           ///< 0, or the value planted in a and bt
  /// Plant 400 in A's column k/2 and in B row n/2 at k/2: one output
  /// column per row overflows halfway along its chain, in the middle of a
  /// 16-column block whose other columns stay in range.
  bool mid_block = false;
};

constexpr float kInf = std::numeric_limits<float>::infinity();

// 1e-4: subnormal and vanishing products. 300: products and sums overflow
// on the rounded-once path. 7e4: operands overflow on rounding, which
// sends the call to the per-multiply-add loop (A, B or both).
const OperandCase kOperandCases[] = {
    {"subnormal", 1e-4f, 1e-4f, 0.0f},
    {"unit", 1.0f, 1.0f, 0.0f},
    {"product_overflow", 300.0f, 300.0f, 0.0f},
    {"a_overflow", 7e4f, 1.0f, 0.0f},
    {"b_overflow", 1.0f, 7e4f, 0.0f},
    {"both_overflow", 7e4f, 7e4f, 0.0f},
    {"inf", 1.0f, 1.0f, kInf},
    {"nan", 1.0f, 1.0f, std::numeric_limits<float>::quiet_NaN()},
    {"mid_block_overflow", 1.0f, 1.0f, 0.0f, true},
};

MatrixF operand(std::size_t rows, std::size_t k, std::uint64_t seed,
                float scale, float special) {
  MatrixF x(rows, k);
  et::tensor::fill_normal(x, seed, 0.0f, scale);
  if (special != 0.0f) {
    x(0, 0) = special;
    x(rows - 1, k - 1) = -special;
  }
  return x;
}

enum class Entry { kNt, kBatchedNt, kPanelsNt };

class GemmFp16Differential
    : public ::testing::TestWithParam<std::tuple<Entry, Precision>> {};

/// One case: an m×k A against B panels of n, 4 and 13 rows of k (the
/// single-panel entries take the first).
void check_gemm_fp16(Entry entry, Precision p, std::size_t threads,
                     std::size_t m, std::size_t n, std::size_t k,
                     const OperandCase& oc, std::uint64_t& seed) {
  MatrixF a = operand(m, k, ++seed, oc.a_scale, oc.special);
  std::vector<MatrixF> bts;
  for (const std::size_t rows : {n, std::size_t{4}, std::size_t{13}}) {
    bts.push_back(operand(rows, k, ++seed, oc.b_scale, oc.special));
    if (entry == Entry::kNt) break;
  }
  if (oc.mid_block) {
    for (std::size_t i = 0; i < m; ++i) a(i, k / 2) = 400.0f;
    bts[0](n / 2, k / 2) = 400.0f;
  }

  std::uint64_t c0 = overflow_count();
  std::vector<MatrixF> want;
  for (const MatrixF& bt : bts) want.push_back(half_oracle_nt(a, bt, p));
  const std::uint64_t oracle_overflows = overflow_count() - c0;
  if (oc.mid_block) {
    EXPECT_GT(oracle_overflows, 0u);
  }

  Device dev;
  et::core::ExecContext ctx(dev, threads);
  std::vector<MatrixF> got;
  c0 = overflow_count();
  if (entry == Entry::kNt) {
    got.push_back(gemm_nt(ctx, a, bts[0], p));
  } else {
    std::vector<const MatrixF*> panels;
    for (const MatrixF& bt : bts) panels.push_back(&bt);
    got = entry == Entry::kBatchedNt ? batched_gemm_nt(ctx, a, panels, p)
                                     : gemm_nt_panels(ctx, a, panels, p);
  }
  EXPECT_EQ(overflow_count() - c0, oracle_overflows);
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t q = 0; q < got.size(); ++q) {
    EXPECT_TRUE(same_values(got[q], want[q])) << "panel " << q;
  }
}

TEST_P(GemmFp16Differential, BitIdenticalToHalfOracle) {
  const auto [entry, p] = GetParam();
  std::uint64_t seed = 100;
  // m = 1 is a decode row; n = 16 is one whole block of output columns,
  // 46 two blocks and a part.
  for (const std::size_t threads : {1, 4}) {
    for (const std::size_t m : {1, 7}) {
      for (const std::size_t n : {1, 3, 4, 5, 13, 16, 46}) {
        for (const std::size_t k : {1, 37}) {
          for (const OperandCase& oc : kOperandCases) {
            SCOPED_TRACE(std::string(oc.name) + " m=" + std::to_string(m) +
                         " n=" + std::to_string(n) +
                         " k=" + std::to_string(k) +
                         " threads=" + std::to_string(threads));
            check_gemm_fp16(entry, p, threads, m, n, k, oc, seed);
          }
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Entries, GemmFp16Differential,
    ::testing::Combine(::testing::Values(Entry::kNt, Entry::kBatchedNt,
                                         Entry::kPanelsNt),
                       ::testing::Values(Precision::kPureFp16,
                                         Precision::kMixed)),
    [](const auto& pinfo) {
      const Entry e = std::get<0>(pinfo.param);
      return std::string(e == Entry::kNt          ? "Nt"
                         : e == Entry::kBatchedNt ? "BatchedNt"
                                                  : "PanelsNt") +
             (std::get<1>(pinfo.param) == Precision::kPureFp16 ? "PureFp16"
                                                              : "Mixed");
    });

MatrixF stack_rows(const std::vector<MatrixF>& panels) {
  std::size_t rows = 0;
  for (const MatrixF& b : panels) rows += b.rows();
  MatrixF stacked(rows, panels.front().cols());
  std::size_t r0 = 0;
  for (const MatrixF& b : panels) {
    for (std::size_t r = 0; r < b.rows(); ++r) {
      for (std::size_t c = 0; c < b.cols(); ++c) stacked(r0 + r, c) = b(r, c);
    }
    r0 += b.rows();
  }
  return stacked;
}

// The panels form must be gemm_nt against the explicitly stacked B: the
// same launch record, the stacked product's column blocks bit for bit,
// and the same overflow-counter delta — also when an operand overflows
// in one panel only, which sends that panel alone to the per-step loop.
TEST(GemmPanels, EqualsGemmNtOnTheStackedMatrix) {
  struct Plant {
    const char* name;
    std::size_t panel;  ///< panel holding the overflowing value, or 3
    bool in_a;
  };
  const Plant plants[] = {{"none", 3, false},
                          {"panel1", 1, false},
                          {"panel2", 2, false},
                          {"a", 3, true}};
  const Precision precisions[] = {Precision::kFp32, Precision::kPureFp16,
                                  Precision::kMixed, Precision::kBf16Mixed};
  const et::kernels::GemmAlgo* algos[] = {nullptr,
                                          &et::kernels::gemm_algos()[0]};
  std::uint64_t seed = 500;
  for (const Precision p : precisions) {
    for (const Plant& plant : plants) {
      for (const auto* algo : algos) {
        for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
          SCOPED_TRACE(std::string(et::numeric::to_string(p)) + " " +
                       plant.name + (algo ? " algo0" : " autotuned") +
                       " threads=" + std::to_string(threads));
          MatrixF a = operand(9, 37, ++seed, 1.0f, 0.0f);
          std::vector<MatrixF> bts;
          for (const std::size_t rows : {5, 13, 4}) {
            bts.push_back(operand(rows, 37, ++seed, 1.0f, 0.0f));
          }
          if (plant.in_a) a(2, 7) = -7e4f;
          if (plant.panel < bts.size()) bts[plant.panel](1, 3) = 7e4f;
          const MatrixF stacked = stack_rows(bts);

          Device want_dev;
          et::core::ExecContext want_ctx(want_dev, threads);
          std::uint64_t c0 = overflow_count();
          const MatrixF want =
              gemm_nt(want_ctx, a, stacked, p, algo, "qkv_linear");
          const std::uint64_t want_overflows = overflow_count() - c0;

          Device got_dev;
          et::core::ExecContext got_ctx(got_dev, threads);
          const std::vector<const MatrixF*> panels = {&bts[0], &bts[1],
                                                      &bts[2]};
          c0 = overflow_count();
          const std::vector<MatrixF> got =
              gemm_nt_panels(got_ctx, a, panels, p, algo, "qkv_linear");
          EXPECT_EQ(overflow_count() - c0, want_overflows);
          if (p == Precision::kPureFp16 || p == Precision::kMixed) {
            EXPECT_EQ(want_overflows > 0, plant.panel < 3 || plant.in_a);
          }

          ASSERT_EQ(want_dev.launch_count(), 1u);
          ASSERT_EQ(got_dev.launch_count(), 1u);
          const auto& w = want_dev.history()[0];
          const auto& g = got_dev.history()[0];
          EXPECT_EQ(g.name.view(), w.name.view());
          EXPECT_EQ(g.ctas, w.ctas);
          EXPECT_EQ(g.shared_bytes_per_cta, w.shared_bytes_per_cta);
          EXPECT_EQ(g.global_load_bytes, w.global_load_bytes);
          EXPECT_EQ(g.global_store_bytes, w.global_store_bytes);
          EXPECT_EQ(g.fp_ops, w.fp_ops);
          EXPECT_EQ(g.tensor_ops, w.tensor_ops);
          EXPECT_EQ(g.time_us, w.time_us);

          ASSERT_EQ(got.size(), bts.size());
          std::size_t c_first = 0;
          for (std::size_t q = 0; q < got.size(); ++q) {
            EXPECT_TRUE(same_columns(got[q], want, c_first))
                << "panel " << q;
            c_first += bts[q].rows();
          }
        }
      }
    }
  }
}

TEST(GemmPanels, RejectsBadPanelsBeforeLaunching) {
  const MatrixF a(4, 8), good(5, 8), bad(5, 7);
  Device dev;
  et::core::ExecContext ctx(dev);
  const std::vector<const MatrixF*> mismatched = {&good, &bad};
  const std::vector<const MatrixF*> null_panel = {&good, nullptr};
  EXPECT_THROW((void)gemm_nt_panels(ctx, a, mismatched, Precision::kMixed),
               std::invalid_argument);
  EXPECT_THROW((void)gemm_nt_panels(ctx, a, null_panel),
               std::invalid_argument);
  EXPECT_THROW((void)gemm_nt_panels(ctx, a, {}), std::invalid_argument);
  EXPECT_EQ(dev.launch_count(), 0u);
}

TEST(Elementwise, Scale) {
  MatrixF m(4, 4, 2.0f);
  Device dev;
  et::core::ExecContext ctx(dev);
  et::kernels::scale(dev, m, 0.5f);
  EXPECT_EQ(m(3, 3), 1.0f);
  EXPECT_EQ(dev.history()[0].global_load_bytes,
            dev.history()[0].global_store_bytes);
}

TEST(Elementwise, AddBiasAndResidual) {
  MatrixF m(2, 3, 1.0f);
  const std::vector<float> bias = {1.0f, 2.0f, 3.0f};
  Device dev;
  et::core::ExecContext ctx(dev);
  et::kernels::add_bias(dev, m, bias);
  EXPECT_EQ(m(0, 0), 2.0f);
  EXPECT_EQ(m(1, 2), 4.0f);
  MatrixF other(2, 3, 10.0f);
  et::kernels::residual_add(dev, m, other);
  EXPECT_EQ(m(0, 0), 12.0f);
}

TEST(Elementwise, Gelu) {
  MatrixF m(1, 4);
  m(0, 0) = -2.0f;
  m(0, 1) = -0.5f;
  m(0, 2) = 0.5f;
  m(0, 3) = 2.0f;
  Device dev;
  et::core::ExecContext ctx(dev);
  et::kernels::gelu(dev, m);
  // GELU(-2) ≈ -0.0454, GELU(2) ≈ 1.9546, GELU(0.5) ≈ 0.3457
  EXPECT_NEAR(m(0, 0), -0.0454f, 5e-3f);
  EXPECT_NEAR(m(0, 3), 1.9546f, 5e-3f);
}

TEST(Elementwise, CausalMask) {
  MatrixF s(4, 4, 1.0f);
  Device dev;
  et::core::ExecContext ctx(dev);
  et::kernels::causal_mask(dev, s);
  for (std::size_t i = 0; i < 4; ++i) {
    for (std::size_t j = 0; j < 4; ++j) {
      if (j > i) {
        EXPECT_TRUE(std::isinf(s(i, j)) && s(i, j) < 0);
      } else {
        EXPECT_EQ(s(i, j), 1.0f);
      }
    }
  }
}

TEST(Elementwise, SoftmaxRowsSumToOne) {
  MatrixF m(6, 9);
  et::tensor::fill_normal(m, 9, 0.0f, 3.0f);
  Device dev;
  et::core::ExecContext ctx(dev);
  et::kernels::softmax_rows(dev, m);
  for (std::size_t r = 0; r < m.rows(); ++r) {
    float sum = 0.0f;
    for (float v : m.row(r)) {
      EXPECT_GE(v, 0.0f);
      sum += v;
    }
    EXPECT_NEAR(sum, 1.0f, 1e-5f);
  }
}

TEST(Elementwise, SoftmaxHandlesMaskedRow) {
  MatrixF m(1, 4, -std::numeric_limits<float>::infinity());
  m(0, 0) = 0.0f;  // only one unmasked entry
  Device dev;
  et::core::ExecContext ctx(dev);
  et::kernels::softmax_rows(dev, m);
  EXPECT_NEAR(m(0, 0), 1.0f, 1e-6f);
  EXPECT_EQ(m(0, 3), 0.0f);
}

TEST(Elementwise, SoftmaxInvariantToShift) {
  MatrixF a(1, 5), b(1, 5);
  for (std::size_t c = 0; c < 5; ++c) {
    a(0, c) = static_cast<float>(c);
    b(0, c) = static_cast<float>(c) + 100.0f;
  }
  Device dev;
  et::core::ExecContext ctx(dev);
  et::kernels::softmax_rows(dev, a);
  et::kernels::softmax_rows(dev, b);
  EXPECT_TRUE(allclose(a, b, 1e-5));
}

TEST(Elementwise, LayerNormZeroMeanUnitVar) {
  MatrixF m(3, 64);
  et::tensor::fill_normal(m, 10, 5.0f, 3.0f);
  std::vector<float> gamma(64, 1.0f), beta(64, 0.0f);
  Device dev;
  et::core::ExecContext ctx(dev);
  et::kernels::layernorm(dev, m, gamma, beta);
  for (std::size_t r = 0; r < m.rows(); ++r) {
    double mean = 0.0, var = 0.0;
    for (float v : m.row(r)) mean += v;
    mean /= 64.0;
    for (float v : m.row(r)) var += (v - mean) * (v - mean);
    var /= 64.0;
    EXPECT_NEAR(mean, 0.0, 1e-4);
    EXPECT_NEAR(var, 1.0, 1e-2);
  }
}

TEST(Elementwise, ShapeCheckedKernelsRejectMismatchedOperandsBeforeLaunching) {
  // Each of these kernels indexes a per-column vector (or a second
  // matrix) by the first operand's shape: a short one must be refused,
  // not read past its end, and nothing may launch.
  MatrixF m(2, 8, 1.0f);
  const MatrixF narrower(2, 4), shorter(1, 8);
  const std::vector<float> wide(8, 1.0f), narrow(4, 1.0f);
  Device dev;
  EXPECT_THROW(et::kernels::add_bias(dev, m, narrow), std::invalid_argument);
  EXPECT_THROW(et::kernels::residual_add(dev, m, narrower),
               std::invalid_argument);
  EXPECT_THROW(et::kernels::residual_add(dev, m, shorter),
               std::invalid_argument);
  EXPECT_THROW(et::kernels::layernorm(dev, m, narrow, wide),
               std::invalid_argument);
  EXPECT_THROW(et::kernels::layernorm(dev, m, wide, narrow),
               std::invalid_argument);
  EXPECT_THROW(et::kernels::fused_residual_layernorm(dev, m, shorter, wide,
                                                     wide),
               std::invalid_argument);
  EXPECT_THROW(et::kernels::fused_residual_layernorm(dev, m, m, narrow, wide),
               std::invalid_argument);
  EXPECT_THROW(et::kernels::fused_residual_layernorm(dev, m, m, wide, narrow),
               std::invalid_argument);
  EXPECT_EQ(dev.launch_count(), 0u);
  for (const float v : m.flat()) EXPECT_EQ(v, 1.0f);  // untouched
}

TEST(Elementwise, GatherScatterRoundTrip) {
  MatrixF x(4, 8);
  et::tensor::fill_uniform(x, 12);
  const std::vector<std::uint32_t> cols = {1, 3, 6};
  Device dev;
  et::core::ExecContext ctx(dev);
  const MatrixF gathered = et::kernels::gather_cols(dev, x, cols);
  EXPECT_EQ(gathered.cols(), 3u);
  EXPECT_EQ(gathered(2, 1), x(2, 3));
  const MatrixF scattered = et::kernels::scatter_cols(dev, gathered, cols, 8);
  EXPECT_EQ(scattered.cols(), 8u);
  EXPECT_EQ(scattered(2, 3), x(2, 3));
  EXPECT_EQ(scattered(2, 0), 0.0f);
  EXPECT_EQ(scattered(2, 7), 0.0f);
}

}  // namespace
