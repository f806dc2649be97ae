// INT8 quantization.
#include <gtest/gtest.h>

#include <stdexcept>

#include "gpusim/device.hpp"
#include "kernels/gemm.hpp"
#include "pruning/criteria.hpp"
#include "quant/quantize.hpp"
#include "sparse/formats.hpp"
#include "tensor/compare.hpp"
#include "tensor/random.hpp"
#include "tensor/reference_gemm.hpp"

namespace {

using et::tensor::MatrixF;

// ------------------------------------------------------------- quant ----

TEST(Quantize, RoundTripWithinHalfStep) {
  MatrixF w(48, 64);
  et::tensor::fill_normal(w, 1);
  const auto qw = et::quant::quantize_weight(w);
  EXPECT_LE(et::quant::max_quantization_error_steps(w, qw), 0.5 + 1e-6);
}

TEST(Quantize, PerRowScalesTrackRowMagnitude) {
  MatrixF w(2, 4, 0.0f);
  w(0, 0) = 1.27f;   // row 0 max
  w(1, 2) = 12.7f;   // row 1 max, 10x larger
  const auto qw = et::quant::quantize_weight(w);
  EXPECT_FLOAT_EQ(qw.row_scale[0], 0.01f);
  EXPECT_FLOAT_EQ(qw.row_scale[1], 0.1f);
  EXPECT_EQ(qw.q(0, 0), 127);
  EXPECT_EQ(qw.q(1, 2), 127);
}

TEST(Quantize, ZeroRowSafe) {
  MatrixF w(2, 4, 0.0f);
  w(1, 0) = 1.0f;
  const auto qw = et::quant::quantize_weight(w);
  const auto back = et::quant::dequantize(qw);
  EXPECT_EQ(back(0, 0), 0.0f);
  EXPECT_FLOAT_EQ(back(1, 0), 1.0f);
}

TEST(Quantize, Int8LinearCloseToFp32) {
  MatrixF x(16, 64), w(32, 64);
  et::tensor::fill_normal(x, 2);
  et::tensor::fill_normal(w, 3, 0.0f, 0.1f);
  const auto qw = et::quant::quantize_weight(w);
  et::gpusim::Device dev;
  et::core::ExecContext ctx(dev);
  const MatrixF y = et::quant::int8_linear(ctx, x, qw);
  const MatrixF ref = et::tensor::reference_gemm_nt(x, w);
  // int8 with per-row weight scales keeps ~2 decimal digits here.
  EXPECT_TRUE(allclose(y, ref, 0.12, 0.05))
      << "max diff " << max_abs_diff(y, ref);
}

TEST(Quantize, ErrorStepsRejectsMismatchedShapes) {
  const MatrixF w(4, 8);
  const auto qw = et::quant::quantize_weight(MatrixF(4, 7));
  EXPECT_THROW((void)et::quant::max_quantization_error_steps(w, qw),
               std::invalid_argument);
}

TEST(Quantize, Int8LinearRejectsMismatchedOperandShapes) {
  const MatrixF x(4, 8);
  const auto w = et::quant::quantize_weight(MatrixF(5, 7));
  auto short_scales = et::quant::quantize_weight(MatrixF(5, 8));
  short_scales.row_scale.pop_back();
  et::gpusim::Device dev;
  et::core::ExecContext ctx(dev);
  EXPECT_THROW((void)et::quant::int8_linear(ctx, x, w), std::invalid_argument);
  EXPECT_THROW((void)et::quant::int8_linear(ctx, x, short_scales),
               std::invalid_argument);
  EXPECT_EQ(dev.launch_count(), 0u);
}

TEST(Quantize, Int8BatchedLinearRejectsMismatchedPanels) {
  const MatrixF x(4, 8);
  const auto good = et::quant::quantize_weight(MatrixF(5, 8));
  const auto bad = et::quant::quantize_weight(MatrixF(5, 7));
  et::gpusim::Device dev;
  et::core::ExecContext ctx(dev);
  EXPECT_THROW((void)et::quant::int8_batched_linear(ctx, x, {&good, &bad}),
               std::invalid_argument);
  EXPECT_THROW((void)et::quant::int8_batched_linear(ctx, x, {&good, nullptr}),
               std::invalid_argument);
  EXPECT_THROW((void)et::quant::int8_batched_linear(ctx, x, {}),
               std::invalid_argument);
  EXPECT_EQ(dev.launch_count(), 0u);
}

TEST(Quantize, Int8LinearTrafficIsOneBytePerOperand) {
  MatrixF x(128, 256), w(256, 256);
  et::tensor::fill_normal(x, 4);
  et::tensor::fill_normal(w, 5);
  const auto qw = et::quant::quantize_weight(w);
  et::gpusim::Device dev;
  et::core::ExecContext ctx(dev);
  dev.set_traffic_only(true);
  (void)et::quant::int8_linear(ctx, x, qw);
  const auto int8_loads = dev.history()[0].global_load_bytes;
  dev.reset();
  (void)et::kernels::gemm_nt(ctx, x, w, et::numeric::Precision::kMixed,
                             &et::kernels::gemm_algos()[3]);
  const auto fp16_loads = dev.history()[0].global_load_bytes;
  EXPECT_LT(int8_loads, fp16_loads)
      << "one byte per element beats two";
}

TEST(Quantize, Int8FasterThanFp16OnModel) {
  MatrixF x(128, 768), w(3072, 768);
  et::gpusim::Device dev;
  et::core::ExecContext ctx(dev);
  dev.set_traffic_only(true);
  et::tensor::fill_normal(w, 6);
  const auto qw = et::quant::quantize_weight(w);
  (void)et::quant::int8_linear(ctx, x, qw);
  const double int8_us = dev.total_time_us();
  dev.reset();
  (void)et::kernels::gemm_nt(ctx, x, w, et::numeric::Precision::kMixed);
  const double fp16_us = dev.total_time_us();
  EXPECT_LT(int8_us, fp16_us);
}

TEST(Quantize, ComposesWithTilePruning) {
  // Quantize only the surviving tiles: dequantized result must respect
  // the mask exactly.
  MatrixF w(64, 64);
  et::tensor::fill_normal(w, 7);
  const auto mask = et::pruning::tile_mask(w, 0.5);
  MatrixF masked = w;
  et::sparse::apply_mask(masked, mask);
  const auto qw = et::quant::quantize_weight(masked);
  const auto back = et::quant::dequantize(qw);
  for (std::size_t i = 0; i < w.size(); ++i) {
    if (mask.flat()[i] == 0) {
      EXPECT_EQ(back.flat()[i], 0.0f) << "pruned weights must stay zero";
    }
  }
}

}  // namespace
