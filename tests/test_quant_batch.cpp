// INT8 quantization and batched (TurboTransformer-style) inference.
#include <gtest/gtest.h>

#include <stdexcept>

#include "gpusim/device.hpp"
#include "kernels/gemm.hpp"
#include "nn/encoder.hpp"
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

// ----------------------------------------------------------- batching ----

TEST(Batched, MatchesPerSampleForward) {
  et::nn::ModelConfig model;
  model.d_model = 32;
  model.num_heads = 2;
  model.d_ff = 64;
  const auto w = et::nn::make_dense_encoder_weights(model, 8);

  std::vector<MatrixF> batch;
  for (const std::size_t seq : {8u, 12u, 16u}) {
    MatrixF x(seq, 32);
    et::tensor::fill_normal(x, 80 + seq, 0.0f, 0.5f);
    batch.push_back(std::move(x));
  }

  auto opt = et::nn::options_for(et::nn::Pipeline::kET, model, 8);
  opt.attn.precision = et::numeric::Precision::kFp32;

  et::gpusim::Device dev;
  et::core::ExecContext ctx(dev);
  const auto outs = et::nn::batched_encoder_forward(ctx, batch, w, opt);
  ASSERT_EQ(outs.size(), batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    auto single_opt = opt;
    single_opt.attn.seq_len = batch[i].rows();
    et::gpusim::Device single;
    et::core::ExecContext single_ctx(single);
    const MatrixF ref =
        et::nn::encoder_forward(single_ctx, batch[i], w, single_opt);
    EXPECT_TRUE(allclose(outs[i], ref, 1e-4, 1e-4))
        << "sample " << i << " max diff " << max_abs_diff(outs[i], ref);
  }
}

TEST(Batched, AmortizesLinearKernels) {
  et::nn::ModelConfig model;
  model.d_model = 64;
  model.num_heads = 4;
  model.d_ff = 128;
  const auto w = et::nn::make_dense_encoder_weights(model, 9);
  const auto opt = et::nn::options_for(et::nn::Pipeline::kET, model, 16);

  std::vector<MatrixF> batch(8, MatrixF(16, 64));

  et::gpusim::Device batched;
  et::core::ExecContext batched_ctx(batched);
  batched.set_traffic_only(true);
  (void)et::nn::batched_encoder_forward(batched_ctx, batch, w, opt);

  et::gpusim::Device sequential;
  et::core::ExecContext sequential_ctx(sequential);
  sequential.set_traffic_only(true);
  for (const auto& x : batch) {
    (void)et::nn::encoder_forward(sequential_ctx, x, w, opt);
  }
  EXPECT_LT(batched.launch_count(), sequential.launch_count());
  EXPECT_LT(batched.total_time_us(), sequential.total_time_us())
      << "throughput mode amortizes weight loads and launches";
}

TEST(Batched, VariableLengthsNoPadding) {
  // The §6 TurboTransformer point: no batch padding. Total processed rows
  // equal the sum of true lengths, not batch × max.
  et::nn::ModelConfig model;
  model.d_model = 32;
  model.num_heads = 2;
  model.d_ff = 64;
  const auto w = et::nn::make_dense_encoder_weights(model, 10);
  const auto opt = et::nn::options_for(et::nn::Pipeline::kET, model, 8);

  std::vector<MatrixF> batch;
  batch.emplace_back(8, 32);
  batch.emplace_back(64, 32);

  et::gpusim::Device dev;
  et::core::ExecContext ctx(dev);
  dev.set_traffic_only(true);
  const auto outs = et::nn::batched_encoder_forward(ctx, batch, w, opt);
  EXPECT_EQ(outs[0].rows(), 8u);
  EXPECT_EQ(outs[1].rows(), 64u);
  const double unpadded_us = dev.total_time_us();

  // A padded batch (both sequences at the max length) must cost more:
  // that extra cost is exactly what padding-free batching avoids.
  std::vector<MatrixF> padded;
  padded.emplace_back(64, 32);
  padded.emplace_back(64, 32);
  et::gpusim::Device padded_dev;
  et::core::ExecContext padded_dev_ctx(padded_dev);
  padded_dev.set_traffic_only(true);
  (void)et::nn::batched_encoder_forward(padded_dev_ctx, padded, w, opt);
  EXPECT_GT(padded_dev.total_time_us(), unpadded_us);
}

}  // namespace
