// Encoder layer / stack: numerics vs the double-precision reference and
// pipeline-structure properties (launch counts, latency ordering).
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "nn/encoder.hpp"
#include "nn/model_config.hpp"
#include "nn/positional.hpp"
#include "nn/reference.hpp"
#include "tensor/compare.hpp"
#include "tensor/random.hpp"

namespace {

using et::gpusim::Device;
using et::nn::EncoderOptions;
using et::nn::EncoderWeights;
using et::nn::ModelConfig;
using et::nn::Pipeline;
using et::tensor::MatrixF;

ModelConfig tiny_model() {
  ModelConfig cfg;
  cfg.name = "tiny";
  cfg.num_layers = 2;
  cfg.d_model = 32;
  cfg.num_heads = 2;
  cfg.d_ff = 64;
  return cfg;
}

TEST(Encoder, AllPipelinesMatchReference) {
  const auto model = tiny_model();
  const auto w = et::nn::make_dense_encoder_weights(model, 3);
  MatrixF x(16, model.d_model);
  et::tensor::fill_normal(x, 4);

  for (const auto pipeline :
       {Pipeline::kModular, Pipeline::kTensorRT, Pipeline::kFasterTransformer,
        Pipeline::kET}) {
    auto opt = et::nn::options_for(pipeline, model, 16, /*causal=*/true);
    // Use FP32 for the numerical comparison; the precision policies are
    // exercised separately.
    opt.attn.precision = et::numeric::Precision::kFp32;
    Device dev;
    et::core::ExecContext ctx(dev);
    const MatrixF y = et::nn::encoder_forward(ctx, x, w, opt);
    const MatrixF ref = et::nn::reference_encoder(x, w, opt.attn);
    EXPECT_TRUE(allclose(y, ref, 1e-3, 1e-3))
        << to_string(pipeline) << " max diff " << max_abs_diff(y, ref);
  }
}

TEST(Encoder, StackAppliesLayersInOrder) {
  const auto model = tiny_model();
  std::vector<EncoderWeights> layers;
  layers.push_back(et::nn::make_dense_encoder_weights(model, 5));
  layers.push_back(et::nn::make_dense_encoder_weights(model, 6));
  MatrixF x(8, model.d_model);
  et::tensor::fill_normal(x, 7);
  auto opt = et::nn::options_for(Pipeline::kET, model, 8);
  opt.attn.precision = et::numeric::Precision::kFp32;

  Device dev;
  et::core::ExecContext ctx(dev);
  const MatrixF stacked = et::nn::encoder_stack_forward(ctx, x, layers, opt);
  const MatrixF manual = et::nn::encoder_forward(
      ctx, et::nn::encoder_forward(ctx, x, layers[0], opt), layers[1], opt);
  EXPECT_TRUE(allclose(stacked, manual, 1e-6, 1e-6));
}

TEST(Encoder, ModularHasMostKernelLaunches) {
  const auto model = tiny_model();
  const auto w = et::nn::make_dense_encoder_weights(model, 8);
  MatrixF x(16, model.d_model);

  std::size_t launches[4];
  const Pipeline pipes[] = {Pipeline::kModular, Pipeline::kTensorRT,
                            Pipeline::kFasterTransformer, Pipeline::kET};
  for (int i = 0; i < 4; ++i) {
    Device dev;
    et::core::ExecContext ctx(dev);
    dev.set_traffic_only(true);
    (void)et::nn::encoder_forward(ctx, x, w,
                                  et::nn::options_for(pipes[i], model, 16));
    launches[i] = dev.launch_count();
  }
  EXPECT_GT(launches[0], launches[1]);   // PyTorch > TensorRT
  EXPECT_GE(launches[1], launches[2]);   // TensorRT >= FasterTransformer
  EXPECT_GT(launches[2], launches[3]);   // FasterTransformer > E.T.
}

TEST(Encoder, LatencyOrderingMatchesFig7AtDense) {
  // Unpruned BERT_BASE encoder at seq 128: PyTorch slowest, E.T. at least
  // as fast as FasterTransformer.
  const auto model = et::nn::bert_base();
  const auto w = et::nn::make_dense_encoder_weights(model, 9);
  MatrixF x(128, model.d_model);

  const auto run = [&](Pipeline p) {
    Device dev;
    et::core::ExecContext ctx(dev);
    dev.set_traffic_only(true);
    (void)et::nn::encoder_forward(ctx, x, w,
                                  et::nn::options_for(p, model, 128));
    return dev.total_time_us();
  };
  const double pytorch = run(Pipeline::kModular);
  const double trt = run(Pipeline::kTensorRT);
  const double ft = run(Pipeline::kFasterTransformer);
  const double et_time = run(Pipeline::kET);

  EXPECT_GT(pytorch, trt);
  EXPECT_GE(trt, ft);
  EXPECT_GE(ft, et_time);
}

TEST(Encoder, EveryPipelineRejectsMismatchedInputShape) {
  const auto model = tiny_model();
  const auto w = et::nn::make_dense_encoder_weights(model, 9);
  for (const auto pipeline :
       {Pipeline::kModular, Pipeline::kTensorRT, Pipeline::kFasterTransformer,
        Pipeline::kET}) {
    const auto opt = et::nn::options_for(pipeline, model, 16);
    for (const MatrixF& x : {MatrixF(8, model.d_model), MatrixF(16, 16)}) {
      Device dev;
      et::core::ExecContext ctx(dev);
      EXPECT_THROW((void)et::nn::encoder_forward(ctx, x, w, opt),
                   std::invalid_argument)
          << to_string(pipeline);
      EXPECT_EQ(dev.launch_count(), 0u) << to_string(pipeline);
    }
  }
}

TEST(Encoder, MisShapedLayersAreRefusedBeforeAnyLaunch) {
  // encoder_forward and encoder_stack_forward run the same layer check
  // as nn::Model: a short layernorm vector or bias, or an FF weight of
  // the wrong width, is an invalid_argument naming the field — never a
  // read past the end of a vector.
  const auto model = tiny_model();
  const auto opt = et::nn::options_for(Pipeline::kET, model, 16);
  const MatrixF x(16, model.d_model);
  const auto broken = [&](int which) {
    auto w = et::nn::make_dense_encoder_weights(model, 12);
    if (which == 0) w.ln2_gamma.resize(8);
    if (which == 1) w.b_ff1.pop_back();
    if (which == 2) {
      w.w_ff2 = et::sparse::DenseWeight(MatrixF(model.d_model, model.d_ff / 2));
    }
    return w;
  };
  const char* const fields[] = {"ln2_gamma", "b_ff1", "W_FF2"};
  for (int which = 0; which < 3; ++which) {
    SCOPED_TRACE(fields[which]);
    const EncoderWeights w = broken(which);
    Device dev;
    et::core::ExecContext ctx(dev);
    try {
      (void)et::nn::encoder_forward(ctx, x, w, opt);
      ADD_FAILURE() << "encoder_forward accepted a mis-shaped layer";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(std::string("layer 0 ") +
                                           fields[which]),
                std::string::npos)
          << e.what();
    }
    // In a stack, the bad layer is named by its index, and the good
    // layer before it does not run either.
    const std::vector<EncoderWeights> stack = {
        et::nn::make_dense_encoder_weights(model, 13), w};
    try {
      (void)et::nn::encoder_stack_forward(ctx, x, stack, opt);
      ADD_FAILURE() << "encoder_stack_forward accepted a mis-shaped layer";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(std::string("layer 1 ") +
                                           fields[which]),
                std::string::npos)
          << e.what();
    }
    EXPECT_EQ(dev.launch_count(), 0u);
  }
}

TEST(Encoder, OptionsForSetsPaperPrecisions) {
  const auto model = tiny_model();
  EXPECT_EQ(et::nn::options_for(Pipeline::kModular, model, 16).attn.precision,
            et::numeric::Precision::kFp32);
  EXPECT_EQ(et::nn::options_for(Pipeline::kTensorRT, model, 16).attn.precision,
            et::numeric::Precision::kMixed);
  const auto et_opt = et::nn::options_for(Pipeline::kET, model, 16);
  EXPECT_EQ(et_opt.attn.precision, et::numeric::Precision::kPureFp16);
  EXPECT_TRUE(et_opt.attn.scale_before_multiply);
  EXPECT_FALSE(
      et::nn::options_for(Pipeline::kTensorRT, model, 16).attn
          .scale_before_multiply);
}

TEST(Positional, MatchesEquation1And2) {
  const auto pe = et::nn::positional_encoding(4, 8);
  EXPECT_FLOAT_EQ(pe(0, 0), 0.0f);  // sin(0)
  EXPECT_FLOAT_EQ(pe(0, 1), 1.0f);  // cos(0)
  EXPECT_NEAR(pe(1, 0), std::sin(1.0), 1e-6);
  EXPECT_NEAR(pe(1, 1), std::cos(1.0), 1e-6);
  EXPECT_NEAR(pe(2, 2), std::sin(2.0 / std::pow(10000.0, 2.0 / 8.0)), 1e-6);
}

}  // namespace
