// Extensions beyond the paper's evaluation: serialization round trips,
// the §7 folded-attention training layer, and other-hardware behaviour.
#include <gtest/gtest.h>

#include <sstream>

#include "core/attention.hpp"
#include "nn/serialize.hpp"
#include "pruning/strategy.hpp"
#include "tensor/compare.hpp"
#include "tensor/random.hpp"
#include "train/folded_attention.hpp"
#include "train/model.hpp"

namespace {

using et::tensor::MatrixF;

et::nn::ModelConfig tiny_model() {
  et::nn::ModelConfig cfg;
  cfg.name = "tiny";
  cfg.num_layers = 2;
  cfg.d_model = 32;
  cfg.num_heads = 2;
  cfg.d_ff = 64;
  return cfg;
}

// ------------------------------------------------------- serialization ----

TEST(Serialize, DenseRoundTrip) {
  const auto w = et::nn::make_dense_encoder_weights(tiny_model(), 3);
  std::stringstream ss;
  et::nn::save_encoder_stack(ss, {w});
  const auto loaded = et::nn::load_encoder_stack(ss);
  ASSERT_EQ(loaded.size(), 1u);
  EXPECT_TRUE(allclose(to_dense(loaded[0].attn.wq), to_dense(w.attn.wq), 0.0,
                       0.0));
  EXPECT_TRUE(allclose(to_dense(loaded[0].w_ff2), to_dense(w.w_ff2), 0.0,
                       0.0));
  EXPECT_EQ(loaded[0].b_ff1, w.b_ff1);
  EXPECT_EQ(loaded[0].ln2_gamma, w.ln2_gamma);
}

TEST(Serialize, PrunedFormatsRoundTripExactly) {
  et::train::TrainModelConfig cfg;
  cfg.vocab_size = 32;
  cfg.d_model = 64;
  cfg.num_heads = 4;
  cfg.d_ff = 128;
  cfg.num_layers = 1;
  et::train::TransformerModel model(cfg, 4);

  for (const auto strategy :
       {et::pruning::Strategy::kIrregular, et::pruning::Strategy::kColumn,
        et::pruning::Strategy::kTile,
        et::pruning::Strategy::kAttentionAware}) {
    const auto masks = et::pruning::compute_layer_masks(model.layers()[0],
                                                        strategy, 0.5);
    const auto w =
        et::pruning::deploy_layer(model.layers()[0], masks, strategy);
    std::stringstream ss;
    et::nn::save_encoder_stack(ss, {w});
    const auto loaded = et::nn::load_encoder_stack(ss);
    ASSERT_EQ(loaded.size(), 1u);
    // The format survives, not just the values.
    EXPECT_EQ(method_of(loaded[0].attn.wq), method_of(w.attn.wq))
        << to_string(strategy);
    EXPECT_EQ(method_of(loaded[0].attn.wv), method_of(w.attn.wv));
    EXPECT_TRUE(allclose(to_dense(loaded[0].attn.wv), to_dense(w.attn.wv),
                         0.0, 0.0));
    EXPECT_TRUE(allclose(to_dense(loaded[0].attn.wo), to_dense(w.attn.wo),
                         0.0, 0.0));
    EXPECT_NEAR(pruning_ratio(loaded[0].attn.wq),
                pruning_ratio(w.attn.wq), 1e-12);
  }
}

TEST(Serialize, PrecomputedVoRoundTrip) {
  et::train::TrainModelConfig cfg;
  cfg.vocab_size = 32;
  cfg.d_model = 64;
  cfg.num_heads = 4;
  cfg.d_ff = 128;
  cfg.num_layers = 1;
  et::train::TransformerModel model(cfg, 5);
  et::pruning::StrategyOptions opt;
  opt.precompute_vo = true;
  const auto masks = et::pruning::compute_layer_masks(
      model.layers()[0], et::pruning::Strategy::kAttentionAware, 0.5, opt);
  const auto w = et::pruning::deploy_layer(
      model.layers()[0], masks, et::pruning::Strategy::kAttentionAware, opt);
  ASSERT_TRUE(w.attn.has_precomputed());

  std::stringstream ss;
  et::nn::save_encoder_stack(ss, {w});
  const auto loaded = et::nn::load_encoder_stack(ss);
  ASSERT_TRUE(loaded[0].attn.has_precomputed());
  EXPECT_EQ(loaded[0].attn.vo.kept_cols, w.attn.vo.kept_cols);
  EXPECT_TRUE(allclose(loaded[0].attn.vo.weight, w.attn.vo.weight, 0.0, 0.0));
}

TEST(Serialize, RejectsGarbage) {
  std::stringstream ss;
  ss << "this is not an ETW file at all";
  EXPECT_THROW((void)et::nn::load_encoder_stack(ss), std::runtime_error);
}

TEST(Serialize, RejectsTruncation) {
  const auto w = et::nn::make_dense_encoder_weights(tiny_model(), 6);
  std::stringstream ss;
  et::nn::save_encoder_stack(ss, {w});
  const std::string full = ss.str();
  std::stringstream cut(full.substr(0, full.size() / 2));
  EXPECT_THROW((void)et::nn::load_encoder_stack(cut), std::runtime_error);
}

// ----------------------------------------------------- folded training ----

TEST(FoldedAttention, FoldReproducesStandardForward) {
  et::train::MultiHeadAttention mha(16, 2, 30, /*causal=*/true);
  // fold() requires zero V/O biases (documented).
  std::fill(mha.wv.bias.begin(), mha.wv.bias.end(), 0.0f);
  std::fill(mha.wo.bias.begin(), mha.wo.bias.end(), 0.0f);
  auto folded = et::train::FoldedMultiHeadAttention::fold(mha);

  MatrixF x(6, 16);
  et::tensor::fill_normal(x, 31);
  const MatrixF a = mha.forward(x);
  const MatrixF b = folded.forward(x);
  EXPECT_TRUE(allclose(b, a, 1e-4, 1e-4)) << max_abs_diff(a, b);
}

TEST(FoldedAttention, GradientCheckOnWvo) {
  et::train::FoldedMultiHeadAttention layer(16, 2, 32, /*causal=*/false);
  MatrixF x(5, 16);
  et::tensor::fill_normal(x, 33);
  MatrixF coeffs(5, 16);
  et::tensor::fill_normal(coeffs, 34);
  const auto loss = [&](const MatrixF& y) {
    float s = 0.0f;
    for (std::size_t i = 0; i < y.size(); ++i) {
      s += y.flat()[i] * coeffs.flat()[i];
    }
    return s;
  };

  layer.zero_grad();
  (void)layer.forward(x);
  (void)layer.backward(coeffs);

  const float eps = 1e-3f;
  for (const std::size_t i : {0u, 123u, 400u}) {
    const float orig = layer.wvo.w.flat()[i];
    layer.wvo.w.flat()[i] = orig + eps;
    const float up = loss(layer.forward(x));
    layer.wvo.w.flat()[i] = orig - eps;
    const float down = loss(layer.forward(x));
    layer.wvo.w.flat()[i] = orig;
    EXPECT_NEAR(layer.wvo.g.flat()[i], (up - down) / (2 * eps), 2e-2f)
        << "wvo entry " << i;
  }
}

TEST(FoldedAttention, TrainsToReduceLoss) {
  // Regress a fixed target through the folded layer alone.
  et::train::FoldedMultiHeadAttention layer(16, 2, 35, /*causal=*/false);
  MatrixF x(4, 16), target(4, 16);
  et::tensor::fill_normal(x, 36);
  et::tensor::fill_normal(target, 37, 0.0f, 0.3f);
  et::train::AdamW opt({.lr = 5e-3f, .weight_decay = 0.0f});

  float first = 0.0f, last = 0.0f;
  for (int step = 0; step < 40; ++step) {
    layer.zero_grad();
    const MatrixF y = layer.forward(x);
    MatrixF dy(4, 16);
    float loss = 0.0f;
    for (std::size_t i = 0; i < y.size(); ++i) {
      const float diff = y.flat()[i] - target.flat()[i];
      loss += diff * diff;
      dy.flat()[i] = 2.0f * diff;
    }
    (void)layer.backward(dy);
    std::vector<et::train::Param*> params;
    layer.collect(params);
    opt.step(params);
    if (step == 0) first = loss;
    last = loss;
  }
  EXPECT_LT(last, 0.2f * first) << first << " -> " << last;
}

TEST(FoldedAttention, ParameterCountIsHTimesD2) {
  et::train::FoldedMultiHeadAttention layer(32, 4, 38, true);
  EXPECT_EQ(layer.wvo.w.rows(), 4u * 32u);
  EXPECT_EQ(layer.wvo.w.cols(), 32u);
}

// ------------------------------------------------------- other hardware ----

TEST(OtherHardware, A100FasterAndShiftsCrossover) {
  const auto model = tiny_model();
  const auto w = et::nn::make_dense_encoder_weights(model, 40);
  MatrixF x(64, model.d_model);
  const auto run = [&](const et::gpusim::DeviceSpec& spec) {
    et::gpusim::Device dev(spec);
    et::core::ExecContext ctx(dev);
    dev.set_traffic_only(true);
    (void)et::nn::encoder_forward(
        ctx, x, w, et::nn::options_for(et::nn::Pipeline::kET, model, 64));
    return dev.total_time_us();
  };
  EXPECT_LT(run(et::gpusim::a100()), run(et::gpusim::v100s()));
}

}  // namespace
