// Extensions beyond the paper's evaluation: serialization round trips
// and other-hardware behaviour.
#include <gtest/gtest.h>

#include <sstream>

#include "core/attention.hpp"
#include "nn/serialize.hpp"
#include "pruning/strategy.hpp"
#include "tensor/compare.hpp"
#include "tensor/random.hpp"
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
