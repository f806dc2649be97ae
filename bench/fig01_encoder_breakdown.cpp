// Figure 1: per-component time of one encoder layer — the TensorRT-like
// baseline vs E.T. with attention-aware pruning at 80% — on the
// WikiText-2 Transformer configuration (d=800, H=4) at seq = 128.
//
// Expected shape (paper): E.T. cuts the whole encoder ~2.5× and the
// self-attention block ~2.9×.
#include "bench_common.hpp"
#include "gpusim/device.hpp"
#include "nn/encoder.hpp"
#include "pruning/strategy.hpp"
#include "train/model.hpp"

namespace {

struct Breakdown {
  double attention = 0.0;  // projections + attention kernels + output
  double mlp = 0.0;        // ff1/ff2 + activation
  double norm = 0.0;       // residual + layernorm
  [[nodiscard]] double total() const { return attention + mlp + norm; }
};

Breakdown run(et::nn::Pipeline p, const et::nn::EncoderWeights& w,
              const et::nn::ModelConfig& model) {
  et::gpusim::Device dev;
  et::core::ExecContext ctx(dev);
  dev.set_traffic_only(true);
  et::tensor::MatrixF x(128, model.d_model);
  (void)et::nn::encoder_forward(ctx, x, w,
                                et::nn::options_for(p, model, 128));
  Breakdown b;
  for (const auto& k : dev.history()) {
    if (k.name.view().find("ff") != std::string::npos ||
        k.name.view().find("gelu") != std::string::npos) {
      b.mlp += k.time_us;
    } else if (k.name.view().find("residual") != std::string::npos ||
               k.name.view().find("layernorm") != std::string::npos) {
      b.norm += k.time_us;
    } else {
      b.attention += k.time_us;
    }
  }
  return b;
}

}  // namespace

int main(int argc, char** argv) {
  const bool csv = et::bench::csv_mode(argc, argv);
  et::nn::ModelConfig model = et::nn::transformer_wikitext();

  // Baseline: dense TensorRT-like encoder.
  const auto dense = et::nn::make_dense_encoder_weights(model, 1);
  const Breakdown trt = run(et::nn::Pipeline::kTensorRT, dense, model);

  // E.T.: attention-aware pruning at 80%.
  et::train::TrainModelConfig tcfg;
  tcfg.vocab_size = 64;
  tcfg.d_model = model.d_model;
  tcfg.num_heads = model.num_heads;
  tcfg.d_ff = model.d_ff;
  tcfg.num_layers = 1;
  et::train::TransformerModel trainable(tcfg, 99);
  const auto masks = et::pruning::compute_layer_masks(
      trainable.layers()[0], et::pruning::Strategy::kAttentionAware, 0.8);
  const auto pruned = et::pruning::deploy_layer(
      trainable.layers()[0], masks, et::pruning::Strategy::kAttentionAware);
  const Breakdown ours = run(et::nn::Pipeline::kET, pruned, model);

  std::printf("Figure 1 — encoder component breakdown, Transformer "
              "(d=800, H=4), seq=128, E.T. pruned 80%% "
              "(paper: encoder 2.5x, attention 2.9x)\n\n");
  et::bench::Table table(
      {"component", "TensorRT_us", "ET_us", "speedup"}, csv);
  table.add_row({"self-attention", et::bench::fmt(trt.attention, 1),
                 et::bench::fmt(ours.attention, 1),
                 et::bench::fmt_ratio(trt.attention / ours.attention)});
  table.add_row({"MLP", et::bench::fmt(trt.mlp, 1),
                 et::bench::fmt(ours.mlp, 1),
                 et::bench::fmt_ratio(trt.mlp / ours.mlp)});
  table.add_row({"residual+layernorm", et::bench::fmt(trt.norm, 1),
                 et::bench::fmt(ours.norm, 1),
                 et::bench::fmt_ratio(trt.norm / ours.norm)});
  table.add_row({"TOTAL", et::bench::fmt(trt.total(), 1),
                 et::bench::fmt(ours.total(), 1),
                 et::bench::fmt_ratio(trt.total() / ours.total())});
  table.print();
  return 0;
}
