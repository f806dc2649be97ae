// Autoregressive generation end to end: train a small causal LM on the
// synthetic corpus, deploy it to the inference stack (optionally pruned),
// and generate greedily through the KV-cached incremental path. Because
// the corpus follows a successor table, a well-trained model should emit
// long stretches of the deterministic chain — easy to verify by eye.
//
//   $ ./examples/generate_text [num_tokens] [prune_ratio]
#include <cstdio>
#include <cstdlib>

#include "gpusim/device.hpp"
#include "nn/generation.hpp"
#include "nn/positional.hpp"
#include "pruning/strategy.hpp"
#include "train_harness.hpp"

int main(int argc, char** argv) {
  const std::size_t num_tokens =
      argc > 1 ? std::strtoul(argv[1], nullptr, 10) : 24;
  const double ratio = argc > 2 ? std::atof(argv[2]) : 0.0;

  // Train the LM.
  et::train::TrainModelConfig mcfg;
  mcfg.vocab_size = 96;
  mcfg.d_model = 128;
  mcfg.num_heads = 4;
  mcfg.d_ff = 256;
  mcfg.num_layers = 2;
  et::data::TextCorpusConfig ccfg;
  ccfg.vocab_size = 96;
  ccfg.num_train_sequences = 48;
  ccfg.num_valid_sequences = 8;
  ccfg.seq_len = 24;
  const et::data::SyntheticCorpus corpus(ccfg);
  et::train::TransformerLM lm(mcfg, 17);
  std::printf("training the LM (12 epochs)...\n");
  et::bench::train_lm_epochs(lm, corpus, 12, 1e-3f);
  std::printf("validation next-token accuracy: %.3f\n",
              et::bench::lm_accuracy(lm, corpus));

  // Deploy to the inference stack (tile masks; ratio 0 = dense).
  auto masks = et::pruning::compute_model_masks(
      lm.trunk, et::pruning::Strategy::kTile, ratio);
  if (ratio > 0.0) {
    et::pruning::attach_masks(lm.trunk, masks);
    et::bench::train_lm_epochs(lm, corpus, 4, 1e-3f);  // masked retrain
    std::printf("pruned at %.0f%%, retrained: accuracy %.3f\n", 100 * ratio,
                et::bench::lm_accuracy(lm, corpus));
  }
  const auto layers = et::pruning::deploy_model(lm.trunk, masks,
                                                et::pruning::Strategy::kTile);

  et::nn::ModelConfig model;
  model.num_layers = mcfg.num_layers;
  model.d_model = mcfg.d_model;
  model.num_heads = mcfg.num_heads;
  model.d_ff = mcfg.d_ff;
  auto opt = et::nn::options_for(et::nn::Pipeline::kET, model, 1, true);
  opt.attn.precision = et::numeric::Precision::kFp32;

  // Greedy generation through the KV-cached path. Note the deployed
  // inference stack has no attention biases, so logits differ slightly
  // from the training-side forward; greedy argmax is robust to that.
  et::gpusim::Device dev;
  et::core::ExecContext ctx(dev);
  et::nn::GenerationSession session(
      et::nn::Model(&layers, opt, num_tokens + 2));
  std::int32_t token = corpus.train()[0].tokens[0];
  std::printf("\ngenerated: %d", token);
  std::size_t followed_chain = 0;
  const et::tensor::MatrixF pe =
      et::nn::positional_encoding(num_tokens + 1, mcfg.d_model);
  for (std::size_t t = 0; t < num_tokens; ++t) {
    // Embed + positional encoding (matching the training-side pipeline).
    et::tensor::MatrixF row(1, mcfg.d_model);
    for (std::size_t c = 0; c < row.cols(); ++c) {
      row(0, c) = lm.trunk.embedding.table.w(token, c) + pe(t, c);
    }
    const et::tensor::MatrixF h = session.step(ctx, row);
    // LM head from the trained model.
    std::int32_t best = 0;
    float best_logit = -1e30f;
    for (std::size_t v = 0; v < mcfg.vocab_size; ++v) {
      float logit = lm.head.bias[v];
      for (std::size_t c = 0; c < h.cols(); ++c) {
        logit += h(0, c) * lm.head.weight.w(v, c);
      }
      if (logit > best_logit) {
        best_logit = logit;
        best = static_cast<std::int32_t>(v);
      }
    }
    followed_chain += (best == corpus.successor_table()[token]);
    token = best;
    std::printf(" -> %d", token);
  }
  std::printf("\n\n%zu / %zu transitions follow the corpus successor table "
              "(determinism %.2f)\n",
              followed_chain, num_tokens, ccfg.determinism);
  std::printf("generation cost: %.1f us total, %.2f us per token "
              "(%zu kernels)\n",
              dev.total_time_us(),
              dev.total_time_us() / static_cast<double>(num_tokens),
              dev.launch_count());
  return 0;
}
