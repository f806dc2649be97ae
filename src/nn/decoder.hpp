// Transformer decoder layer and stack. The paper evaluates encoder-only
// models, but notes (§2.1) that decoders share the same structure —
// masked self-attention, cross-attention over the encoder memory, MLP —
// and that GPT-style models are decoder stacks. The decoder runs on the
// same E.T. operators: adaptive self-attention (causal) plus the OTF or
// flash cross-attention kernel, chosen by the same rule, with all weights
// prunable.
#pragma once

#include "core/adaptive.hpp"
#include "nn/encoder.hpp"

namespace et::nn {

struct DecoderWeights {
  core::AttentionWeights self_attn;
  core::AttentionWeights cross_attn;
  sparse::AnyWeight w_ff1;
  sparse::AnyWeight w_ff2;
  std::vector<float> b_ff1, b_ff2;
  std::vector<float> ln1_gamma, ln1_beta;  // after self-attention
  std::vector<float> ln2_gamma, ln2_beta;  // after cross-attention
  std::vector<float> ln3_gamma, ln3_beta;  // after MLP
};

[[nodiscard]] DecoderWeights make_dense_decoder_weights(
    const ModelConfig& cfg, std::uint64_t seed);

/// LN(x + SelfAttn(x)) -> LN(· + CrossAttn(·, memory)) -> LN(· + MLP(·)).
/// Self-attention is causal regardless of opt.attn.causal_mask (decoders
/// are autoregressive); cross-attention is never masked.
[[nodiscard]] tensor::MatrixF decoder_forward(core::ExecContext& ctx,
                                              const tensor::MatrixF& x,
                                              const tensor::MatrixF& memory,
                                              const DecoderWeights& w,
                                              const EncoderOptions& opt);

[[nodiscard]] tensor::MatrixF decoder_stack_forward(
    core::ExecContext& ctx, const tensor::MatrixF& x,
    const tensor::MatrixF& memory, const std::vector<DecoderWeights>& layers,
    const EncoderOptions& opt);

/// Full sequence-to-sequence forward: encoder stack over the source, then
/// decoder stack over the target attending to the encoder output.
[[nodiscard]] tensor::MatrixF seq2seq_forward(
    core::ExecContext& ctx, const tensor::MatrixF& source,
    const tensor::MatrixF& target,
    const std::vector<EncoderWeights>& encoder_layers,
    const std::vector<DecoderWeights>& decoder_layers,
    const EncoderOptions& encoder_opt, const EncoderOptions& decoder_opt);

/// Double-precision host reference for one decoder layer (test oracle).
[[nodiscard]] tensor::MatrixF reference_decoder(const tensor::MatrixF& x,
                                                const tensor::MatrixF& memory,
                                                const DecoderWeights& w,
                                                const core::AttentionConfig& cfg);

}  // namespace et::nn
