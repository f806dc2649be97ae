// One transformer encoder layer (Fig. 1) on the simulated device, plus the
// stacked model. Four pipeline styles mirror the systems the paper
// benchmarks against each other in Figure 7:
//
//   kModular           — PyTorch-like: one kernel per op, FP32.
//   kTensorRT          — fused pointwise ops, batched GEMMs, FP16.
//   kFasterTransformer — like TensorRT with more aggressive fusion and an
//                        autotuned GEMM choice.
//   kET                — this paper: adaptive attention dispatch (the
//                        five-way flash / otf / partial_otf / fused /
//                        modular switch in core::adaptive, governed by
//                        EncoderOptions::adaptive — including a forced
//                        operator override), pre-computed linear
//                        transformation when weights provide it,
//                        pruned-format linears, pure FP16.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "core/adaptive.hpp"
#include "core/attention.hpp"
#include "core/exec_context.hpp"
#include "core/weights.hpp"
#include "gpusim/device.hpp"
#include "nn/model_config.hpp"
#include "sparse/formats.hpp"

namespace et::nn {

enum class Pipeline { kModular, kTensorRT, kFasterTransformer, kET };

[[nodiscard]] constexpr std::string_view to_string(Pipeline p) noexcept {
  switch (p) {
    case Pipeline::kModular: return "PyTorch";
    case Pipeline::kTensorRT: return "TensorRT";
    case Pipeline::kFasterTransformer: return "FasterTransformer";
    case Pipeline::kET: return "E.T.";
  }
  return "?";
}

struct EncoderWeights {
  core::AttentionWeights attn;
  sparse::AnyWeight w_ff1;  ///< (d_ff × d_model)
  sparse::AnyWeight w_ff2;  ///< (d_model × d_ff)
  std::vector<float> b_ff1;
  std::vector<float> b_ff2;
  std::vector<float> ln1_gamma, ln1_beta;
  std::vector<float> ln2_gamma, ln2_beta;
};

struct EncoderOptions {
  core::AttentionConfig attn;
  Pipeline pipeline = Pipeline::kET;
  /// E.T. operator selection (the forced override; unset, the latency
  /// model decides), consumed by adaptive_attention under kET.
  core::AdaptivePolicy adaptive;
};

/// Dense random-initialized encoder weights (deterministic).
[[nodiscard]] EncoderWeights make_dense_encoder_weights(
    const ModelConfig& cfg, std::uint64_t seed);

/// Check every shape a forward indexes by against `cfg` (d = d_model):
/// W_Q/W_K/W_V/W_O d × d, W_FF1 f × d, W_FF2 d × f, b_ff1 f, b_ff2 d,
/// the four layernorm vectors d, and a W_VO fold's shape and kept
/// columns. Throws std::invalid_argument "<who>: layer <layer> <field>
/// ...". nn::Model runs it on every layer at construction, and
/// encoder_forward / encoder_stack_forward before their first launch.
void validate_layer(const EncoderWeights& w, std::size_t layer,
                    const core::AttentionConfig& cfg, std::string_view who);

struct QuantizedLayer;  // nn/model.hpp

/// Kernel names of layer_tail's four launches, in launch order. The
/// callers pass constants, so no name is built per call.
struct LayerTailNames {
  std::string_view ln1, ff1, ff2, ln2;
};

/// Everything a layer runs after its attention, with the fusion
/// FasterTransformer and E.T. share (§5, Fig. 1), over any number of
/// rows: attn = LN1(attn + x) in one fused kernel; FF1 with bias+GELU in
/// its GEMM epilogue; FF2 with its bias in the epilogue; then
/// LN2(· + attn) in one fused kernel, which is returned. A non-null `ql`
/// runs both FF GEMMs as quant::int8_linear on its ff1/ff2. The layer's
/// shapes are the caller's to check (validate_layer, nn::Model).
[[nodiscard]] tensor::MatrixF layer_tail(core::ExecContext& ctx,
                                         tensor::MatrixF attn,
                                         const tensor::MatrixF& x,
                                         const EncoderWeights& w,
                                         const QuantizedLayer* ql,
                                         numeric::Precision p,
                                         const LayerTailNames& names);

/// Forward one encoder layer: LN(x + Attn(x)) -> LN(y + MLP(y)). The
/// layer is validated (as layer 0) before anything launches.
[[nodiscard]] tensor::MatrixF encoder_forward(core::ExecContext& ctx,
                                              const tensor::MatrixF& x,
                                              const EncoderWeights& w,
                                              const EncoderOptions& opt);

/// Forward a stack of identical-shape layers; every layer is validated
/// before the first launch.
[[nodiscard]] tensor::MatrixF encoder_stack_forward(
    core::ExecContext& ctx, const tensor::MatrixF& x,
    const std::vector<EncoderWeights>& layers, const EncoderOptions& opt);

/// Build the EncoderOptions a given pipeline conventionally runs with
/// (precision, scale reordering, adaptive policy) for a model config.
[[nodiscard]] EncoderOptions options_for(Pipeline pipeline,
                                         const ModelConfig& model,
                                         std::size_t seq_len,
                                         bool causal_mask = false);

}  // namespace et::nn
