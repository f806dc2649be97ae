#include "nn/encoder.hpp"

#include <random>
#include <stdexcept>
#include <string>
#include <utility>
#include <variant>

#include "kernels/elementwise.hpp"
#include "kernels/linear.hpp"
#include "nn/model.hpp"
#include "quant/quantize.hpp"
#include "tensor/random.hpp"

namespace et::nn {

namespace {

using numeric::Precision;

/// encoder_forward's tail under the FasterTransformer and E.T. pipelines.
constexpr LayerTailNames kEncoderTail{"residual_layernorm1", "ff1", "ff2",
                                      "residual_layernorm2"};

std::vector<float> small_random_vector(std::size_t n, std::uint64_t seed,
                                       float scale) {
  std::mt19937_64 rng(seed);
  std::normal_distribution<float> dist(0.0f, scale);
  std::vector<float> v(n);
  for (auto& x : v) x = dist(rng);
  return v;
}

/// The bias+GELU epilogue's host math: h(r, c) = GELU(h(r, c) + bias[c])
/// (tanh approximation), rounded to p's storage.
void apply_bias_gelu(tensor::MatrixF& h, const std::vector<float>& bias,
                     Precision p) {
  for (std::size_t r = 0; r < h.rows(); ++r) {
    for (std::size_t c = 0; c < h.cols(); ++c) {
      h(r, c) = numeric::round_to_storage(
          p, kernels::gelu_tanh(h(r, c) + bias[c]));
    }
  }
}

/// The (out × in) shape a weight computes with, whatever its format.
std::pair<std::size_t, std::size_t> shape_of(const sparse::AnyWeight& w) {
  return std::visit(
      [](const auto& v) -> std::pair<std::size_t, std::size_t> {
        using T = std::decay_t<decltype(v)>;
        if constexpr (std::is_same_v<T, sparse::RowPrunedWeight> ||
                      std::is_same_v<T, sparse::ColPrunedWeight>) {
          return {v.original_rows(), v.original_cols()};
        } else {
          return {v.rows(), v.cols()};
        }
      },
      w);
}

/// The baselines' MLP: FF1, its bias+GELU as separate kernels (modular)
/// or one fused epilogue kernel (TensorRT), FF2 and its bias kernel.
/// Returns the block output; `x` is the block input.
tensor::MatrixF mlp_block(core::ExecContext& ctx, const tensor::MatrixF& x,
                          const EncoderWeights& w, const EncoderOptions& opt) {
  gpusim::Device& dev = ctx.device();
  const Precision p = opt.attn.precision;
  const bool modular = opt.pipeline == Pipeline::kModular;
  kernels::LinearOptions lopt;
  lopt.precision = p;

  tensor::MatrixF h = kernels::linear(ctx, x, w.w_ff1, lopt, "ff1").y;
  if (modular) {
    kernels::add_bias(dev, h, w.b_ff1, p, "ff1_bias");
    kernels::gelu(dev, h, p, "gelu");
  } else {
    // TensorRT: bias+GELU fused into one epilogue kernel (still a global
    // round trip of the d_ff-wide activation).
    auto launch = dev.launch({.name = "ff1_bias_gelu",
                              .ctas = std::max<std::size_t>(1, h.size() / 4096),
                              .shared_bytes_per_cta = 0,
                              .pattern = gpusim::AccessPattern::kStreaming});
    launch.load_bytes(h.size() * numeric::storage_bytes(p));
    launch.store_bytes(h.size() * numeric::storage_bytes(p));
    launch.fp_ops(9 * h.size());
    launch.finish();
    if (!dev.traffic_only()) apply_bias_gelu(h, w.b_ff1, p);
  }

  tensor::MatrixF y = kernels::linear(ctx, h, w.w_ff2, lopt, "ff2").y;
  kernels::add_bias(dev, y, w.b_ff2, p,
                    modular ? "ff2_bias" : "ff2_bias_fused");
  return y;
}

}  // namespace

EncoderWeights make_dense_encoder_weights(const ModelConfig& cfg,
                                          std::uint64_t seed) {
  EncoderWeights w;
  core::AttentionConfig acfg;
  acfg.d_model = cfg.d_model;
  acfg.num_heads = cfg.num_heads;
  w.attn = core::make_dense_weights(acfg, seed);

  tensor::MatrixF ff1(cfg.d_ff, cfg.d_model), ff2(cfg.d_model, cfg.d_ff);
  tensor::fill_normal(ff1, seed + 11, 0.0f,
                      1.0f / std::sqrt(static_cast<float>(cfg.d_model)));
  tensor::fill_normal(ff2, seed + 12, 0.0f,
                      1.0f / std::sqrt(static_cast<float>(cfg.d_ff)));
  w.w_ff1 = sparse::DenseWeight(std::move(ff1));
  w.w_ff2 = sparse::DenseWeight(std::move(ff2));
  w.b_ff1 = small_random_vector(cfg.d_ff, seed + 13, 0.02f);
  w.b_ff2 = small_random_vector(cfg.d_model, seed + 14, 0.02f);
  w.ln1_gamma.assign(cfg.d_model, 1.0f);
  w.ln1_beta.assign(cfg.d_model, 0.0f);
  w.ln2_gamma.assign(cfg.d_model, 1.0f);
  w.ln2_beta.assign(cfg.d_model, 0.0f);
  return w;
}

tensor::MatrixF encoder_forward(core::ExecContext& ctx,
                                const tensor::MatrixF& x,
                                const EncoderWeights& w,
                                const EncoderOptions& opt) {
  validate_layer(w, 0, opt.attn, "nn::encoder_forward");
  gpusim::Device& dev = ctx.device();
  const Precision p = opt.attn.precision;

  // --- self-attention --- (every operator rejects an x that is not
  // seq_len × d_model before its first launch)
  tensor::MatrixF attn_out;
  switch (opt.pipeline) {
    case Pipeline::kModular:
      attn_out = core::modular_attention(ctx, x, w.attn, opt.attn);
      break;
    case Pipeline::kTensorRT:
      attn_out = core::fused_attention(ctx, x, w.attn, opt.attn,
                                       /*aggressive_fusion=*/false);
      break;
    case Pipeline::kFasterTransformer:
      attn_out = core::fused_attention(ctx, x, w.attn, opt.attn,
                                       /*aggressive_fusion=*/true);
      break;
    case Pipeline::kET:
      attn_out = core::adaptive_attention(ctx, x, w.attn, opt.attn,
                                          opt.adaptive);
      break;
  }

  if (opt.pipeline == Pipeline::kFasterTransformer ||
      opt.pipeline == Pipeline::kET) {
    return layer_tail(ctx, std::move(attn_out), x, w, nullptr, p, kEncoderTail);
  }

  // The baselines: residual and layernorm as separate kernels.
  kernels::residual_add(dev, attn_out, x, p, "attn_residual");
  kernels::layernorm(dev, attn_out, w.ln1_gamma, w.ln1_beta, 1e-5f, p,
                     "layernorm1");
  tensor::MatrixF mlp_out = mlp_block(ctx, attn_out, w, opt);
  kernels::residual_add(dev, mlp_out, attn_out, p, "mlp_residual");
  kernels::layernorm(dev, mlp_out, w.ln2_gamma, w.ln2_beta, 1e-5f, p,
                     "layernorm2");
  return mlp_out;
}

tensor::MatrixF layer_tail(core::ExecContext& ctx, tensor::MatrixF attn,
                           const tensor::MatrixF& x, const EncoderWeights& w,
                           const QuantizedLayer* ql, Precision p,
                           const LayerTailNames& names) {
  gpusim::Device& dev = ctx.device();
  kernels::LinearOptions lopt;
  lopt.precision = p;
  kernels::fused_residual_layernorm(dev, attn, x, w.ln1_gamma, w.ln1_beta, p,
                                    names.ln1);
  // bias+GELU and the FF2 bias ride the GEMM epilogues: zero extra
  // kernels, zero extra global traffic (the activation is transformed in
  // registers before the store the GEMM performs anyway).
  tensor::MatrixF h =
      ql != nullptr ? quant::int8_linear(ctx, attn, ql->ff1, names.ff1)
                    : kernels::linear(ctx, attn, w.w_ff1, lopt, names.ff1).y;
  if (!dev.traffic_only()) apply_bias_gelu(h, w.b_ff1, p);
  tensor::MatrixF y =
      ql != nullptr ? quant::int8_linear(ctx, h, ql->ff2, names.ff2)
                    : kernels::linear(ctx, h, w.w_ff2, lopt, names.ff2).y;
  if (!dev.traffic_only()) {
    for (std::size_t r = 0; r < y.rows(); ++r) {
      for (std::size_t c = 0; c < y.cols(); ++c) {
        y(r, c) = numeric::round_to_storage(p, y(r, c) + w.b_ff2[c]);
      }
    }
  }
  kernels::fused_residual_layernorm(dev, y, attn, w.ln2_gamma, w.ln2_beta, p,
                                    names.ln2);
  return y;
}

void validate_layer(const EncoderWeights& w, std::size_t layer,
                    const core::AttentionConfig& cfg, std::string_view who) {
  const std::size_t d = cfg.d_model;
  const std::size_t heads = cfg.num_heads;
  const auto refuse = [&](const std::string& what) {
    throw std::invalid_argument(std::string(who) + ": layer " +
                                std::to_string(layer) + " " + what);
  };
  const auto weight = [&](const char* name, const sparse::AnyWeight& x,
                          std::size_t rows, std::size_t cols) {
    const auto [r, c] = shape_of(x);
    if (r != rows || c != cols) {
      refuse(std::string(name) + " is " + std::to_string(r) + "x" +
             std::to_string(c) + ", want " + std::to_string(rows) + "x" +
             std::to_string(cols));
    }
  };
  const auto vec = [&](const char* name, const std::vector<float>& v,
                       std::size_t n) {
    if (v.size() != n) {
      refuse(std::string(name) + " has " + std::to_string(v.size()) +
             " values, want " + std::to_string(n));
    }
  };
  weight("W_Q", w.attn.wq, d, d);
  weight("W_K", w.attn.wk, d, d);
  weight("W_V", w.attn.wv, d, d);
  weight("W_O", w.attn.wo, d, d);
  const std::size_t d_ff = shape_of(w.w_ff1).first;
  weight("W_FF1", w.w_ff1, d_ff, d);
  weight("W_FF2", w.w_ff2, d, d_ff);
  vec("b_ff1", w.b_ff1, d_ff);
  vec("b_ff2", w.b_ff2, d);
  vec("ln1_gamma", w.ln1_gamma, d);
  vec("ln1_beta", w.ln1_beta, d);
  vec("ln2_gamma", w.ln2_gamma, d);
  vec("ln2_beta", w.ln2_beta, d);
  if (w.attn.has_precomputed()) {
    // The fold must agree with the attention config before any cache is
    // sized from it; its kept columns index the d-wide output.
    const core::PrecomputedVO& vo = w.attn.vo;
    if (vo.num_heads != heads || vo.weight.cols() != d ||
        vo.weight.rows() != heads * vo.kept() || vo.kept() == 0) {
      refuse("W_VO shape disagrees with the attention config");
    }
    if (!sparse::kept_in_order(vo.kept_cols, d)) {
      refuse("W_VO kept columns out of range or out of order");
    }
  }
}

tensor::MatrixF encoder_stack_forward(core::ExecContext& ctx,
                                      const tensor::MatrixF& x,
                                      const std::vector<EncoderWeights>& layers,
                                      const EncoderOptions& opt) {
  for (std::size_t l = 0; l < layers.size(); ++l) {
    validate_layer(layers[l], l, opt.attn, "nn::encoder_stack_forward");
  }
  tensor::MatrixF h = x;
  for (const auto& layer : layers) h = encoder_forward(ctx, h, layer, opt);
  return h;
}

EncoderOptions options_for(Pipeline pipeline, const ModelConfig& model,
                           std::size_t seq_len, bool causal_mask) {
  EncoderOptions opt;
  opt.pipeline = pipeline;
  opt.attn.seq_len = seq_len;
  opt.attn.d_model = model.d_model;
  opt.attn.num_heads = model.num_heads;
  opt.attn.causal_mask = causal_mask;
  switch (pipeline) {
    case Pipeline::kModular:
      // PyTorch default: FP32 general-core math, scale applied after QKᵀ.
      opt.attn.precision = Precision::kFp32;
      opt.attn.scale_before_multiply = false;
      break;
    case Pipeline::kTensorRT:
    case Pipeline::kFasterTransformer:
      // Mixed precision (FP32 accumulate) — required without the §3.3
      // reorder to dodge FP16 overflow.
      opt.attn.precision = Precision::kMixed;
      opt.attn.scale_before_multiply = false;
      break;
    case Pipeline::kET:
      // Pure FP16 enabled by the scale reorder.
      opt.attn.precision = Precision::kPureFp16;
      opt.attn.scale_before_multiply = true;
      break;
  }
  return opt;
}

}  // namespace et::nn
