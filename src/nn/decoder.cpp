#include "nn/decoder.hpp"

#include <cassert>
#include <random>

#include "kernels/elementwise.hpp"
#include "kernels/linear.hpp"
#include "nn/reference.hpp"
#include "tensor/compare.hpp"
#include "tensor/random.hpp"

namespace et::nn {

namespace {

using numeric::Precision;

std::vector<float> random_bias(std::size_t n, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::normal_distribution<float> dist(0.0f, 0.02f);
  std::vector<float> v(n);
  for (auto& x : v) x = dist(rng);
  return v;
}

void apply_bias_gelu_host(tensor::MatrixF& h, const std::vector<float>& bias,
                          Precision p) {
  constexpr float kSqrt2OverPi = 0.7978845608028654f;
  for (std::size_t r = 0; r < h.rows(); ++r) {
    for (std::size_t c = 0; c < h.cols(); ++c) {
      const float v = h(r, c) + bias[c];
      const float inner = kSqrt2OverPi * (v + 0.044715f * v * v * v);
      h(r, c) = numeric::round_to_storage(
          p, 0.5f * v * (1.0f + std::tanh(inner)));
    }
  }
}

}  // namespace

DecoderWeights make_dense_decoder_weights(const ModelConfig& cfg,
                                          std::uint64_t seed) {
  DecoderWeights w;
  core::AttentionConfig acfg;
  acfg.d_model = cfg.d_model;
  acfg.num_heads = cfg.num_heads;
  w.self_attn = core::make_dense_weights(acfg, seed);
  w.cross_attn = core::make_dense_weights(acfg, seed + 1000);

  tensor::MatrixF ff1(cfg.d_ff, cfg.d_model), ff2(cfg.d_model, cfg.d_ff);
  tensor::fill_normal(ff1, seed + 2001, 0.0f,
                      1.0f / std::sqrt(static_cast<float>(cfg.d_model)));
  tensor::fill_normal(ff2, seed + 2002, 0.0f,
                      1.0f / std::sqrt(static_cast<float>(cfg.d_ff)));
  w.w_ff1 = sparse::DenseWeight(std::move(ff1));
  w.w_ff2 = sparse::DenseWeight(std::move(ff2));
  w.b_ff1 = random_bias(cfg.d_ff, seed + 2003);
  w.b_ff2 = random_bias(cfg.d_model, seed + 2004);
  w.ln1_gamma.assign(cfg.d_model, 1.0f);
  w.ln1_beta.assign(cfg.d_model, 0.0f);
  w.ln2_gamma.assign(cfg.d_model, 1.0f);
  w.ln2_beta.assign(cfg.d_model, 0.0f);
  w.ln3_gamma.assign(cfg.d_model, 1.0f);
  w.ln3_beta.assign(cfg.d_model, 0.0f);
  return w;
}

tensor::MatrixF decoder_forward(core::ExecContext& ctx,
                                const tensor::MatrixF& x,
                                const tensor::MatrixF& memory,
                                const DecoderWeights& w,
                                const EncoderOptions& opt) {
  gpusim::Device& dev = ctx.device();
  assert(x.rows() == opt.attn.seq_len && x.cols() == opt.attn.d_model);
  assert(memory.cols() == opt.attn.d_model);
  const Precision p = opt.attn.precision;

  // --- masked self-attention (always causal in a decoder) ---
  core::AttentionConfig self_cfg = opt.attn;
  self_cfg.causal_mask = true;
  tensor::MatrixF h = core::adaptive_attention(ctx, x, w.self_attn, self_cfg,
                                               opt.adaptive);
  kernels::fused_residual_layernorm(dev, h, x, w.ln1_gamma, w.ln1_beta, p,
                                    "dec_residual_layernorm1");

  // --- cross-attention over the encoder memory (never masked) ---
  core::AttentionConfig cross_cfg = opt.attn;
  cross_cfg.causal_mask = false;
  tensor::MatrixF c = core::adaptive_cross_attention(ctx, h, memory,
                                                     w.cross_attn, cross_cfg,
                                                     opt.adaptive);
  kernels::fused_residual_layernorm(dev, c, h, w.ln2_gamma, w.ln2_beta, p,
                                    "dec_residual_layernorm2");

  // --- MLP (bias+GELU and the second bias folded into GEMM epilogues,
  // as in the E.T./FasterTransformer encoder path) ---
  kernels::LinearOptions lopt;
  lopt.precision = p;
  tensor::MatrixF m = kernels::linear(ctx, c, w.w_ff1, lopt, "dec_ff1").y;
  if (!dev.traffic_only()) apply_bias_gelu_host(m, w.b_ff1, p);
  tensor::MatrixF y = kernels::linear(ctx, m, w.w_ff2, lopt, "dec_ff2").y;
  if (!dev.traffic_only()) {
    for (std::size_t r = 0; r < y.rows(); ++r) {
      for (std::size_t col = 0; col < y.cols(); ++col) {
        y(r, col) = numeric::round_to_storage(p, y(r, col) + w.b_ff2[col]);
      }
    }
  }
  kernels::fused_residual_layernorm(dev, y, c, w.ln3_gamma, w.ln3_beta, p,
                                    "dec_residual_layernorm3");
  return y;
}

tensor::MatrixF decoder_stack_forward(core::ExecContext& ctx,
                                      const tensor::MatrixF& x,
                                      const tensor::MatrixF& memory,
                                      const std::vector<DecoderWeights>& layers,
                                      const EncoderOptions& opt) {
  tensor::MatrixF h = x;
  for (const auto& layer : layers) {
    h = decoder_forward(ctx, h, memory, layer, opt);
  }
  return h;
}

tensor::MatrixF seq2seq_forward(core::ExecContext& ctx,
                                const tensor::MatrixF& source,
                                const tensor::MatrixF& target,
                                const std::vector<EncoderWeights>& encoder_layers,
                                const std::vector<DecoderWeights>& decoder_layers,
                                const EncoderOptions& encoder_opt,
                                const EncoderOptions& decoder_opt) {
  const tensor::MatrixF memory =
      encoder_stack_forward(ctx, source, encoder_layers, encoder_opt);
  return decoder_stack_forward(ctx, target, memory, decoder_layers,
                               decoder_opt);
}

tensor::MatrixF reference_decoder(const tensor::MatrixF& x,
                                  const tensor::MatrixF& memory,
                                  const DecoderWeights& w,
                                  const core::AttentionConfig& cfg) {
  const auto layernorm_host = [](tensor::MatrixF& m,
                                 const std::vector<float>& gamma,
                                 const std::vector<float>& beta) {
    for (std::size_t r = 0; r < m.rows(); ++r) {
      double mean = 0.0;
      for (std::size_t c = 0; c < m.cols(); ++c) mean += m(r, c);
      mean /= static_cast<double>(m.cols());
      double var = 0.0;
      for (std::size_t c = 0; c < m.cols(); ++c) {
        const double d = m(r, c) - mean;
        var += d * d;
      }
      var /= static_cast<double>(m.cols());
      const double inv = 1.0 / std::sqrt(var + 1e-5);
      for (std::size_t c = 0; c < m.cols(); ++c) {
        m(r, c) = static_cast<float>((m(r, c) - mean) * inv * gamma[c] +
                                     beta[c]);
      }
    }
  };

  core::AttentionConfig self_cfg = cfg;
  self_cfg.causal_mask = true;
  tensor::MatrixF h = reference_attention(x, w.self_attn, self_cfg);
  for (std::size_t i = 0; i < h.size(); ++i) h.flat()[i] += x.flat()[i];
  layernorm_host(h, w.ln1_gamma, w.ln1_beta);

  core::AttentionConfig cross_cfg = cfg;
  cross_cfg.causal_mask = false;
  tensor::MatrixF c = reference_cross_attention(h, memory, w.cross_attn,
                                                cross_cfg);
  for (std::size_t i = 0; i < c.size(); ++i) c.flat()[i] += h.flat()[i];
  layernorm_host(c, w.ln2_gamma, w.ln2_beta);

  // MLP in float (the reference attention path already bounds the error).
  EncoderWeights mlp_only;
  mlp_only.w_ff1 = w.w_ff1;
  mlp_only.w_ff2 = w.w_ff2;
  const auto& ff1 = sparse::to_dense(w.w_ff1);
  const auto& ff2 = sparse::to_dense(w.w_ff2);
  tensor::MatrixF m(c.rows(), ff1.rows());
  for (std::size_t r = 0; r < c.rows(); ++r) {
    for (std::size_t j = 0; j < ff1.rows(); ++j) {
      double acc = w.b_ff1[j];
      for (std::size_t k = 0; k < c.cols(); ++k) {
        acc += static_cast<double>(c(r, k)) * static_cast<double>(ff1(j, k));
      }
      const double inner =
          0.7978845608028654 * (acc + 0.044715 * acc * acc * acc);
      m(r, j) = static_cast<float>(0.5 * acc * (1.0 + std::tanh(inner)));
    }
  }
  tensor::MatrixF y(c.rows(), ff2.rows());
  for (std::size_t r = 0; r < c.rows(); ++r) {
    for (std::size_t j = 0; j < ff2.rows(); ++j) {
      double acc = w.b_ff2[j];
      for (std::size_t k = 0; k < m.cols(); ++k) {
        acc += static_cast<double>(m(r, k)) * static_cast<double>(ff2(j, k));
      }
      y(r, j) = static_cast<float>(acc + c(r, j));
    }
  }
  layernorm_host(y, w.ln3_gamma, w.ln3_beta);
  return y;
}

}  // namespace et::nn
