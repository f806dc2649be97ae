#include "nn/reference.hpp"

#include <cmath>
#include <limits>
#include <vector>

namespace et::nn {

namespace {

/// y = x · wᵀ in double.
tensor::MatrixD gemm_nt_d(const tensor::MatrixD& x, const tensor::MatrixD& w) {
  tensor::MatrixD y(x.rows(), w.rows());
  for (std::size_t i = 0; i < x.rows(); ++i) {
    for (std::size_t j = 0; j < w.rows(); ++j) {
      double acc = 0.0;
      for (std::size_t k = 0; k < x.cols(); ++k) acc += x(i, k) * w(j, k);
      y(i, j) = acc;
    }
  }
  return y;
}

tensor::MatrixD widen(const tensor::MatrixF& m) {
  tensor::MatrixD d(m.rows(), m.cols());
  for (std::size_t i = 0; i < m.size(); ++i) {
    d.flat()[i] = static_cast<double>(m.flat()[i]);
  }
  return d;
}

tensor::MatrixF narrow(const tensor::MatrixD& m) {
  tensor::MatrixF f(m.rows(), m.cols());
  for (std::size_t i = 0; i < m.size(); ++i) {
    f.flat()[i] = static_cast<float>(m.flat()[i]);
  }
  return f;
}

tensor::MatrixD attention_d(const tensor::MatrixD& x,
                            const core::AttentionWeights& w,
                            const core::AttentionConfig& cfg) {
  const std::size_t s = x.rows();
  const std::size_t d = cfg.d_model;
  const std::size_t dk = cfg.d_k();
  const double scale = 1.0 / std::sqrt(static_cast<double>(dk));

  const tensor::MatrixD wq = widen(sparse::to_dense(w.wq));
  const tensor::MatrixD wk = widen(sparse::to_dense(w.wk));
  const tensor::MatrixD wv = widen(sparse::to_dense(w.wv));
  const tensor::MatrixD wo = widen(sparse::to_dense(w.wo));

  const tensor::MatrixD q = gemm_nt_d(x, wq);
  const tensor::MatrixD k = gemm_nt_d(x, wk);
  const tensor::MatrixD v = gemm_nt_d(x, wv);

  tensor::MatrixD z(s, d);
  std::vector<double> scores(s);
  for (std::size_t h = 0; h < cfg.num_heads; ++h) {
    for (std::size_t i = 0; i < s; ++i) {
      for (std::size_t j = 0; j < s; ++j) {
        double acc = 0.0;
        for (std::size_t c = 0; c < dk; ++c) {
          acc += q(i, h * dk + c) * k(j, h * dk + c);
        }
        scores[j] = acc * scale;
      }
      if (cfg.causal_mask) {
        for (std::size_t j = i + 1; j < s; ++j) {
          scores[j] = -std::numeric_limits<double>::infinity();
        }
      }
      double mx = -std::numeric_limits<double>::infinity();
      for (double v2 : scores) mx = std::max(mx, v2);
      double sum = 0.0;
      for (auto& v2 : scores) {
        v2 = std::exp(v2 - mx);
        sum += v2;
      }
      for (auto& v2 : scores) v2 /= sum;
      for (std::size_t c = 0; c < dk; ++c) {
        double acc = 0.0;
        for (std::size_t j = 0; j < s; ++j) {
          acc += scores[j] * v(j, h * dk + c);
        }
        z(i, h * dk + c) = acc;
      }
    }
  }
  return gemm_nt_d(z, wo);
}

void layernorm_d(tensor::MatrixD& m, const std::vector<float>& gamma,
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
      m(r, c) = (m(r, c) - mean) * inv * gamma[c] + beta[c];
    }
  }
}

}  // namespace

tensor::MatrixF reference_attention(const tensor::MatrixF& x,
                                    const core::AttentionWeights& w,
                                    const core::AttentionConfig& cfg) {
  return narrow(attention_d(widen(x), w, cfg));
}

tensor::MatrixF reference_encoder(const tensor::MatrixF& x,
                                  const EncoderWeights& w,
                                  const core::AttentionConfig& cfg) {
  const tensor::MatrixD xd = widen(x);
  tensor::MatrixD attn = attention_d(xd, w.attn, cfg);
  for (std::size_t i = 0; i < attn.size(); ++i) attn.flat()[i] += xd.flat()[i];
  layernorm_d(attn, w.ln1_gamma, w.ln1_beta);

  const tensor::MatrixD ff1 = widen(sparse::to_dense(w.w_ff1));
  const tensor::MatrixD ff2 = widen(sparse::to_dense(w.w_ff2));
  tensor::MatrixD h = gemm_nt_d(attn, ff1);
  constexpr double kSqrt2OverPi = 0.7978845608028654;
  for (std::size_t r = 0; r < h.rows(); ++r) {
    for (std::size_t c = 0; c < h.cols(); ++c) {
      const double v = h(r, c) + static_cast<double>(w.b_ff1[c]);
      const double inner = kSqrt2OverPi * (v + 0.044715 * v * v * v);
      h(r, c) = 0.5 * v * (1.0 + std::tanh(inner));
    }
  }
  tensor::MatrixD y = gemm_nt_d(h, ff2);
  for (std::size_t r = 0; r < y.rows(); ++r) {
    for (std::size_t c = 0; c < y.cols(); ++c) {
      y(r, c) += static_cast<double>(w.b_ff2[c]) + attn(r, c);
    }
  }
  layernorm_d(y, w.ln2_gamma, w.ln2_beta);
  return narrow(y);
}

}  // namespace et::nn
