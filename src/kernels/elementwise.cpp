#include "kernels/elementwise.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

namespace et::kernels {

namespace {

using numeric::Precision;

constexpr std::size_t ceil_div(std::size_t a, std::size_t b) {
  return (a + b - 1) / b;
}

/// A streaming elementwise kernel over `elems` elements with `reads`
/// input streams and `writes` output streams.
gpusim::Launch stream_launch(gpusim::Device& dev, std::string_view name,
                             std::size_t elems, Precision p,
                             std::size_t reads, std::size_t writes,
                             std::uint64_t flops) {
  const std::size_t sb = numeric::storage_bytes(p);
  auto launch = dev.launch({.name = name,
                            .ctas = std::max<std::size_t>(
                                1, ceil_div(elems, std::size_t{4096})),
                            .shared_bytes_per_cta = 0,
                            .pattern = gpusim::AccessPattern::kStreaming});
  launch.load_bytes(elems * sb * reads);
  launch.store_bytes(elems * sb * writes);
  launch.fp_ops(flops);
  return launch;
}

/// Refuse, before anything launches, an operand the kernel would index
/// out of range: a per-column vector (bias, gamma, beta) whose length is
/// not the matrix width.
void require_width(std::string_view kernel, const char* what,
                   std::size_t got, std::size_t want) {
  if (got != want) {
    throw std::invalid_argument(std::string(kernel) + ": " + what + " has " +
                                std::to_string(got) + " values, want " +
                                std::to_string(want));
  }
}

/// Refuse a second operand whose shape differs from the first's.
void require_same_shape(std::string_view kernel, const tensor::MatrixF& a,
                        const tensor::MatrixF& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) {
    throw std::invalid_argument(
        std::string(kernel) + ": operands are " + std::to_string(a.rows()) +
        "x" + std::to_string(a.cols()) + " and " + std::to_string(b.rows()) +
        "x" + std::to_string(b.cols()));
  }
}

}  // namespace

void scale(gpusim::Device& dev, tensor::MatrixF& m, float factor,
           numeric::Precision p, std::string_view name) {
  auto launch = stream_launch(dev, name, m.size(), p, 1, 1, m.size());
  if (dev.traffic_only()) return;
  for (auto& v : m.flat()) v = numeric::round_to_storage(p, v * factor);
}

void add_bias(gpusim::Device& dev, tensor::MatrixF& m,
              std::span<const float> bias, numeric::Precision p,
              std::string_view name) {
  require_width(name, "bias", bias.size(), m.cols());
  auto launch = stream_launch(dev, name, m.size(), p, 1, 1, m.size());
  launch.load_bytes(bias.size() * numeric::storage_bytes(p));
  if (dev.traffic_only()) return;
  for (std::size_t r = 0; r < m.rows(); ++r) {
    for (std::size_t c = 0; c < m.cols(); ++c) {
      m(r, c) = numeric::round_to_storage(p, m(r, c) + bias[c]);
    }
  }
}

void residual_add(gpusim::Device& dev, tensor::MatrixF& a,
                  const tensor::MatrixF& b, numeric::Precision p,
                  std::string_view name) {
  require_same_shape(name, a, b);
  auto launch = stream_launch(dev, name, a.size(), p, 2, 1, a.size());
  if (dev.traffic_only()) return;
  for (std::size_t i = 0; i < a.size(); ++i) {
    a.flat()[i] = numeric::round_to_storage(p, a.flat()[i] + b.flat()[i]);
  }
}

void gelu(gpusim::Device& dev, tensor::MatrixF& m, numeric::Precision p,
          std::string_view name) {
  auto launch = stream_launch(dev, name, m.size(), p, 1, 1, 8 * m.size());
  if (dev.traffic_only()) return;
  for (auto& v : m.flat()) v = numeric::round_to_storage(p, gelu_tanh(v));
}

void causal_mask(gpusim::Device& dev, tensor::MatrixF& scores,
                 std::string_view name) {
  // Only the strict upper triangle is touched; model half the matrix as
  // store traffic (the mask itself is generated, not loaded).
  const std::size_t touched = scores.size() / 2;
  auto launch = stream_launch(dev, name, touched,
                              numeric::Precision::kPureFp16, 0, 1, 0);
  if (dev.traffic_only()) return;
  for (std::size_t r = 0; r < scores.rows(); ++r) {
    for (std::size_t c = r + 1; c < scores.cols(); ++c) {
      scores(r, c) = -std::numeric_limits<float>::infinity();
    }
  }
}

void softmax_rows(gpusim::Device& dev, tensor::MatrixF& m,
                  numeric::Precision p, std::string_view name) {
  // Row-parallel reduction: one CTA per row group; load + store each
  // element once, ~5 flops per element (max, sub, exp, sum, div).
  auto launch = stream_launch(dev, name, m.size(), p, 1, 1, 5 * m.size());
  if (dev.traffic_only()) return;
  for (std::size_t r = 0; r < m.rows(); ++r) {
    auto row = m.row(r);
    float mx = -std::numeric_limits<float>::infinity();
    for (float v : row) mx = std::max(mx, v);
    float sum = 0.0f;
    for (auto& v : row) {
      // exp(-inf - mx) = 0 handles fully-masked positions.
      v = std::exp(v - mx);
      sum += v;
    }
    const float inv = sum > 0.0f ? 1.0f / sum : 0.0f;
    for (auto& v : row) v = numeric::round_to_storage(p, v * inv);
  }
}

void layernorm(gpusim::Device& dev, tensor::MatrixF& m,
               std::span<const float> gamma, std::span<const float> beta,
               float eps, numeric::Precision p, std::string_view name) {
  require_width(name, "gamma", gamma.size(), m.cols());
  require_width(name, "beta", beta.size(), m.cols());
  auto launch = stream_launch(dev, name, m.size(), p, 1, 1, 10 * m.size());
  launch.load_bytes(2 * m.cols() * numeric::storage_bytes(p));
  if (dev.traffic_only()) return;
  for (std::size_t r = 0; r < m.rows(); ++r) {
    auto row = m.row(r);
    double mean = 0.0;
    for (float v : row) mean += v;
    mean /= static_cast<double>(row.size());
    double var = 0.0;
    for (float v : row) {
      const double d = v - mean;
      var += d * d;
    }
    var /= static_cast<double>(row.size());
    const float inv_std = 1.0f / std::sqrt(static_cast<float>(var) + eps);
    for (std::size_t c = 0; c < row.size(); ++c) {
      row[c] = numeric::round_to_storage(
          p, (static_cast<float>(row[c] - mean)) * inv_std * gamma[c] +
                 beta[c]);
    }
  }
}

void fused_residual_layernorm(gpusim::Device& dev, tensor::MatrixF& a,
                              const tensor::MatrixF& residual,
                              std::span<const float> gamma,
                              std::span<const float> beta,
                              numeric::Precision p, std::string_view name) {
  require_same_shape(name, a, residual);
  require_width(name, "gamma", gamma.size(), a.cols());
  require_width(name, "beta", beta.size(), a.cols());
  const std::size_t sb = numeric::storage_bytes(p);
  auto launch = dev.launch({.name = name,
                            .ctas = std::max<std::size_t>(1, a.size() / 4096),
                            .shared_bytes_per_cta = 0,
                            .pattern = gpusim::AccessPattern::kStreaming});
  launch.load_bytes(2 * a.size() * sb + 2 * a.cols() * sb);
  launch.store_bytes(a.size() * sb);
  launch.fp_ops(12 * a.size());
  launch.finish();
  if (dev.traffic_only()) return;
  for (std::size_t i = 0; i < a.size(); ++i) {
    a.flat()[i] += residual.flat()[i];
  }
  for (std::size_t r = 0; r < a.rows(); ++r) {
    auto row = a.row(r);
    double mean = 0.0;
    for (float v : row) mean += v;
    mean /= static_cast<double>(row.size());
    double var = 0.0;
    for (float v : row) {
      const double d = v - mean;
      var += d * d;
    }
    var /= static_cast<double>(row.size());
    const float inv_std = 1.0f / std::sqrt(static_cast<float>(var) + 1e-5f);
    for (std::size_t c = 0; c < row.size(); ++c) {
      row[c] = numeric::round_to_storage(
          p, static_cast<float>(row[c] - mean) * inv_std * gamma[c] + beta[c]);
    }
  }
}

tensor::MatrixF gather_cols(gpusim::Device& dev, const tensor::MatrixF& x,
                            std::span<const std::uint32_t> cols,
                            numeric::Precision p, std::string_view name) {
  for (const std::uint32_t c : cols) {
    if (c >= x.cols()) {
      throw std::invalid_argument(
          std::string(name) + ": column " + std::to_string(c) +
          " is out of range for X with " + std::to_string(x.cols()) +
          " columns");
    }
  }
  const std::size_t sb = numeric::storage_bytes(p);
  auto launch =
      dev.launch({.name = name,
                  .ctas = std::max<std::size_t>(1, x.rows() / 16),
                  .shared_bytes_per_cta = 0,
                  .pattern = gpusim::AccessPattern::kStrided});
  // Index list + the gathered elements; the strided pattern models the
  // uncoalesced column accesses.
  launch.load_bytes(cols.size() * sizeof(std::uint32_t) +
                    x.rows() * cols.size() * sb);
  launch.store_bytes(x.rows() * cols.size() * sb);

  // Every element is gathered, so nothing needs filling first.
  tensor::MatrixF out = tensor::MatrixF::uninitialized(x.rows(), cols.size());
  if (dev.traffic_only()) return out;
  for (std::size_t r = 0; r < x.rows(); ++r) {
    for (std::size_t i = 0; i < cols.size(); ++i) {
      out(r, i) = x(r, cols[i]);
    }
  }
  return out;
}

tensor::MatrixF scatter_cols(gpusim::Device& dev,
                             const tensor::MatrixF& condensed,
                             std::span<const std::uint32_t> cols,
                             std::size_t out_cols, numeric::Precision p,
                             std::string_view name) {
  assert(condensed.cols() == cols.size());
  const std::size_t sb = numeric::storage_bytes(p);
  auto launch =
      dev.launch({.name = name,
                  .ctas = std::max<std::size_t>(1, condensed.rows() / 16),
                  .shared_bytes_per_cta = 0,
                  .pattern = gpusim::AccessPattern::kStrided});
  launch.load_bytes(cols.size() * sizeof(std::uint32_t) +
                    condensed.size() * sb);
  // The full-width output must be written (zero-fill included).
  launch.store_bytes(condensed.rows() * out_cols * sb);

  if (dev.traffic_only()) {
    return tensor::MatrixF::uninitialized(condensed.rows(), out_cols);
  }
  tensor::MatrixF out(condensed.rows(), out_cols);
  for (std::size_t r = 0; r < condensed.rows(); ++r) {
    for (std::size_t i = 0; i < cols.size(); ++i) {
      assert(cols[i] < out_cols);
      out(r, cols[i]) = condensed(r, i);
    }
  }
  return out;
}

}  // namespace et::kernels
