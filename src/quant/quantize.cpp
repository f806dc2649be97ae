#include "quant/quantize.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

namespace et::quant {

namespace {

std::string shape(std::size_t rows, std::size_t cols) {
  return std::to_string(rows) + "x" + std::to_string(cols);
}

// Operand shapes come from callers: a mismatch throws in every build,
// before anything is launched, instead of reading past a weight.
void check_panel(std::string_view name, const tensor::MatrixF& x,
                 const QuantizedWeight* w) {
  if (w == nullptr || w->cols() != x.cols() ||
      w->row_scale.size() != w->rows()) {
    throw std::invalid_argument(
        std::string(name) + ": X is " + shape(x.rows(), x.cols()) +
        " but a weight is " +
        (w == nullptr ? std::string("null")
                      : shape(w->rows(), w->cols()) + " with " +
                            std::to_string(w->row_scale.size()) +
                            " row scales"));
  }
}

}  // namespace

QuantizedWeight quantize_weight(const tensor::MatrixF& w) {
  QuantizedWeight out;
  out.q = tensor::Matrix<std::int8_t>(w.rows(), w.cols());
  out.row_scale.resize(w.rows());
  for (std::size_t r = 0; r < w.rows(); ++r) {
    float amax = 0.0f;
    for (std::size_t c = 0; c < w.cols(); ++c) {
      amax = std::max(amax, std::abs(w(r, c)));
    }
    const float scale = amax > 0.0f ? amax / 127.0f : 1.0f;
    out.row_scale[r] = scale;
    for (std::size_t c = 0; c < w.cols(); ++c) {
      const float q = std::round(w(r, c) / scale);
      out.q(r, c) = static_cast<std::int8_t>(
          std::clamp(q, -127.0f, 127.0f));
    }
  }
  return out;
}

tensor::MatrixF dequantize(const QuantizedWeight& w) {
  tensor::MatrixF out(w.rows(), w.cols());
  for (std::size_t r = 0; r < w.rows(); ++r) {
    for (std::size_t c = 0; c < w.cols(); ++c) {
      out(r, c) = static_cast<float>(w.q(r, c)) * w.row_scale[r];
    }
  }
  return out;
}

double max_quantization_error_steps(const tensor::MatrixF& w,
                                    const QuantizedWeight& qw) {
  if (w.rows() != qw.rows() || w.cols() != qw.cols() ||
      qw.row_scale.size() != qw.rows()) {
    throw std::invalid_argument(
        "max_quantization_error_steps: W is " + shape(w.rows(), w.cols()) +
        " but its quantization is " + shape(qw.rows(), qw.cols()) + " with " +
        std::to_string(qw.row_scale.size()) + " row scales");
  }
  double worst = 0.0;
  for (std::size_t r = 0; r < w.rows(); ++r) {
    const double scale = qw.row_scale[r];
    for (std::size_t c = 0; c < w.cols(); ++c) {
      const double err =
          std::abs(w(r, c) - static_cast<double>(qw.q(r, c)) * scale);
      worst = std::max(worst, err / scale);
    }
  }
  return worst;
}

tensor::MatrixF int8_linear(core::ExecContext& ctx, const tensor::MatrixF& x,
                            const QuantizedWeight& w, std::string_view name) {
  check_panel(name, x, &w);
  gpusim::Device& dev = ctx.device();
  const std::size_t m = x.rows();
  const std::size_t n = w.rows();
  const std::size_t k = x.cols();

  const std::size_t block = 128;
  const std::size_t blocks_m = (m + block - 1) / block;
  const std::size_t blocks_n = (n + block - 1) / block;

  auto launch = dev.launch({.name = name,
                            .ctas = blocks_m * blocks_n,
                            .shared_bytes_per_cta = std::min<std::size_t>(
                                2 * (block + block) * 16,
                                dev.spec().shared_mem_per_cta_bytes),
                            .pattern = gpusim::AccessPattern::kTiled});
  // INT8 operands: one byte per element; the per-row weight and
  // activation scales ride along in FP32.
  launch.load_bytes(blocks_n * m * k + blocks_m * n * k +
                    (w.row_scale.size() + m) * sizeof(float));
  launch.store_bytes(m * n * 2);  // fp16 output
  // INT8 tensor cores run at 2× the FP16 rate: account the ops as tensor
  // ops and half again (the model divides by the FP16 peak).
  launch.tensor_ops(2ull * m * n * k / 2);
  launch.fp_ops(m * n);  // epilogue rescale
  launch.finish();

  // Every element is computed, so nothing needs filling first.
  tensor::MatrixF y = tensor::MatrixF::uninitialized(m, n);
  if (dev.traffic_only()) return y;

  std::vector<std::int8_t> xq(k);
  for (std::size_t i = 0; i < m; ++i) {
    // Per-row activation scale: row i quantizes against its own amax, so
    // its result is independent of what else is stacked in the batch.
    float amax = 0.0f;
    for (std::size_t c = 0; c < k; ++c) amax = std::max(amax, std::abs(x(i, c)));
    const float xscale = amax > 0.0f ? amax / 127.0f : 1.0f;
    for (std::size_t c = 0; c < k; ++c) {
      xq[c] = static_cast<std::int8_t>(
          std::clamp(std::round(x(i, c) / xscale), -127.0f, 127.0f));
    }
    for (std::size_t j = 0; j < n; ++j) {
      std::int32_t acc = 0;
      for (std::size_t c = 0; c < k; ++c) {
        acc += static_cast<std::int32_t>(xq[c]) *
               static_cast<std::int32_t>(w.q(j, c));
      }
      y(i, j) = static_cast<float>(acc) * xscale * w.row_scale[j];
    }
  }
  return y;
}

std::vector<tensor::MatrixF> int8_batched_linear(
    core::ExecContext& ctx, const tensor::MatrixF& x,
    const std::vector<const QuantizedWeight*>& ws, std::string_view name) {
  if (ws.empty()) {
    throw std::invalid_argument(std::string(name) + ": empty batch");
  }
  for (const QuantizedWeight* w : ws) check_panel(name, x, w);
  gpusim::Device& dev = ctx.device();
  const std::size_t m = x.rows();
  const std::size_t k = x.cols();

  const std::size_t block = 128;
  const std::size_t blocks_m = (m + block - 1) / block;
  std::uint64_t ctas = 0, a_loads = 0, b_loads = 0, scale_loads = 0;
  std::uint64_t n_total = 0;
  for (const QuantizedWeight* w : ws) {
    const std::size_t n = w->rows();
    const std::size_t blocks_n = (n + block - 1) / block;
    ctas += blocks_m * blocks_n;
    // A strips staged once and reused by every panel: charge only the
    // widest panel's re-read factor (the batched_gemm_nt accounting).
    a_loads = std::max(a_loads, static_cast<std::uint64_t>(blocks_n) * m * k);
    b_loads += static_cast<std::uint64_t>(blocks_m) * n * k;
    scale_loads += n * sizeof(float);
    n_total += n;
  }
  auto launch = dev.launch(
      {.name = std::string(name) + "[x" + std::to_string(ws.size()) + "]",
       .ctas = static_cast<std::size_t>(ctas),
       .shared_bytes_per_cta = std::min<std::size_t>(
           2 * (block + block) * 16, dev.spec().shared_mem_per_cta_bytes),
       .pattern = gpusim::AccessPattern::kTiled});
  launch.load_bytes(a_loads + b_loads + scale_loads + m * sizeof(float));
  launch.store_bytes(m * n_total * 2);  // fp16 outputs
  launch.tensor_ops(2ull * m * n_total * k / 2);
  launch.fp_ops(m * n_total);  // epilogue rescale
  launch.finish();

  std::vector<tensor::MatrixF> out;
  out.reserve(ws.size());
  for (const QuantizedWeight* w : ws) {
    out.push_back(tensor::MatrixF::uninitialized(m, w->rows()));
  }
  if (dev.traffic_only()) return out;

  std::vector<std::int8_t> xq(k);
  for (std::size_t i = 0; i < m; ++i) {
    // One activation quantization per row, shared by every panel — the
    // same xq/xscale each separate int8_linear call would derive, so the
    // fused results match those calls bit for bit.
    float amax = 0.0f;
    for (std::size_t c = 0; c < k; ++c) amax = std::max(amax, std::abs(x(i, c)));
    const float xscale = amax > 0.0f ? amax / 127.0f : 1.0f;
    for (std::size_t c = 0; c < k; ++c) {
      xq[c] = static_cast<std::int8_t>(
          std::clamp(std::round(x(i, c) / xscale), -127.0f, 127.0f));
    }
    for (std::size_t p = 0; p < ws.size(); ++p) {
      const QuantizedWeight& w = *ws[p];
      for (std::size_t j = 0; j < w.rows(); ++j) {
        std::int32_t acc = 0;
        for (std::size_t c = 0; c < k; ++c) {
          acc += static_cast<std::int32_t>(xq[c]) *
                 static_cast<std::int32_t>(w.q(j, c));
        }
        out[p](i, j) = static_cast<float>(acc) * xscale * w.row_scale[j];
      }
    }
  }
  return out;
}

}  // namespace et::quant
