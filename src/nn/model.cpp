#include "nn/model.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>
#include <variant>

namespace et::nn {

namespace {

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

/// Every shape the decode paths index by, checked before anything is
/// sized from it: a short bias or layernorm vector would otherwise be
/// over-read mid-tick, and a mis-shaped weight would throw from a kernel
/// the tick does not catch.
void validate_layer(const EncoderWeights& w, std::size_t l, std::size_t d,
                    std::size_t heads) {
  const auto refuse = [l](const std::string& what) {
    throw std::invalid_argument("nn::Model: layer " + std::to_string(l) +
                                " " + what);
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

}  // namespace

Model::Model(const std::vector<EncoderWeights>* layers, EncoderOptions opt,
             std::size_t max_context, std::optional<WeightFormat> format)
    : layers_(layers), opt_(std::move(opt)), max_ctx_(max_context) {
  if (layers_ == nullptr) {
    throw std::invalid_argument("nn::Model: layers must not be null");
  }
  opt_.attn.validate();
  if (max_ctx_ == 0) {
    throw std::invalid_argument("nn::Model: max_context must be > 0");
  }

  const std::size_t d = opt_.attn.d_model;
  const std::size_t heads = opt_.attn.num_heads;
  const auto note_method = [this](const sparse::AnyWeight& w) {
    const sparse::PruneMethod m = sparse::method_of(w);
    if (std::find(prune_methods_.begin(), prune_methods_.end(), m) ==
        prune_methods_.end()) {
      prune_methods_.push_back(m);
    }
  };

  v_widths_.reserve(layers_->size());
  for (std::size_t l = 0; l < layers_->size(); ++l) {
    validate_layer((*layers_)[l], l, d, heads);
    const core::AttentionWeights& aw = (*layers_)[l].attn;
    note_method(aw.wq);
    note_method(aw.wk);
    note_method(aw.wv);
    note_method(aw.wo);
    has_precomputed_ = has_precomputed_ || aw.has_precomputed();
    v_widths_.push_back(core::v_side(aw, opt_.attn).width);
  }
  std::sort(prune_methods_.begin(), prune_methods_.end());

  // Derive the base layout, then reconcile it with the requested
  // descriptor. kInt8 layers ON TOP of any base layout (it quantizes the
  // dense materialization the decode GEMMs would read anyway); every
  // other explicit request must agree with what the weights actually
  // are.
  WeightFormat derived = WeightFormat::kDense;
  if (has_precomputed_) {
    derived = WeightFormat::kPrecomputed;
  } else {
    for (const sparse::PruneMethod m : prune_methods_) {
      if (m != sparse::PruneMethod::kDense) derived = WeightFormat::kPruned;
    }
  }
  format_ = format.value_or(derived);
  if (format_ != WeightFormat::kInt8 && format_ != derived) {
    throw std::invalid_argument(
        "nn::Model: requested weight format '" +
        std::string(to_string(format_)) + "' but the weights are '" +
        std::string(to_string(derived)) + "'");
  }
  if (format_ != WeightFormat::kInt8) return;

  // Quantize every GEMM operand the decode tick reads, in the exact
  // layout it reads them: the folded W_VO replaces wv/wo, a condensable
  // row-pruned W_V quantizes condensed (v_kept preserving the column
  // map), and everything else quantizes its dense materialization —
  // pruned zeros round to exact zeros, so the mask survives bit for bit.
  qlayers_.reserve(layers_->size());
  for (const EncoderWeights& w : *layers_) {
    QuantizedLayer ql;
    ql.wq = quant::quantize_weight(sparse::to_dense(w.attn.wq));
    ql.wk = quant::quantize_weight(sparse::to_dense(w.attn.wk));
    const core::VSide::Layout v = core::v_side(w.attn, opt_.attn).layout;
    if (v == core::VSide::Layout::kFolded) {
      ql.vo = quant::quantize_weight(w.attn.vo.weight);
    } else if (v == core::VSide::Layout::kCondensed) {
      const auto& rp = std::get<sparse::RowPrunedWeight>(w.attn.wv);
      ql.wv = quant::quantize_weight(rp.condensed());
      ql.v_kept = rp.kept_rows();
      ql.wo = quant::quantize_weight(sparse::to_dense(w.attn.wo));
    } else {
      ql.wv = quant::quantize_weight(sparse::to_dense(w.attn.wv));
      ql.wo = quant::quantize_weight(sparse::to_dense(w.attn.wo));
    }
    ql.ff1 = quant::quantize_weight(sparse::to_dense(w.w_ff1));
    ql.ff2 = quant::quantize_weight(sparse::to_dense(w.w_ff2));
    qlayers_.push_back(std::move(ql));
  }
}

}  // namespace et::nn
