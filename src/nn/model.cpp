#include "nn/model.hpp"

#include <stdexcept>
#include <string>
#include <utility>

namespace et::nn {

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

  // True when any attention weight is stored in a non-dense format.
  bool pruned = false;
  v_widths_.reserve(layers_->size());
  for (std::size_t l = 0; l < layers_->size(); ++l) {
    validate_layer((*layers_)[l], l, opt_.attn, "nn::Model");
    const core::AttentionWeights& aw = (*layers_)[l].attn;
    for (const sparse::AnyWeight* w : {&aw.wq, &aw.wk, &aw.wv, &aw.wo}) {
      pruned = pruned ||
               sparse::method_of(*w) != sparse::PruneMethod::kDense;
    }
    has_precomputed_ = has_precomputed_ || aw.has_precomputed();
    v_widths_.push_back(core::v_side(aw, opt_.attn).width);
  }

  // Derive the base layout, then reconcile it with the requested
  // descriptor. kInt8 layers ON TOP of any base layout (it quantizes the
  // dense materialization the decode GEMMs would read anyway); every
  // other explicit request must agree with what the weights actually
  // are.
  const WeightFormat derived = has_precomputed_ ? WeightFormat::kPrecomputed
                               : pruned         ? WeightFormat::kPruned
                                                : WeightFormat::kDense;
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
