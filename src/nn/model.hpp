// nn::Model — the validated model handle behind every decode entry path.
//
// GenerationSession, BatchedGenerationScheduler and
// serving::InferenceServer used to each take a raw
// `const std::vector<EncoderWeights>*` plus EncoderOptions and re-derive
// (or reject) the weight layout independently; this handle is now the one
// construction point. It owns the run configuration — borrowed layer
// weights, options, the per-slot context capacity — and the capability
// flags derived from the weights: whether the pre-computed W_VO fold
// (§3.1) is in play, the weight layout it implies, and the per-layer
// V-plane width the KV caches must allocate (full d_model, condensed
// Σkept for a condensable row-pruned W_V, or H·kept under the fold).
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

#include "nn/encoder.hpp"
#include "nn/weight_format.hpp"
#include "quant/quantize.hpp"

namespace et::nn {

/// One layer's INT8 weights, owned by the Model when it was constructed
/// with WeightFormat::kInt8. Every GEMM operand of the decode tick is
/// quantized from its dense materialization (so pruned zeros survive
/// exactly); `vo` replaces wv/wo under the W_VO fold, and a condensable
/// row-pruned W_V quantizes its condensed matrix with `v_kept` naming the
/// original column per condensed column (the cache keeps its narrow
/// V-plane width — INT8 composes with the PR-5 layouts, not instead of
/// them).
struct QuantizedLayer {
  quant::QuantizedWeight wq, wk, wv, wo;
  quant::QuantizedWeight vo;   ///< folded W_VO; empty unless precomputed
  quant::QuantizedWeight ff1, ff2;
  std::vector<std::uint32_t> v_kept;  ///< condensed-V column map
};

class Model {
 public:
  /// `layers` is borrowed and must outlive the Model and everything
  /// constructed from it (the lifetime contract the entry paths used to
  /// state individually). Throws std::invalid_argument on a null layer
  /// vector, an invalid attention config, max_context == 0, or a layer
  /// whose Q/K/V/O, FF, bias, layernorm or W_VO shapes disagree with the
  /// config (the message names the layer and the field).
  ///
  /// `format` is the requested WeightFormat: std::nullopt derives it from
  /// the weights (dense / pruned / precomputed — the historical
  /// behavior); WeightFormat::kInt8 additionally quantizes every decode
  /// GEMM operand into owned QuantizedLayers; any other explicit value
  /// must MATCH the derived layout (a descriptor that contradicts the
  /// weights throws std::invalid_argument naming both sides — the
  /// validation et_cli leans on).
  Model(const std::vector<EncoderWeights>* layers, EncoderOptions opt,
        std::size_t max_context,
        std::optional<WeightFormat> format = std::nullopt);

  [[nodiscard]] const std::vector<EncoderWeights>& layers() const noexcept {
    return *layers_;
  }
  [[nodiscard]] const EncoderOptions& options() const noexcept { return opt_; }
  [[nodiscard]] std::size_t max_context() const noexcept { return max_ctx_; }
  [[nodiscard]] std::size_t num_layers() const noexcept {
    return v_widths_.size();
  }
  [[nodiscard]] std::size_t d_model() const noexcept {
    return opt_.attn.d_model;
  }

  /// True when any layer carries the pre-computed W_VO fold.
  [[nodiscard]] bool has_precomputed() const noexcept {
    return has_precomputed_;
  }
  /// The WeightFormat descriptor consumed by the scheduler's decode tick
  /// and echoed (via to_string) by `et_cli --json` and the benches:
  /// kInt8 when quantization was requested; else kPrecomputed when any
  /// layer folds W_VO, else kPruned when any attention weight is
  /// non-dense, else kDense.
  [[nodiscard]] WeightFormat weight_layout() const noexcept { return format_; }

  /// True when the decode paths run the INT8 GEMM variants.
  [[nodiscard]] bool quantized() const noexcept {
    return format_ == WeightFormat::kInt8;
  }
  /// The owned INT8 weights for `layer`; only meaningful when
  /// quantized().
  [[nodiscard]] const QuantizedLayer& quantized_layer(std::size_t layer) const {
    return qlayers_.at(layer);
  }

  /// Cached K-plane row width (always the full hidden width).
  [[nodiscard]] std::size_t k_width() const noexcept {
    return opt_.attn.d_model;
  }
  /// Cached V-plane row width for `layer`: H·kept under the W_VO fold,
  /// Σkept for a condensable row-pruned W_V, d_model otherwise.
  [[nodiscard]] std::size_t v_width(std::size_t layer) const {
    return v_widths_.at(layer);
  }
  [[nodiscard]] const std::vector<std::size_t>& v_widths() const noexcept {
    return v_widths_;
  }

 private:
  const std::vector<EncoderWeights>* layers_ = nullptr;  // not owned
  EncoderOptions opt_;
  std::size_t max_ctx_ = 0;
  std::vector<std::size_t> v_widths_;  // index = layer
  bool has_precomputed_ = false;
  WeightFormat format_ = WeightFormat::kDense;
  std::vector<QuantizedLayer> qlayers_;  // non-empty iff kInt8
};

}  // namespace et::nn
