#include "core/weights.hpp"

#include <numeric>
#include <stdexcept>
#include <string>

#include "tensor/random.hpp"

namespace et::core {

AttentionWeights make_dense_weights(const AttentionConfig& cfg,
                                    std::uint64_t seed) {
  const std::size_t d = cfg.d_model;
  tensor::MatrixF wq(d, d), wk(d, d), wv(d, d), wo(d, d);
  // Trained transformer weights are roughly N(0, 1/sqrt(d)); using that
  // scale keeps Q·Kᵀ magnitudes realistic, which matters for the FP16
  // overflow study (Fig. 4).
  tensor::fill_normal(wq, seed + 1, 0.0f,
                      1.0f / std::sqrt(static_cast<float>(d)));
  tensor::fill_normal(wk, seed + 2, 0.0f,
                      1.0f / std::sqrt(static_cast<float>(d)));
  tensor::fill_normal(wv, seed + 3, 0.0f,
                      1.0f / std::sqrt(static_cast<float>(d)));
  tensor::fill_normal(wo, seed + 4, 0.0f,
                      1.0f / std::sqrt(static_cast<float>(d)));

  AttentionWeights w;
  w.wq = sparse::DenseWeight(std::move(wq));
  w.wk = sparse::DenseWeight(std::move(wk));
  w.wv = sparse::DenseWeight(std::move(wv));
  w.wo = sparse::DenseWeight(std::move(wo));
  return w;
}

bool AttentionWeights::v_condensable(std::size_t num_heads) const {
  const auto* row = std::get_if<sparse::RowPrunedWeight>(&wv);
  if (row == nullptr) return false;
  const std::size_t d = row->original_rows();
  if (num_heads == 0 || d % num_heads != 0) return false;
  const std::size_t dk = d / num_heads;
  const auto& kept = row->kept_rows();
  if (kept.empty() || kept.size() % num_heads != 0) return false;
  const std::size_t per_head = kept.size() / num_heads;
  // kept_rows is sorted; verify each head block holds exactly per_head rows.
  for (std::size_t h = 0; h < num_heads; ++h) {
    for (std::size_t i = 0; i < per_head; ++i) {
      const std::uint32_t r = kept[h * per_head + i];
      if (r < h * dk || r >= (h + 1) * dk) return false;
    }
  }
  return true;
}

VSide v_side(const AttentionWeights& w, const AttentionConfig& cfg) {
  if (w.has_precomputed()) {
    return {VSide::Layout::kFolded, w.vo.weight.rows()};
  }
  if (w.v_condensable(cfg.num_heads)) {
    return {VSide::Layout::kCondensed,
            std::get<sparse::RowPrunedWeight>(w.wv).kept_rows().size()};
  }
  return {VSide::Layout::kFull, cfg.d_model};
}

PrecomputedVO precompute_vo(const tensor::MatrixF& wv,
                            const tensor::MatrixF& wo, std::size_t num_heads,
                            std::vector<std::uint32_t> kept_rows) {
  const auto shape = [](const tensor::MatrixF& m) {
    return std::to_string(m.rows()) + "x" + std::to_string(m.cols());
  };
  if (wv.rows() != wv.cols() || wo.rows() != wo.cols() ||
      wv.rows() != wo.rows()) {
    throw std::invalid_argument("precompute_vo: W_V is " + shape(wv) +
                                " and W_O is " + shape(wo) +
                                ", want two equal square matrices");
  }
  const std::size_t d = wv.rows();
  if (num_heads == 0 || d % num_heads != 0) {
    throw std::invalid_argument("precompute_vo: num_heads " +
                                std::to_string(num_heads) +
                                " does not divide d_model " +
                                std::to_string(d));
  }
  if (!sparse::kept_in_order(kept_rows, d)) {
    throw std::invalid_argument(
        "precompute_vo: kept_rows must be strictly increasing and below "
        "d_model " +
        std::to_string(d));
  }
  const std::size_t dk = d / num_heads;

  if (kept_rows.empty()) {
    kept_rows.resize(d);
    std::iota(kept_rows.begin(), kept_rows.end(), 0u);
  }
  const std::size_t kept = kept_rows.size();

  PrecomputedVO out;
  out.num_heads = num_heads;
  out.kept_cols = std::move(kept_rows);
  // Row r of head h's block holds (W_V,hᵀ · W_O,hᵀ) column kept_cols[r],
  // transposed into (out × in) orientation:
  //   weight(h·kept + r, i) = Σ_k W_V(h·dk + k, i) · W_O(kept_cols[r], h·dk + k)
  // where k ranges over the head's d_k features. (W_V,h is the row block
  // of W_V; W_O,h is the column block of W_O.)
  out.weight = tensor::MatrixF(num_heads * kept, d);
  for (std::size_t h = 0; h < num_heads; ++h) {
    for (std::size_t r = 0; r < kept; ++r) {
      const std::size_t orow = out.kept_cols[r];
      for (std::size_t i = 0; i < d; ++i) {
        double acc = 0.0;
        for (std::size_t k = 0; k < dk; ++k) {
          acc += static_cast<double>(wv(h * dk + k, i)) *
                 static_cast<double>(wo(orow, h * dk + k));
        }
        out.weight(h * kept + r, i) = static_cast<float>(acc);
      }
    }
  }
  return out;
}

}  // namespace et::core
