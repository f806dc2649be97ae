#include "sparse/formats.hpp"

#include <cassert>
#include <stdexcept>
#include <utility>

namespace et::sparse {

namespace {
void require(bool cond, const char* msg) {
  if (!cond) throw std::invalid_argument(msg);
}
}  // namespace

bool kept_in_order(const std::vector<std::uint32_t>& kept, std::size_t bound) {
  for (std::size_t i = 0; i < kept.size(); ++i) {
    if (kept[i] >= bound || (i > 0 && kept[i] <= kept[i - 1])) return false;
  }
  return true;
}

// ---------------------------------------------------------------- row ----

RowPrunedWeight RowPrunedWeight::from_masked(const tensor::MatrixF& w,
                                             const Mask& mask) {
  require(w.rows() == mask.rows() && w.cols() == mask.cols(),
          "row pruning: weight/mask shape mismatch");
  require(is_row_structured(mask), "row pruning: mask is not row-structured");
  std::vector<std::uint32_t> kept;
  for (std::size_t r = 0; r < mask.rows(); ++r) {
    if (mask(r, 0) != 0) kept.push_back(static_cast<std::uint32_t>(r));
  }
  return from_kept_rows(w, std::move(kept));
}

RowPrunedWeight RowPrunedWeight::from_kept_rows(
    const tensor::MatrixF& w, std::vector<std::uint32_t> kept) {
  RowPrunedWeight out;
  out.rows_ = w.rows();
  out.cols_ = w.cols();
  out.kept_ = std::move(kept);
  out.condensed_ = tensor::MatrixF(out.kept_.size(), w.cols());
  for (std::size_t i = 0; i < out.kept_.size(); ++i) {
    require(out.kept_[i] < w.rows(), "row pruning: kept row out of range");
    for (std::size_t c = 0; c < w.cols(); ++c) {
      out.condensed_(i, c) = w(out.kept_[i], c);
    }
  }
  return out;
}

RowPrunedWeight RowPrunedWeight::from_condensed(
    std::size_t rows, tensor::MatrixF condensed,
    std::vector<std::uint32_t> kept) {
  require(condensed.rows() == kept.size(),
          "row pruning: condensed rows disagree with the kept rows");
  require(kept_in_order(kept, rows),
          "row pruning: kept rows out of range or out of order");
  RowPrunedWeight out;
  out.rows_ = rows;
  out.cols_ = condensed.cols();
  out.condensed_ = std::move(condensed);
  out.kept_ = std::move(kept);
  return out;
}

tensor::MatrixF RowPrunedWeight::to_dense() const {
  tensor::MatrixF d(rows_, cols_);
  for (std::size_t i = 0; i < kept_.size(); ++i) {
    for (std::size_t c = 0; c < cols_; ++c) d(kept_[i], c) = condensed_(i, c);
  }
  return d;
}

// ------------------------------------------------------------- column ----

ColPrunedWeight ColPrunedWeight::from_masked(const tensor::MatrixF& w,
                                             const Mask& mask) {
  require(w.rows() == mask.rows() && w.cols() == mask.cols(),
          "column pruning: weight/mask shape mismatch");
  require(is_col_structured(mask),
          "column pruning: mask is not column-structured");
  std::vector<std::uint32_t> kept;
  for (std::size_t c = 0; c < mask.cols(); ++c) {
    if (mask(0, c) != 0) kept.push_back(static_cast<std::uint32_t>(c));
  }
  return from_kept_cols(w, std::move(kept));
}

ColPrunedWeight ColPrunedWeight::from_kept_cols(
    const tensor::MatrixF& w, std::vector<std::uint32_t> kept) {
  ColPrunedWeight out;
  out.rows_ = w.rows();
  out.cols_ = w.cols();
  out.kept_ = std::move(kept);
  out.condensed_ = tensor::MatrixF(w.rows(), out.kept_.size());
  for (std::size_t r = 0; r < w.rows(); ++r) {
    for (std::size_t i = 0; i < out.kept_.size(); ++i) {
      require(out.kept_[i] < w.cols(), "column pruning: kept col out of range");
      out.condensed_(r, i) = w(r, out.kept_[i]);
    }
  }
  return out;
}

ColPrunedWeight ColPrunedWeight::from_condensed(
    std::size_t cols, tensor::MatrixF condensed,
    std::vector<std::uint32_t> kept) {
  require(condensed.cols() == kept.size(),
          "column pruning: condensed columns disagree with the kept columns");
  require(kept_in_order(kept, cols),
          "column pruning: kept columns out of range or out of order");
  ColPrunedWeight out;
  out.rows_ = condensed.rows();
  out.cols_ = cols;
  out.condensed_ = std::move(condensed);
  out.kept_ = std::move(kept);
  return out;
}

tensor::MatrixF ColPrunedWeight::to_dense() const {
  tensor::MatrixF d(rows_, cols_);
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t i = 0; i < kept_.size(); ++i) {
      d(r, kept_[i]) = condensed_(r, i);
    }
  }
  return d;
}

// --------------------------------------------------------------- tile ----

TilePrunedWeight TilePrunedWeight::from_masked(const tensor::MatrixF& w,
                                               const Mask& mask) {
  require(w.rows() == mask.rows() && w.cols() == mask.cols(),
          "tile pruning: weight/mask shape mismatch");
  require(w.rows() % kTileSide == 0 && w.cols() % kTileSide == 0,
          "tile pruning: dimensions must be multiples of the tile size");
  require(is_tile_structured(mask, kTileSide, kTileSide),
          "tile pruning: mask is not tile-structured");

  TilePrunedWeight out;
  out.rows_ = w.rows();
  out.cols_ = w.cols();
  out.row_ptr_.assign(out.tile_rows() + 1, 0);

  // strip_group[tc]: the last strip group (numbered from 1) with a tile in
  // tile column tc, so each group counts each of its columns once.
  std::vector<std::size_t> strip_group(out.tile_cols(), 0);
  for (std::size_t tr = 0; tr < out.tile_rows(); ++tr) {
    const std::size_t group = tr / kStripGroup + 1;
    for (std::size_t tc = 0; tc < out.tile_cols(); ++tc) {
      if (mask(tr * kTileSide, tc * kTileSide) == 0) continue;
      if (std::exchange(strip_group[tc], group) != group) ++out.x_strips_;
      out.col_idx_.push_back(static_cast<std::uint32_t>(tc));
      const std::size_t base = out.values_.size();
      out.values_.resize(base + kTileSide * kTileSide);
      for (std::size_t i = 0; i < kTileSide; ++i) {
        for (std::size_t j = 0; j < kTileSide; ++j) {
          out.values_[base + i * kTileSide + j] = w(tr * kTileSide + i, tc * kTileSide + j);
        }
      }
    }
    out.row_ptr_[tr + 1] = static_cast<std::uint32_t>(out.col_idx_.size());
  }
  return out;
}

tensor::MatrixF TilePrunedWeight::to_dense() const {
  tensor::MatrixF d(rows_, cols_);
  for (std::size_t tr = 0; tr < tile_rows(); ++tr) {
    for (std::uint32_t t = row_ptr_[tr]; t < row_ptr_[tr + 1]; ++t) {
      const std::size_t tc = col_idx_[t];
      const float* vals = tile_values(t);
      for (std::size_t i = 0; i < kTileSide; ++i) {
        for (std::size_t j = 0; j < kTileSide; ++j) {
          d(tr * kTileSide + i, tc * kTileSide + j) = vals[i * kTileSide + j];
        }
      }
    }
  }
  return d;
}

// ---------------------------------------------------------- irregular ----

IrregularWeight IrregularWeight::from_masked(const tensor::MatrixF& w,
                                             const Mask& mask) {
  require(w.rows() == mask.rows() && w.cols() == mask.cols(),
          "irregular pruning: weight/mask shape mismatch");
  require(w.rows() % kTileSide == 0 && w.cols() % kTileSide == 0,
          "irregular pruning: dimensions must be multiples of the tile size");

  IrregularWeight out;
  out.rows_ = w.rows();
  out.cols_ = w.cols();
  const std::size_t trows = w.rows() / kTileSide;
  const std::size_t tcols = w.cols() / kTileSide;
  out.row_ptr_.assign(trows + 1, 0);

  for (std::size_t tr = 0; tr < trows; ++tr) {
    for (std::size_t tc = 0; tc < tcols; ++tc) {
      Tile tile;
      tile.col = static_cast<std::uint32_t>(tc);
      tile.value_offset = static_cast<std::uint32_t>(out.values_.size());
      for (std::size_t i = 0; i < kTileSide; ++i) {
        for (std::size_t j = 0; j < kTileSide; ++j) {
          if (mask(tr * kTileSide + i, tc * kTileSide + j) == 0) continue;
          const std::size_t bit = i * kTileSide + j;
          tile.bitmap[bit / 64] |= (std::uint64_t{1} << (bit % 64));
          out.values_.push_back(w(tr * kTileSide + i, tc * kTileSide + j));
          ++tile.value_count;
        }
      }
      if (tile.value_count > 0) out.tiles_.push_back(tile);
    }
    out.row_ptr_[tr + 1] = static_cast<std::uint32_t>(out.tiles_.size());
  }
  return out;
}

std::size_t IrregularWeight::storage_bytes() const noexcept {
  return row_ptr_.size() * sizeof(std::uint32_t) +
         tiles_.size() * sizeof(Tile) + values_.size() * sizeof(float);
}

tensor::MatrixF IrregularWeight::to_dense() const {
  tensor::MatrixF d(rows_, cols_);
  const std::size_t trows = rows_ / kTileSide;
  for (std::size_t tr = 0; tr < trows; ++tr) {
    for (std::uint32_t t = row_ptr_[tr]; t < row_ptr_[tr + 1]; ++t) {
      const Tile& tile = tiles_[t];
      std::size_t v = tile.value_offset;
      for (std::size_t bit = 0; bit < kTileSide * kTileSide; ++bit) {
        if ((tile.bitmap[bit / 64] >> (bit % 64)) & 1u) {
          d(tr * kTileSide + bit / kTileSide, tile.col * kTileSide + bit % kTileSide) =
              values_[v++];
        }
      }
    }
  }
  return d;
}

// ------------------------------------------------------------ variant ----

PruneMethod method_of(const AnyWeight& w) noexcept {
  return std::visit(
      [](const auto& v) -> PruneMethod {
        using T = std::decay_t<decltype(v)>;
        if constexpr (std::is_same_v<T, DenseWeight>) {
          return PruneMethod::kDense;
        } else if constexpr (std::is_same_v<T, RowPrunedWeight>) {
          return PruneMethod::kRow;
        } else if constexpr (std::is_same_v<T, ColPrunedWeight>) {
          return PruneMethod::kColumn;
        } else if constexpr (std::is_same_v<T, TilePrunedWeight>) {
          return PruneMethod::kTile;
        } else {
          return PruneMethod::kIrregular;
        }
      },
      w);
}

double pruning_ratio(const AnyWeight& w) noexcept {
  return std::visit([](const auto& v) { return v.pruning_ratio(); }, w);
}

tensor::MatrixF to_dense(const AnyWeight& w) {
  return std::visit([](const auto& v) { return v.to_dense(); }, w);
}

AnyWeight make_weight(PruneMethod method, const tensor::MatrixF& w,
                      const Mask& mask) {
  switch (method) {
    case PruneMethod::kDense: {
      tensor::MatrixF masked = w;
      apply_mask(masked, mask);
      return DenseWeight(std::move(masked));
    }
    case PruneMethod::kRow:
      return RowPrunedWeight::from_masked(w, mask);
    case PruneMethod::kColumn:
      return ColPrunedWeight::from_masked(w, mask);
    case PruneMethod::kTile:
      return TilePrunedWeight::from_masked(w, mask);
    case PruneMethod::kIrregular:
      return IrregularWeight::from_masked(w, mask);
  }
  throw std::invalid_argument("unknown prune method");
}

}  // namespace et::sparse
