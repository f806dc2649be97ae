// Tensor-core-friendly pruned weight representations (§4.1 of the paper).
//
// All weights are stored in (out_features × in_features) orientation, so a
// linear transformation is Y = X · Wᵀ (§2.1).
//
//   RowPrunedWeight   — pruned rows physically removed; the condensed
//                       matrix is dense, so plain tensor-core GEMM runs on
//                       it; the *output* has zero columns exactly at the
//                       pruned row positions (Fig. 5a).
//   ColPrunedWeight   — pruned columns removed; the *input* X must be
//                       gathered down to the kept columns first
//                       ("X_adjusted", Fig. 5b).
//   TilePrunedWeight  — 16×16 tiles in Block-Compressed-Sparse-Row order;
//                       each surviving tile is dense and feeds a
//                       tensor-core tile FMA directly (§4.2).
//   IrregularWeight   — the two-level hierarchical format of [59]: BCSR
//                       over tiles that contain ≥1 nonzero, plus a 256-bit
//                       bitmap + packed nonzeros inside each tile. Kept as
//                       the paper's slow-but-accurate strawman.
#pragma once

#include <array>
#include <cstdint>
#include <string_view>
#include <variant>
#include <vector>

#include "sparse/mask.hpp"
#include "tensor/matrix.hpp"

namespace et::sparse {

/// Side of the square tensor tile (the FMA granularity of §2.2).
inline constexpr std::size_t kTileSide = 16;

/// Tile rows whose tiles share one staging of the X strips they read in
/// the BCSR GEMM (8 × 16 = 128 output columns; TilePrunedWeight::x_strips).
inline constexpr std::size_t kStripGroup = 8;

enum class PruneMethod { kDense, kRow, kColumn, kTile, kIrregular };

[[nodiscard]] constexpr std::string_view to_string(PruneMethod m) noexcept {
  switch (m) {
    case PruneMethod::kDense: return "dense";
    case PruneMethod::kRow: return "row";
    case PruneMethod::kColumn: return "column";
    case PruneMethod::kTile: return "tile";
    case PruneMethod::kIrregular: return "irregular";
  }
  return "?";
}

class DenseWeight {
 public:
  DenseWeight() = default;
  explicit DenseWeight(tensor::MatrixF w) : w_(std::move(w)) {}

  [[nodiscard]] std::size_t rows() const noexcept { return w_.rows(); }
  [[nodiscard]] std::size_t cols() const noexcept { return w_.cols(); }
  [[nodiscard]] const tensor::MatrixF& matrix() const noexcept { return w_; }
  [[nodiscard]] tensor::MatrixF to_dense() const { return w_; }
  [[nodiscard]] double pruning_ratio() const noexcept { return 0.0; }

 private:
  tensor::MatrixF w_;
};

class RowPrunedWeight {
 public:
  RowPrunedWeight() = default;

  /// Build from a masked weight; requires a row-structured mask.
  static RowPrunedWeight from_masked(const tensor::MatrixF& w,
                                     const Mask& mask);
  /// Build by keeping exactly the listed (sorted, unique) rows.
  static RowPrunedWeight from_kept_rows(const tensor::MatrixF& w,
                                        std::vector<std::uint32_t> kept);
  /// Rebuild from the stored parts: `condensed` (kept × cols) and its
  /// kept rows, strictly increasing and each below `rows`. Validates
  /// before building, without materializing the rows × cols original.
  static RowPrunedWeight from_condensed(std::size_t rows,
                                        tensor::MatrixF condensed,
                                        std::vector<std::uint32_t> kept);

  [[nodiscard]] std::size_t original_rows() const noexcept { return rows_; }
  [[nodiscard]] std::size_t original_cols() const noexcept { return cols_; }
  [[nodiscard]] const tensor::MatrixF& condensed() const noexcept {
    return condensed_;
  }
  [[nodiscard]] const std::vector<std::uint32_t>& kept_rows() const noexcept {
    return kept_;
  }
  [[nodiscard]] double pruning_ratio() const noexcept {
    return rows_ == 0 ? 0.0
                      : 1.0 - static_cast<double>(kept_.size()) /
                                  static_cast<double>(rows_);
  }
  /// Scatter the condensed rows back into the original shape (zeros where
  /// pruned) — used by tests and the accuracy-side comparisons.
  [[nodiscard]] tensor::MatrixF to_dense() const;

 private:
  std::size_t rows_ = 0, cols_ = 0;
  tensor::MatrixF condensed_;          // kept × cols
  std::vector<std::uint32_t> kept_;    // original row index per kept row
};

class ColPrunedWeight {
 public:
  ColPrunedWeight() = default;

  /// Build from a masked weight; requires a column-structured mask.
  static ColPrunedWeight from_masked(const tensor::MatrixF& w,
                                     const Mask& mask);
  static ColPrunedWeight from_kept_cols(const tensor::MatrixF& w,
                                        std::vector<std::uint32_t> kept);
  /// Rebuild from `condensed` (rows × kept) and its kept columns, strictly
  /// increasing and each below `cols`.
  static ColPrunedWeight from_condensed(std::size_t cols,
                                        tensor::MatrixF condensed,
                                        std::vector<std::uint32_t> kept);

  [[nodiscard]] std::size_t original_rows() const noexcept { return rows_; }
  [[nodiscard]] std::size_t original_cols() const noexcept { return cols_; }
  [[nodiscard]] const tensor::MatrixF& condensed() const noexcept {
    return condensed_;
  }
  [[nodiscard]] const std::vector<std::uint32_t>& kept_cols() const noexcept {
    return kept_;
  }
  [[nodiscard]] double pruning_ratio() const noexcept {
    return cols_ == 0 ? 0.0
                      : 1.0 - static_cast<double>(kept_.size()) /
                                  static_cast<double>(cols_);
  }
  [[nodiscard]] tensor::MatrixF to_dense() const;

 private:
  std::size_t rows_ = 0, cols_ = 0;
  tensor::MatrixF condensed_;        // rows × kept
  std::vector<std::uint32_t> kept_;  // original column index per kept col
};

class TilePrunedWeight {
 public:
  TilePrunedWeight() = default;

  /// Build from a masked weight; requires a tile-structured mask and
  /// dimensions divisible by kTileSide.
  static TilePrunedWeight from_masked(const tensor::MatrixF& w,
                                      const Mask& mask);

  [[nodiscard]] std::size_t rows() const noexcept { return rows_; }
  [[nodiscard]] std::size_t cols() const noexcept { return cols_; }
  [[nodiscard]] std::size_t tile_rows() const noexcept { return rows_ / kTileSide; }
  [[nodiscard]] std::size_t tile_cols() const noexcept { return cols_ / kTileSide; }
  [[nodiscard]] std::size_t nnz_tiles() const noexcept {
    return col_idx_.size();
  }
  /// Distinct (group of kStripGroup tile rows, tile column) pairs among
  /// the surviving tiles: how many 16-column strips of X the BCSR GEMM
  /// loads per 128-row block of X. Counted once, when the weight is built.
  [[nodiscard]] std::size_t x_strips() const noexcept { return x_strips_; }
  [[nodiscard]] double pruning_ratio() const noexcept {
    const auto total = tile_rows() * tile_cols();
    return total == 0 ? 0.0
                      : 1.0 - static_cast<double>(nnz_tiles()) /
                                  static_cast<double>(total);
  }

  /// BCSR accessors: tiles of tile-row tr are [row_ptr[tr], row_ptr[tr+1]).
  [[nodiscard]] const std::vector<std::uint32_t>& row_ptr() const noexcept {
    return row_ptr_;
  }
  [[nodiscard]] const std::vector<std::uint32_t>& col_idx() const noexcept {
    return col_idx_;
  }
  /// Dense values of tile t (kTileSide×kTileSide, row-major).
  [[nodiscard]] const float* tile_values(std::size_t t) const noexcept {
    return values_.data() + t * kTileSide * kTileSide;
  }

  [[nodiscard]] tensor::MatrixF to_dense() const;

 private:
  std::size_t rows_ = 0, cols_ = 0;
  std::vector<std::uint32_t> row_ptr_;
  std::vector<std::uint32_t> col_idx_;
  std::vector<float> values_;  // nnz_tiles × (kTileSide*kTileSide)
  std::size_t x_strips_ = 0;
};

class IrregularWeight {
 public:
  /// One surviving tile: its tile-column, a 256-bit occupancy bitmap and
  /// the packed nonzeros in bitmap order.
  struct Tile {
    std::uint32_t col = 0;
    std::array<std::uint64_t, 4> bitmap{};
    std::uint32_t value_offset = 0;  ///< index into values_
    std::uint32_t value_count = 0;
  };

  IrregularWeight() = default;

  /// Build from any masked weight (dimensions divisible by kTileSide).
  static IrregularWeight from_masked(const tensor::MatrixF& w,
                                     const Mask& mask);

  [[nodiscard]] std::size_t rows() const noexcept { return rows_; }
  [[nodiscard]] std::size_t cols() const noexcept { return cols_; }
  [[nodiscard]] std::size_t nnz() const noexcept { return values_.size(); }
  [[nodiscard]] std::size_t occupied_tiles() const noexcept {
    return tiles_.size();
  }
  [[nodiscard]] double pruning_ratio() const noexcept {
    const auto total = rows_ * cols_;
    return total == 0 ? 0.0
                      : 1.0 - static_cast<double>(nnz()) /
                                  static_cast<double>(total);
  }
  [[nodiscard]] const std::vector<std::uint32_t>& row_ptr() const noexcept {
    return row_ptr_;
  }
  [[nodiscard]] const std::vector<Tile>& tiles() const noexcept {
    return tiles_;
  }
  [[nodiscard]] const std::vector<float>& values() const noexcept {
    return values_;
  }
  /// Bytes the format occupies on the simulated device.
  [[nodiscard]] std::size_t storage_bytes() const noexcept;

  [[nodiscard]] tensor::MatrixF to_dense() const;

 private:
  std::size_t rows_ = 0, cols_ = 0;
  std::vector<std::uint32_t> row_ptr_;  // per tile-row, into tiles_
  std::vector<Tile> tiles_;
  std::vector<float> values_;
};

/// Kept indices as the pruned formats build them: strictly increasing and
/// each below `bound`.
[[nodiscard]] bool kept_in_order(const std::vector<std::uint32_t>& kept,
                                 std::size_t bound);

/// Any weight format a linear layer can carry.
using AnyWeight = std::variant<DenseWeight, RowPrunedWeight, ColPrunedWeight,
                               TilePrunedWeight, IrregularWeight>;

[[nodiscard]] PruneMethod method_of(const AnyWeight& w) noexcept;
[[nodiscard]] double pruning_ratio(const AnyWeight& w) noexcept;
[[nodiscard]] tensor::MatrixF to_dense(const AnyWeight& w);

/// Convert a masked dense weight into the format `method` asks for;
/// validates the mask structure matches the method.
[[nodiscard]] AnyWeight make_weight(PruneMethod method,
                                    const tensor::MatrixF& w, const Mask& mask);

}  // namespace et::sparse
