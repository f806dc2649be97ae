// Sparse linear kernels: correctness against the oracle and the latency
// ordering claims of §4/§5 (tile fast, irregular slow).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <random>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "gpusim/device.hpp"
#include "kernels/elementwise.hpp"
#include "kernels/linear.hpp"
#include "kernels/sparse_gemm.hpp"
#include "pruning/criteria.hpp"
#include "tensor/compare.hpp"
#include "tensor/random.hpp"
#include "tensor/reference_gemm.hpp"

namespace {

using et::gpusim::Device;
using et::sparse::PruneMethod;
using et::tensor::MatrixF;

struct Fixture {
  MatrixF x{32, 64};
  MatrixF w{48, 64};
  Fixture() {
    et::tensor::fill_normal(x, 21);
    et::tensor::fill_normal(w, 22);
  }
  [[nodiscard]] MatrixF masked(const et::sparse::Mask& m) const {
    MatrixF out = w;
    et::sparse::apply_mask(out, m);
    return out;
  }
};

TEST(BcsrGemm, MatchesReference) {
  Fixture f;
  const auto mask = et::pruning::tile_mask(f.w, 0.5);
  const auto tp = et::sparse::TilePrunedWeight::from_masked(f.w, mask);
  Device dev;
  et::core::ExecContext ctx(dev);
  const MatrixF y = et::kernels::bcsr_gemm_nt(ctx, f.x, tp);
  const MatrixF ref = et::tensor::reference_gemm_nt(f.x, f.masked(mask));
  EXPECT_TRUE(allclose(y, ref, 1e-3, 1e-3))
      << "max diff " << max_abs_diff(y, ref);
}

TEST(BcsrGemm, FullyDenseMaskEqualsDenseGemm) {
  Fixture f;
  const et::sparse::Mask all(48, 64, 1);
  const auto tp = et::sparse::TilePrunedWeight::from_masked(f.w, all);
  Device dev;
  et::core::ExecContext ctx(dev);
  const MatrixF sparse_y = et::kernels::bcsr_gemm_nt(ctx, f.x, tp);
  const MatrixF dense_y = et::kernels::gemm_nt(ctx, f.x, f.w);
  EXPECT_TRUE(allclose(sparse_y, dense_y, 1e-3, 1e-3));
}

TEST(BcsrGemm, TrafficScalesWithDensity) {
  Fixture f;
  Device dev;
  et::core::ExecContext ctx(dev);
  dev.set_traffic_only(true);
  const auto run = [&](double ratio) {
    const auto tp = et::sparse::TilePrunedWeight::from_masked(
        f.w, et::pruning::tile_mask(f.w, ratio));
    dev.reset();
    (void)et::kernels::bcsr_gemm_nt(ctx, f.x, tp,
                                    et::numeric::Precision::kMixed);
    return dev.history()[0];
  };
  const auto dense = run(0.0);
  const auto sparse = run(0.9);
  EXPECT_LT(sparse.tensor_ops, dense.tensor_ops / 5);
  EXPECT_LT(sparse.global_load_bytes, dense.global_load_bytes);
}

/// The BCSR kernel's X-strip load count as first written: one std::set of
/// tile columns per group of 8 tile rows.
std::size_t set_reference_strips(const et::sparse::TilePrunedWeight& w) {
  std::size_t strips = 0;
  for (std::size_t g0 = 0; g0 < w.tile_rows(); g0 += 8) {
    std::set<std::uint32_t> cols;
    const std::size_t g1 = std::min<std::size_t>(g0 + 8, w.tile_rows());
    for (std::size_t tr = g0; tr < g1; ++tr) {
      for (std::uint32_t t = w.row_ptr()[tr]; t < w.row_ptr()[tr + 1]; ++t) {
        cols.insert(w.col_idx()[t]);
      }
    }
    strips += cols.size();
  }
  return strips;
}

TEST(BcsrGemm, StripCountMatchesSetReference) {
  constexpr std::size_t kTile = et::sparse::kTileSide;
  const auto p = et::numeric::Precision::kMixed;
  const std::size_t sb = et::numeric::storage_bytes(p);
  struct Shape {
    std::size_t tile_rows, tile_cols;
    double density;  ///< chance a tile survives; 1 = fully dense
  };
  // Tile-row counts that are and are not multiples of the 8-row group.
  const Shape shapes[] = {{1, 4, 0.5},  {3, 5, 1.0},  {8, 6, 0.3},
                          {13, 7, 0.4}, {13, 7, 1.0}, {16, 3, 0.6},
                          {21, 9, 0.2}, {48, 48, 0.2}};
  std::uint64_t seed = 40;
  for (const Shape& sh : shapes) {
    for (int rep = 0; rep < 3; ++rep) {
      std::mt19937_64 rng(++seed);
      std::uniform_real_distribution<double> u(0.0, 1.0);
      const std::size_t rows = sh.tile_rows * kTile;
      const std::size_t cols = sh.tile_cols * kTile;
      MatrixF w(rows, cols);
      et::tensor::fill_normal(w, seed);
      et::sparse::Mask mask(rows, cols, 0);
      for (std::size_t tr = 0; tr < sh.tile_rows; ++tr) {
        // Every third tile row of a sparse mask is left empty.
        if (sh.density < 1.0 && tr % 3 == 1) continue;
        for (std::size_t tc = 0; tc < sh.tile_cols; ++tc) {
          if (u(rng) >= sh.density) continue;
          for (std::size_t r = 0; r < kTile; ++r) {
            for (std::size_t c = 0; c < kTile; ++c) {
              mask(tr * kTile + r, tc * kTile + c) = 1;
            }
          }
        }
      }
      const auto tp = et::sparse::TilePrunedWeight::from_masked(w, mask);
      for (const std::size_t m : {std::size_t{1}, std::size_t{70},
                                  std::size_t{200}}) {
        SCOPED_TRACE(std::to_string(sh.tile_rows) + "x" +
                     std::to_string(sh.tile_cols) + " tiles, density " +
                     std::to_string(sh.density) + ", rep " +
                     std::to_string(rep) + ", m=" + std::to_string(m));
        const MatrixF x(m, cols);
        Device dev;
        dev.set_traffic_only(true);
        et::core::ExecContext ctx(dev);
        (void)et::kernels::bcsr_gemm_nt(ctx, x, tp, p);
        const std::uint64_t row_blocks = (m + 127) / 128;
        const std::uint64_t want =
            row_blocks * (tp.nnz_tiles() * kTile * kTile * sb +
                          tp.col_idx().size() * sizeof(std::uint32_t) +
                          tp.row_ptr().size() * sizeof(std::uint32_t)) +
            set_reference_strips(tp) * kTile * m * sb;
        ASSERT_EQ(dev.launch_count(), 1u);
        EXPECT_EQ(dev.history()[0].global_load_bytes, want);
      }
    }
  }
}

TEST(IrregularGemm, MatchesReference) {
  Fixture f;
  const auto mask = et::pruning::magnitude_mask(f.w, 0.6);
  const auto iw = et::sparse::IrregularWeight::from_masked(f.w, mask);
  Device dev;
  et::core::ExecContext ctx(dev);
  const MatrixF y = et::kernels::irregular_gemm_nt(ctx, f.x, iw);
  const MatrixF ref = et::tensor::reference_gemm_nt(f.x, f.masked(mask));
  EXPECT_TRUE(allclose(y, ref, 1e-3, 1e-3));
}

TEST(IrregularGemm, MuchSlowerThanTileAtSameSparsity) {
  // The Table 1 strawman: irregular pruning saves FLOPs but cannot use
  // tensor cores and gathers randomly, so it is far slower than tile
  // pruning at the same ratio. Use a realistic linear-layer size.
  MatrixF x(128, 768), w(768, 768);
  et::tensor::fill_normal(x, 31);
  et::tensor::fill_normal(w, 32);
  Device dev;
  et::core::ExecContext ctx(dev);
  dev.set_traffic_only(true);

  const auto tile_mask = et::pruning::tile_mask(w, 0.7);
  const auto tp = et::sparse::TilePrunedWeight::from_masked(w, tile_mask);
  (void)et::kernels::bcsr_gemm_nt(ctx, x, tp,
                                  et::numeric::Precision::kMixed);
  const double tile_us = dev.total_time_us();
  dev.reset();

  const auto irr_mask = et::pruning::magnitude_mask(w, 0.7);
  const auto iw = et::sparse::IrregularWeight::from_masked(w, irr_mask);
  (void)et::kernels::irregular_gemm_nt(ctx, x, iw,
                                       et::numeric::Precision::kMixed);
  const double irr_us = dev.total_time_us();

  EXPECT_GT(irr_us, 5.0 * tile_us)
      << "tile " << tile_us << "us vs irregular " << irr_us << "us";
}

TEST(Linear, DenseDispatch) {
  Fixture f;
  Device dev;
  et::core::ExecContext ctx(dev);
  const auto res = et::kernels::linear(
      ctx, f.x, et::sparse::DenseWeight(f.w));
  EXPECT_FALSE(res.condensed);
  const MatrixF ref = et::tensor::reference_gemm_nt(f.x, f.w);
  EXPECT_TRUE(allclose(res.y, ref, 1e-3, 1e-3));
}

TEST(Linear, RowPrunedScattered) {
  Fixture f;
  const auto mask = et::pruning::row_mask(f.w, 0.5);
  const auto w = et::sparse::make_weight(PruneMethod::kRow, f.w, mask);
  Device dev;
  et::core::ExecContext ctx(dev);
  const auto res = et::kernels::linear(ctx, f.x, w);
  EXPECT_FALSE(res.condensed);
  EXPECT_EQ(res.y.cols(), 48u);
  const MatrixF ref = et::tensor::reference_gemm_nt(f.x, f.masked(mask));
  EXPECT_TRUE(allclose(res.y, ref, 1e-3, 1e-3));
  // gemm + scatter = 2 kernels
  EXPECT_EQ(dev.launch_count(), 2u);
}

TEST(Linear, RowPrunedCondensed) {
  Fixture f;
  const auto mask = et::pruning::row_mask(f.w, 0.5);
  const auto w = et::sparse::make_weight(PruneMethod::kRow, f.w, mask);
  Device dev;
  et::core::ExecContext ctx(dev);
  et::kernels::LinearOptions opt;
  opt.scatter_row_pruned_output = false;
  const auto res = et::kernels::linear(ctx, f.x, w, opt);
  EXPECT_TRUE(res.condensed);
  EXPECT_EQ(res.y.cols(), 24u);
  EXPECT_EQ(res.nonzero_cols.size(), 24u);
  EXPECT_EQ(dev.launch_count(), 1u) << "no scatter kernel";
  // Condensed column i is output column nonzero_cols[i] of the masked
  // dense product.
  const MatrixF ref = et::tensor::reference_gemm_nt(f.x, f.masked(mask));
  for (std::size_t r = 0; r < res.y.rows(); ++r) {
    for (std::size_t i = 0; i < res.nonzero_cols.size(); ++i) {
      EXPECT_NEAR(res.y(r, i), ref(r, res.nonzero_cols[i]),
                  1e-3 + 1e-3 * std::abs(ref(r, res.nonzero_cols[i])))
          << "row " << r << " column " << res.nonzero_cols[i];
    }
  }
}

TEST(Linear, ColumnPrunedNeedsGather) {
  Fixture f;
  const auto mask = et::pruning::column_mask(f.w, 0.5);
  const auto w = et::sparse::make_weight(PruneMethod::kColumn, f.w, mask);
  Device dev;
  et::core::ExecContext ctx(dev);
  const auto res = et::kernels::linear(ctx, f.x, w);
  const MatrixF ref = et::tensor::reference_gemm_nt(f.x, f.masked(mask));
  EXPECT_TRUE(allclose(res.y, ref, 1e-3, 1e-3));
  EXPECT_EQ(dev.launch_count(), 2u) << "gather + gemm";
  EXPECT_NE(dev.history()[0].name.view().find("gather"), std::string::npos);
}

TEST(Linear, TilePrunedSingleKernel) {
  Fixture f;
  const auto mask = et::pruning::tile_mask(f.w, 0.5);
  const auto w = et::sparse::make_weight(PruneMethod::kTile, f.w, mask);
  Device dev;
  et::core::ExecContext ctx(dev);
  const auto res = et::kernels::linear(ctx, f.x, w);
  const MatrixF ref = et::tensor::reference_gemm_nt(f.x, f.masked(mask));
  EXPECT_TRUE(allclose(res.y, ref, 1e-3, 1e-3));
  EXPECT_EQ(dev.launch_count(), 1u)
      << "tile pruning has no pre/post-processing (§4.2)";
}

// Every format reads X by the weight's column indices, so an X of another
// width throws before anything launches.
TEST(Linear, EveryFormatRejectsMismatchedInputWidth) {
  Fixture f;
  const std::vector<std::pair<PruneMethod, et::sparse::Mask>> formats = {
      {PruneMethod::kDense, et::sparse::Mask(48, 64, 1)},
      {PruneMethod::kRow, et::pruning::row_mask(f.w, 0.5)},
      {PruneMethod::kColumn, et::pruning::column_mask(f.w, 0.5)},
      {PruneMethod::kTile, et::pruning::tile_mask(f.w, 0.5)},
      {PruneMethod::kIrregular, et::pruning::magnitude_mask(f.w, 0.5)},
  };
  for (const auto& [method, mask] : formats) {
    const auto w = et::sparse::make_weight(method, f.w, mask);
    for (const std::size_t width : {std::size_t{48}, std::size_t{63},
                                    std::size_t{80}}) {
      SCOPED_TRACE(std::string(to_string(method)) + ", X width " +
                   std::to_string(width));
      const MatrixF x(32, width);
      Device dev;
      et::core::ExecContext ctx(dev);
      EXPECT_THROW((void)et::kernels::linear(ctx, x, w), std::invalid_argument);
      EXPECT_EQ(dev.launch_count(), 0u);
    }
  }
  // The gather kernel alone rejects a column X does not have.
  const MatrixF x(4, 8);
  const std::vector<std::uint32_t> cols = {1, 8};
  Device dev;
  EXPECT_THROW((void)et::kernels::gather_cols(dev, x, cols),
               std::invalid_argument);
  EXPECT_EQ(dev.launch_count(), 0u);
}

class PrunedLinearSweep
    : public ::testing::TestWithParam<std::tuple<PruneMethod, double>> {};

TEST_P(PrunedLinearSweep, MatchesMaskedDenseReference) {
  const auto [method, ratio] = GetParam();
  Fixture f;
  et::sparse::Mask mask(48, 64, 1);
  switch (method) {
    case PruneMethod::kRow: mask = et::pruning::row_mask(f.w, ratio); break;
    case PruneMethod::kColumn:
      mask = et::pruning::column_mask(f.w, ratio);
      break;
    case PruneMethod::kTile: mask = et::pruning::tile_mask(f.w, ratio); break;
    case PruneMethod::kIrregular:
      mask = et::pruning::magnitude_mask(f.w, ratio);
      break;
    case PruneMethod::kDense: break;
  }
  const auto w = et::sparse::make_weight(method, f.w, mask);
  Device dev;
  et::core::ExecContext ctx(dev);
  const auto res = et::kernels::linear(ctx, f.x, w);
  const MatrixF ref = et::tensor::reference_gemm_nt(f.x, f.masked(mask));
  EXPECT_TRUE(allclose(res.y, ref, 1e-3, 1e-3))
      << to_string(method) << " at ratio " << ratio;
}

INSTANTIATE_TEST_SUITE_P(
    MethodsAndRatios, PrunedLinearSweep,
    ::testing::Combine(::testing::Values(PruneMethod::kRow,
                                         PruneMethod::kColumn,
                                         PruneMethod::kTile,
                                         PruneMethod::kIrregular),
                       ::testing::Values(0.25, 0.5, 0.75)));

}  // namespace
