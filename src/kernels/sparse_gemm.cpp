#include "kernels/sparse_gemm.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <vector>

namespace et::kernels {

namespace {

using numeric::Precision;
using sparse::kTileSide;

constexpr std::size_t ceil_div(std::size_t a, std::size_t b) {
  return (a + b - 1) / b;
}

/// Y = X·Wᵀ needs X as wide as W; the kernels read X by W's column
/// indices, so a narrower X would be read out of bounds.
void check_width(std::string_view name, const tensor::MatrixF& x,
                 std::size_t w_cols) {
  if (x.cols() != w_cols) {
    throw std::invalid_argument(std::string(name) + ": X has " +
                                std::to_string(x.cols()) +
                                " columns but W has " +
                                std::to_string(w_cols));
  }
}

}  // namespace

tensor::MatrixF bcsr_gemm_nt(core::ExecContext& ctx, const tensor::MatrixF& x,
                             const sparse::TilePrunedWeight& w,
                             numeric::Precision p, std::string_view name) {
  gpusim::Device& dev = ctx.device();
  check_width(name, x, w.cols());
  const std::size_t m = x.rows();
  const std::size_t n = w.rows();
  const std::size_t sb = numeric::storage_bytes(p);
  const std::size_t row_blocks = ceil_div(m, std::size_t{128});

  // Grid: 64-row × 2-tile-row CTAs (fine enough to fill the SMs at the
  // paper's sizes); the X-strip reuse accounting below still assumes
  // kStripGroup tile rows share strips, which neighbouring CTAs get
  // through L2.
  auto launch = dev.launch(
      {.name = name,
       .ctas = ceil_div(m, std::size_t{64}) * ceil_div(w.tile_rows(), 2),
       .shared_bytes_per_cta = 2 * (64 + 2 * kTileSide) * kTileSide * sb,
       .pattern = gpusim::AccessPattern::kTiled});

  // W tiles and the needed X strips are re-read once per 128-row block.
  launch.load_bytes(row_blocks *
                    (w.nnz_tiles() * kTileSide * kTileSide * sb +
                     w.col_idx().size() * sizeof(std::uint32_t) +
                     w.row_ptr().size() * sizeof(std::uint32_t)));
  launch.load_bytes(w.x_strips() * kTileSide * m * sb);
  launch.store_bytes(static_cast<std::uint64_t>(m) * n * sb);
  const std::uint64_t flops =
      2ull * m * kTileSide * kTileSide * w.nnz_tiles();
  if (p == Precision::kFp32) {
    launch.fp_ops(flops);
  } else {
    launch.tensor_ops(flops);
  }

  if (dev.traffic_only()) return tensor::MatrixF::uninitialized(m, n);

  // Pure-math region: each X row accumulates its own Y row, from zero, no
  // device calls, so the pool partitions over i without sink machinery.
  tensor::MatrixF y(m, n);
  ctx.pool().parallel_for(m, [&](std::size_t i) {
    for (std::size_t tr = 0; tr < w.tile_rows(); ++tr) {
      for (std::uint32_t t = w.row_ptr()[tr]; t < w.row_ptr()[tr + 1]; ++t) {
        const std::size_t tc = w.col_idx()[t];
        const float* tile = w.tile_values(t);
        for (std::size_t jj = 0; jj < kTileSide; ++jj) {
          float acc = y(i, tr * kTileSide + jj);
          if (p == Precision::kFp32) {
            for (std::size_t kk = 0; kk < kTileSide; ++kk) {
              acc += x(i, tc * kTileSide + kk) * tile[jj * kTileSide + kk];
            }
          } else {
            for (std::size_t kk = 0; kk < kTileSide; ++kk) {
              acc = numeric::fma_step(p, x(i, tc * kTileSide + kk),
                                      tile[jj * kTileSide + kk], acc);
            }
          }
          y(i, tr * kTileSide + jj) = acc;
        }
      }
    }
    if (p != Precision::kFp32) {
      for (std::size_t j = 0; j < n; ++j) {
        y(i, j) = numeric::round_to_storage(p, y(i, j));
      }
    }
  });
  return y;
}

tensor::MatrixF irregular_gemm_nt(core::ExecContext& ctx,
                                  const tensor::MatrixF& x,
                                  const sparse::IrregularWeight& w,
                                  numeric::Precision p,
                                  std::string_view name) {
  gpusim::Device& dev = ctx.device();
  check_width(name, x, w.cols());
  const std::size_t m = x.rows();
  const std::size_t n = w.rows();
  const std::size_t sb = numeric::storage_bytes(p);
  const std::size_t row_blocks = ceil_div(m, std::size_t{128});
  const std::size_t trows = n / kTileSide;

  auto launch = dev.launch(
      {.name = name,
       .ctas = row_blocks * trows,
       .shared_bytes_per_cta = 2 * 128 * kTileSide * sb + kTileSide * kTileSide * sb,
       // Bitmap-directed gathers are data-dependent: poor coalescing.
       .pattern = gpusim::AccessPattern::kRandom});

  // Format metadata + packed values re-read per row block; X strips loaded
  // per occupied tile with no cross-row sharing (each tile-row is its own
  // CTA and decodes independently).
  launch.load_bytes(row_blocks * w.storage_bytes());
  launch.load_bytes(w.occupied_tiles() * kTileSide * m * sb);
  launch.store_bytes(static_cast<std::uint64_t>(m) * n * sb);
  // Useful math on *general* cores (tensor cores cannot consume the
  // decoded irregular layout) plus bitmap-decode overhead per tile visit.
  launch.fp_ops(2ull * m * w.nnz() +
                row_blocks * w.occupied_tiles() * kTileSide * kTileSide);

  if (dev.traffic_only()) return tensor::MatrixF::uninitialized(m, n);

  // Decode each tile once into a dense scratch, then accumulate into zeros.
  tensor::MatrixF y(m, n);
  std::vector<float> scratch(kTileSide * kTileSide);
  for (std::size_t tr = 0; tr < trows; ++tr) {
    for (std::uint32_t t = w.row_ptr()[tr]; t < w.row_ptr()[tr + 1]; ++t) {
      const auto& tile = w.tiles()[t];
      std::fill(scratch.begin(), scratch.end(), 0.0f);
      std::size_t v = tile.value_offset;
      for (std::size_t bit = 0; bit < kTileSide * kTileSide; ++bit) {
        if ((tile.bitmap[bit / 64] >> (bit % 64)) & 1u) {
          scratch[bit] = w.values()[v++];
        }
      }
      ctx.pool().parallel_for(m, [&](std::size_t i) {
        for (std::size_t jj = 0; jj < kTileSide; ++jj) {
          float acc = y(i, tr * kTileSide + jj);
          for (std::size_t kk = 0; kk < kTileSide; ++kk) {
            acc += x(i, tile.col * kTileSide + kk) * scratch[jj * kTileSide + kk];
          }
          y(i, tr * kTileSide + jj) = acc;
        }
      });
    }
  }
  if (p != Precision::kFp32) {
    for (auto& v : y.flat()) v = numeric::round_to_storage(p, v);
  }
  return y;
}

}  // namespace et::kernels
