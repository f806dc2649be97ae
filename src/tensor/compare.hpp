// Numerical comparison helpers for cross-implementation equivalence tests
// (the paper verifies, e.g., that the pre-computed linear transformation
// "yields the same results as the original design" — §3.1).
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>

#include "tensor/matrix.hpp"

namespace et::tensor {

template <typename T>
[[nodiscard]] double max_abs_diff(const Matrix<T>& a, const Matrix<T>& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) {
    return std::numeric_limits<double>::infinity();
  }
  double m = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    m = std::max(m, std::abs(static_cast<double>(a.flat()[i]) -
                             static_cast<double>(b.flat()[i])));
  }
  return m;
}

template <typename T>
[[nodiscard]] bool allclose(const Matrix<T>& a, const Matrix<T>& b,
                            double atol = 1e-6, double rtol = 1e-5) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double x = static_cast<double>(a.flat()[i]);
    const double y = static_cast<double>(b.flat()[i]);
    if (std::isnan(x) != std::isnan(y)) return false;
    if (std::isnan(x)) continue;
    if (std::abs(x - y) > atol + rtol * std::abs(y)) return false;
  }
  return true;
}

/// l2 norm of the r×c tile whose top-left corner is (tr*r, tc*c) — the
/// quantity ‖W_ij‖₂ that drives tile pruning (§4.2).
template <typename T>
[[nodiscard]] double tile_l2_norm(const Matrix<T>& w, std::size_t tile_rows,
                                  std::size_t tile_cols, std::size_t tr,
                                  std::size_t tc) {
  double s = 0.0;
  for (std::size_t i = 0; i < tile_rows; ++i) {
    for (std::size_t j = 0; j < tile_cols; ++j) {
      const double v =
          static_cast<double>(w(tr * tile_rows + i, tc * tile_cols + j));
      s += v * v;
    }
  }
  return std::sqrt(s);
}

}  // namespace et::tensor
