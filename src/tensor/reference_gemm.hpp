// Double-precision reference GEMM — the oracle every simulated kernel is
// tested against. Never used on a hot path.
#pragma once

#include <cassert>

#include "tensor/matrix.hpp"

namespace et::tensor {

/// C = A (m×k) · Bᵀ where B is (n×k) — the X·Wᵀ shape of every linear
/// transformation in the paper (§2.1).
template <typename TA, typename TB>
[[nodiscard]] MatrixF reference_gemm_nt(const Matrix<TA>& a,
                                        const Matrix<TB>& b) {
  assert(a.cols() == b.cols());
  MatrixF c(a.rows(), b.rows());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < b.rows(); ++j) {
      double acc = 0.0;
      for (std::size_t k = 0; k < a.cols(); ++k) {
        acc += static_cast<double>(a(i, k)) * static_cast<double>(b(j, k));
      }
      c(i, j) = static_cast<float>(acc);
    }
  }
  return c;
}

}  // namespace et::tensor
