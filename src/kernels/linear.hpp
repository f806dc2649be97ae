// Linear transformation Y = X·Wᵀ over any pruned weight format, including
// the pre/post-processing kernels each format needs (§4.1):
//
//   dense      — autotuned tensor-core GEMM (the paper's cuBLAS path);
//   row        — GEMM on the condensed weight; the result has values only
//                in the kept columns. The caller chooses whether to pay
//                the scatter kernel for a full-width output or to consume
//                the condensed output + column map directly (the latter is
//                what makes attention-aware pruning fast, §4.3);
//   column     — gather kernel builds X_adjusted, then dense GEMM; the
//                output is fully dense (no downstream sparsity — §4.3's
//                argument against column pruning for W_Q/W_K);
//   tile       — BCSR tensor-tile GEMM, no pre/post-processing;
//   irregular  — two-level bitmap format on general cores (slow).
//
// Every format throws std::invalid_argument, before launching, when X is
// not as wide as the weight's input.
#pragma once

#include <cstdint>
#include <vector>

#include "gpusim/device.hpp"
#include "kernels/gemm.hpp"
#include "kernels/sparse_gemm.hpp"
#include "numeric/precision.hpp"
#include "sparse/formats.hpp"

namespace et::kernels {

struct LinearResult {
  tensor::MatrixF y;
  /// When `condensed` is true, y has one column per entry of
  /// `nonzero_cols` (the original output indices); otherwise y is
  /// full-width and nonzero_cols is empty.
  bool condensed = false;
  std::vector<std::uint32_t> nonzero_cols;
};

struct LinearOptions {
  numeric::Precision precision = numeric::Precision::kFp32;
  /// For row-pruned weights: emit the scatter kernel and return a
  /// full-width output instead of the condensed one.
  bool scatter_row_pruned_output = true;
};

[[nodiscard]] LinearResult linear(core::ExecContext& ctx,
                                  const tensor::MatrixF& x,
                                  const sparse::AnyWeight& w,
                                  const LinearOptions& opt = {},
                                  std::string_view name = "linear");

}  // namespace et::kernels
