// Sparse linear-transformation kernels for the pruned weight formats.
//
//   bcsr_gemm_nt     — Y = X·Wᵀ with a tensor-tile-pruned W (§4.2): every
//                      surviving 16×16 tile feeds one tensor-core tile FMA;
//                      no pre/post-processing of X or Y is needed, which is
//                      the structural advantage the paper claims for tile
//                      pruning over column pruning.
//   irregular_gemm_nt — Y = X·Wᵀ with the two-level bitmap+BCSR format
//                      ([59], §4.1): bitmap decode runs on general cores
//                      with data-dependent access, so it is dramatically
//                      slower despite touching fewer weights — the Table 1
//                      "39×/44× latency" strawman.
//
// Both throw std::invalid_argument, before launching, when X is not as
// wide as W.
#pragma once

#include <string_view>

#include "core/exec_context.hpp"
#include "gpusim/device.hpp"
#include "numeric/precision.hpp"
#include "sparse/formats.hpp"
#include "tensor/matrix.hpp"

namespace et::kernels {

[[nodiscard]] tensor::MatrixF bcsr_gemm_nt(
    core::ExecContext& ctx, const tensor::MatrixF& x,
    const sparse::TilePrunedWeight& w,
    numeric::Precision p = numeric::Precision::kFp32,
    std::string_view name = "bcsr_gemm_nt");

[[nodiscard]] tensor::MatrixF irregular_gemm_nt(
    core::ExecContext& ctx, const tensor::MatrixF& x,
    const sparse::IrregularWeight& w,
    numeric::Precision p = numeric::Precision::kFp32,
    std::string_view name = "irregular_gemm_nt");

}  // namespace et::kernels
