// Dense tiled GEMM on the simulated tensor cores.
//
// The multiplication is decomposed into 16×16×16 tile FMAs (§2.2, Fig. 2a)
// grouped into CTA blocks of block_m × block_n output elements. The block
// shape is the "algorithm" — E.T. auto-searches cuBLAS algorithms and
// settles on CUBLAS_GEMM_ALGO5_TENSOR_OP on the paper's server (§5.2.1);
// here the same search runs over the block-shape variants below and the
// analytic latency model picks the winner.
//
// Math executes on the CPU with the requested accumulator-precision policy
// so numerical claims (overflow, rounding) are real; traffic/FLOP counters
// and the modeled latency describe the equivalent GPU kernel. Row loops
// run on the context's ThreadPool with a thread-count-invariant partition,
// so results are bit-identical at any thread count (docs/threading.md).
// Under the binary16 policies each operand is rounded once per call and
// sixteen output columns advance per step, with the outputs and overflow
// counts of per-step fma_step rounding (docs/simulator.md, "Host cost of
// the numerics").
//
// Every entry point throws std::invalid_argument, before launching, when
// the operands' inner dimensions disagree.
#pragma once

#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/exec_context.hpp"
#include "gpusim/device.hpp"
#include "numeric/precision.hpp"
#include "tensor/matrix.hpp"

namespace et::kernels {

struct GemmAlgo {
  std::string name;
  std::size_t block_m = 128;
  std::size_t block_n = 128;
  /// Split-K factor: the k dimension is partitioned across split_k CTA
  /// groups whose partial results are reduced through global memory —
  /// how cuBLAS keeps small-m/n problems from starving the SMs.
  std::size_t split_k = 1;
};

/// The algorithm menu the autotuner searches (analogous to
/// cublasGemmAlgo_t's tensor-op entries).
[[nodiscard]] const std::vector<GemmAlgo>& gemm_algos();

/// ALGO5 analogue — 256×128 blocks, the paper's reported winner.
[[nodiscard]] const GemmAlgo& gemm_algo5();

/// Pick the algorithm with the lowest modeled latency for an m×n×k
/// problem under `p` on `spec` (no kernel is launched).
[[nodiscard]] const GemmAlgo& autotune_gemm(const gpusim::DeviceSpec& spec,
                                            std::size_t m, std::size_t n,
                                            std::size_t k,
                                            numeric::Precision p);

/// C = A (m×k) · Bᵀ (B is n×k) — the X·Wᵀ orientation of every linear
/// transformation in the paper.
[[nodiscard]] tensor::MatrixF gemm_nt(
    core::ExecContext& ctx, const tensor::MatrixF& a, const tensor::MatrixF& b,
    numeric::Precision p = numeric::Precision::kFp32,
    const GemmAlgo* algo = nullptr, std::string_view name = "gemm_nt");

/// gemm_nt against the row-wise stack of the B panels, without building
/// the stack: C = A · [B_0; B_1; …]ᵀ, returned as its column blocks
/// C_i = A · B_iᵀ, one matrix per panel. This is the horizontally fused
/// Q/K/V projection of §5.2.1, run straight from the three weights.
///
/// The launch is gemm_nt's for the stacked m × Σn_i × k problem: one
/// kernel, autotuned, priced and named exactly as gemm_nt(a, stack) would
/// be, and gemm_nt is the one-panel case. A is rounded once for every
/// panel. Each output is the same dot product in the same k order as in
/// the stacked call, so the outputs and overflow_count() match it bit for
/// bit; a panel with an operand that overflows on rounding takes the
/// per-multiply-add loop by itself. An empty list, a null panel or a panel
/// not k wide also throws std::invalid_argument.
[[nodiscard]] std::vector<tensor::MatrixF> gemm_nt_panels(
    core::ExecContext& ctx, const tensor::MatrixF& a,
    std::span<const tensor::MatrixF* const> bs,
    numeric::Precision p = numeric::Precision::kFp32,
    const GemmAlgo* algo = nullptr, std::string_view name = "gemm_nt");

/// Batched C_i = A · B_iᵀ over one shared input panel: the whole batch
/// executes in ONE launch (the cublasGemmStridedBatchedEx analogue) with
/// the A strips staged in shared memory once and every B panel streamed
/// against them — so the A traffic is paid once for the batch instead of
/// once per multiplication. The decode scheduler uses this to fuse the
/// q/k/v projections of a whole batch of sequences.
///
/// Per-element math is exactly gemm_nt's accumulation loop, so each C_i
/// is bit-identical to an unbatched gemm_nt(a, *bs[i]) call. An empty
/// batch or a null panel also throws std::invalid_argument.
[[nodiscard]] std::vector<tensor::MatrixF> batched_gemm_nt(
    core::ExecContext& ctx, const tensor::MatrixF& a,
    const std::vector<const tensor::MatrixF*>& bs,
    numeric::Precision p = numeric::Precision::kFp32,
    const GemmAlgo* algo = nullptr, std::string_view name = "batched_gemm_nt");

}  // namespace et::kernels
