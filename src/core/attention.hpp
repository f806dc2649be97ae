// The self-attention implementations the paper compares, plus the
// IO-aware streaming operator from FlashAttention-1/2.
//
//   modular_attention      — "PyTorch-like": one kernel per operator, FP32
//                            general-core math, dense weights; every
//                            intermediate round-trips global memory.
//   fused_attention        — "TensorRT-like": horizontally-fused QKV GEMM,
//                            batched per-head score/context GEMMs, and
//                            vertically-fused pointwise kernels. Fewer
//                            launches, but GEMM outputs (Q·Kᵀ, S) still
//                            live in global memory — the paper's key
//                            observation about why kernel fusion alone is
//                            not enough (§1 issue (ii), §3.1).
//   otf_attention          — E.T.'s on-the-fly operator: steps ②–⑥ of
//                            Fig. 3 execute in ONE kernel; each CTA owns a
//                            16-row tile of one head, keeps the scaled Q
//                            rows and the score row in shared memory, and
//                            never writes Q·Kᵀ or S to global memory. The
//                            price: K and V are re-read once per row tile.
//   partial_otf_attention  — §3.2's long-sequence variant: ②–③ become an
//                            outer-product GEMM kernel (Q and K read once,
//                            S written once), ④–⑥ a second fused kernel.
//   flash_attention        — FlashAttention-2-style streaming operator:
//                            one kernel; each CTA owns a Br-row query tile
//                            of one head (seq-length work partitioning)
//                            and streams K/V in Bc-column blocks through
//                            an online softmax (running max/denominator
//                            with rescaling). Neither Q·Kᵀ nor S ever
//                            touches global memory at ANY seq_len — score
//                            traffic is O(N) (per-row softmax statistics)
//                            instead of partial-OTF's O(N²).
//
// All five compute the same function; tests assert cross-equivalence
// (flash within a bounded error of the others: its blockwise softmax
// reassociates the sums).
// Every operator takes a core::ExecContext: the projections run on its
// device and the row-parallel attention math on its ThreadPool, with
// results bit-identical at any thread count (docs/threading.md).
// Every operator throws std::invalid_argument, before launching, when x
// is not cfg.seq_len × cfg.d_model.
#pragma once

#include <array>
#include <span>

#include "core/config.hpp"
#include "core/exec_context.hpp"
#include "core/weights.hpp"
#include "gpusim/device.hpp"
#include "tensor/matrix.hpp"

namespace et::core {

[[nodiscard]] tensor::MatrixF modular_attention(ExecContext& ctx,
                                                const tensor::MatrixF& x,
                                                const AttentionWeights& w,
                                                const AttentionConfig& cfg);

/// `aggressive_fusion` = FasterTransformer-style: masking and softmax
/// merged into one kernel (one fewer global round trip of S than the
/// TensorRT step list of Fig. 12).
[[nodiscard]] tensor::MatrixF fused_attention(ExecContext& ctx,
                                              const tensor::MatrixF& x,
                                              const AttentionWeights& w,
                                              const AttentionConfig& cfg,
                                              bool aggressive_fusion = false);

[[nodiscard]] tensor::MatrixF otf_attention(ExecContext& ctx,
                                            const tensor::MatrixF& x,
                                            const AttentionWeights& w,
                                            const AttentionConfig& cfg);

[[nodiscard]] tensor::MatrixF partial_otf_attention(ExecContext& ctx,
                                                    const tensor::MatrixF& x,
                                                    const AttentionWeights& w,
                                                    const AttentionConfig& cfg);

[[nodiscard]] tensor::MatrixF flash_attention(ExecContext& ctx,
                                              const tensor::MatrixF& x,
                                              const AttentionWeights& w,
                                              const AttentionConfig& cfg);

/// Shared memory one OTF CTA needs (Eq. 6): a 16-row tile of Q's head
/// slice plus a 16-row tile of the seq_len-wide score matrix, in
/// accumulator precision, plus a staging buffer for K tiles.
[[nodiscard]] std::size_t otf_shared_bytes(const AttentionConfig& cfg);

/// Shared memory one flash CTA needs: the Br-row Q tile plus the Br×Bc
/// score tile in accumulator precision, plus K/V staging buffers. Unlike
/// Eq. 6 this never depends on the sequence length — the whole point of
/// streaming the K/V blocks.
[[nodiscard]] std::size_t flash_shared_bytes(const AttentionConfig& cfg);

/// The launch records of E.T.'s attention kernels: everything flash, OTF
/// and partial OTF launch between their shared projections and output
/// linear, in launch order — one kernel for flash and OTF, two for partial
/// OTF. The records are built without a device, so their latency-model
/// fields are unset. A record depends only on the config and the V side
/// (the fold flag and the context width, see v_side), and partial OTF's
/// also on the shared memory `spec` offers a CTA. The operators launch
/// them on their own device, where one that does not fit throws
/// gpusim::SharedMemOverflow; choose_attention_impl prices them with the
/// latency model directly.
struct AttentionKernels {
  std::array<gpusim::KernelStats, 2> kernels;
  std::size_t count = 0;

  [[nodiscard]] std::span<const gpusim::KernelStats> view() const noexcept {
    return {kernels.data(), count};
  }
};

[[nodiscard]] AttentionKernels otf_kernels(const AttentionConfig& cfg,
                                           const VSide& v);
[[nodiscard]] AttentionKernels flash_kernels(const AttentionConfig& cfg,
                                             const VSide& v);
[[nodiscard]] AttentionKernels partial_otf_kernels(
    const gpusim::DeviceSpec& spec, const AttentionConfig& cfg,
    const VSide& v);

}  // namespace et::core
