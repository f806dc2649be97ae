// Sequence-length-aware adaptive dispatch (§3.2, §5.2.2).
//
// E.T. switches from the full on-the-fly operator to the partial one when
// the sequence grows long enough that re-reading K/V per row tile costs
// more than materializing the score matrix once (the paper finds the
// crossover at seqLen ≈ 224 on V100S), or when the Eq. 6 shared-memory
// footprint no longer fits. The streaming flash operator supersedes both
// once the sequence spans more than one OTF row tile: its Br-row tiling
// re-reads K/V 4x less than OTF and its score traffic is O(N) where
// partial-OTF's is O(N²), so OTF keeps only the short-sequence regime and
// partial-OTF the degraded one (flash faulted or its tile not fitting).
// An auto-tune mode replays every feasible variant on a scratch
// traffic-only device and picks the lowest modeled latency — mirroring
// how E.T. "automatically searches through various implementations and
// chooses the optimal one" (§5.2.1).
#pragma once

#include <optional>

#include "core/attention.hpp"
#include "core/config.hpp"
#include "core/weights.hpp"
#include "gpusim/device.hpp"

namespace et::core {

enum class AttentionImpl { kModular, kFused, kOtf, kPartialOtf, kFlash };

[[nodiscard]] constexpr std::string_view to_string(AttentionImpl i) noexcept {
  switch (i) {
    case AttentionImpl::kModular: return "modular";
    case AttentionImpl::kFused: return "fused";
    case AttentionImpl::kOtf: return "otf";
    case AttentionImpl::kPartialOtf: return "partial_otf";
    case AttentionImpl::kFlash: return "flash";
  }
  return "?";
}

/// The single inverse of to_string: parse an operator name (e.g. a CLI
/// token or config value). Defined by round trip over the enumerators, so
/// a new AttentionImpl is parseable the moment to_string knows it.
[[nodiscard]] constexpr std::optional<AttentionImpl> from_string(
    std::string_view name) noexcept {
  constexpr AttentionImpl kAll[] = {
      AttentionImpl::kModular, AttentionImpl::kFused, AttentionImpl::kOtf,
      AttentionImpl::kPartialOtf, AttentionImpl::kFlash};
  for (AttentionImpl i : kAll) {
    if (to_string(i) == name) return i;
  }
  return std::nullopt;
}

struct AdaptivePolicy {
  /// Fixed crossover: use partial OTF at seq_len > this (paper: 224).
  /// Only reached when flash is not feasible — see flash_min_seq.
  std::size_t partial_otf_min_seq = 224;
  /// Fixed crossover: use flash at seq_len > this when its tile fits
  /// shared memory. Defaults to OTF's 16-row tile height: within one such
  /// tile the two kernels stream K/V identically and flash only adds its
  /// (m, ℓ) statistics traffic, while every longer sequence re-reads K/V
  /// per row tile — where flash's Br-row tiles win. Matches the
  /// auto-tune replay on V100S/A100 (see bench/fig08_otf_vs_seqlen).
  std::size_t flash_min_seq = 16;
  /// Bypass selection entirely and start the degradation chain at this
  /// implementation — the single mechanism behind et_cli --attention,
  /// bench ablation forcing, and per-impl tests (no hand-rolled call
  /// sites). Launch-time failures still degrade down the chain.
  std::optional<AttentionImpl> forced;
  /// When true, ignore the fixed thresholds and decide by replaying every
  /// feasible operator through the latency model.
  bool auto_tune = false;
};

/// Decide which E.T. operator to run for this configuration. A pure query
/// against the device spec (auto-tune replays on internal scratch
/// devices), so it deliberately keeps the const Device& signature.
[[nodiscard]] AttentionImpl choose_attention_impl(
    const gpusim::Device& dev, const tensor::MatrixF& x,
    const AttentionWeights& w, const AttentionConfig& cfg,
    const AdaptivePolicy& policy = {});

/// Run the operator choose_attention_impl selects. Resilient: if the
/// chosen operator fails with a gpusim::KernelFault or SharedMemOverflow,
/// it walks the degradation chain flash → otf → partial_otf → fused →
/// modular (every implementation computes the same function, so the safe
/// path is always a valid substitute). Each hop is recorded via
/// Device::note_fallback and surfaces in the profiler report; only a fault
/// in the modular baseline itself propagates.
[[nodiscard]] tensor::MatrixF adaptive_attention(
    ExecContext& ctx, const tensor::MatrixF& x, const AttentionWeights& w,
    const AttentionConfig& cfg, const AdaptivePolicy& policy = {});

}  // namespace et::core
