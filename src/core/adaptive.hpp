// Operator selection (§3.2, §5.2.1) and the degradation chain.
//
// E.T. picks its attention operator per configuration: §3.2 switches from
// the full on-the-fly operator to the partial one as the sequence grows,
// and §5.2.1 "automatically searches through various implementations and
// chooses the optimal one". Here that search is one rule: among the E.T.
// operators (flash, OTF, partial OTF) whose kernels can launch on the
// device, run the one whose attention kernel(s) the latency model prices
// lowest. The three share their projections and output linear, so only
// the kernels between them — the launch records in attention.hpp — are
// priced, by running the latency model on the records for the device's
// spec; no device is built and nothing is recorded.
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
  /// Bypass selection entirely and start the degradation chain at this
  /// implementation — the single mechanism behind et_cli --attention,
  /// bench ablation forcing, and per-impl tests (no hand-rolled call
  /// sites). Launch-time failures still degrade down the chain.
  std::optional<AttentionImpl> forced;
};

/// Decide which E.T. operator to run: policy.forced when set, else the
/// candidate whose attention kernel(s) the latency model prices lowest on
/// dev's spec, among those that launch there without SharedMemOverflow.
/// Ties go to the later of partial OTF, OTF, flash. When no candidate
/// launches, the first is returned and adaptive_attention degrades from
/// it.
[[nodiscard]] AttentionImpl choose_attention_impl(
    const gpusim::Device& dev, const AttentionWeights& w,
    const AttentionConfig& cfg, const AdaptivePolicy& policy = {});

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
