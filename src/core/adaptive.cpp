#include "core/adaptive.hpp"

#include <limits>

#include "gpusim/latency_model.hpp"

namespace et::core {

AttentionImpl choose_attention_impl(const gpusim::Device& dev,
                                    const AttentionWeights& w,
                                    const AttentionConfig& cfg,
                                    const AdaptivePolicy& policy) {
  cfg.validate();
  // A forced operator is a contract, not a heuristic: start there (the
  // degradation chain still applies if it fails at launch time).
  if (policy.forced) return *policy.forced;
  // Flash, OTF and partial OTF share their projections and output linear,
  // so only their attention kernels are priced: the latency model runs on
  // each record for this device's spec, and no device is built. A kernel
  // that overflows shared memory cannot launch here.
  const gpusim::DeviceSpec& spec = dev.spec();
  const VSide v = v_side(w, cfg);
  const auto price = [&](AttentionImpl impl) -> std::optional<double> {
    const AttentionKernels kernels =
        impl == AttentionImpl::kOtf     ? otf_kernels(cfg, v)
        : impl == AttentionImpl::kFlash ? flash_kernels(cfg, v)
                                        : partial_otf_kernels(spec, cfg, v);
    // Summed in launch order from zero, as Device::total_time_us sums.
    double us = 0.0;
    for (const gpusim::KernelStats& st : kernels.view()) {
      if (!dev.fits_shared(st.shared_bytes_per_cta)) return std::nullopt;
      us += gpusim::estimate_latency(st, spec).total_us;
    }
    return us;
  };
  // Each later candidate wins ties.
  static constexpr AttentionImpl kCandidates[] = {
      AttentionImpl::kPartialOtf, AttentionImpl::kOtf, AttentionImpl::kFlash};
  AttentionImpl best = kCandidates[0];
  double best_us = std::numeric_limits<double>::infinity();
  for (const AttentionImpl impl : kCandidates) {
    const std::optional<double> us = price(impl);
    if (us && *us <= best_us) {
      best = impl;
      best_us = *us;
    }
  }
  return best;
}

namespace {

tensor::MatrixF run_impl(AttentionImpl impl, ExecContext& ctx,
                         const tensor::MatrixF& x, const AttentionWeights& w,
                         const AttentionConfig& cfg) {
  switch (impl) {
    case AttentionImpl::kFlash:
      return flash_attention(ctx, x, w, cfg);
    case AttentionImpl::kOtf:
      return otf_attention(ctx, x, w, cfg);
    case AttentionImpl::kPartialOtf:
      return partial_otf_attention(ctx, x, w, cfg);
    case AttentionImpl::kFused:
      return fused_attention(ctx, x, w, cfg);
    case AttentionImpl::kModular:
      break;
  }
  return modular_attention(ctx, x, w, cfg);
}

}  // namespace

tensor::MatrixF adaptive_attention(ExecContext& ctx, const tensor::MatrixF& x,
                                   const AttentionWeights& w,
                                   const AttentionConfig& cfg,
                                   const AdaptivePolicy& policy) {
  gpusim::Device& dev = ctx.device();
  cfg.validate();
  // All five implementations compute the same function (the tests assert
  // cross-equivalence), so any faster operator that fails mid-flight can
  // be substituted by the next slower one without changing the answer —
  // the exact-fallback guarantee. Walk the chain from the chosen operator
  // toward kModular, the always-safe baseline; each hop is reported to
  // the device so degradation is observable, not silent. Launches already
  // recorded by a failed attempt stay in the log: that is real (wasted)
  // work the profiler should charge for.
  static constexpr AttentionImpl kChain[] = {
      AttentionImpl::kFlash, AttentionImpl::kOtf, AttentionImpl::kPartialOtf,
      AttentionImpl::kFused, AttentionImpl::kModular};
  constexpr std::size_t kChainLen = std::size(kChain);

  const AttentionImpl first = choose_attention_impl(dev, w, cfg, policy);
  std::size_t start = 0;
  while (kChain[start] != first) ++start;

  for (std::size_t i = start;; ++i) {
    try {
      return run_impl(kChain[i], ctx, x, w, cfg);
    } catch (const gpusim::KernelFault& f) {
      if (i + 1 >= kChainLen) throw;  // nothing safer than modular
      dev.note_fallback({std::string(to_string(kChain[i])),
                         std::string(to_string(kChain[i + 1])), f.kernel(),
                         std::string(to_string(f.cause()))});
    } catch (const gpusim::SharedMemOverflow& o) {
      if (i + 1 >= kChainLen) throw;
      dev.note_fallback({std::string(to_string(kChain[i])),
                         std::string(to_string(kChain[i + 1])), o.kernel(),
                         "shared_mem_overflow"});
    }
  }
}

}  // namespace et::core
