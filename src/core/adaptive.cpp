#include "core/adaptive.hpp"

namespace et::core {

AttentionImpl choose_attention_impl(const gpusim::Device& dev,
                                    const tensor::MatrixF& x,
                                    const AttentionWeights& w,
                                    const AttentionConfig& cfg,
                                    const AdaptivePolicy& policy) {
  cfg.validate();
  // A forced operator is a contract, not a heuristic: start there (the
  // degradation chain still applies if it fails at launch time).
  if (policy.forced) return *policy.forced;
  const bool flash_fits = dev.fits_shared(flash_shared_bytes(cfg));
  const bool otf_fits = dev.fits_shared(otf_shared_bytes(cfg));
  if (!policy.auto_tune) {
    if (flash_fits && cfg.seq_len > policy.flash_min_seq) {
      return AttentionImpl::kFlash;
    }
    // Flash out of the picture (short sequence, or a tile too big for the
    // scratchpad): the paper's original §3.2 decision between the OTF
    // variants, with the Eq. 6 capacity constraint checked first.
    if (!otf_fits) return AttentionImpl::kPartialOtf;
    return cfg.seq_len > policy.partial_otf_min_seq
               ? AttentionImpl::kPartialOtf
               : AttentionImpl::kOtf;
  }
  // Replay each feasible variant against the latency model only (no math,
  // so a serial scratch context is all that's needed) and keep the lowest
  // modeled time; ties go to the earlier candidate.
  const auto replay = [&](AttentionImpl impl) {
    gpusim::Device scratch(dev.spec());
    scratch.set_traffic_only(true);
    ExecContext scratch_ctx(scratch);
    switch (impl) {
      case AttentionImpl::kFlash:
        (void)flash_attention(scratch_ctx, x, w, cfg);
        break;
      case AttentionImpl::kOtf:
        (void)otf_attention(scratch_ctx, x, w, cfg);
        break;
      default:
        (void)partial_otf_attention(scratch_ctx, x, w, cfg);
        break;
    }
    return scratch.total_time_us();
  };
  AttentionImpl best = AttentionImpl::kPartialOtf;  // always feasible
  double best_us = replay(best);
  if (otf_fits) {
    const double t = replay(AttentionImpl::kOtf);
    if (t <= best_us) {
      best = AttentionImpl::kOtf;
      best_us = t;
    }
  }
  if (flash_fits) {
    const double t = replay(AttentionImpl::kFlash);
    if (t <= best_us) {
      best = AttentionImpl::kFlash;
      best_us = t;
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

  const AttentionImpl first = choose_attention_impl(dev, x, w, cfg, policy);
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
