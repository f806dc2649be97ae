// Sequence-length-aware dispatch (§3.2) in action: watch E.T. choose
// between the streaming flash operator and the full/partial on-the-fly
// operators as the sequence grows — the operator whose kernels the
// latency model prices lowest — and see the shared-memory constraints
// (Eq. 6 for OTF, the Br×Bc tile for flash) rule operators out on a
// hypothetical device with a small scratchpad. A final section shows the
// forced override — the mechanism behind et_cli --attention — pinning
// each of the five operators regardless of shape.
//
//   $ ./examples/adaptive_attention
#include <cstdio>

#include "core/adaptive.hpp"
#include "gpusim/device.hpp"

namespace {

void sweep(et::gpusim::Device& dev, const char* title) {
  et::core::AttentionConfig cfg;
  cfg.d_model = 768;
  cfg.num_heads = 12;
  cfg.precision = et::numeric::Precision::kPureFp16;
  cfg.causal_mask = false;
  const auto w = et::core::make_dense_weights(cfg, 3);

  std::printf("\n%s (shared memory per CTA: %zu KB)\n", title,
              dev.spec().shared_mem_per_cta_bytes / 1024);
  std::printf("%8s  %14s  %6s  %13s  %6s  %12s\n", "seq_len", "Eq.6 bytes",
              "fits?", "flash bytes", "fits?", "chosen impl");
  for (std::size_t seq = 64; seq <= 512; seq += 64) {
    cfg.seq_len = seq;
    const std::size_t otf_bytes = et::core::otf_shared_bytes(cfg);
    // Seq-independent by design: the Br×Bc tile never grows with seq_len.
    const std::size_t flash_bytes = et::core::flash_shared_bytes(cfg);
    const auto impl = et::core::choose_attention_impl(dev, w, cfg);
    std::printf("%8zu  %14zu  %6s  %13zu  %6s  %12s\n", seq, otf_bytes,
                dev.fits_shared(otf_bytes) ? "yes" : "NO", flash_bytes,
                dev.fits_shared(flash_bytes) ? "yes" : "NO",
                std::string(to_string(impl)).c_str());
  }
}

// The forced override: pin every operator in turn on one shape. This is
// what et_cli --attention and the bench ablations go through — selection
// is bypassed, but the degradation chain still guards the launch.
void forced_demo(et::gpusim::Device& dev) {
  et::core::AttentionConfig cfg;
  cfg.d_model = 768;
  cfg.num_heads = 12;
  cfg.seq_len = 256;
  cfg.precision = et::numeric::Precision::kPureFp16;
  const auto w = et::core::make_dense_weights(cfg, 3);

  std::printf("\nforced override (seq_len 256 on %s)\n",
              dev.spec().name.c_str());
  constexpr et::core::AttentionImpl kAll[] = {
      et::core::AttentionImpl::kModular, et::core::AttentionImpl::kFused,
      et::core::AttentionImpl::kOtf, et::core::AttentionImpl::kPartialOtf,
      et::core::AttentionImpl::kFlash};
  for (const auto impl : kAll) {
    et::core::AdaptivePolicy policy;
    policy.forced = impl;
    const auto chosen = et::core::choose_attention_impl(dev, w, cfg, policy);
    std::printf("  forced=%-11s -> runs %s\n",
                std::string(to_string(impl)).c_str(),
                std::string(to_string(chosen)).c_str());
  }
}

}  // namespace

int main(int, char**) {
  std::printf("E.T. adaptive attention dispatch\n");

  et::gpusim::Device v100(et::gpusim::v100s());
  sweep(v100, "V100S (96 KB shared memory)");

  // A hypothetical accelerator with a tiny scratchpad: neither the Eq. 6
  // score row nor the flash Br×Bc tile can be staged, so partial OTF is
  // the only candidate left, even at short sequences.
  et::gpusim::DeviceSpec tiny = et::gpusim::v100s();
  tiny.name = "tiny-scratchpad accelerator";
  tiny.shared_mem_per_cta_bytes = 4 * 1024;
  et::gpusim::Device small(tiny);
  sweep(small, "hypothetical 4 KB scratchpad");

  // An A100 for the §7 discussion: more shared memory and bandwidth shift
  // the crossover.
  et::gpusim::Device a100(et::gpusim::a100());
  sweep(a100, "A100 (164 KB shared memory)");

  forced_demo(v100);
  return 0;
}
