// Ablation (§3.2): where should the full→partial on-the-fly switch sit?
// Sweeps the fixed threshold against the per-length best of the two OTF
// variants, then checks the latency-model choice among full OTF, partial
// OTF and flash against the per-length best of all three, at BERT_BASE
// width. Exits nonzero unless the choice matches that oracle exactly.
#include <algorithm>
#include <cmath>
#include <limits>

#include "bench_common.hpp"
#include "core/adaptive.hpp"
#include "gpusim/device.hpp"

using et::core::AttentionImpl;

int main(int argc, char** argv) {
  const bool csv = et::bench::csv_mode(argc, argv);
  et::core::AttentionConfig cfg;
  cfg.d_model = 768;
  cfg.num_heads = 12;
  cfg.precision = et::numeric::Precision::kPureFp16;
  cfg.causal_mask = false;
  const auto w = et::core::make_dense_weights(cfg, 8);
  const et::gpusim::Device probe;
  const auto run_us = [&](AttentionImpl impl) {
    return et::bench::attention_us(probe.spec(), w, cfg, impl);
  };

  // Per-length latencies of the three E.T. operators.
  std::vector<std::size_t> lens;
  std::vector<double> full_us, partial_us, flash_us;
  for (std::size_t seq = 64; seq <= 512; seq += 32) {
    cfg.seq_len = seq;
    lens.push_back(seq);
    full_us.push_back(run_us(AttentionImpl::kOtf));
    partial_us.push_back(run_us(AttentionImpl::kPartialOtf));
    flash_us.push_back(run_us(AttentionImpl::kFlash));
  }
  double otf_oracle = 0.0, oracle = 0.0;
  for (std::size_t i = 0; i < lens.size(); ++i) {
    otf_oracle += std::min(full_us[i], partial_us[i]);
    oracle += std::min({full_us[i], partial_us[i], flash_us[i]});
  }

  std::printf("Ablation — adaptive full/partial OTF threshold, BERT_BASE "
              "width (paper threshold: 224)\n\n");
  et::bench::Table table({"threshold", "total_us_over_sweep", "vs_oracle"},
                         csv);
  double best_total = std::numeric_limits<double>::infinity();
  std::size_t best_threshold = 0;
  for (const std::size_t threshold :
       {96u, 128u, 160u, 192u, 224u, 256u, 288u, 320u, 512u}) {
    double total = 0.0;
    for (std::size_t i = 0; i < lens.size(); ++i) {
      total += lens[i] > threshold ? partial_us[i] : full_us[i];
    }
    if (total < best_total) {
      best_total = total;
      best_threshold = threshold;
    }
    table.add_row({std::to_string(threshold), et::bench::fmt(total, 1),
                   et::bench::fmt(100.0 * (total / otf_oracle - 1.0), 2) +
                       "%"});
  }
  table.print();
  std::printf("\nbest fixed threshold: %zu (oracle total %.1f us)\n",
              best_threshold, otf_oracle);

  // The latency-model choice, booked at the chosen operator's own time,
  // must match the per-length best of all three operators.
  double choice_total = 0.0;
  for (std::size_t i = 0; i < lens.size(); ++i) {
    cfg.seq_len = lens[i];
    switch (et::core::choose_attention_impl(probe, w, cfg)) {
      case AttentionImpl::kPartialOtf: choice_total += partial_us[i]; break;
      case AttentionImpl::kFlash: choice_total += flash_us[i]; break;
      default: choice_total += full_us[i]; break;
    }
  }
  std::printf("latency-model choice total: %.1f us (%.2f%% over the "
              "full/partial/flash oracle, %.1f us)\n",
              choice_total, 100.0 * (choice_total / oracle - 1.0), oracle);
  if (std::abs(choice_total - oracle) > 1e-9 * oracle) {
    std::fprintf(stderr, "FAIL: the latency-model choice misses the oracle\n");
    return 1;
  }
  return 0;
}
