// Figure 11: nvprof-style hardware counters for the attention region —
// E.T.'s on-the-fly operator vs the TensorRT-like sequence at BERT_BASE,
// seq = 128.
//
// Expected shape (paper): OTF loads ~1.8× *more* (gld_transactions) but
// stores ~5× *less* (gst_transactions), with ~30% higher sm_efficiency
// and ~22% higher IPC — the extra loads stay off the critical path while
// the avoided intermediate stores were on it (§5.2.5).
#include "bench_common.hpp"
#include "core/attention.hpp"
#include "gpusim/device.hpp"
#include "gpusim/profiler.hpp"

namespace {

struct RegionStats {
  std::uint64_t gld = 0, gst = 0;
  double sm_eff = 0.0, ipc = 0.0, time_us = 0.0;
};

RegionStats attention_region(const et::gpusim::Device& dev) {
  RegionStats out;
  double weight = 0.0;
  for (const auto& k : dev.history()) {
    if (k.name.view().find("linear") != std::string::npos) continue;
    out.gld += k.gld_transactions();
    out.gst += k.gst_transactions();
    out.sm_eff += k.sm_efficiency * k.time_us;
    out.ipc += k.ipc * k.time_us;
    out.time_us += k.time_us;
    weight += k.time_us;
  }
  if (weight > 0) {
    out.sm_eff /= weight;
    out.ipc /= weight;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const bool csv = et::bench::csv_mode(argc, argv);
  et::core::AttentionConfig cfg;
  cfg.seq_len = 128;
  cfg.d_model = 768;
  cfg.num_heads = 12;
  cfg.causal_mask = false;
  const auto w = et::core::make_dense_weights(cfg, 3);
  et::tensor::MatrixF x(cfg.seq_len, cfg.d_model);

  et::gpusim::Device trt_dev, otf_dev;
  trt_dev.set_traffic_only(true);
  otf_dev.set_traffic_only(true);

  auto trt_cfg = cfg;
  trt_cfg.precision = et::numeric::Precision::kMixed;
  trt_cfg.scale_before_multiply = false;
  et::core::ExecContext trt_ctx(trt_dev);
  (void)et::core::fused_attention(trt_ctx, x, w, trt_cfg);

  auto et_cfg = cfg;
  et_cfg.precision = et::numeric::Precision::kPureFp16;
  et::core::ExecContext otf_ctx(otf_dev);
  (void)et::core::otf_attention(otf_ctx, x, w, et_cfg);

  const RegionStats trt = attention_region(trt_dev);
  const RegionStats otf = attention_region(otf_dev);

  std::printf("Figure 11 — attention-region hardware profile, BERT_BASE "
              "seq=128 (paper: gld 1.8x more, gst 5x less, sm_eff +30%%, "
              "IPC +22%%)\n\n");
  et::bench::Table table(
      {"metric", "TensorRT", "ET_OTF", "OTF/TRT"}, csv);
  table.add_row({"gld_transactions", std::to_string(trt.gld),
                 std::to_string(otf.gld),
                 et::bench::fmt_ratio(static_cast<double>(otf.gld) /
                                      static_cast<double>(trt.gld))});
  table.add_row({"gst_transactions", std::to_string(trt.gst),
                 std::to_string(otf.gst),
                 et::bench::fmt_ratio(static_cast<double>(otf.gst) /
                                      static_cast<double>(trt.gst))});
  table.add_row({"sm_efficiency", et::bench::fmt(trt.sm_eff, 3),
                 et::bench::fmt(otf.sm_eff, 3),
                 et::bench::fmt_ratio(otf.sm_eff / trt.sm_eff)});
  table.add_row({"IPC", et::bench::fmt(trt.ipc, 2),
                 et::bench::fmt(otf.ipc, 2),
                 et::bench::fmt_ratio(otf.ipc / trt.ipc)});
  table.add_row({"time_us", et::bench::fmt(trt.time_us, 1),
                 et::bench::fmt(otf.time_us, 1),
                 et::bench::fmt_ratio(otf.time_us / trt.time_us)});
  table.print();
  return 0;
}
