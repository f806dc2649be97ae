// encoder_bert_base: a closed loop with one caller issuing back-to-back
// 12-layer BERT_BASE encoder forwards at seq 128 on the E.T. pipeline,
// traffic-only. The stack interleaves dense layers (the fig01 anchor)
// with 80% attention-aware pruned layers (the fig07 anchor); each pruned
// position gets its own seeded mask. Host time here is all simulator
// bookkeeping: adaptive dispatch, GEMM autotune, latency model, output
// allocation.
#include <algorithm>
#include <cstdio>
#include <iterator>
#include <memory>

#include "common.hpp"
#include "core/exec_context.hpp"
#include "nn/encoder.hpp"
#include "numeric/half.hpp"
#include "pruning/strategy.hpp"
#include "tensor/random.hpp"
#include "train/model.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

constexpr std::size_t kSeq = 128;
constexpr std::size_t kLayers = 12;
constexpr std::size_t kPrunedDistinct = 3;
constexpr double kPruneRatio = 0.8;
constexpr std::size_t kEpisodeForwards = 20;
constexpr std::size_t kWarmupForwards = 2;
/// Forwards a run needs so the p99 over its quiet half has >= 10 samples
/// beyond it.
constexpr std::size_t kMinForwards = 2020;

/// Even stack positions hold the dense layer, odd ones a pruned layer.
constexpr bool is_dense(std::size_t layer) { return layer % 2 == 0; }

struct EncoderSetup {
  et::nn::EncoderWeights dense;
  std::vector<et::nn::EncoderWeights> pruned;
  std::vector<const et::nn::EncoderWeights*> stack;  // kLayers entries
  std::vector<double> layer_ref_us;  // one encoder_forward per position
  et::nn::EncoderOptions opt;
  et::tensor::MatrixF input;
  double weights_s = 0, prune_s = 0, model_s = 0;
};

std::unique_ptr<EncoderSetup> set_up(std::uint64_t seed) {
  auto s = std::make_unique<EncoderSetup>();
  const auto cfg = et::nn::bert_base();

  std::int64_t t0 = now_ns();
  s->dense = et::nn::make_dense_encoder_weights(cfg, seed);
  s->weights_s = static_cast<double>(now_ns() - t0) / 1e9;
  et::train::TrainModelConfig tcfg;
  tcfg.d_model = cfg.d_model;
  tcfg.num_heads = cfg.num_heads;
  tcfg.d_ff = cfg.d_ff;
  tcfg.causal = false;
  // One trainable source layer at a time: each carries training state
  // several times the size of its deployed weights.
  for (std::size_t i = 0; i < kPrunedDistinct; ++i) {
    t0 = now_ns();
    const et::train::EncoderLayer src(tcfg, seed * 1000 + 17 * i + 1);
    const std::int64_t t1 = now_ns();
    const auto masks = et::pruning::compute_layer_masks(
        src, et::pruning::Strategy::kAttentionAware, kPruneRatio);
    s->pruned.push_back(et::pruning::deploy_layer(
        src, masks, et::pruning::Strategy::kAttentionAware));
    s->weights_s += static_cast<double>(t1 - t0) / 1e9;
    s->prune_s += static_cast<double>(now_ns() - t1) / 1e9;
  }
  const std::int64_t t2 = now_ns();

  s->opt = et::nn::options_for(et::nn::Pipeline::kET, cfg, kSeq);
  for (std::size_t l = 0; l < kLayers; ++l) {
    s->stack.push_back(is_dense(l) ? &s->dense
                                  : &s->pruned[(l / 2) % kPrunedDistinct]);
  }
  s->input = et::tensor::MatrixF(kSeq, cfg.d_model);
  et::tensor::fill_normal(s->input, seed + 5);
  // Reference: one nn::encoder_forward of each position's layer on a
  // fresh device — every forward's per-layer modeled time must equal it.
  for (const auto* w : s->stack) {
    et::gpusim::Device dev;
    dev.set_traffic_only(true);
    et::core::ExecContext ctx(dev);
    (void)et::nn::encoder_forward(ctx, s->input, *w, s->opt);
    ModeledClock clock(dev);
    s->layer_ref_us.push_back(clock.advance());
  }
  s->model_s = static_cast<double>(now_ns() - t2) / 1e9;
  return s;
}

/// One forward's measurements.
struct Forward {
  double host_ms = 0;
  double modeled_us = 0;
  bool ok = true;
};

/// Where a traced forward's launch attribution goes.
struct TraceSink {
  OpTotals ops;
  std::vector<StepRecord> steps;
};

/// Run one 12-layer forward; layer boundaries are log sizes, so the
/// per-layer check runs after the timed region.
Forward forward(et::core::ExecContext& ctx, ModeledClock& clock,
                const EncoderSetup& s, Tracer& tracer, TraceSink* sink) {
  auto& dev = ctx.device();
  std::size_t bounds[kLayers + 1];
  bounds[0] = dev.history().size();
  const et::tensor::MatrixF* h = &s.input;
  et::tensor::MatrixF out[2];
  const std::int64_t t0 = now_ns();
  {
    Tracer::Scope fwd(tracer, "encoder.forward");
    for (std::size_t l = 0; l < kLayers; ++l) {
      // Dense and pruned layers cost the host very differently, so
      // their calls are separate spans (one distribution each).
      Tracer::Scope layer(tracer, is_dense(l) ? "nn.encoder_forward[dense]"
                                             : "nn.encoder_forward[pruned]");
      out[l % 2] = et::nn::encoder_forward(ctx, *h, *s.stack[l], s.opt);
      h = &out[l % 2];
      bounds[l + 1] = dev.history().size();
    }
  }
  const std::int64_t t1 = now_ns();

  Forward f;
  f.host_ms = ns_to_ms(t1 - t0);
  f.ok = h->rows() == kSeq && h->cols() == s.input.cols();
  const auto& log = dev.history();
  for (std::size_t l = 0; l < kLayers; ++l) {
    double layer_us = 0.0;
    for (std::size_t i = bounds[l]; i < bounds[l + 1]; ++i) {
      layer_us += log[i].time_us;
    }
    f.ok = f.ok && layer_us == s.layer_ref_us[l];
  }
  f.modeled_us = clock.advance();
  if (sink != nullptr) {
    StepRecord rec;
    rec.step = sink->steps.size();
    rec.start_ns = t0;
    rec.end_ns = t1;
    rec.modeled_us = f.modeled_us;
    rec.launches = bounds[kLayers] - bounds[0];
    OpTotals fwd_ops;
    fwd_ops.add_range(log, bounds[0], bounds[kLayers]);
    std::copy(std::begin(fwd_ops.us), std::end(fwd_ops.us), rec.op_us);
    sink->ops.merge(fwd_ops);
    sink->steps.push_back(rec);
  }
  return f;
}

/// Modeled µs of every launch of one forward at `threads`.
std::vector<double> launch_times(const EncoderSetup& s, std::size_t threads) {
  et::gpusim::Device dev;
  dev.set_traffic_only(true);
  et::core::ExecContext ctx(dev, threads);
  ModeledClock clock(dev);
  Tracer off(false);
  (void)forward(ctx, clock, s, off, nullptr);
  std::vector<double> t;
  for (const auto& k : dev.history()) t.push_back(k.time_us);
  return t;
}

}  // namespace

int run_encoder(const Options& opt, Report& report, Outcome& outcome) {
  std::vector<double> setup_total, weights_s, prune_s, model_s;
  std::unique_ptr<EncoderSetup> s;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    s.reset();
    const std::int64_t t0 = now_ns();
    s = set_up(opt.seed);
    setup_total.push_back(static_cast<double>(now_ns() - t0) / 1e9);
    weights_s.push_back(s->weights_s);
    prune_s.push_back(s->prune_s);
    model_s.push_back(s->model_s);
  }

  // Gate: modeled time is identical at 1 thread and at kGateThreads.
  if (launch_times(*s, 1) != launch_times(*s, kGateThreads)) {
    std::fprintf(stderr, "determinism break: encoder modeled time differs "
                         "between 1 and %zu threads\n", kGateThreads);
    return 3;
  }

  et::gpusim::Device dev;
  dev.set_traffic_only(true);
  et::core::ExecContext ctx(dev, kMeasureThreads);
  ModeledClock clock(dev);
  Tracer untraced(false);
  Tracer traced(true);
  for (std::size_t i = 0; i < kWarmupForwards; ++i) {
    (void)forward(ctx, clock, *s, untraced, nullptr);
    dev.reset();
    clock.rebase();
  }

  std::vector<double> modeled_us;
  std::vector<std::vector<double>> plain_forward_ms;  // per plain episode
  std::vector<double> plain_episode_ms, traced_episode_ms;
  TraceSink sink;
  // Fallbacks and FP16 overflows are counted over traced forwards only,
  // then reported per forward, as the serving drivers report them per tick.
  std::size_t traced_forwards = 0, fallbacks = 0, max_log = 0;
  std::uint64_t overflows = 0;
  double reference_us = -1.0;
  const std::int64_t start = now_ns();
  for (std::size_t episode = 0;; ++episode) {
    const double elapsed = ns_to_ms(now_ns() - start) / 1e3;
    if (elapsed >= opt.seconds &&
        (opt.trace ? traced_forwards > 0
                   : modeled_us.size() >= kMinForwards)) {
      break;
    }
    // The traced run alternates plain and traced episodes, so the two
    // see the same machine state and their ratio is the tracing overhead.
    const bool trace_this = opt.trace && episode % 2 == 1;
    Tracer& tracer = trace_this ? traced : untraced;
    double episode_ms = 0.0;
    std::vector<double> forward_ms;
    for (std::size_t i = 0; i < kEpisodeForwards; ++i) {
      const std::uint64_t overflows0 =
          trace_this ? et::numeric::overflow_count() : 0;
      const Forward f =
          forward(ctx, clock, *s, tracer, trace_this ? &sink : nullptr);
      ++outcome.attempted;
      // Every forward runs the same stack, so its modeled time repeats
      // exactly; anything else is a determinism break.
      if (reference_us < 0) reference_us = f.modeled_us;
      if (f.modeled_us != reference_us) {
        std::fprintf(stderr, "determinism break: forward modeled %.17g us, "
                             "first forward %.17g us\n",
                     f.modeled_us, reference_us);
        return 3;
      }
      if (!f.ok) {
        ++outcome.failed;
        outcome.fail("forward layer modeled time differs from its "
                     "single-layer reference");
      }
      episode_ms += f.host_ms;
      forward_ms.push_back(f.host_ms);
      if (!opt.trace) modeled_us.push_back(f.modeled_us);
      if (trace_this) {
        ++traced_forwards;
        fallbacks += dev.fallback_log().size();
        overflows += et::numeric::overflow_count() - overflows0;
      }
      max_log = std::max(max_log, dev.history().size());
      dev.reset();
      clock.rebase();
    }
    (trace_this ? traced_episode_ms : plain_episode_ms).push_back(episode_ms);
    if (!trace_this) plain_forward_ms.push_back(std::move(forward_ms));
  }

  if (!opt.trace) {
    std::size_t slo_ok = 0;
    for (double us : modeled_us) {
      slo_ok += us <= kEncoderTtftLimitUs && us / kSeq <= kEncoderTpotLimitUs;
    }
    const double n = static_cast<double>(modeled_us.size());
    // Host metrics pool the forwards of the quiet half of the episodes;
    // the rate is per episode, then the median, so a host stall spoils
    // one episode.
    std::vector<double> pace, peak, host_ms, tail_ms, episode_rate;
    for (const auto& e : plain_forward_ms) {
      pace.push_back(median(e));
      peak.push_back(*std::max_element(e.begin(), e.end()));
    }
    for (std::size_t i : quiet_half(pace)) {
      host_ms.insert(host_ms.end(), plain_forward_ms[i].begin(),
                     plain_forward_ms[i].end());
      episode_rate.push_back(static_cast<double>(kEpisodeForwards) /
                             (plain_episode_ms[i] / 1e3));
    }
    // The p99 pools the half of the episodes whose slowest forward is
    // lowest. Every forward runs the same stack, so a tail the program
    // causes shows in every episode and survives; a host hiccup spoils
    // only the episode it lands in.
    for (std::size_t i : quiet_half(peak)) {
      tail_ms.insert(tail_ms.end(), plain_forward_ms[i].begin(),
                     plain_forward_ms[i].end());
    }
    const double fwd_per_s = median(episode_rate);
    std::vector<double> host_per_token;
    for (double v : host_ms) host_per_token.push_back(v / kSeq);
    const auto host_p50 = percentile(host_ms, 0.5);
    const auto host_p99 = percentile(tail_ms, 0.99);
    report.add("setup_s", median(setup_total), "s");
    report.add("peak_rss_mb", peak_rss_mb(), "MB");
    report.add("ok_frac",
               static_cast<double>(outcome.attempted - outcome.failed) /
                   static_cast<double>(outcome.attempted),
               "frac");
    report.add("modeled_us_per_forward", reference_us, "us", "exact");
    report.add("forward_host_ms_p50", host_p50, 1.0, "ms");
    report.add("forward_host_ms_p99", host_p99, 1.0, "ms");
    report.add("forwards_per_s", fwd_per_s, "1/s");
    report.add("ttft_modeled_us_p50", percentile(modeled_us, 0.5), 1.0, "us");
    report.add("ttft_modeled_us_p99", percentile(modeled_us, 0.99), 1.0,
               "us");
    report.add("tpot_modeled_us_p50", reference_us / kSeq, "us",
               "forward / 128 positions");
    report.add("slo_ok_frac", static_cast<double>(slo_ok) / n, "frac");
    report.add("ttft_host_ms_p50", host_p50, 1.0, "ms");
    report.add("ttft_host_ms_p99", host_p99, 1.0, "ms");
    report.add("tpot_host_ms_p50", percentile(host_per_token, 0.5), 1.0,
               "ms");
    report.add("tokens_per_s", fwd_per_s * kSeq, "1/s");
    return 0;
  }

  const double per = 1.0 / static_cast<double>(traced_forwards);
  PerLayer pl;
  for (double n : sink.ops.launches) pl.launches_per_op += n * per;
  pl.log_entries = static_cast<double>(max_log);
  pl.fallbacks = static_cast<double>(fallbacks) * per;
  pl.ops = sink.ops;
  pl.ops_scale = per;
  pl.encoder_dense_ms_p50 =
      median(span_ms(traced.spans(), "nn.encoder_forward[dense]"));
  pl.encoder_pruned_ms_p50 =
      median(span_ms(traced.spans(), "nn.encoder_forward[pruned]"));
  pl.batch_occupancy_mean = 1.0;
  pl.fp16_overflows = static_cast<double>(overflows) * per;
  pl.setup_weights_s = median(weights_s);
  pl.setup_prune_s = median(prune_s);
  pl.setup_model_s = median(model_s);
  pl.trace_overhead_frac =
      median(traced_episode_ms) / median(plain_episode_ms) - 1.0;
  add_per_layer(report, pl);
  write_trace(opt, traced.spans(), sink.steps);
  return 0;
}

}  // namespace perfbench
