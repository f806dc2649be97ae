// Ablation: request-level serving under an offered-load sweep through
// serving::InferenceServer (docs/serving.md).
//
// The scheduler benches (ablation_batching) measure raw decode
// throughput with every slot pre-filled; this one measures the SERVING
// runtime — requests arriving over time, a bounded admission queue, and
// continuous batching keeping the slots busy. Every rate in the sweep
// over-subscribes the slots (8-tick requests through 4 slots = 0.5
// requests/tick of capacity), so what the rows show is how ARRIVAL SHAPE
// moves loss vs latency at fixed capacity: the tick-0 burst bounces off
// the bounded queue hardest (max rejections, short queue waits), while
// steadier arrivals admit more requests at the price of longer queue
// waits — the serving loss/latency trade, fully deterministic (modeled
// device time, logical tick clock).
//
// Row fields are the run configuration (including the nn::Model weight
// layout) plus EVERY serving::MetricsRegistry scalar, pulled from
// metrics().scalars() — the same list `et_cli --serve --json` emits, so
// the two outputs share one field-name contract by construction.
// --json / --csv as usual.
//
// Two hard determinism/equivalence gates (exit nonzero on violation):
//   1. one configuration re-run and run at 4 threads must reproduce the
//      identical metrics snapshot (the serving determinism contract);
//   2. the weight-layout rows decode the same workload through dense
//      weights and through the pre-computed W_VO fold (§3.1) built so
//      the fold is EXACT (each kept W_O row holds one ±1 per head
//      block), and the transcripts must match token for token while the
//      folded rows carry strictly less KV storage and device traffic.
#include <bit>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/exec_context.hpp"
#include "core/weights.hpp"
#include "gpusim/device.hpp"
#include "serving/server.hpp"
#include "sparse/formats.hpp"

namespace {

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Deterministic content-bearing embedding: every entry depends on
/// (seed, token, position, column), so transcripts are bit-sensitive to
/// the decode math — the same closures the differential tests use.
et::nn::EmbedFn make_embed(std::size_t d_model, std::uint64_t seed) {
  return [d_model, seed](std::int32_t token, std::size_t position) {
    et::tensor::MatrixF row(1, d_model);
    const std::uint64_t base =
        splitmix64(seed ^ (static_cast<std::uint64_t>(token) << 32) ^
                   static_cast<std::uint64_t>(position));
    for (std::size_t c = 0; c < d_model; ++c) {
      const std::uint64_t h = splitmix64(base + c);
      row(0, c) =
          static_cast<float>(h >> 40) / static_cast<float>(1ull << 24) - 0.5f;
    }
    return row;
  };
}

/// Bit-sensitive token selection: folds the raw IEEE-754 bits of the
/// hidden state into the next token, so a single-ulp divergence between
/// two runs flips their transcripts.
et::nn::SelectFn make_select(std::int32_t vocab) {
  return [vocab](const et::tensor::MatrixF& hidden) {
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (float v : hidden.flat()) {
      h = splitmix64(h ^ std::bit_cast<std::uint32_t>(v));
    }
    return static_cast<std::int32_t>(h % static_cast<std::uint64_t>(vocab));
  };
}

struct ServeOutcome {
  double time_us = 0.0;
  std::string weights;  // nn::Model::weight_layout()
  std::vector<et::serving::ScalarField> scalars;
  std::string metrics_json;
  std::vector<std::vector<std::int32_t>> transcripts;  // submission order
  double kv_bytes = 0.0;
  double p99_queue_wait = 0.0;  // Histogram::quantile_bound(0.99)

  double scalar(const std::string& name) const {
    for (const auto& f : scalars) {
      if (f.name == name) return f.value;
    }
    return 0.0;
  }
};

struct ServeParams {
  std::size_t requests = 24;
  std::size_t slots = 4;
  std::size_t queue_capacity = 8;
  std::size_t tokens = 8;
  std::size_t arrive = 0;  // requests per tick; 0 = all at tick 0
  std::size_t threads = 1;
  std::int32_t vocab = 96;
  // Resilience knobs (docs/robustness.md): a per-request queue budget
  // (applied to every request when set), kernel-fault retry policy, the
  // server-side shedding switch, and a seeded random fault storm.
  std::size_t queue_budget = et::serving::kNoBudget;
  std::size_t retry_budget = 0;
  std::size_t retry_backoff = 0;
  bool shedding = true;
  double fault_fraction = 0.0;  // > 0: arm_random over every kernel launch
  std::uint64_t fault_seed = 0;
  // Paged-KV shape (docs/serving.md "Paged KV and prefix sharing").
  // prompt_len > 0 gives every request a prompt whose first
  // prompt_len - 1 tokens are common to its prefix group (consecutive
  // runs of `group_size` requests, sharing one embed seed) with a unique
  // final token — the shared-system-prompt workload.
  std::size_t prompt_len = 0;
  std::size_t group_size = 0;
  et::core::PagedKVOptions kv;
  // Weight-format descriptor handed to nn::Model (nullopt = derive from
  // the weights, the historical behavior); kInt8 serves the quantized
  // decode path.
  std::optional<et::nn::WeightFormat> weights;
};

ServeOutcome run_served(const std::vector<et::nn::EncoderWeights>& layers,
                        const et::nn::EncoderOptions& opt,
                        const ServeParams& p) {
  const et::nn::Model model(
      &layers, opt, p.tokens + (p.prompt_len > 0 ? p.prompt_len : 1),
      p.weights);
  et::serving::ServerConfig scfg;
  scfg.max_batch = p.slots;
  scfg.queue_capacity = p.queue_capacity;
  scfg.enable_shedding = p.shedding;
  scfg.kv = p.kv;
  et::serving::InferenceServer server(model, scfg);

  et::gpusim::Device dev;
  et::core::ExecContext ctx(dev, p.threads);
  dev.set_traffic_only(true);
  if (p.fault_fraction > 0.0) {
    dev.fault_injector().arm_random(p.fault_fraction, p.fault_seed);
  }

  std::vector<et::serving::RequestHandle> handles;
  std::size_t submitted = 0;
  const auto submit_some = [&](std::size_t n) {
    for (std::size_t k = 0; k < n && submitted < p.requests; ++k) {
      et::serving::Request req;
      req.max_new_tokens = p.tokens;
      if (p.prompt_len > 0) {
        const std::uint64_t group =
            1 + (p.group_size > 0 ? submitted / p.group_size : submitted);
        std::vector<std::int32_t> prompt(p.prompt_len);
        for (std::size_t j = 0; j + 1 < p.prompt_len; ++j) {
          prompt[j] = static_cast<std::int32_t>(100 * group + j);
        }
        prompt[p.prompt_len - 1] = static_cast<std::int32_t>(submitted);
        req.prompt_tokens = std::move(prompt);
        req.prefix_group = group;
        // One embedding identity per group — the contract that makes
        // aliasing another member's KV rows sound.
        req.embed = make_embed(model.d_model(), /*seed=*/31 + group);
      } else {
        req.first_token = static_cast<std::int32_t>(submitted);
        req.embed = make_embed(model.d_model(), /*seed=*/31 + submitted);
      }
      req.select = make_select(p.vocab);
      if (p.queue_budget != et::serving::kNoBudget) {
        req.queue_budget_ticks = p.queue_budget;
      }
      req.retry_budget = p.retry_budget;
      req.retry_backoff_ticks = p.retry_backoff;
      handles.push_back(server.submit(std::move(req)));
      ++submitted;
    }
  };
  if (p.arrive == 0) submit_some(p.requests);
  while (submitted < p.requests || !server.idle()) {
    server.tick(ctx);
    submit_some(p.arrive);
  }

  ServeOutcome out;
  out.time_us = dev.total_time_us();
  out.weights = std::string(et::nn::to_string(model.weight_layout()));
  out.scalars = server.metrics().scalars();
  out.metrics_json = server.metrics().json(0);
  for (const auto& h : handles) {
    out.transcripts.push_back(server.result(h).tokens);
  }
  for (const auto& f : out.scalars) {
    if (f.name == "kv_bytes") out.kv_bytes = f.value;
  }
  if (const auto* h = server.metrics().find_histogram("queue_wait_ticks")) {
    out.p99_queue_wait = h->quantile_bound(0.99);
  }
  return out;
}

/// A signed-selection output projection: kept row r carries exactly one
/// ±1 entry in every head's column block (at in-head feature r), all
/// other rows are zero. Folding it with precompute_vo is then EXACT —
/// every folded row is ±(a W_V row) and the scattered head-sum adds the
/// same floats in the same order the dense out-projection dot product
/// does — so dense and folded decodes must agree bit for bit.
et::tensor::MatrixF selection_wo(std::size_t d_model, std::size_t num_heads,
                                 std::size_t kept) {
  const std::size_t dk = d_model / num_heads;
  et::tensor::MatrixF wo(d_model, d_model);
  for (std::size_t r = 0; r < kept; ++r) {
    for (std::size_t h = 0; h < num_heads; ++h) {
      wo(r, h * dk + r) = ((r + h) % 2 == 0) ? 1.0f : -1.0f;
    }
  }
  return wo;
}

}  // namespace

int main(int argc, char** argv) {
  const bool csv = et::bench::csv_mode(argc, argv);
  const bool json = et::bench::json_mode(argc, argv);
  // Fast path for the paged-kv smoke test: only the shared-prefix rows
  // (and their hard gates) run.
  bool shared_only = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--shared-prefix-only") shared_only = true;
  }

  // Slim decoder: the serving dynamics (admission, queueing, rejection)
  // are what's measured; model width only scales the per-tick cost.
  et::nn::ModelConfig model;
  model.num_layers = 2;
  model.d_model = 256;
  model.num_heads = 4;
  model.d_ff = 512;
  std::vector<et::nn::EncoderWeights> layers;
  for (std::size_t l = 0; l < model.num_layers; ++l) {
    layers.push_back(et::nn::make_dense_encoder_weights(model, 5 + l));
  }
  const auto opt = et::nn::options_for(et::nn::Pipeline::kET, model, 64,
                                       /*causal=*/true);

  // Headers: run configuration + every registry scalar, in registration
  // order. Taken from a real (empty) server so a renamed or added metric
  // propagates here and to et_cli automatically.
  std::vector<std::string> headers = {
      "offered_per_tick", "requests",       "slots",
      "queue_capacity",   "threads",        "weights",
      "shedding",         "queue_budget",   "retry_budget",
      "fault_fraction",   "block_tokens",   "sharing",
      "kv_precision",     "time_us",        "p99_queue_wait",
      "retry_success"};
  {
    et::serving::InferenceServer server(et::nn::Model(&layers, opt, 4),
                                        {2, 4});
    for (const auto& f : server.metrics().scalars()) {
      headers.push_back(f.name);
    }
  }

  if (!csv && !json) {
    std::printf("Ablation — serving under offered load, %zux d=%zu decoder, "
                "%zu tokens/request\n"
                "(offered_per_tick 0 = every request arrives at tick 0)\n\n",
                model.num_layers, model.d_model, std::size_t{8});
  }
  et::bench::Table table(headers, csv, json);

  const auto add_row = [&](const ServeParams& p, const ServeOutcome& r) {
    // Retry success: the fraction of kernel-fault EVENTS that a
    // requeue-with-recompute turned into a non-fault retirement.
    const double faults = r.scalar("kernel_faults");
    const double success =
        faults > 0.0 ? (faults - r.scalar("stop_kernel_fault")) / faults : 0.0;
    std::vector<std::string> row = {
        std::to_string(p.arrive),
        std::to_string(p.requests),
        std::to_string(p.slots),
        std::to_string(p.queue_capacity),
        std::to_string(p.threads),
        r.weights,
        p.shedding ? "on" : "off",
        p.queue_budget == et::serving::kNoBudget
            ? "none"
            : std::to_string(p.queue_budget),
        std::to_string(p.retry_budget),
        et::bench::fmt(p.fault_fraction, 3),
        std::to_string(p.kv.block_tokens),
        p.kv.enable_prefix_sharing ? "on" : "off",
        std::string(et::core::to_string(p.kv.precision)),
        et::bench::fmt(r.time_us, 1),
        et::bench::fmt(r.p99_queue_wait, 1),
        et::bench::fmt(success, 3)};
    for (const auto& f : r.scalars) row.push_back(et::bench::fmt(f.value, 3));
    table.add_row(std::move(row));
  };

  // ---- Arrival-shape sweep: all-at-once, then 1/2/4/8 per tick. The
  // queue is deliberately smaller than the offered total so every row
  // shows backpressure (requests_rejected > 0); burstier arrivals reject
  // more and wait less, steadier arrivals admit more and wait longer.
  if (!shared_only) {
    for (const std::size_t arrive : {0u, 1u, 2u, 4u, 8u}) {
      ServeParams p;
      p.arrive = arrive;
      add_row(p, run_served(layers, opt, p));
    }
  }

  // ---- Determinism spine: one mid-load configuration re-run and run
  // again at 4 threads must reproduce the identical snapshot.
  if (!shared_only) {
    ServeParams p;
    p.arrive = 2;
    const auto a = run_served(layers, opt, p);
    const auto b = run_served(layers, opt, p);
    ServeParams pt = p;
    pt.threads = 4;
    const auto c = run_served(layers, opt, pt);
    if (a.metrics_json != b.metrics_json || a.metrics_json != c.metrics_json ||
        a.time_us != b.time_us || a.time_us != c.time_us) {
      std::fprintf(stderr,
                   "DETERMINISM VIOLATION: serving metrics diverged across "
                   "identical runs / thread counts\n");
      return 1;
    }
    add_row(pt, c);
  }

  // ---- Weight-layout rows: the same mid-load workload decoded through
  // dense weights and through the pre-computed W_VO fold, sharing every
  // projection. The fold condenses the cached V plane from d_model to
  // H·kept floats per token and drops the out-projection entirely, so
  // its row must show strictly lower kv_bytes AND device traffic — while
  // the exact-fold construction makes any transcript divergence a bug,
  // not noise.
  if (!shared_only) {
    constexpr std::size_t kKept = 16;  // per head; d_k = 64 stays condensable
    std::vector<std::uint32_t> kept_cols(kKept);
    for (std::size_t r = 0; r < kKept; ++r) {
      kept_cols[r] = static_cast<std::uint32_t>(r);
    }
    std::vector<et::nn::EncoderWeights> dense_layers = layers;
    std::vector<et::nn::EncoderWeights> folded_layers = layers;
    for (std::size_t l = 0; l < layers.size(); ++l) {
      const auto& wv =
          std::get<et::sparse::DenseWeight>(layers[l].attn.wv).matrix();
      auto wo = selection_wo(model.d_model, model.num_heads, kKept);
      dense_layers[l].attn.wo = et::sparse::DenseWeight(wo);
      folded_layers[l].attn.wo = et::sparse::DenseWeight(wo);
      folded_layers[l].attn.vo = et::core::precompute_vo(
          wv, wo, model.num_heads, kept_cols);
    }

    ServeParams p;
    p.arrive = 2;
    const auto dense = run_served(dense_layers, opt, p);
    const auto folded = run_served(folded_layers, opt, p);
    if (dense.transcripts != folded.transcripts) {
      std::fprintf(stderr,
                   "EQUIVALENCE VIOLATION: pre-computed W_VO transcripts "
                   "diverged from the dense decode\n");
      return 1;
    }
    if (!(folded.kv_bytes < dense.kv_bytes) ||
        !(folded.time_us < dense.time_us)) {
      std::fprintf(stderr,
                   "TRAFFIC VIOLATION: folded layout not cheaper "
                   "(kv_bytes %.0f vs %.0f, time_us %.1f vs %.1f)\n",
                   folded.kv_bytes, dense.kv_bytes, folded.time_us,
                   dense.time_us);
      return 1;
    }
    add_row(p, dense);
    add_row(p, folded);
  }

  // ---- Overload rows: 4x the slot capacity offered for the whole run.
  // The unprotected row has no admission control at all (no queue
  // budgets, shedding off): every request eventually decodes, and the
  // queue wait of the late arrivals grows with the backlog — the p99 is
  // the whole overload, visible in one number. The protected row gives
  // every request a 2-tick queue budget with shedding on: unmeetable
  // submits bounce instantly (shed > 0) and the p99 queue wait of what
  // IS admitted stays within the budget. Both configurations re-run and
  // must reproduce their metrics snapshot bit for bit (hard gate), and
  // the protected tail must be strictly shorter than the unprotected one.
  if (!shared_only) {
    ServeParams shed;
    shed.requests = 64;
    shed.slots = 4;
    shed.queue_capacity = 64;
    shed.tokens = 4;
    shed.arrive = 4;  // ~4x the drain rate of 4 slots x 4 ticks/request
    shed.queue_budget = 2;
    ServeParams raw = shed;
    raw.shedding = false;
    raw.queue_budget = et::serving::kNoBudget;
    const auto shed_a = run_served(layers, opt, shed);
    const auto shed_b = run_served(layers, opt, shed);
    const auto raw_a = run_served(layers, opt, raw);
    const auto raw_b = run_served(layers, opt, raw);
    if (shed_a.metrics_json != shed_b.metrics_json ||
        raw_a.metrics_json != raw_b.metrics_json) {
      std::fprintf(stderr,
                   "DETERMINISM VIOLATION: overload rows diverged across "
                   "identical re-runs\n");
      return 1;
    }
    if (shed_a.scalar("shed") <= 0.0 ||
        !(shed_a.p99_queue_wait < raw_a.p99_queue_wait)) {
      std::fprintf(stderr,
                   "OVERLOAD ROW VIOLATION: shedding shed %.0f submit(s) and "
                   "p99 queue wait is %.1f vs %.1f unprotected — the row no "
                   "longer shows load shedding protecting the tail\n",
                   shed_a.scalar("shed"), shed_a.p99_queue_wait,
                   raw_a.p99_queue_wait);
      return 1;
    }
    add_row(raw, raw_a);
    add_row(shed, shed_a);
  }

  // ---- Fault-storm row: a seeded random fraction of every kernel launch
  // faults, every request carries a retry budget with one backoff tick.
  // retry_success is the fraction of fault events that requeue +
  // recompute converted into a clean retirement. Re-run must reproduce
  // the snapshot bit for bit — faulted launches never reach the device,
  // so the fault script is part of the deterministic transcript.
  if (!shared_only) {
    ServeParams p;
    p.requests = 24;
    p.slots = 4;
    p.queue_capacity = 32;
    p.tokens = 4;
    p.arrive = 1;
    p.retry_budget = 2;
    p.retry_backoff = 1;
    p.fault_fraction = 0.02;
    p.fault_seed = 0xe7;
    const auto a = run_served(layers, opt, p);
    const auto b = run_served(layers, opt, p);
    if (a.metrics_json != b.metrics_json || a.transcripts != b.transcripts) {
      std::fprintf(stderr,
                   "DETERMINISM VIOLATION: fault-storm row diverged across "
                   "identical re-runs\n");
      return 1;
    }
    if (a.scalar("kernel_faults") <= 0.0 || a.scalar("retries") <= 0.0) {
      std::fprintf(stderr,
                   "FAULT-STORM ROW VIOLATION: no faults fired or no retries "
                   "ran — the row no longer measures fault recovery\n");
      return 1;
    }
    add_row(p, a);
  }

  // ---- Shared-prefix rows (docs/serving.md "Paged KV and prefix
  // sharing"): a staggered storm of 12 requests in consecutive groups of
  // 4, each group sharing a 7-token system prefix plus a unique final
  // token, decoded with prefix sharing ON and OFF over 2-token blocks.
  // Later group members arrive while earlier ones still hold registered
  // blocks, so admission aliases their prompt rows and the unique tail
  // CoW-splits the last shared block. Hard gates (nonzero exit):
  // transcripts identical sharing on vs off (sharing is memory-only),
  // the on-run re-runs bit for bit, sharing actually fired
  // (prefix_hits > 0), and kv_bytes_used_peak is STRICTLY lower with
  // sharing on.
  {
    ServeParams p;
    p.requests = 12;
    p.slots = 4;
    p.queue_capacity = 16;
    p.tokens = 4;
    p.arrive = 1;
    p.prompt_len = 8;
    p.group_size = 4;
    p.kv.block_tokens = 2;
    ServeParams off = p;
    off.kv.enable_prefix_sharing = false;
    const auto a = run_served(layers, opt, p);
    const auto a2 = run_served(layers, opt, p);
    const auto b = run_served(layers, opt, off);
    if (a.metrics_json != a2.metrics_json || a.transcripts != a2.transcripts) {
      std::fprintf(stderr,
                   "DETERMINISM VIOLATION: shared-prefix row diverged across "
                   "identical re-runs\n");
      return 1;
    }
    if (a.transcripts != b.transcripts) {
      std::fprintf(stderr,
                   "EQUIVALENCE VIOLATION: prefix sharing changed the "
                   "transcripts — sharing must be memory-only\n");
      return 1;
    }
    if (a.scalar("prefix_hits") <= 0.0) {
      std::fprintf(stderr,
                   "SHARED-PREFIX ROW VIOLATION: no admission aliased a "
                   "prefix — the row no longer measures sharing\n");
      return 1;
    }
    if (!(a.scalar("kv_bytes_used_peak") < b.scalar("kv_bytes_used_peak"))) {
      std::fprintf(stderr,
                   "SHARED-PREFIX ROW VIOLATION: peak KV residency %.0f with "
                   "sharing on is not strictly below %.0f with it off\n",
                   a.scalar("kv_bytes_used_peak"),
                   b.scalar("kv_bytes_used_peak"));
      return 1;
    }
    add_row(off, b);
    add_row(p, a);
  }

  // ---- INT8-KV rows (docs/quantization.md): the same mid-load INT8-weight
  // workload served over an fp32 and an int8 paged-KV pool. Quantized KV
  // stores one byte per element plus two fp32 scales per row, so at equal
  // offered load the peak KV residency must drop to ≤ 55% of the fp32
  // baseline — at a fixed physical byte budget that is ≥ 2× the resident
  // batch. INT8 KV rounds the cached rows (documented, lossy), so the
  // cross-precision gate is on bytes and shape, not transcripts; the int8
  // run itself must still reproduce bit for bit across a re-run and at 4
  // threads (the serving determinism contract is precision-independent).
  if (!shared_only) {
    ServeParams p;
    p.arrive = 2;
    p.weights = et::nn::WeightFormat::kInt8;
    ServeParams pi = p;
    pi.kv.precision = et::core::KvPrecision::kInt8;
    const auto fp = run_served(layers, opt, p);
    const auto i8 = run_served(layers, opt, pi);
    const auto i8_re = run_served(layers, opt, pi);
    ServeParams pit = pi;
    pit.threads = 4;
    const auto i8_t = run_served(layers, opt, pit);
    if (i8.metrics_json != i8_re.metrics_json ||
        i8.metrics_json != i8_t.metrics_json ||
        i8.transcripts != i8_re.transcripts ||
        i8.transcripts != i8_t.transcripts) {
      std::fprintf(stderr,
                   "DETERMINISM VIOLATION: int8-KV row diverged across "
                   "identical re-runs / thread counts\n");
      return 1;
    }
    if (!(i8.scalar("kv_bytes_used_peak") <=
          0.55 * fp.scalar("kv_bytes_used_peak"))) {
      std::fprintf(stderr,
                   "INT8-KV ROW VIOLATION: peak KV residency %.0f is not "
                   "<= 55%% of the fp32 baseline %.0f\n",
                   i8.scalar("kv_bytes_used_peak"),
                   fp.scalar("kv_bytes_used_peak"));
      return 1;
    }
    bool same_shape = fp.transcripts.size() == i8.transcripts.size();
    for (std::size_t r = 0; same_shape && r < fp.transcripts.size(); ++r) {
      same_shape = fp.transcripts[r].size() == i8.transcripts[r].size();
    }
    if (!same_shape) {
      std::fprintf(stderr,
                   "INT8-KV ROW VIOLATION: KV precision changed the shape "
                   "of the serve (per-request token counts) — it must only "
                   "round values, never scheduling\n");
      return 1;
    }
    add_row(p, fp);
    add_row(pi, i8);
  }

  table.print();

  if (!csv && !json) {
    std::printf(
        "\nReading the sweep: the tick-0 burst bounces off the bounded\n"
        "queue (max rejections, short waits); steadier arrivals admit\n"
        "more requests but wait longer — loss vs latency at fixed\n"
        "capacity. The threads=4 row repeats a config with a\n"
        "bit-identical snapshot (the serving determinism contract), and\n"
        "the dense/precomputed pair decodes one workload through both\n"
        "layouts: identical transcripts, smaller KV plane and less\n"
        "device traffic under the fold (verified; nonzero exit on any\n"
        "divergence). The overload pair offers 4x capacity: unprotected\n"
        "(no budgets, no shedding) the backlog stretches p99_queue_wait\n"
        "to the whole overload; protected (2-tick budgets + shedding)\n"
        "unmeetable submits bounce at the door and the admitted tail\n"
        "stays within budget — verified strictly shorter.\n"
        "The fault-storm row faults a seeded 2%% of kernel launches;\n"
        "retry_success is the fraction of fault events that requeue +\n"
        "recompute retired cleanly. Every resilience row re-runs and must\n"
        "reproduce its metrics snapshot bit for bit.\n");
  }
  return 0;
}
