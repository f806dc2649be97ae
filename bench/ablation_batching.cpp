// Ablation: decode throughput vs batch size AND thread count through the
// slot-based BatchedGenerationScheduler, every sequence submitted at once
// to a serving::InferenceServer (docs/serving.md).
//
// Batch axis (modeled time, traffic-only): autoregressive decode is
// weight-load-bound — every step re-reads the projection and FFN weights
// for ONE row of activations — so batching B sequences into one fused
// tick amortizes those loads ~B× (the batched q/k/v GEMM stages its
// weight panels once, the stacked MLP likewise, and one attention launch
// per layer covers every slot) while each sequence still attends over its
// own KV cache. Tokens/sec should therefore scale strongly with batch
// size; per-sequence latency is the price.
//
// Threads axis (wall clock, real math): the same batch-8 decode through
// ExecContext pools of 1/2/4/8 threads. The per-slot attention math and
// the kernel row loops partition across the pool with fixed
// thread-count-independent chunks (docs/threading.md), so the transcripts
// and the modeled time_us stay bit-identical while host wall time drops
// with cores. The bench verifies the bit-identity and exits nonzero on
// any divergence. On a single-core host the wall_ms column will not show
// a speedup — the determinism columns still must hold.
//
// --json emits the standard bench JSON shape (one array; the `sweep`
// column tags each row "batch" or "threads"); --csv the usual CSV.
// Field names match `et_cli --batch N --json`.
#include <chrono>
#include <cstdio>

#include "bench_common.hpp"
#include "core/exec_context.hpp"
#include "gpusim/device.hpp"
#include "nn/generation.hpp"
#include "serving/server.hpp"

namespace {

struct RunOutcome {
  std::vector<et::nn::GenerationResult> results;
  std::size_t ticks = 0;
  std::size_t batched_ticks = 0;
  std::size_t per_slot_fallback_ticks = 0;
  double time_us = 0.0;  // modeled device time
  double wall_ms = 0.0;  // host wall clock around the drain
};

RunOutcome run_batched(const std::vector<et::nn::EncoderWeights>& layers,
                       const et::nn::EncoderOptions& opt, std::size_t batch,
                       std::size_t tokens_per_seq, std::size_t max_context,
                       std::size_t d_model, std::size_t threads,
                       bool traffic_only) {
  et::serving::ServerConfig cfg;
  cfg.max_batch = batch;
  cfg.queue_capacity = batch;
  et::serving::InferenceServer server(et::nn::Model(&layers, opt, max_context),
                                      cfg);
  std::vector<et::serving::RequestHandle> handles;
  for (std::size_t i = 0; i < batch; ++i) {
    et::serving::Request req;
    req.first_token = static_cast<std::int32_t>(i);
    req.max_new_tokens = tokens_per_seq;
    req.embed = [d_model](std::int32_t, std::size_t) {
      return et::tensor::MatrixF(1, d_model);
    };
    req.select = [](const et::tensor::MatrixF&) { return std::int32_t{1}; };
    handles.push_back(server.submit(std::move(req)));
  }

  et::gpusim::Device dev;
  et::core::ExecContext ctx(dev, threads);
  dev.set_traffic_only(traffic_only);
  const auto t0 = std::chrono::steady_clock::now();
  server.drain(ctx);
  const auto t1 = std::chrono::steady_clock::now();
  RunOutcome out;
  for (const auto h : handles) out.results.push_back(server.result(h));
  const et::nn::BatchedGenerationScheduler& sched = server.scheduler();
  out.ticks = sched.ticks();
  out.batched_ticks = sched.batched_ticks();
  out.per_slot_fallback_ticks = sched.per_slot_fallback_ticks();
  out.time_us = dev.total_time_us();
  out.wall_ms =
      std::chrono::duration<double, std::milli>(t1 - t0).count();
  return out;
}

std::size_t token_count(const RunOutcome& r) {
  std::size_t total = 0;
  for (const auto& g : r.results) total += g.tokens.size();
  return total;
}

bool same_transcripts(const RunOutcome& a, const RunOutcome& b) {
  if (a.results.size() != b.results.size()) return false;
  for (std::size_t i = 0; i < a.results.size(); ++i) {
    if (a.results[i].tokens != b.results[i].tokens) return false;
    if (a.results[i].stop_reason != b.results[i].stop_reason) return false;
  }
  return a.ticks == b.ticks && a.batched_ticks == b.batched_ticks;
}

}  // namespace

int main(int argc, char** argv) {
  const bool csv = et::bench::csv_mode(argc, argv);
  const bool json = et::bench::json_mode(argc, argv);

  // BERT_BASE-width decoder, 4 layers: big enough that weight traffic
  // dominates, small enough to build in seconds. Used for the modeled
  // batch-axis sweep only.
  et::nn::ModelConfig model;
  model.num_layers = 4;
  model.d_model = 768;
  model.num_heads = 12;
  model.d_ff = 3072;

  std::vector<et::nn::EncoderWeights> layers;
  for (std::size_t l = 0; l < model.num_layers; ++l) {
    layers.push_back(et::nn::make_dense_encoder_weights(model, 1 + l));
  }
  const auto opt = et::nn::options_for(et::nn::Pipeline::kET, model, 128,
                                       /*causal=*/true);

  constexpr std::size_t kTokensPerSeq = 32;
  constexpr std::size_t kMaxContext = 64;

  if (!csv && !json) {
    std::printf("Ablation — batched decode throughput, %zux d=%zu decoder, "
                "%zu tokens/sequence\n\n",
                model.num_layers, model.d_model, kTokensPerSeq);
  }
  et::bench::Table table({"sweep", "batch", "threads", "total_tokens",
                          "ticks", "batched_ticks", "per_slot_fallback_ticks",
                          "time_us", "wall_ms", "tokens_per_sec",
                          "per_token_us", "speedup"},
                         csv, json);

  // ---- Batch axis: modeled device time, traffic-only (instant math). ----
  double base_tps = 0.0;
  for (const std::size_t batch : {1u, 2u, 4u, 8u, 16u}) {
    const RunOutcome r =
        run_batched(layers, opt, batch, kTokensPerSeq, kMaxContext,
                    model.d_model, /*threads=*/1, /*traffic_only=*/true);
    const std::size_t total_tokens = token_count(r);
    const double tps = 1e6 * static_cast<double>(total_tokens) / r.time_us;
    if (batch == 1) base_tps = tps;
    table.add_row({"batch", std::to_string(batch), "1",
                   std::to_string(total_tokens), std::to_string(r.ticks),
                   std::to_string(r.batched_ticks),
                   std::to_string(r.per_slot_fallback_ticks),
                   et::bench::fmt(r.time_us, 1), et::bench::fmt(r.wall_ms, 2),
                   et::bench::fmt(tps, 1),
                   et::bench::fmt(r.time_us /
                                      static_cast<double>(total_tokens),
                                  2),
                   et::bench::fmt(tps / base_tps, 2)});
  }

  // ---- Threads axis: real math, wall clock, fixed batch 8. ----
  // A slimmer decoder keeps the scalar math tractable; the point is the
  // host-side scaling shape, not the absolute numbers.
  et::nn::ModelConfig small;
  small.num_layers = 2;
  small.d_model = 256;
  small.num_heads = 4;
  small.d_ff = 512;
  std::vector<et::nn::EncoderWeights> small_layers;
  for (std::size_t l = 0; l < small.num_layers; ++l) {
    small_layers.push_back(et::nn::make_dense_encoder_weights(small, 11 + l));
  }
  const auto small_opt = et::nn::options_for(et::nn::Pipeline::kET, small, 64,
                                             /*causal=*/true);
  constexpr std::size_t kThreadBatch = 8;
  constexpr std::size_t kThreadTokens = 8;

  RunOutcome serial_ref;
  double base_wall = 0.0;
  for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
    const RunOutcome r =
        run_batched(small_layers, small_opt, kThreadBatch, kThreadTokens,
                    kThreadTokens + 2, small.d_model, threads,
                    /*traffic_only=*/false);
    if (threads == 1) {
      serial_ref = r;
      base_wall = r.wall_ms;
    } else if (!same_transcripts(serial_ref, r) ||
               serial_ref.time_us != r.time_us) {
      std::fprintf(stderr,
                   "DETERMINISM VIOLATION: threads=%zu diverged from the "
                   "serial run\n",
                   threads);
      return 1;
    }
    const std::size_t total_tokens = token_count(r);
    const double wall_tps =
        1e3 * static_cast<double>(total_tokens) / r.wall_ms;
    table.add_row({"threads", std::to_string(kThreadBatch),
                   std::to_string(threads), std::to_string(total_tokens),
                   std::to_string(r.ticks), std::to_string(r.batched_ticks),
                   std::to_string(r.per_slot_fallback_ticks),
                   et::bench::fmt(r.time_us, 1), et::bench::fmt(r.wall_ms, 2),
                   et::bench::fmt(wall_tps, 1),
                   et::bench::fmt(1e3 * r.wall_ms /
                                      static_cast<double>(total_tokens),
                                  2),
                   et::bench::fmt(base_wall / r.wall_ms, 2)});
  }
  table.print();

  if (!csv && !json) {
    std::printf(
        "\nbatch rows: modeled device time (traffic-only), speedup vs "
        "batch=1.\nthreads rows: REAL math on a %zux d=%zu decoder, wall "
        "clock, speedup vs threads=1;\ntime_us is the modeled time and is "
        "identical at every thread count (verified).\n",
        small.num_layers, small.d_model);
    std::printf(
        "\nThe same model through sequential nn::generate (the batch=1 "
        "API): ");
    et::gpusim::Device dev;
    et::core::ExecContext ctx(dev);
    dev.set_traffic_only(true);
    et::nn::GenerationSession session(et::nn::Model(&layers, opt, kMaxContext));
    const auto embed = [&model](std::int32_t, std::size_t) {
      return et::tensor::MatrixF(1, model.d_model);
    };
    const auto select = [](const et::tensor::MatrixF&) {
      return std::int32_t{1};
    };
    et::nn::DecodeParams params;
    params.max_new_tokens = kTokensPerSeq;
    params.embed = embed;
    params.select = select;
    const auto r = et::nn::generate(ctx, session, params);
    std::printf("%.1f us for %zu tokens (%.1f tokens/sec)\n",
                dev.total_time_us(), r.tokens.size(),
                1e6 * static_cast<double>(r.tokens.size()) /
                    dev.total_time_us());
  }
  return 0;
}
