// Differential-testing harness for batched generation (docs/serving.md):
// the same workload is decoded twice — N independent nn::generate runs
// (the sequential reference) and one batched run through
// serving::InferenceServer — and the two transcripts must match BIT FOR
// BIT.
//
// Bit-identity is checkable because the embed/select closures are
// deterministic hash functions: embed() derives every input row from
// (seed, token, position, column), and select() folds the raw IEEE-754
// bits of the hidden state into a 64-bit hash before reducing it to a
// token. Each request logs those hashes, so two runs agree on the hash
// stream iff every hidden state they produced is bit-identical — a float
// that differs in its last ulp flips the hash, the token stream, and the
// test. Tolerance-based comparison would hide exactly the class of bug
// (reordered reductions, batch-dependent math) this harness exists to
// catch.
//
// The quantized decode path adds ONE deliberately-lossy axis: int8
// weights vs the fp32 reference. For that comparison only, the harness
// offers a scripted select (token path independent of the hidden state,
// so both precisions decode the same sequence) plus expect_within_steps,
// a bounded-error check measured in quantization steps. Every lossless
// axis — int8-vs-int8 across thread counts, schedulers, or reruns —
// stays on expect_bit_identical.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/exec_context.hpp"
#include "nn/generation.hpp"
#include "serving/server.hpp"

namespace et::diff {

inline std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Map a hash to [-0.5, 0.5) — modest magnitudes keep the decode
/// numerically tame across many steps.
inline float unit_float(std::uint64_t h) {
  return static_cast<float>(h >> 40) / static_cast<float>(1ull << 24) - 0.5f;
}

/// Deterministic embedding: row entries depend only on
/// (seed, token, position, column) — no shared state, safe to call from
/// interleaved batched ticks in any order.
inline nn::EmbedFn make_embed(std::size_t d_model, std::uint64_t seed) {
  return [d_model, seed](std::int32_t token, std::size_t position) {
    tensor::MatrixF row(1, d_model);
    const std::uint64_t base =
        splitmix64(seed ^ (static_cast<std::uint64_t>(token) << 32) ^
                   static_cast<std::uint64_t>(position));
    for (std::size_t c = 0; c < d_model; ++c) {
      row(0, c) = unit_float(splitmix64(base + c));
    }
    return row;
  };
}

/// Bit-sensitive selection: hashes the exact float bits of the hidden
/// state (appending each hash to `log` when given), then reduces to a
/// token in [0, vocab).
inline nn::SelectFn make_select(std::int32_t vocab,
                                std::vector<std::uint64_t>* log = nullptr) {
  return [vocab, log](const tensor::MatrixF& hidden) {
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (float v : hidden.flat()) {
      h = splitmix64(h ^ std::bit_cast<std::uint32_t>(v));
    }
    if (log != nullptr) log->push_back(h);
    return static_cast<std::int32_t>(h % static_cast<std::uint64_t>(vocab));
  };
}

/// Precision-independent scripted selection for the lossy sweep axis: the
/// token emitted at step s is a pure hash of (seed, s) — never of the
/// hidden state — so an FP32 run and an INT8 run of the same request
/// follow the SAME token path and their logged hidden states line up step
/// for step. Still logs the bit-hash stream (int8-vs-int8 comparisons
/// across threads or schedulers stay exactly checkable) and, when
/// `values` is given, a copy of each observed hidden state for
/// expect_within_steps.
inline nn::SelectFn make_scripted_select(
    std::int32_t vocab, std::uint64_t seed,
    std::vector<std::uint64_t>* log = nullptr,
    std::vector<tensor::MatrixF>* values = nullptr) {
  auto step = std::make_shared<std::size_t>(0);
  return [vocab, seed, log, values, step](const tensor::MatrixF& hidden) {
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (float v : hidden.flat()) {
      h = splitmix64(h ^ std::bit_cast<std::uint32_t>(v));
    }
    if (log != nullptr) log->push_back(h);
    if (values != nullptr) values->push_back(hidden);
    const std::uint64_t t =
        splitmix64(seed ^ static_cast<std::uint64_t>((*step)++));
    return static_cast<std::int32_t>(t % static_cast<std::uint64_t>(vocab));
  };
}

/// One generation job in harness terms; expanded to a serving::Request
/// (batched run) or a generate() call (sequential run) with per-request
/// embed/select closures derived from `seed`.
struct Request {
  std::int32_t first_token = 0;
  std::size_t max_new_tokens = 8;
  std::int32_t eos_token = nn::kNoEosToken;
  std::uint64_t seed = 0;
  /// Optional multi-token prompt (overrides first_token when non-empty)
  /// — the prefix-sharing axis of the sweep. Requests sharing a
  /// prefix_group MUST also share `seed` (identical embed closures); the
  /// harness mirrors the production contract, it does not check it.
  std::vector<std::int32_t> prompt{};
  std::uint64_t prefix_group = core::kNoPrefixGroup;
};

/// A request's transcript: the API-visible result plus the hidden-state
/// bit-hash stream select() observed.
struct Outcome {
  nn::GenerationResult result;
  std::vector<std::uint64_t> hidden_hashes;
  /// Populated only by scripted-select runs: the raw hidden states, for
  /// bounded-error comparison against a different-precision run.
  std::vector<tensor::MatrixF> hidden_values;
};

/// Sequential reference: one fresh GenerationSession + nn::generate per
/// request, in submission order. `threads` sizes the ExecContext pool;
/// the default of 1 is the canonical serial reference, and any other
/// value must reproduce it bit for bit (the ExecContext determinism
/// contract — the threads axis of the differential sweep). `format`
/// forwards to the nn::Model handle (kInt8 runs the quantized decode);
/// `scripted` swaps in the precision-independent select and logs hidden
/// values for bounded-error comparison.
inline std::vector<Outcome> run_sequential(
    gpusim::Device& dev, const std::vector<nn::EncoderWeights>& layers,
    const nn::EncoderOptions& opt, std::size_t max_context,
    const std::vector<Request>& requests, std::int32_t vocab,
    std::size_t threads = 1, std::optional<nn::WeightFormat> format = {},
    bool scripted = false) {
  core::ExecContext ctx(dev, threads);
  const nn::Model model(&layers, opt, max_context, format);
  std::vector<Outcome> outcomes(requests.size());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const Request& r = requests[i];
    nn::GenerationSession session(model);
    nn::DecodeParams params;
    params.first_token = r.first_token;
    params.prompt_tokens = r.prompt;
    params.max_new_tokens = r.max_new_tokens;
    params.embed = make_embed(opt.attn.d_model, r.seed);
    params.select =
        scripted ? make_scripted_select(vocab, r.seed,
                                        &outcomes[i].hidden_hashes,
                                        &outcomes[i].hidden_values)
                 : make_select(vocab, &outcomes[i].hidden_hashes);
    params.eos_token = r.eos_token;
    outcomes[i].result = nn::generate(ctx, session, params);
  }
  return outcomes;
}

/// Called before each tick with the number of ticks already run, so a
/// test can arm the device's FaultInjector mid-stream (e.g. to strike a
/// slot in its second tick).
using BeforeTick = std::function<void(std::size_t ticks_run,
                                      gpusim::Device& dev)>;

/// One scripted arrival for the serving runtime: `request` becomes a
/// serving::Request submitted right before the server's tick number
/// `tick` runs (ticks the script skips still execute, so queued work
/// drains between arrivals).
struct Arrival {
  std::size_t tick = 0;
  Request request;
  serving::Priority priority = serving::Priority::kNormal;
  std::size_t queue_budget = serving::kNoBudget;
  std::size_t total_budget = serving::kNoBudget;
  std::size_t retry_budget = 0;    ///< kernel-fault retries allowed
  std::size_t retry_backoff = 0;   ///< ticks between fault and re-admission
};

struct ServedRun {
  std::vector<Outcome> outcomes;  // indexed by arrival order
  std::vector<serving::RequestHandle> handles;
  std::size_t ticks = 0;
  /// The scheduler's tick counters.
  std::size_t batched_ticks = 0;
  std::size_t per_slot_fallback_ticks = 0;
  /// The KV pool after the drain: zero used bytes means every block came
  /// back.
  std::size_t kv_used_bytes = 0;
  std::size_t kv_free_blocks = 0;
  std::string metrics_json;  ///< full snapshot at drain (determinism probe)
  /// The same snapshot as named fields, for comparisons that must exempt
  /// specific scalars (the sharing-differential exempts the four
  /// sharing-observability gauges and nothing else).
  std::vector<serving::ScalarField> scalars;
};

/// Drive an InferenceServer through a scripted arrival sequence and
/// drain it. Outcomes are indexed by arrival order (== handle id order).
/// `threads` sizes the ExecContext pool; every thread count must
/// reproduce the same transcripts bit for bit — the serving axis of the
/// differential sweep (docs/serving.md). `before_tick` sees the server's
/// tick clock. `format` forwards to the nn::Model handle; `scripted`
/// swaps in the precision-independent select and logs hidden values.
inline ServedRun run_served(gpusim::Device& dev,
                            const std::vector<nn::EncoderWeights>& layers,
                            const nn::EncoderOptions& opt,
                            std::size_t max_context,
                            const serving::ServerConfig& cfg,
                            const std::vector<Arrival>& arrivals,
                            std::int32_t vocab, std::size_t threads = 1,
                            const BeforeTick& before_tick = {},
                            std::optional<nn::WeightFormat> format = {},
                            bool scripted = false) {
  core::ExecContext ctx(dev, threads);
  serving::InferenceServer server(
      nn::Model(&layers, opt, max_context, format), cfg);
  ServedRun run;
  run.outcomes.resize(arrivals.size());
  std::size_t next = 0;  // arrivals must be sorted by tick
  while (next < arrivals.size() || !server.idle()) {
    while (next < arrivals.size() && arrivals[next].tick <= server.now()) {
      const Arrival& a = arrivals[next];
      serving::Request req;
      req.first_token = a.request.first_token;
      req.prompt_tokens = a.request.prompt;
      req.prefix_group = a.request.prefix_group;
      req.max_new_tokens = a.request.max_new_tokens;
      req.embed = make_embed(opt.attn.d_model, a.request.seed);
      Outcome& o = run.outcomes[next];
      req.select = scripted ? make_scripted_select(vocab, a.request.seed,
                                                   &o.hidden_hashes,
                                                   &o.hidden_values)
                            : make_select(vocab, &o.hidden_hashes);
      req.eos_token = a.request.eos_token;
      req.priority = a.priority;
      req.queue_budget_ticks = a.queue_budget;
      req.total_budget_ticks = a.total_budget;
      req.retry_budget = a.retry_budget;
      req.retry_backoff_ticks = a.retry_backoff;
      run.handles.push_back(server.submit(req));
      ++next;
    }
    if (before_tick) before_tick(server.now(), dev);
    server.tick(ctx);
  }
  for (std::size_t i = 0; i < arrivals.size(); ++i) {
    run.outcomes[i].result = server.result(run.handles[i]);
  }
  run.ticks = server.now();
  run.batched_ticks = server.scheduler().batched_ticks();
  run.per_slot_fallback_ticks = server.scheduler().per_slot_fallback_ticks();
  run.kv_used_bytes = server.scheduler().pool().used_bytes();
  run.kv_free_blocks = server.scheduler().pool().allocator().free_blocks();
  run.metrics_json = server.metrics().json(0);
  run.scalars = server.metrics().scalars();
  return run;
}

/// Batched run: every request arrives at tick 0 to a server with
/// `max_batch` slots and a queue that holds them all, drained. The
/// device is caller-provided so tests can arm its FaultInjector first, or
/// from `before_tick`. Every thread count must produce the same
/// transcript bit for bit.
inline ServedRun run_batched(gpusim::Device& dev,
                             const std::vector<nn::EncoderWeights>& layers,
                             const nn::EncoderOptions& opt,
                             std::size_t max_batch, std::size_t max_context,
                             const std::vector<Request>& requests,
                             std::int32_t vocab, std::size_t threads = 1,
                             core::PagedKVOptions kv = {},
                             std::optional<nn::WeightFormat> format = {},
                             bool scripted = false,
                             const BeforeTick& before_tick = {}) {
  serving::ServerConfig cfg;
  cfg.max_batch = max_batch;
  cfg.queue_capacity = requests.size();
  cfg.kv = kv;
  std::vector<Arrival> arrivals(requests.size());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    arrivals[i].request = requests[i];
  }
  return run_served(dev, layers, opt, max_context, cfg, arrivals, vocab,
                    threads, before_tick, format, scripted);
}

/// The four scalars prefix sharing is ALLOWED to change — its own
/// observability gauges. Everything else in the snapshot (every counter,
/// stop-reason tally, latency histogram moment, the kv_bytes capacity
/// gauge...) must be bit-identical with sharing on or off: sharing buys
/// memory, never different behavior.
inline const std::vector<std::string>& sharing_only_scalars() {
  static const std::vector<std::string> names = {
      "kv_bytes_used_peak", "prefix_hits", "prefix_shared_tokens",
      "cow_splits"};
  return names;
}

/// Compare two scalar snapshots field by field, exempting `except` by
/// name. Field NAMES and ORDER must match exactly (both runs come from
/// the same server build); exempted fields may differ in value only.
inline void expect_scalars_identical_except(
    const std::vector<serving::ScalarField>& a,
    const std::vector<serving::ScalarField>& b,
    const std::vector<std::string>& except) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].name, b[i].name) << "scalar order diverged at " << i;
    bool exempt = false;
    for (const std::string& n : except) exempt = exempt || n == a[i].name;
    if (!exempt) {
      EXPECT_EQ(a[i].value, b[i].value) << "scalar " << a[i].name;
    }
  }
}

/// The differential assertion: token streams, stop reasons, fault
/// kernels AND hidden-state bit hashes all equal.
inline void expect_bit_identical(const std::vector<Outcome>& sequential,
                                 const std::vector<Outcome>& batched) {
  ASSERT_EQ(sequential.size(), batched.size());
  for (std::size_t i = 0; i < sequential.size(); ++i) {
    const auto& s = sequential[i];
    const auto& b = batched[i];
    EXPECT_EQ(s.result.tokens, b.result.tokens) << "request " << i;
    EXPECT_EQ(s.result.stop_reason, b.result.stop_reason)
        << "request " << i << ": sequential "
        << to_string(s.result.stop_reason) << " vs batched "
        << to_string(b.result.stop_reason);
    EXPECT_EQ(s.result.fault_kernel, b.result.fault_kernel) << "request " << i;
    EXPECT_EQ(s.hidden_hashes, b.hidden_hashes)
        << "request " << i << ": hidden states are not bit-identical";
  }
}

/// The bounded-error assertion for the ONE lossy axis (int8 weights vs
/// the fp32 reference, both run with the scripted select so their token
/// paths are identical by construction): token streams and stop reasons
/// still match EXACTLY, and every hidden state matches within `max_steps`
/// quantization steps, where one step is amax(reference state)/127 — the
/// resolution of the symmetric int8 scheme (docs/quantization.md
/// documents the bound). Never use this where expect_bit_identical
/// applies; tolerance would hide the bugs the harness exists to catch.
inline void expect_within_steps(const std::vector<Outcome>& reference,
                                const std::vector<Outcome>& lossy,
                                double max_steps) {
  ASSERT_EQ(reference.size(), lossy.size());
  for (std::size_t i = 0; i < reference.size(); ++i) {
    const auto& r = reference[i];
    const auto& l = lossy[i];
    EXPECT_EQ(r.result.tokens, l.result.tokens)
        << "request " << i << ": scripted token paths diverged";
    EXPECT_EQ(r.result.stop_reason, l.result.stop_reason) << "request " << i;
    ASSERT_EQ(r.hidden_values.size(), l.hidden_values.size())
        << "request " << i << " (were both runs scripted?)";
    for (std::size_t s = 0; s < r.hidden_values.size(); ++s) {
      const tensor::MatrixF& rv = r.hidden_values[s];
      const tensor::MatrixF& lv = l.hidden_values[s];
      ASSERT_EQ(rv.rows(), lv.rows());
      ASSERT_EQ(rv.cols(), lv.cols());
      float amax = 0.0f;
      for (float v : rv.flat()) amax = std::max(amax, std::abs(v));
      const double step = amax > 0.0f ? amax / 127.0 : 1.0;
      double worst = 0.0;
      for (std::size_t rr = 0; rr < rv.rows(); ++rr) {
        for (std::size_t cc = 0; cc < rv.cols(); ++cc) {
          worst = std::max(
              worst, std::abs(static_cast<double>(rv(rr, cc)) - lv(rr, cc)) /
                         step);
        }
      }
      EXPECT_LE(worst, max_steps)
          << "request " << i << " decode step " << s << ": hidden state is "
          << worst << " quantization steps from the fp32 reference";
    }
  }
}

}  // namespace et::diff
