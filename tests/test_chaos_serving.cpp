// Seeded chaos soak for the overload-resilient serving runtime
// (docs/robustness.md): hundreds of requests with randomized arrivals,
// priorities, token counts and budgets are driven through an
// InferenceServer while armed gpusim faults, scripted cancels, deadline
// storms and forced preemption churn all fire at once. Every tick the
// harness checks conservation invariants; at drain it checks the books
// balance exactly; and the whole storm — transcripts AND the full
// metrics snapshot — must reproduce bit for bit run-to-run and at every
// thread count, because the only randomness is the script's own seeded
// PRNG and the injector's seeded Bernoulli draws.
//
// Iteration counts are CI-sized on purpose: the point is coverage of
// the preempt/retry/shed/cancel/expire interactions, not wall-clock
// volume. Crank kRequests up locally for a longer soak.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "differential.hpp"
#include "serving/server.hpp"

namespace {

using et::serving::InferenceServer;
using et::serving::Priority;
using et::serving::RequestState;
using et::serving::ServerConfig;

constexpr std::int32_t kVocab = 211;
constexpr std::size_t kTickGuard = 20000;  // livelock tripwire

struct Model {
  std::vector<et::nn::EncoderWeights> layers;
  et::nn::EncoderOptions opt;
  std::size_t max_context = 0;
};

Model make_model(std::size_t max_context, std::uint64_t seed) {
  et::nn::ModelConfig cfg;
  cfg.num_layers = 2;
  cfg.d_model = 32;
  cfg.num_heads = 2;
  cfg.d_ff = 64;
  Model m;
  for (std::size_t l = 0; l < cfg.num_layers; ++l) {
    m.layers.push_back(et::nn::make_dense_encoder_weights(cfg, seed + l));
  }
  m.opt = et::nn::options_for(et::nn::Pipeline::kET, cfg, max_context,
                              /*causal=*/true);
  m.opt.attn.precision = et::numeric::Precision::kFp32;
  m.max_context = max_context;
  return m;
}

/// Deterministic PRNG over the shared splitmix64 — the script generator.
struct Rng {
  std::uint64_t state;
  std::uint64_t next() { return state = et::diff::splitmix64(state); }
  std::size_t below(std::size_t n) { return next() % n; }
  bool chance(std::size_t one_in) { return below(one_in) == 0; }
};

/// One scripted request: everything the generator decided up front, so
/// two drives of the same plan are byte-for-byte the same workload.
struct PlannedRequest {
  std::size_t arrive_tick = 0;
  std::int32_t first_token = 1;
  std::size_t max_new_tokens = 1;
  std::uint64_t seed = 0;
  Priority priority = Priority::kNormal;
  std::size_t queue_budget = et::serving::kNoBudget;
  std::size_t total_budget = et::serving::kNoBudget;
  std::size_t retry_budget = 0;
  std::size_t retry_backoff = 0;
  std::size_t cancel_tick = et::serving::kNoTick;  // kNoTick = never
};

struct ChaosPlan {
  std::vector<PlannedRequest> requests;  // sorted by arrive_tick
  double fault_fraction = 0.0;
  std::uint64_t fault_seed = 0;
};

/// Script generator: bursty arrivals (every few requests a same-tick
/// interactive flood to force preemption churn), mixed priorities, a
/// deadline storm (tight queue/total budgets on a slice), retry budgets
/// on most, and scripted cancels on a slice.
ChaosPlan make_plan(std::size_t n, std::uint64_t seed, double fault_fraction) {
  Rng rng{seed};
  ChaosPlan plan;
  plan.fault_fraction = fault_fraction;
  plan.fault_seed = seed ^ 0xfau;
  std::size_t tick = 0;
  for (std::size_t i = 0; i < n; ++i) {
    PlannedRequest r;
    const bool flood = rng.chance(7);  // interactive burst, same tick
    if (!flood) tick += rng.below(3);
    r.arrive_tick = tick;
    r.first_token = static_cast<std::int32_t>(1 + rng.below(200));
    r.max_new_tokens = 1 + rng.below(6);
    r.seed = rng.next();
    r.priority = flood ? Priority::kInteractive
                       : static_cast<Priority>(rng.below(3));
    if (rng.chance(4)) r.queue_budget = rng.below(4);          // shed bait
    if (rng.chance(5)) r.total_budget = 2 + rng.below(8);      // deadline
    if (!rng.chance(3)) {                                      // most retry
      r.retry_budget = 1 + rng.below(2);
      r.retry_backoff = rng.below(3);
    }
    if (rng.chance(8)) r.cancel_tick = r.arrive_tick + rng.below(8);
    plan.requests.push_back(r);
  }
  return plan;
}

/// The per-request outcome a run is summarized by (the unit of the
/// determinism comparison).
struct ChaosOutcome {
  std::vector<std::int32_t> tokens;
  et::nn::StopReason stop = et::nn::StopReason::kMaxTokens;
  et::serving::RejectReason reject = et::serving::RejectReason::kNone;
  std::size_t preemptions = 0;
  std::size_t retries = 0;
  std::vector<std::uint64_t> hashes;
};

struct ChaosRun {
  std::vector<ChaosOutcome> outcomes;
  std::string metrics_json;
  std::size_t ticks = 0;
  std::uint64_t cancels_hit = 0;  // cancel() calls that returned true
};

std::uint64_t counter(const et::serving::MetricsRegistry& mx,
                      const std::string& name) {
  const auto* c = mx.find_counter(name);
  EXPECT_NE(c, nullptr) << name;
  return c == nullptr ? 0 : c->value();
}

/// The conservation identities every storm must satisfy at drain:
/// each submission resolves to exactly one terminal state, counted once
/// in the aggregate view and once in the stop-reason view.
void expect_conserved(const et::serving::MetricsRegistry& mx) {
  const std::uint64_t submitted = counter(mx, "requests_submitted");
  EXPECT_EQ(submitted,
            counter(mx, "requests_completed") +
                counter(mx, "requests_rejected") + counter(mx, "shed") +
                counter(mx, "requests_cancelled") +
                counter(mx, "requests_expired") +
                counter(mx, "stop_preemption_limit"));
  std::uint64_t stop_sum = 0;
  for (std::size_t r = 0; r < et::nn::kStopReasonCount; ++r) {
    stop_sum += counter(
        mx, "stop_" + std::string(et::nn::to_string(
                          static_cast<et::nn::StopReason>(r))));
  }
  EXPECT_EQ(stop_sum, submitted);
}

/// Drive one plan to drain, checking per-tick invariants throughout.
ChaosRun run_chaos(const Model& m, const ServerConfig& cfg,
                   const ChaosPlan& plan, std::size_t threads) {
  et::gpusim::Device dev;
  if (plan.fault_fraction > 0.0) {
    dev.fault_injector().arm_random(plan.fault_fraction, plan.fault_seed);
  }
  et::core::ExecContext ctx(dev, threads);
  InferenceServer server(
      et::nn::Model(&m.layers, m.opt, m.max_context), cfg);

  ChaosRun run;
  run.outcomes.resize(plan.requests.size());
  std::vector<et::serving::RequestHandle> handles(plan.requests.size());
  std::vector<bool> submitted(plan.requests.size(), false);
  std::vector<bool> seen_finished(plan.requests.size(), false);
  std::vector<std::size_t> final_tick(plan.requests.size(), 0);
  std::map<std::size_t, std::vector<std::size_t>> cancels;  // tick -> idx
  for (std::size_t i = 0; i < plan.requests.size(); ++i) {
    if (plan.requests[i].cancel_tick != et::serving::kNoTick) {
      cancels[plan.requests[i].cancel_tick].push_back(i);
    }
  }

  std::size_t next = 0;
  while (next < plan.requests.size() || !server.idle()) {
    if (server.now() >= kTickGuard) {  // livelock: fail loudly, stop soaking
      ADD_FAILURE() << "serving loop is not draining after " << kTickGuard
                    << " ticks";
      return run;
    }
    // Scripted cancels due this tick (in request order — deterministic).
    const auto due = cancels.find(server.now());
    if (due != cancels.end()) {
      for (const std::size_t i : due->second) {
        if (submitted[i] && server.cancel(handles[i])) ++run.cancels_hit;
      }
    }
    // Scripted arrivals due this tick.
    while (next < plan.requests.size() &&
           plan.requests[next].arrive_tick <= server.now()) {
      const PlannedRequest& p = plan.requests[next];
      et::serving::Request req;
      req.first_token = p.first_token;
      req.max_new_tokens = p.max_new_tokens;
      req.embed = et::diff::make_embed(m.opt.attn.d_model, p.seed);
      req.select = et::diff::make_select(kVocab, &run.outcomes[next].hashes);
      req.priority = p.priority;
      req.queue_budget_ticks = p.queue_budget;
      req.total_budget_ticks = p.total_budget;
      req.retry_budget = p.retry_budget;
      req.retry_backoff_ticks = p.retry_backoff;
      handles[next] = server.submit(std::move(req));
      submitted[next] = true;
      ++next;
    }
    server.tick(ctx);

    // Per-tick invariants: slot occupancy bounded; terminal states are
    // absorbing (a finished request never un-finishes or mutates).
    EXPECT_LE(server.scheduler().active(), cfg.max_batch);
    for (std::size_t i = 0; i < next; ++i) {
      const bool fin = server.finished(handles[i]);
      if (seen_finished[i]) {
        EXPECT_TRUE(fin) << "request " << i << " un-finished";
        EXPECT_EQ(server.status(handles[i]).finished_tick, final_tick[i]);
      } else if (fin) {
        seen_finished[i] = true;
        final_tick[i] = server.status(handles[i]).finished_tick;
        EXPECT_LE(server.result(handles[i]).tokens.size(),
                  plan.requests[i].max_new_tokens);
      }
    }
  }

  // Drain invariants: nothing left anywhere, and the KV pool is empty.
  EXPECT_EQ(server.queue_depth(), 0u);
  EXPECT_EQ(server.scheduler().active(), 0u);
  const auto& mx = server.metrics();
  EXPECT_DOUBLE_EQ(mx.find_gauge("kv_bytes_used")->value(), 0.0);
  EXPECT_DOUBLE_EQ(mx.find_gauge("health")->value(), 0.0);
  EXPECT_EQ(counter(mx, "requests_submitted"), plan.requests.size());
  EXPECT_EQ(counter(mx, "requests_cancelled"), run.cancels_hit);
  expect_conserved(mx);

  for (std::size_t i = 0; i < plan.requests.size(); ++i) {
    EXPECT_TRUE(server.finished(handles[i])) << "request " << i;
    const auto st = server.status(handles[i]);
    const auto& res = server.result(handles[i]);
    run.outcomes[i].tokens = res.tokens;
    run.outcomes[i].stop = res.stop_reason;
    run.outcomes[i].reject = st.reject_reason;
    run.outcomes[i].preemptions = st.preemptions;
    run.outcomes[i].retries = st.retries;
  }
  run.metrics_json = mx.json(0);
  run.ticks = server.now();
  return run;
}

void expect_identical(const ChaosRun& a, const ChaosRun& b,
                      const char* what) {
  ASSERT_EQ(a.outcomes.size(), b.outcomes.size());
  for (std::size_t i = 0; i < a.outcomes.size(); ++i) {
    EXPECT_EQ(a.outcomes[i].tokens, b.outcomes[i].tokens)
        << what << ": request " << i;
    EXPECT_EQ(a.outcomes[i].stop, b.outcomes[i].stop)
        << what << ": request " << i;
    EXPECT_EQ(a.outcomes[i].reject, b.outcomes[i].reject)
        << what << ": request " << i;
    EXPECT_EQ(a.outcomes[i].preemptions, b.outcomes[i].preemptions)
        << what << ": request " << i;
    EXPECT_EQ(a.outcomes[i].retries, b.outcomes[i].retries)
        << what << ": request " << i;
    EXPECT_EQ(a.outcomes[i].hashes, b.outcomes[i].hashes)
        << what << ": request " << i << " hidden states diverged";
  }
  EXPECT_EQ(a.ticks, b.ticks) << what;
  EXPECT_EQ(a.metrics_json, b.metrics_json) << what;
}

// ---------------------------------------------------------------------------
// The main soak: everything at once — faults, cancels, deadline storms,
// shed bait and interactive floods over a small batch, so preemption,
// retry and shedding all fire. The per-tick and drain invariants inside
// run_chaos are the test.
// ---------------------------------------------------------------------------
TEST(ChaosSoak, MixedStormConservesEveryRequest) {
  const Model m = make_model(/*max_context=*/8, 0xabc1);
  const ChaosPlan plan = make_plan(/*n=*/160, /*seed=*/0x5eed1,
                                   /*fault_fraction=*/0.01);
  ServerConfig cfg{4, 12};
  cfg.preemption_limit = 1;  // churn hard enough to hit the cap
  const ChaosRun run = run_chaos(m, cfg, plan, /*threads=*/2);

  // The storm must actually have exercised every mechanism — a quiet run
  // would pass the invariants vacuously.
  std::uint64_t preempted = 0, retried = 0, shed = 0, capped = 0;
  for (const auto& o : run.outcomes) {
    preempted += o.preemptions;
    retried += o.retries;
    shed += o.reject == et::serving::RejectReason::kShed ? 1 : 0;
    capped += o.stop == et::nn::StopReason::kPreemptionLimit ? 1 : 0;
  }
  EXPECT_GT(preempted, 0u) << run.metrics_json;
  EXPECT_GT(retried, 0u) << run.metrics_json;
  EXPECT_GT(shed, 0u) << run.metrics_json;
  EXPECT_GT(capped, 0u) << run.metrics_json;
  EXPECT_GT(run.cancels_hit, 0u);
}

// ---------------------------------------------------------------------------
// Determinism: the same script reproduces the same storm bit for bit —
// same transcripts, same per-request preemption/retry counts, same tick
// count, same metrics snapshot — run-to-run and across thread counts.
// ---------------------------------------------------------------------------
TEST(ChaosSoak, StormIsBitReproducibleAcrossRunsAndThreads) {
  const Model m = make_model(/*max_context=*/8, 0xabc2);
  const ChaosPlan plan = make_plan(/*n=*/80, /*seed=*/0x5eed2,
                                   /*fault_fraction=*/0.02);
  ServerConfig cfg{3, 10};
  cfg.preemption_limit = 1;

  const ChaosRun base = run_chaos(m, cfg, plan, /*threads=*/1);
  const ChaosRun again = run_chaos(m, cfg, plan, /*threads=*/1);
  expect_identical(base, again, "rerun");
  for (const std::size_t threads : {std::size_t{2}, std::size_t{8}}) {
    const ChaosRun other = run_chaos(m, cfg, plan, threads);
    expect_identical(base, other,
                     threads == 2 ? "threads=2" : "threads=8");
  }
}

// ---------------------------------------------------------------------------
// Fault storm: a hot injector against a fleet with retry budgets. Most
// requests recover (retries land), the books still balance, and budget
// exhaustion degrades to the honest terminal kKernelFault.
// ---------------------------------------------------------------------------
TEST(ChaosSoak, FaultStormRetriesRecoverAndAccountHonestly) {
  const Model m = make_model(/*max_context=*/8, 0xabc3);
  ChaosPlan plan = make_plan(/*n=*/100, /*seed=*/0x5eed3,
                             /*fault_fraction=*/0.02);
  for (auto& r : plan.requests) {  // uniform retry policy for this storm
    r.retry_budget = 2;
    r.retry_backoff = 1;
    r.cancel_tick = et::serving::kNoTick;
    // No deadlines: this storm isolates fault->retry->recover, so every
    // terminal is either kMaxTokens (recovered) or kKernelFault
    // (budget exhausted).
    r.queue_budget = et::serving::kNoBudget;
    r.total_budget = et::serving::kNoBudget;
  }
  const ServerConfig cfg{4, 16};
  const ChaosRun run = run_chaos(m, cfg, plan, /*threads=*/2);

  std::uint64_t retried = 0, faulted_out = 0, completed_after_retry = 0;
  for (const auto& o : run.outcomes) {
    retried += o.retries;
    if (o.stop == et::nn::StopReason::kKernelFault) ++faulted_out;
    if (o.retries > 0 && o.stop == et::nn::StopReason::kMaxTokens) {
      ++completed_after_retry;
    }
  }
  EXPECT_GT(retried, 0u) << run.metrics_json;
  // Retry earns its keep: recoveries must outnumber exhausted budgets.
  EXPECT_GT(completed_after_retry, faulted_out) << run.metrics_json;
}

// ---------------------------------------------------------------------------
// Preemption churn: a bulk fleet under a relentless interactive flood.
// Interactive latency stays bounded (every interactive request is
// admitted the tick it becomes admissible) while bulk work survives via
// resume or retires typed at the cap — never silently lost.
// ---------------------------------------------------------------------------
TEST(ChaosSoak, InteractiveFloodPreemptsWithoutLosingBulkWork) {
  const Model m = make_model(/*max_context=*/10, 0xabc4);
  Rng rng{0x5eed4};
  ChaosPlan plan;
  for (std::size_t i = 0; i < 12; ++i) {  // bulk fleet at tick 0
    PlannedRequest r;
    r.arrive_tick = 0;
    r.first_token = static_cast<std::int32_t>(1 + rng.below(200));
    r.max_new_tokens = 6;
    r.seed = rng.next();
    r.priority = Priority::kBulk;
    plan.requests.push_back(r);
  }
  for (std::size_t i = 0; i < 30; ++i) {  // flood: one interactive per tick
    PlannedRequest r;
    r.arrive_tick = 1 + i;
    r.first_token = static_cast<std::int32_t>(1 + rng.below(200));
    r.max_new_tokens = 2;
    r.seed = rng.next();
    r.priority = Priority::kInteractive;
    plan.requests.push_back(r);
  }
  ServerConfig cfg{2, 64};
  cfg.preemption_limit = 2;
  const ChaosRun run = run_chaos(m, cfg, plan, /*threads=*/1);

  std::size_t bulk_done = 0, bulk_capped = 0, preemptions = 0;
  for (std::size_t i = 0; i < 12; ++i) {
    const auto& o = run.outcomes[i];
    preemptions += o.preemptions;
    if (o.stop == et::nn::StopReason::kMaxTokens) {
      EXPECT_EQ(o.tokens.size(), 6u) << "bulk " << i;
      ++bulk_done;
    } else {
      EXPECT_EQ(o.stop, et::nn::StopReason::kPreemptionLimit) << "bulk " << i;
      ++bulk_capped;
    }
  }
  EXPECT_GT(preemptions, 0u) << run.metrics_json;
  EXPECT_EQ(bulk_done + bulk_capped, 12u);
  for (std::size_t i = 12; i < plan.requests.size(); ++i) {
    EXPECT_EQ(run.outcomes[i].stop, et::nn::StopReason::kMaxTokens)
        << "interactive " << i;
    EXPECT_EQ(run.outcomes[i].tokens.size(), 2u) << "interactive " << i;
  }
}

}  // namespace
