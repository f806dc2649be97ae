// serve_heavy_tail and decode_numerics: scripted requests through
// serving::InferenceServer on its logical tick clock, in-process. The
// driver submits each tick's due requests, calls tick(), and reads two
// clocks: the modeled device clock (launches appended since the previous
// tick) and host wall-clock. Arrivals are due at logical ticks, so the
// generator is never late: lateness is zero by construction.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <exception>
#include <iterator>
#include <limits>
#include <memory>
#include <thread>

#include "common.hpp"
#include "core/exec_context.hpp"
#include "nn/generation.hpp"
#include "numeric/half.hpp"
#include "tensor/random.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

constexpr std::size_t kNone = std::numeric_limits<std::size_t>::max();
/// Decode slots (max_batch) of both serving workloads.
constexpr std::size_t kSlots = 8;

struct ServeSpec {
  const char* name;
  et::nn::ModelConfig model;  ///< decoder layers, their shape, vocabulary
  bool traffic_only;
  std::size_t requests;        ///< per episode
  std::size_t check_requests;  ///< short run of the thread-count gate
  double ttft_limit_us, tpot_limit_us;
  Script (*script)(std::uint64_t, std::size_t);
};

const ServeSpec kHeavyTail{
    "serve_heavy_tail",
    {"BERT_BASE-shaped", 2, 768, 12, 3072, 512, 512},
    /*traffic_only=*/true, /*requests=*/1050, /*check_requests=*/60,
    kServeTtftLimitUs, kServeTpotLimitUs, heavy_tail_script};

const ServeSpec kDecode{
    "decode_numerics",
    {"tiny-fp16", 2, 32, 2, 128, 256, 128},
    /*traffic_only=*/false, /*requests=*/32, /*check_requests=*/8,
    kDecodeTtftLimitUs, kDecodeTpotLimitUs, decode_script};

/// Embedding rows and positional rows, built once at set-up; embed()
/// is a table lookup plus one row add.
struct Tables {
  et::tensor::MatrixF emb;  ///< vocab × d
  et::tensor::MatrixF pos;  ///< max_context × d

  [[nodiscard]] et::tensor::MatrixF row(std::int32_t token,
                                        std::size_t position) const {
    et::tensor::MatrixF r(1, emb.cols());
    const auto t = static_cast<std::size_t>(token) % emb.rows();
    for (std::size_t c = 0; c < emb.cols(); ++c) {
      r(0, c) = emb(t, c) + pos(position, c);
    }
    return r;
  }
  /// Greedy argmax over the tied LM head (real-math workloads).
  [[nodiscard]] std::int32_t argmax(const et::tensor::MatrixF& h) const {
    std::int32_t best = 0;
    float best_v = -std::numeric_limits<float>::infinity();
    for (std::size_t v = 0; v < emb.rows(); ++v) {
      float dot = 0.0f;
      for (std::size_t c = 0; c < emb.cols(); ++c) dot += h(0, c) * emb(v, c);
      if (dot > best_v) {
        best_v = dot;
        best = static_cast<std::int32_t>(v);
      }
    }
    return best;
  }
};

struct ServeSetup {
  std::vector<et::nn::EncoderWeights> layers;
  std::unique_ptr<et::nn::Model> model;
  Tables tables;
  Script script;
  std::vector<std::vector<std::int32_t>> expected;  ///< transcripts
  std::size_t grouped_prompt_tokens = 0;
  double weights_s = 0, model_s = 0, oracle_s = 0;
};

std::size_t max_context(const Script& script) {
  std::size_t m = 1;
  for (const auto& a : script) {
    m = std::max(m, a.prompt.size() + a.max_new_tokens + 1);
  }
  return m;
}

/// Oracle transcripts: batch-of-one nn::generate per request, a different
/// decode loop than the scheduler's fused tick. Requests are independent,
/// so kGateThreads workers take them in turn, each on its own device.
void compute_oracle(ServeSetup& s) {
  s.expected.assign(s.script.size(), {});
  std::atomic<std::size_t> next{0};
  std::vector<std::exception_ptr> errors(kGateThreads);
  const auto worker = [&s, &next, &errors](std::size_t w) {
    try {
      et::gpusim::Device dev;
      et::core::ExecContext ctx(dev);
      const Tables* tab = &s.tables;
      for (std::size_t i; (i = next++) < s.script.size();) {
        et::nn::GenerationSession session(*s.model);
        et::nn::DecodeParams p;
        p.prompt_tokens = s.script[i].prompt;
        p.max_new_tokens = s.script[i].max_new_tokens;
        p.embed = [tab](std::int32_t t, std::size_t pos) {
          return tab->row(t, pos);
        };
        p.select = [tab](const et::tensor::MatrixF& h) {
          return tab->argmax(h);
        };
        s.expected[i] = et::nn::generate(ctx, session, p).tokens;
        dev.reset();
      }
    } catch (...) {
      errors[w] = std::current_exception();
    }
  };
  std::vector<std::thread> workers;
  for (std::size_t w = 0; w < kGateThreads; ++w) workers.emplace_back(worker, w);
  for (auto& t : workers) t.join();
  for (const auto& e : errors) {
    if (e) std::rethrow_exception(e);
  }
}

std::unique_ptr<ServeSetup> set_up(const ServeSpec& spec, std::uint64_t seed,
                                   std::size_t requests) {
  auto s = std::make_unique<ServeSetup>();
  const std::int64_t t0 = now_ns();
  for (std::size_t l = 0; l < spec.model.num_layers; ++l) {
    s->layers.push_back(
        et::nn::make_dense_encoder_weights(spec.model, seed * 100 + l));
  }
  const std::int64_t t1 = now_ns();
  s->weights_s = static_cast<double>(t1 - t0) / 1e9;

  s->script = spec.script(seed, requests);
  const std::size_t ctx_len = max_context(s->script);
  auto gopt = et::nn::options_for(et::nn::Pipeline::kET, spec.model, ctx_len,
                                  /*causal_mask=*/true);
  s->model = std::make_unique<et::nn::Model>(&s->layers, gopt, ctx_len);
  s->tables.emb =
      et::tensor::MatrixF(spec.model.vocab_size, spec.model.d_model);
  et::tensor::fill_normal(s->tables.emb, seed + 31);
  s->tables.pos = et::tensor::MatrixF(ctx_len, spec.model.d_model);
  et::tensor::fill_normal(s->tables.pos, seed + 32, 0.0f, 0.1f);
  for (const auto& a : s->script) {
    if (a.group != et::core::kNoPrefixGroup) {
      s->grouped_prompt_tokens += a.prompt.size();
    }
  }
  const std::int64_t t2 = now_ns();
  s->model_s = static_cast<double>(t2 - t1) / 1e9;

  if (spec.traffic_only) {
    for (const auto& a : s->script) s->expected.push_back(a.outputs);
  } else {
    compute_oracle(*s);
    s->oracle_s = static_cast<double>(now_ns() - t2) / 1e9;
  }
  return s;
}

/// What the driver observes of one request from outside the server.
struct RequestObs {
  std::size_t prompt_len = 0;
  std::size_t next_output = 0;  ///< scripted select cursor
  std::size_t first_tick = kNone, last_tick = kNone;
  std::int64_t first_ns = 0, last_ns = 0;
  std::size_t tokens = 0;
};

/// State the closures share with the driver loop.
struct DriverState {
  Tracer* tracer = nullptr;
  const et::serving::InferenceServer* server = nullptr;
  std::vector<RequestObs> obs;
  std::uint64_t rows = 0, prompt_rows = 0;
};

struct Episode {
  std::vector<double> tick_modeled_us;  ///< per tick, idle ticks included
  std::vector<double> busy_tick_ms;     ///< host ms of ticks with launches
  double busy_modeled_us = 0;
  std::size_t busy_ticks = 0;
  double wall_ms = 0;  ///< serving loop, first tick start to drain
  std::vector<double> ttft_modeled_us, tpot_modeled_us;
  std::vector<double> ttft_host_ms, tpot_host_ms;
  std::size_t output_tokens = 0, slo_ok = 0, failed = 0;
  std::vector<std::vector<std::int32_t>> transcripts;
  std::vector<double> queue_wait_ticks;
  std::vector<StepRecord> steps;
  OpTotals ops;
  std::uint64_t rows = 0, prompt_rows = 0;
  double launches = 0, log_entries = 0, fallbacks = 0, fp16_overflows = 0;
  double kv_peak = 0, prefix_hits = 0, prefix_shared = 0, cow_splits = 0;
  double preemptions = 0, rejected = 0, shed = 0, expired = 0;
  bool books_ok = true;
  /// The clock self-test pair (filled only when asked for).
  double clock_us = 0, device_total_us = 0;
};

double counter(const et::serving::MetricsRegistry& m, const char* name) {
  const auto* c = m.find_counter(name);
  return c == nullptr ? -1.0 : static_cast<double>(c->value());
}
double gauge(const et::serving::MetricsRegistry& m, const char* name) {
  const auto* g = m.find_gauge(name);
  return g == nullptr ? -1.0 : g->value();
}

/// Drive one episode of `requests` scripted requests to drain. An
/// enabled tracer also collects per-tick op attribution.
Episode run_episode(const ServeSpec& spec, const ServeSetup& s,
                    std::size_t requests, std::size_t threads,
                    Tracer& tracer, bool verify_clock = false) {
  et::gpusim::Device dev;
  dev.set_traffic_only(spec.traffic_only);
  et::core::ExecContext ctx(dev, threads);
  et::serving::ServerConfig cfg;
  cfg.max_batch = kSlots;
  cfg.queue_capacity = 1024;
  cfg.preemption_limit = 64;
  et::serving::InferenceServer server(*s.model, cfg);

  DriverState st;
  st.tracer = &tracer;
  st.server = &server;
  st.obs.resize(requests);
  for (std::size_t r = 0; r < requests; ++r) {
    st.obs[r].prompt_len = s.script[r].prompt.size();
  }
  const Tables* tab = &s.tables;
  DriverState* drv = &st;

  const auto make_request = [&](std::size_t r) {
    const Arrival& a = s.script[r];
    et::serving::Request req;
    req.priority = a.priority;
    req.prompt_tokens = a.prompt;
    req.prefix_group = a.group;
    req.max_new_tokens = a.max_new_tokens;
    RequestObs* o = &st.obs[r];
    const auto id = static_cast<std::int64_t>(r);
    req.embed = [tab, drv, o, id](std::int32_t t, std::size_t pos) {
      Tracer::Scope span(*drv->tracer, "closure.embed", id);
      ++drv->rows;
      if (pos + 1 < o->prompt_len) ++drv->prompt_rows;
      return tab->row(t, pos);
    };
    if (spec.traffic_only) {
      const std::vector<std::int32_t>* outs = &a.outputs;
      req.select = [drv, o, outs, id](const et::tensor::MatrixF&) {
        Tracer::Scope span(*drv->tracer, "closure.select", id);
        const std::size_t k = o->next_output++;
        return k < outs->size() ? (*outs)[k] : std::int32_t{-1};
      };
    } else {
      req.select = [tab, drv, id](const et::tensor::MatrixF& h) {
        Tracer::Scope span(*drv->tracer, "closure.select", id);
        return tab->argmax(h);
      };
    }
    req.on_token = [drv, o](std::uint64_t rid, std::int32_t, std::size_t) {
      Tracer::Scope span(*drv->tracer, "closure.on_token",
                         static_cast<std::int64_t>(rid));
      const std::int64_t t = now_ns();
      const std::size_t tick = drv->server->now();
      if (o->tokens == 0) {
        o->first_tick = tick;
        o->first_ns = t;
      }
      o->last_tick = tick;
      o->last_ns = t;
      ++o->tokens;
    };
    return req;
  };

  Episode ep;
  ModeledClock clock(dev);
  std::vector<double> modeled_at_start;  // modeled clock before tick t
  std::vector<std::int64_t> host_at_start;
  std::vector<et::serving::RequestHandle> handles;
  std::size_t next = 0;
  const std::uint64_t overflows0 = et::numeric::overflow_count();
  const std::int64_t loop_start = now_ns();
  for (std::size_t t = 0;; ++t) {
    const std::int64_t tick_start = now_ns();
    modeled_at_start.push_back(clock.now_us());
    host_at_start.push_back(tick_start);
    for (; next < requests && s.script[next].tick <= t; ++next) {
      Tracer::Scope span(tracer, "serving.submit",
                         static_cast<std::int64_t>(next));
      handles.push_back(server.submit(make_request(next)));
    }
    if (next == requests && server.idle()) break;
    const std::size_t log_before = dev.history().size();
    const std::int64_t call_start = now_ns();
    {
      Tracer::Scope span(tracer, "serving.tick");
      server.tick(ctx);
    }
    const std::int64_t tick_end = now_ns();
    const double modeled = clock.advance();
    ep.tick_modeled_us.push_back(modeled);
    const std::size_t launched = dev.history().size() - log_before;
    if (launched > 0) {
      ep.busy_tick_ms.push_back(ns_to_ms(tick_end - call_start));
      ep.busy_modeled_us += modeled;
      ++ep.busy_ticks;
      ep.launches += static_cast<double>(launched);
    }
    if (tracer.enabled() && launched > 0) {
      OpTotals tick_ops;
      tick_ops.add_range(dev.history(), log_before, dev.history().size());
      StepRecord rec;
      rec.step = t;
      rec.start_ns = call_start;
      rec.end_ns = tick_end;
      rec.modeled_us = modeled;
      rec.launches = launched;
      std::copy(std::begin(tick_ops.us), std::end(tick_ops.us), rec.op_us);
      ep.ops.merge(tick_ops);
      ep.steps.push_back(rec);
    }
  }
  ep.wall_ms = ns_to_ms(now_ns() - loop_start);
  ep.fp16_overflows =
      static_cast<double>(et::numeric::overflow_count() - overflows0);
  if (verify_clock) {
    ep.clock_us = clock.now_us();
    ep.device_total_us = dev.total_time_us();
  }

  // Per-request latencies and output checks. The loop's last pass
  // recorded the clock after the final tick, so tick + 1 is in range.
  const auto modeled_after = [&](std::size_t tick) {
    return modeled_at_start[tick + 1];
  };
  for (std::size_t r = 0; r < requests; ++r) {
    const auto h = handles[r];
    const RequestObs& o = st.obs[r];
    const Arrival& a = s.script[r];
    bool ok = h.id == r && server.finished(h);
    if (ok) {
      const auto& res = server.result(h);
      ok = res.stop_reason == et::nn::StopReason::kMaxTokens &&
           res.tokens == s.expected[r] && o.tokens == res.tokens.size();
      ep.transcripts.push_back(res.tokens);
      const auto status = server.status(h);
      if (status.admitted_tick != et::serving::kNoTick) {
        ep.queue_wait_ticks.push_back(
            static_cast<double>(status.admitted_tick - status.submitted_tick));
      }
    }
    if (!ok || o.tokens == 0) {
      ++ep.failed;
      continue;
    }
    ep.output_tokens += o.tokens;
    const double ttft_m = modeled_after(o.first_tick) - modeled_at_start[a.tick];
    ep.ttft_modeled_us.push_back(ttft_m);
    ep.ttft_host_ms.push_back(ns_to_ms(o.first_ns - host_at_start[a.tick]));
    double tpot_m = 0.0;
    if (o.tokens > 1) {
      const auto gaps = static_cast<double>(o.tokens - 1);
      tpot_m = (modeled_after(o.last_tick) - modeled_after(o.first_tick)) / gaps;
      ep.tpot_modeled_us.push_back(tpot_m);
      ep.tpot_host_ms.push_back(ns_to_ms(o.last_ns - o.first_ns) / gaps);
    }
    ep.slo_ok += ttft_m <= spec.ttft_limit_us && tpot_m <= spec.tpot_limit_us;
  }

  // The books: every submission resolves to exactly one terminal state,
  // and no KV block stays resident after drain.
  const auto& m = server.metrics();
  const double submitted = counter(m, "requests_submitted");
  ep.rejected = counter(m, "requests_rejected");
  ep.shed = counter(m, "shed");
  ep.expired = counter(m, "requests_expired");
  ep.preemptions = counter(m, "preemptions");
  double stop_sum = 0;
  for (std::size_t i = 0; i < et::nn::kStopReasonCount; ++i) {
    const std::string name =
        "stop_" + std::string(et::nn::to_string(
                      static_cast<et::nn::StopReason>(i)));
    stop_sum += counter(m, name.c_str());
  }
  ep.books_ok =
      submitted == static_cast<double>(requests) &&
      submitted == counter(m, "requests_completed") + ep.rejected + ep.shed +
                       counter(m, "requests_cancelled") + ep.expired +
                       counter(m, "stop_preemption_limit") &&
      stop_sum == submitted && gauge(m, "kv_bytes_used") == 0.0;
  ep.kv_peak = gauge(m, "kv_bytes_used_peak");
  ep.prefix_hits = gauge(m, "prefix_hits");
  ep.prefix_shared = gauge(m, "prefix_shared_tokens");
  ep.cow_splits = gauge(m, "cow_splits");
  ep.rows = st.rows;
  ep.prompt_rows = st.prompt_rows;
  ep.log_entries = static_cast<double>(dev.history().size());
  ep.fallbacks = static_cast<double>(dev.fallback_log().size());
  return ep;
}

/// Per position (busy tick or request), the median of its samples over
/// the episodes; then the percentile over positions. Every episode runs
/// the same schedule, so a position does the same work in each: a tail
/// the program causes repeats in every episode and survives the median,
/// while a host hiccup lands in one episode at a time and does not.
Quantile position_percentile(const std::vector<const Episode*>& eps,
                             std::vector<double> Episode::*samples,
                             double q) {
  std::size_t n = std::numeric_limits<std::size_t>::max();
  for (const Episode* ep : eps) n = std::min(n, (ep->*samples).size());
  std::vector<double> per(n), column;
  for (std::size_t i = 0; i < n; ++i) {
    column.clear();
    for (const Episode* ep : eps) column.push_back((ep->*samples)[i]);
    per[i] = median(column);
  }
  return percentile(std::move(per), q);
}

int run(const ServeSpec& spec, const Options& opt, Report& report,
        Outcome& outcome) {
  std::vector<double> setup_total, weights_s, model_s, oracle_s;
  std::unique_ptr<ServeSetup> s;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    s.reset();
    const std::int64_t t0 = now_ns();
    s = set_up(spec, opt.seed, spec.requests);
    setup_total.push_back(static_cast<double>(now_ns() - t0) / 1e9);
    weights_s.push_back(s->weights_s);
    model_s.push_back(s->model_s);
    oracle_s.push_back(s->oracle_s);
  }

  // Gate: every modeled number is identical at 1 thread and at
  // kGateThreads on a short run.
  {
    Tracer off(false);
    const Episode one = run_episode(spec, *s, spec.check_requests, 1, off);
    const Episode many =
        run_episode(spec, *s, spec.check_requests, kGateThreads, off);
    if (one.tick_modeled_us != many.tick_modeled_us ||
        one.ttft_modeled_us != many.ttft_modeled_us ||
        one.tpot_modeled_us != many.tpot_modeled_us ||
        one.transcripts != many.transcripts) {
      std::fprintf(stderr, "determinism break: %s modeled schedule differs "
                           "between 1 and %zu threads\n", spec.name,
                   kGateThreads);
      return 3;
    }
  }

  std::vector<Episode> plain, traced_eps;
  Tracer off(false);
  Tracer tracer(true);
  const std::int64_t start = now_ns();
  for (std::size_t i = 0;; ++i) {
    const double elapsed = ns_to_ms(now_ns() - start) / 1e3;
    const bool enough = opt.trace ? !traced_eps.empty() && !plain.empty()
                                  : !plain.empty();
    if (elapsed >= opt.seconds && enough) break;
    const bool trace_this = opt.trace && i % 2 == 1;
    if (trace_this) tracer.clear();
    Episode ep = run_episode(spec, *s, spec.requests, kMeasureThreads,
                             trace_this ? tracer : off);
    // Determinism: the logical schedule repeats exactly every episode.
    const Episode& ref = plain.empty() ? ep : plain.front();
    if (ep.tick_modeled_us != ref.tick_modeled_us ||
        ep.transcripts != ref.transcripts) {
      std::fprintf(stderr, "determinism break: %s episode %zu differs from "
                           "the first\n", spec.name, i);
      return 3;
    }
    outcome.attempted += spec.requests;
    const std::size_t bad = ep.books_ok ? ep.failed : spec.requests;
    outcome.failed += bad;
    if (bad > 0) {
      outcome.fail(std::string(spec.name) + ": " + std::to_string(bad) +
                   " request(s) failed their check" +
                   (ep.books_ok ? "" : " (books do not balance at drain)"));
    }
    (trace_this ? traced_eps : plain).push_back(std::move(ep));
  }

  const Episode& first = plain.front();
  if (!opt.trace) {
    // Host metrics come from the quiet half of the episodes: percentiles
    // over per-position medians, rates per episode and then the median,
    // so a stall of the host (a descheduled vCPU) spoils one episode, not
    // the run's figure.
    std::vector<double> pace;
    for (const auto& ep : plain) pace.push_back(median(ep.busy_tick_ms));
    std::vector<const Episode*> quiet;
    for (std::size_t i : quiet_half(pace)) quiet.push_back(&plain[i]);
    std::vector<double> fwd_rate, token_rate;
    for (const Episode* ep : quiet) {
      double busy_ms = 0;
      for (double v : ep->busy_tick_ms) busy_ms += v;
      fwd_rate.push_back(static_cast<double>(ep->busy_ticks) / (busy_ms / 1e3));
      token_rate.push_back(static_cast<double>(ep->output_tokens) /
                           (ep->wall_ms / 1e3));
    }
    report.add("setup_s", median(setup_total), "s");
    report.add("peak_rss_mb", peak_rss_mb(), "MB");
    report.add("ok_frac",
               static_cast<double>(outcome.attempted - outcome.failed) /
                   static_cast<double>(outcome.attempted),
               "frac");
    report.add("modeled_us_per_forward",
               first.busy_modeled_us / static_cast<double>(first.busy_ticks),
               "us", "exact; one forward = one tick");
    report.add("forward_host_ms_p50",
               position_percentile(quiet, &Episode::busy_tick_ms, 0.5), 1.0,
               "ms");
    report.add("forward_host_ms_p99",
               position_percentile(quiet, &Episode::busy_tick_ms, 0.99), 1.0,
               "ms");
    report.add("forwards_per_s", median(fwd_rate), "1/s");
    report.add("ttft_modeled_us_p50", percentile(first.ttft_modeled_us, 0.5),
               1.0, "us");
    report.add("ttft_modeled_us_p99", percentile(first.ttft_modeled_us, 0.99),
               1.0, "us");
    report.add("tpot_modeled_us_p50", percentile(first.tpot_modeled_us, 0.5),
               1.0, "us");
    report.add("slo_ok_frac",
               static_cast<double>(first.slo_ok) /
                   static_cast<double>(spec.requests),
               "frac");
    report.add("ttft_host_ms_p50",
               position_percentile(quiet, &Episode::ttft_host_ms, 0.5), 1.0,
               "ms");
    report.add("ttft_host_ms_p99",
               position_percentile(quiet, &Episode::ttft_host_ms, 0.99), 1.0,
               "ms");
    report.add("tpot_host_ms_p50",
               position_percentile(quiet, &Episode::tpot_host_ms, 0.5), 1.0,
               "ms");
    report.add("tokens_per_s", median(token_rate), "1/s");
    return 0;
  }

  const Episode& ep = traced_eps.back();
  const auto& spans = tracer.spans();
  const double busy = static_cast<double>(ep.busy_ticks);
  PerLayer pl;
  pl.launches_per_op = ep.launches / busy;
  pl.log_entries = ep.log_entries;
  pl.fallbacks = ep.fallbacks / busy;
  pl.fp16_overflows = ep.fp16_overflows / busy;
  pl.ops = ep.ops;
  pl.ops_scale = 1.0 / busy;
  pl.kv_bytes_used_peak = ep.kv_peak;
  pl.kv_prefix_hits = ep.prefix_hits;
  pl.kv_prefix_shared_tokens = ep.prefix_shared;
  pl.kv_cow_splits = ep.cow_splits;
  pl.kv_prefix_hit_frac =
      s->grouped_prompt_tokens == 0
          ? 0.0
          : ep.prefix_shared / static_cast<double>(s->grouped_prompt_tokens);
  pl.batch_occupancy_mean = static_cast<double>(ep.rows) / busy;
  pl.prompt_row_frac =
      static_cast<double>(ep.prompt_rows) / static_cast<double>(ep.rows);
  const auto tick_ms = span_ms(spans, "serving.tick");
  pl.tick_ms_p50 = percentile(tick_ms, 0.5).value;
  pl.tick_ms_p99 = percentile(tick_ms, 0.99).value;
  pl.tick_self_ms_p50 = percentile(span_self_ms(spans, "serving.tick"), 0.5).value;
  pl.submit_us_p50 = percentile(span_ms(spans, "serving.submit"), 0.5).value * 1e3;
  pl.queue_wait_p50 = percentile(ep.queue_wait_ticks, 0.5).value;
  pl.queue_wait_p99 = percentile(ep.queue_wait_ticks, 0.99).value;
  pl.preemptions = ep.preemptions;
  pl.rejected = ep.rejected;
  pl.shed = ep.shed;
  pl.expired = ep.expired;
  pl.setup_weights_s = median(weights_s);
  pl.setup_model_s = median(model_s);
  pl.setup_oracle_s = median(oracle_s);
  double closure_ms = 0, tick_total_ms = 0;
  for (const auto& sp : spans) {
    const double ms = ns_to_ms(sp.end_ns - sp.start_ns);
    if (std::string_view(sp.name).rfind("closure.", 0) == 0) closure_ms += ms;
    if (std::string_view(sp.name) == "serving.tick") tick_total_ms += ms;
  }
  pl.closure_share = closure_ms / tick_total_ms;
  std::vector<double> plain_ms, traced_ms;
  for (const auto& e : plain) plain_ms.push_back(e.wall_ms);
  for (const auto& e : traced_eps) traced_ms.push_back(e.wall_ms);
  pl.trace_overhead_frac = median(traced_ms) / median(plain_ms) - 1.0;
  add_per_layer(report, pl);
  write_trace(opt, spans, ep.steps);
  return 0;
}

}  // namespace

int run_serving(const Options& opt, Report& report, Outcome& outcome) {
  return run(opt.workload == kDecode.name ? kDecode : kHeavyTail, opt, report,
             outcome);
}

bool clock_self_test(std::string& why) {
  const auto s = set_up(kHeavyTail, 7, 40);
  Tracer off(false);
  const Episode ep = run_episode(kHeavyTail, *s, 40, 1, off,
                                 /*verify_clock=*/true);
  if (ep.clock_us != ep.device_total_us) {
    why = "incremental modeled clock " + std::to_string(ep.clock_us) +
          " us != Device::total_time_us() " +
          std::to_string(ep.device_total_us) + " us";
    return false;
  }
  return true;
}

}  // namespace perfbench
