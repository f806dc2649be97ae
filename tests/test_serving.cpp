// serving::InferenceServer + serving::MetricsRegistry: the request-level
// runtime must preserve the repo's determinism spine (a scripted arrival
// sequence through the server is BIT-IDENTICAL to the sequential
// reference at any thread count), enforce admission control (bounded
// queue, priorities, deadlines, cancellation) with typed outcomes, and
// account every lifecycle event in the metrics snapshot exactly once.
// See tests/differential.hpp for the harness and docs/serving.md for the
// methodology.
#include <gtest/gtest.h>

#include <algorithm>
#include <clocale>
#include <functional>
#include <iterator>
#include <memory>
#include <ostream>
#include <stdexcept>
#include <tuple>

#include "differential.hpp"
#include "serving/metrics.hpp"
#include "serving/server.hpp"

namespace {

using et::diff::Arrival;
using et::diff::Request;
using et::serving::InferenceServer;
using et::serving::MetricsRegistry;
using et::serving::Priority;
using et::serving::RejectReason;
using et::serving::RequestState;
using et::serving::ServerConfig;

constexpr std::int32_t kVocab = 257;

struct Model {
  std::vector<et::nn::EncoderWeights> layers;
  et::nn::EncoderOptions opt;
};

Model make_model(std::size_t num_layers, std::size_t d_model,
                 std::size_t num_heads, std::size_t max_context,
                 std::uint64_t seed) {
  et::nn::ModelConfig cfg;
  cfg.num_layers = num_layers;
  cfg.d_model = d_model;
  cfg.num_heads = num_heads;
  cfg.d_ff = 2 * d_model;

  Model m;
  for (std::size_t l = 0; l < num_layers; ++l) {
    m.layers.push_back(et::nn::make_dense_encoder_weights(cfg, seed + l));
  }
  m.opt = et::nn::options_for(et::nn::Pipeline::kET, cfg, max_context,
                              /*causal=*/true);
  m.opt.attn.precision = et::numeric::Precision::kFp32;
  return m;
}

/// The validated model handle every server in this file is built from.
et::nn::Model nn_model(const Model& m, std::size_t max_context) {
  return et::nn::Model(&m.layers, m.opt, max_context);
}

/// A plain serving request over the differential harness closures.
et::serving::Request make_request(const Model& m, std::int32_t first_token,
                                  std::size_t max_new_tokens,
                                  std::uint64_t seed) {
  et::serving::Request r;
  r.first_token = first_token;
  r.max_new_tokens = max_new_tokens;
  r.embed = et::diff::make_embed(m.opt.attn.d_model, seed);
  r.select = et::diff::make_select(kVocab);
  return r;
}

// ---------------------------------------------------------------------------
// MetricsRegistry primitives.
// ---------------------------------------------------------------------------
TEST(Metrics, CounterAndGaugeBasics) {
  MetricsRegistry reg;
  auto& c = reg.counter("requests");
  c.inc();
  c.inc(3);
  EXPECT_EQ(c.value(), 4u);
  EXPECT_EQ(&reg.counter("requests"), &c);  // find-or-create returns same

  auto& g = reg.gauge("depth");
  g.set(2.5);
  EXPECT_DOUBLE_EQ(g.value(), 2.5);

  EXPECT_EQ(reg.find_counter("requests"), &c);
  EXPECT_EQ(reg.find_gauge("depth"), &g);
  EXPECT_EQ(reg.find_counter("absent"), nullptr);
  EXPECT_EQ(reg.find_gauge("absent"), nullptr);
  EXPECT_EQ(reg.find_histogram("absent"), nullptr);
}

TEST(Metrics, HistogramBucketsAreInclusiveUpperEdgesPlusOverflow) {
  MetricsRegistry reg;
  auto& h = reg.histogram("lat", {1, 2, 4});
  ASSERT_EQ(h.counts().size(), 4u);  // 3 bounds + overflow

  h.observe(1.0);  // inclusive: lands in bucket 0
  h.observe(1.5);  // bucket 1
  h.observe(4.0);  // bucket 2
  h.observe(5.0);  // overflow
  EXPECT_EQ(h.counts()[0], 1u);
  EXPECT_EQ(h.counts()[1], 1u);
  EXPECT_EQ(h.counts()[2], 1u);
  EXPECT_EQ(h.counts()[3], 1u);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_DOUBLE_EQ(h.sum(), 11.5);
  EXPECT_DOUBLE_EQ(h.mean(), 11.5 / 4.0);
}

TEST(Metrics, RegistryRejectsKindCollisionsAndBadBounds) {
  MetricsRegistry reg;
  reg.counter("x");
  EXPECT_THROW(reg.gauge("x"), std::invalid_argument);
  EXPECT_THROW(reg.histogram("x", {1, 2}), std::invalid_argument);
  EXPECT_THROW(reg.histogram("h", {}), std::invalid_argument);
  EXPECT_THROW(reg.histogram("h", {2, 1}), std::invalid_argument);
  EXPECT_THROW(reg.histogram("h", {1, 1}), std::invalid_argument);
}

TEST(Metrics, ScalarsFollowRegistrationOrderAndCoverHistograms) {
  MetricsRegistry reg;
  reg.counter("b_first").inc(7);
  reg.counter("a_second");
  reg.gauge("depth").set(3);
  reg.histogram("lat", {1, 2}).observe(1.5);

  const auto fields = reg.scalars();
  ASSERT_EQ(fields.size(), 6u);  // 2 counters + 1 gauge + 3 per histogram
  EXPECT_EQ(fields[0].name, "b_first");  // registration order, not sorted
  EXPECT_DOUBLE_EQ(fields[0].value, 7.0);
  EXPECT_EQ(fields[1].name, "a_second");
  EXPECT_EQ(fields[2].name, "depth");
  EXPECT_EQ(fields[3].name, "lat_count");
  EXPECT_DOUBLE_EQ(fields[3].value, 1.0);
  EXPECT_EQ(fields[4].name, "lat_sum");
  EXPECT_DOUBLE_EQ(fields[4].value, 1.5);
  EXPECT_EQ(fields[5].name, "lat_mean");
}

TEST(Metrics, JsonSnapshotIsStableAndContainsEveryFamily) {
  MetricsRegistry reg;
  reg.counter("requests").inc(2);
  reg.gauge("depth").set(1.5);
  reg.histogram("lat", {1, 2}).observe(3.0);

  const std::string json = reg.json();
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"requests\": 2"), std::string::npos);
  EXPECT_NE(json.find("\"gauges\""), std::string::npos);
  EXPECT_NE(json.find("\"depth\": 1.5"), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  EXPECT_NE(json.find("\"bounds\""), std::string::npos);
  EXPECT_NE(json.find("\"counts\""), std::string::npos);
  EXPECT_EQ(json, reg.json());  // snapshotting is pure

  // Compact mode stays one line.
  const std::string compact = reg.json(0);
  EXPECT_EQ(compact.find('\n'), std::string::npos);
}

TEST(Metrics, JsonNumbersAreLocaleIndependent) {
  // json() is documented as valid JSON under ANY process locale: a
  // comma decimal separator leaking in from printf-family formatting
  // would corrupt the document. Flip LC_NUMERIC to a comma locale when
  // the image ships one; either way the invariant below must hold.
  const std::string saved = std::setlocale(LC_NUMERIC, nullptr);
  const char* active = nullptr;
  for (const char* name :
       {"de_DE.UTF-8", "de_DE.utf8", "fr_FR.UTF-8", "fr_FR.utf8"}) {
    if (std::setlocale(LC_NUMERIC, name) != nullptr) {
      active = name;
      break;
    }
  }
  MetricsRegistry reg;
  reg.gauge("depth").set(1.5);
  reg.gauge("tiny").set(0.0078125);  // exact binary fraction
  reg.counter("requests").inc(3);
  const std::string json = reg.json();
  std::setlocale(LC_NUMERIC, saved.c_str());
  SCOPED_TRACE(active != nullptr ? std::string("locale ") + active
                                 : std::string("no comma locale installed"));
  EXPECT_NE(json.find("\"depth\": 1.5"), std::string::npos) << json;
  EXPECT_NE(json.find("\"tiny\": 0.0078125"), std::string::npos) << json;
  // Integers print without a decimal point, so counters stay counters.
  EXPECT_NE(json.find("\"requests\": 3"), std::string::npos) << json;
  EXPECT_EQ(json.find("1,5"), std::string::npos) << json;  // never "1,5"
}

TEST(Metrics, JsonEscapesHostileMetricNames) {
  // Metric names are built from tenant and model strings the server does
  // not control — quotes, backslashes and control characters must come
  // out as JSON escapes, not document corruption.
  MetricsRegistry reg;
  reg.counter("a\"b\\c\nd").inc();
  const std::string json = reg.json();
  EXPECT_NE(json.find("\"a\\\"b\\\\c\\u000ad\": 1"), std::string::npos)
      << json;
  // Compact mode carries the same escaping.
  EXPECT_NE(reg.json(0).find("\\u000a"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Differential: served == sequential == batched, bit for bit, at
// threads 1/2/8 (the serving axis of the determinism spine).
// ---------------------------------------------------------------------------
struct ServeSweepCase {
  std::size_t threads;
  std::size_t max_batch;
  std::size_t queue_capacity;
};

std::ostream& operator<<(std::ostream& os, const ServeSweepCase& c) {
  return os << "threads=" << c.threads << " max_batch=" << c.max_batch
            << " queue_capacity=" << c.queue_capacity;
}

class ServingDifferential : public ::testing::TestWithParam<ServeSweepCase> {};

TEST_P(ServingDifferential, ScriptedArrivalsMatchSequentialBitForBit) {
  const ServeSweepCase& c = GetParam();
  const std::size_t max_context = 12;
  const Model m = make_model(2, 32, 2, max_context, 40);

  // Staggered arrivals: some at tick 0 (beyond the batch, so they queue),
  // stragglers mid-run (continuous batching backfills them).
  std::vector<Request> requests;
  std::vector<Arrival> arrivals;
  const std::size_t script[][2] = {
      {0, 5}, {0, 3}, {0, 6}, {1, 4}, {3, 5}, {3, 2}, {6, 4}};
  for (std::size_t i = 0; i < std::size(script); ++i) {
    Request r{static_cast<std::int32_t>(i + 1), script[i][1],
              et::nn::kNoEosToken, 90 + i};
    requests.push_back(r);
    arrivals.push_back({script[i][0], r});
  }

  et::gpusim::Device seq_dev, serve_dev;
  const auto sequential = et::diff::run_sequential(
      seq_dev, m.layers, m.opt, max_context, requests, kVocab);
  const ServerConfig cfg{c.max_batch, c.queue_capacity};
  const auto served = et::diff::run_served(serve_dev, m.layers, m.opt,
                                           max_context, cfg, arrivals, kVocab,
                                           c.threads);

  et::diff::expect_bit_identical(sequential, served.outcomes);
  for (const auto& o : served.outcomes) {
    EXPECT_EQ(o.result.stop_reason, et::nn::StopReason::kMaxTokens);
  }
}

INSTANTIATE_TEST_SUITE_P(Threads, ServingDifferential,
                         ::testing::Values(ServeSweepCase{1, 3, 16},
                                           ServeSweepCase{2, 3, 16},
                                           ServeSweepCase{8, 3, 16},
                                           ServeSweepCase{1, 2, 16},
                                           ServeSweepCase{8, 2, 16}));

TEST(ServingDifferentialCross, ThreadCountsAgreeOnTranscriptsAndMetrics) {
  // Same script at threads {1,2,8}: transcripts, tick counts AND the full
  // metrics JSON must be identical — the logical clock makes the whole
  // serving snapshot reproducible, not just the tokens.
  const std::size_t max_context = 10;
  const Model m = make_model(2, 32, 2, max_context, 47);
  std::vector<Arrival> arrivals;
  for (std::size_t i = 0; i < 5; ++i) {
    arrivals.push_back(
        {i / 2, {static_cast<std::int32_t>(i + 3), 3 + i % 3,
                 et::nn::kNoEosToken, 70 + i}});
  }
  const ServerConfig cfg{2, 8};

  et::gpusim::Device d1;
  const auto base = et::diff::run_served(d1, m.layers, m.opt, max_context,
                                         cfg, arrivals, kVocab, /*threads=*/1);
  for (const std::size_t threads : {std::size_t{2}, std::size_t{8}}) {
    et::gpusim::Device dn;
    const auto other = et::diff::run_served(dn, m.layers, m.opt, max_context,
                                            cfg, arrivals, kVocab, threads);
    et::diff::expect_bit_identical(base.outcomes, other.outcomes);
    EXPECT_EQ(base.ticks, other.ticks) << "threads=" << threads;
  }
}

// ---------------------------------------------------------------------------
// Sharing differential (docs/serving.md "Paged KV and prefix sharing"):
// the same scripted storm with prefix sharing ON, OFF, and under the
// contiguous layout (block_tokens = max_context) must produce
// bit-identical transcripts, tick counts, and metrics — every scalar
// except the four sharing-observability gauges. Sharing buys memory,
// never behavior, including under priority preemption and random-fault
// retry storms.
// ---------------------------------------------------------------------------

/// Storm with two prefix groups (same-group arrivals share a prompt AND
/// an embed seed — the sharing soundness contract), staggered so later
/// members arrive inside the window where the first member's prompt
/// blocks are registered and still resident, plus priority mix for
/// preemption churn. `chaos` arms per-arrival fault-retry budgets.
std::vector<Arrival> shared_prefix_storm(bool chaos) {
  std::vector<Arrival> arrivals;
  const auto add = [&](std::size_t tick, std::vector<std::int32_t> prompt,
                       std::uint64_t group, std::uint64_t seed,
                       std::size_t max_new, Priority prio) {
    Request r;
    r.prompt = std::move(prompt);
    r.prefix_group = group;
    r.seed = seed;
    r.max_new_tokens = max_new;
    Arrival a{tick, r};
    a.priority = prio;
    if (chaos) {
      a.retry_budget = 2;
      a.retry_backoff = 1;
    }
    arrivals.push_back(a);
  };
  const std::vector<std::int32_t> sys1{11, 12, 13, 14, 15, 16, 17, 18};
  const std::vector<std::int32_t> sys2{21, 22, 23, 24, 25};
  add(0, sys1, 1, 601, 3, Priority::kBulk);
  add(1, sys2, 2, 602, 3, Priority::kNormal);
  add(2, {}, et::core::kNoPrefixGroup, 31, 4, Priority::kNormal);
  add(6, sys1, 1, 601, 3, Priority::kBulk);
  add(7, sys1, 1, 601, 2, Priority::kInteractive);  // preempts a bulk
  add(8, sys2, 2, 602, 3, Priority::kNormal);
  return arrivals;
}

double scalar_value(const std::vector<et::serving::ScalarField>& scalars,
                    const char* name) {
  for (const auto& f : scalars) {
    if (f.name == name) return f.value;
  }
  ADD_FAILURE() << "scalar " << name << " not in snapshot";
  return 0.0;
}

class SharingDifferential : public ::testing::TestWithParam<std::size_t> {};

TEST_P(SharingDifferential, OnOffContiguousAgreeOnEverythingButKvGauges) {
  const std::size_t threads = GetParam();
  const std::size_t max_context = 12;
  const Model m = make_model(2, 32, 2, max_context, 57);
  for (const bool chaos : {false, true}) {
    SCOPED_TRACE(chaos ? "chaos storm" : "calm storm");
    const auto arrivals = shared_prefix_storm(chaos);

    ServerConfig on{2, 16};
    on.kv.block_tokens = 3;
    on.kv.enable_prefix_sharing = true;
    ServerConfig off = on;
    off.kv.enable_prefix_sharing = false;
    ServerConfig contiguous = on;
    contiguous.kv.block_tokens = max_context;  // one whole-context block

    et::gpusim::Device d_on, d_off, d_contig;
    if (chaos) {
      d_on.fault_injector().arm_random(0.02, 777);
      d_off.fault_injector().arm_random(0.02, 777);
      d_contig.fault_injector().arm_random(0.02, 777);
    }
    const auto a = et::diff::run_served(d_on, m.layers, m.opt, max_context,
                                        on, arrivals, kVocab, threads);
    const auto b = et::diff::run_served(d_off, m.layers, m.opt, max_context,
                                        off, arrivals, kVocab, threads);
    const auto c = et::diff::run_served(d_contig, m.layers, m.opt,
                                        max_context, contiguous, arrivals,
                                        kVocab, threads);

    et::diff::expect_bit_identical(a.outcomes, b.outcomes);
    et::diff::expect_bit_identical(a.outcomes, c.outcomes);
    EXPECT_EQ(a.ticks, b.ticks);
    EXPECT_EQ(a.ticks, c.ticks);
    et::diff::expect_scalars_identical_except(a.scalars, b.scalars,
                                              et::diff::sharing_only_scalars());
    et::diff::expect_scalars_identical_except(a.scalars, c.scalars,
                                              et::diff::sharing_only_scalars());
    // Sharing can only be off in the other two runs.
    EXPECT_EQ(scalar_value(b.scalars, "prefix_hits"), 0.0);
    EXPECT_EQ(scalar_value(c.scalars, "prefix_hits"), 0.0);
  }
}

INSTANTIATE_TEST_SUITE_P(Threads, SharingDifferential,
                         ::testing::Values(std::size_t{1}, std::size_t{2},
                                           std::size_t{8}));

TEST(SharingEffectiveness, OverlappingGroupSharesBlocksAndLowersPeakBytes) {
  // Calm overlap: one 8-token-prompt group whose later members arrive
  // after the first member's blocks are registered (rows 3 and 6 flush at
  // ticks 3 and 6) and before it retires — sharing MUST fire, and the
  // peak KV residency must be strictly below the sharing-off run's.
  const std::size_t max_context = 12;
  const Model m = make_model(2, 32, 2, max_context, 58);
  std::vector<Arrival> arrivals;
  const std::vector<std::int32_t> sys{11, 12, 13, 14, 15, 16, 17, 18};
  for (const std::size_t tick : {std::size_t{0}, std::size_t{6},
                                 std::size_t{7}}) {
    Request r;
    r.prompt = sys;
    r.prefix_group = 5;
    r.seed = 900;
    r.max_new_tokens = 3;
    arrivals.push_back({tick, r});
  }
  ServerConfig on{3, 8};
  on.kv.block_tokens = 3;
  ServerConfig off = on;
  off.kv.enable_prefix_sharing = false;

  et::gpusim::Device d_on, d_off;
  const auto a = et::diff::run_served(d_on, m.layers, m.opt, max_context, on,
                                      arrivals, kVocab);
  const auto b = et::diff::run_served(d_off, m.layers, m.opt, max_context,
                                      off, arrivals, kVocab);
  et::diff::expect_bit_identical(a.outcomes, b.outcomes);

  EXPECT_GE(scalar_value(a.scalars, "prefix_hits"), 2.0);
  EXPECT_GE(scalar_value(a.scalars, "prefix_shared_tokens"), 12.0);
  EXPECT_LT(scalar_value(a.scalars, "kv_bytes_used_peak"),
            scalar_value(b.scalars, "kv_bytes_used_peak"));
  // Capacity is a pool constant — identical either way.
  EXPECT_EQ(scalar_value(a.scalars, "kv_bytes"),
            scalar_value(b.scalars, "kv_bytes"));
  // Drained servers hold no blocks (the gauge reads zero at the end).
  EXPECT_EQ(scalar_value(a.scalars, "kv_bytes_used"), 0.0);
}

// ---------------------------------------------------------------------------
// Resilience differential (the PR's acceptance bar): a preempted-then-
// resumed request and a faulted-then-retried request must both produce
// transcripts bit-identical to the undisturbed run, at threads {1,2,8}.
// Recompute-resume replays the emitted prefix through the fused tick
// without calling select(), so even the hidden-state hash streams match.
// ---------------------------------------------------------------------------
class ResilienceDifferential : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ResilienceDifferential, PreemptedThenResumedMatchesUnpreemptedBitForBit) {
  const std::size_t threads = GetParam();
  const std::size_t max_context = 14;
  const Model m = make_model(2, 32, 2, max_context, 111);

  // One slot: the bulk request holds it until the interactive arrival
  // displaces it mid-decode, then resumes and finishes.
  const std::vector<Request> requests = {{1, 8, et::nn::kNoEosToken, 120},
                                         {2, 2, et::nn::kNoEosToken, 121}};
  std::vector<Arrival> arrivals;
  arrivals.push_back({0, requests[0], Priority::kBulk});
  arrivals.push_back({3, requests[1], Priority::kInteractive});
  const ServerConfig cfg{1, 8};

  et::gpusim::Device seq_dev, serve_dev;
  const auto sequential = et::diff::run_sequential(
      seq_dev, m.layers, m.opt, max_context, requests, kVocab);
  const auto served = et::diff::run_served(serve_dev, m.layers, m.opt,
                                           max_context, cfg, arrivals, kVocab,
                                           threads);
  et::diff::expect_bit_identical(sequential, served.outcomes);
  for (const auto& o : served.outcomes) {
    EXPECT_EQ(o.result.stop_reason, et::nn::StopReason::kMaxTokens);
  }
  // The displacement really happened...
  EXPECT_NE(served.metrics_json.find("\"preemptions\": 1"), std::string::npos)
      << served.metrics_json;

  // ...and a preemption-disabled run of the same script agrees on every
  // transcript and hash: resume is recompute, not approximation.
  ServerConfig off = cfg;
  off.enable_preemption = false;
  et::gpusim::Device off_dev;
  const auto unpreempted = et::diff::run_served(
      off_dev, m.layers, m.opt, max_context, off, arrivals, kVocab, threads);
  et::diff::expect_bit_identical(unpreempted.outcomes, served.outcomes);
  EXPECT_NE(unpreempted.metrics_json.find("\"preemptions\": 0"),
            std::string::npos);
}

TEST_P(ResilienceDifferential, FaultedThenRetriedMatchesFaultFreeBitForBit) {
  const std::size_t threads = GetParam();
  const std::size_t max_context = 12;
  const Model m = make_model(2, 32, 2, max_context, 113);

  std::vector<Request> requests;
  std::vector<Arrival> arrivals;
  for (std::size_t i = 0; i < 3; ++i) {
    Request r{static_cast<std::int32_t>(i + 1), 5, et::nn::kNoEosToken,
              130 + i};
    requests.push_back(r);
    Arrival a{0, r};
    a.retry_budget = 1;
    a.retry_backoff = 1;
    arrivals.push_back(a);
  }
  const ServerConfig cfg{2, 8};

  // Fault-free reference.
  et::gpusim::Device clean_dev;
  const auto clean = et::diff::run_served(clean_dev, m.layers, m.opt,
                                          max_context, cfg, arrivals, kVocab);

  // Strike slot 1 in its second tick (mid-stream, so the retry has a
  // prefix to replay). That tick's attention launch is shared by both
  // slots, so a name rule faults it and the tick degrades to per-slot
  // stepping; an nth rule then faults slot 1's own retry launch, located
  // from the history of a run faulted by the name rule alone (one
  // faulted attempt before it, so attempt index = history index + 1).
  const auto arm_shared = [](std::size_t now, et::gpusim::Device& dev) {
    if (now == 1) {
      dev.fault_injector().arm_kernel("incremental_otf_attention", 1);
    }
  };
  et::gpusim::Device once_dev;
  const auto once = et::diff::run_served(once_dev, m.layers, m.opt,
                                         max_context, cfg, arrivals, kVocab,
                                         threads, arm_shared);
  et::diff::expect_bit_identical(clean.outcomes, once.outcomes);
  EXPECT_NE(once.metrics_json.find("\"kernel_faults\": 0"),
            std::string::npos);
  std::vector<std::size_t> slot1_attention;
  const auto& history = once_dev.history();
  for (std::size_t i = 0; i < history.size(); ++i) {
    if (history[i].slot == 1 &&
        history[i].name == "incremental_otf_attention") {
      slot1_attention.push_back(i);
    }
  }
  ASSERT_GE(slot1_attention.size(), m.layers.size());
  const std::size_t target = slot1_attention[0] + 1;

  et::gpusim::Device fault_dev;
  const auto arm_both = [&](std::size_t now, et::gpusim::Device& dev) {
    arm_shared(now, dev);
    if (now == 1) {
      dev.fault_injector().arm_nth_launch(
          target - dev.fault_injector().launches_seen());
    }
  };
  const auto retried = et::diff::run_served(fault_dev, m.layers, m.opt,
                                            max_context, cfg, arrivals, kVocab,
                                            threads, arm_both);
  EXPECT_EQ(fault_dev.fault_injector().faults_injected(), 2u);
  et::diff::expect_bit_identical(clean.outcomes, retried.outcomes);
  for (const auto& o : retried.outcomes) {
    EXPECT_EQ(o.result.stop_reason, et::nn::StopReason::kMaxTokens);
  }
  // One fault event, one retry, zero terminal kernel faults.
  EXPECT_NE(retried.metrics_json.find("\"kernel_faults\": 1"),
            std::string::npos)
      << retried.metrics_json;
  EXPECT_NE(retried.metrics_json.find("\"retries\": 1"), std::string::npos);
  EXPECT_NE(retried.metrics_json.find("\"stop_kernel_fault\": 0"),
            std::string::npos);
}

INSTANTIATE_TEST_SUITE_P(Threads, ResilienceDifferential,
                         ::testing::Values(1, 2, 8));

// ---------------------------------------------------------------------------
// Admission control: backpressure, priorities, deadlines, cancellation.
// ---------------------------------------------------------------------------
TEST(Serving, FullQueueRejectsWithTypedReason) {
  const Model m = make_model(1, 32, 2, 8, 51);
  InferenceServer server(nn_model(m, 8), {/*max_batch=*/1,
                                          /*queue_capacity=*/2});
  const auto a = server.submit(make_request(m, 1, 4, 11));
  const auto b = server.submit(make_request(m, 2, 4, 12));
  const auto c = server.submit(make_request(m, 3, 4, 13));  // queue full

  EXPECT_TRUE(server.finished(c));
  EXPECT_EQ(server.result(c).stop_reason, et::nn::StopReason::kRejected);
  EXPECT_TRUE(server.result(c).tokens.empty());
  EXPECT_EQ(server.status(c).reject_reason, RejectReason::kQueueFull);
  EXPECT_EQ(server.status(a).reject_reason, RejectReason::kNone);

  EXPECT_EQ(server.metrics().find_counter("requests_rejected")->value(), 1u);
  EXPECT_EQ(server.metrics().find_counter("stop_rejected")->value(), 1u);

  // The rejection freed nothing: the queued pair still completes.
  et::gpusim::Device dev;
  et::core::ExecContext ctx(dev);
  server.drain(ctx);
  EXPECT_EQ(server.result(a).stop_reason, et::nn::StopReason::kMaxTokens);
  EXPECT_EQ(server.result(b).stop_reason, et::nn::StopReason::kMaxTokens);
  EXPECT_EQ(server.metrics().find_counter("requests_completed")->value(), 2u);
}

TEST(Serving, PriorityClassesAdmitInteractiveBeforeBulk) {
  const Model m = make_model(1, 32, 2, 10, 53);
  InferenceServer server(nn_model(m, 10), {1, 8});
  et::gpusim::Device dev;
  et::core::ExecContext ctx(dev);

  // Occupy the single slot, then queue bulk BEFORE interactive: class
  // order must beat FIFO order across classes.
  const auto hog = server.submit(make_request(m, 1, 4, 21));
  server.tick(ctx);
  auto bulk_req = make_request(m, 2, 2, 22);
  bulk_req.priority = Priority::kBulk;
  const auto bulk = server.submit(std::move(bulk_req));
  auto inter_req = make_request(m, 3, 2, 23);
  inter_req.priority = Priority::kInteractive;
  const auto inter = server.submit(std::move(inter_req));

  server.drain(ctx);
  EXPECT_EQ(server.result(hog).stop_reason, et::nn::StopReason::kMaxTokens);
  EXPECT_EQ(server.result(bulk).stop_reason, et::nn::StopReason::kMaxTokens);
  EXPECT_EQ(server.result(inter).stop_reason, et::nn::StopReason::kMaxTokens);
  EXPECT_LT(server.status(inter).admitted_tick,
            server.status(bulk).admitted_tick);
  EXPECT_EQ(server.status(inter).priority, Priority::kInteractive);
}

TEST(Serving, QueueBudgetExpiresWaitingRequests) {
  const Model m = make_model(1, 32, 2, 10, 59);
  InferenceServer server(nn_model(m, 10), {1, 8});
  et::gpusim::Device dev;
  et::core::ExecContext ctx(dev);

  const auto hog = server.submit(make_request(m, 1, 6, 31));
  server.tick(ctx);  // hog admitted; slot stays busy for 6 ticks
  auto impatient_req = make_request(m, 2, 3, 32);
  impatient_req.queue_budget_ticks = 2;
  const auto impatient = server.submit(std::move(impatient_req));
  auto patient_req = make_request(m, 3, 3, 33);
  const auto patient = server.submit(std::move(patient_req));

  server.drain(ctx);
  EXPECT_EQ(server.result(impatient).stop_reason,
            et::nn::StopReason::kDeadlineExceeded);
  EXPECT_TRUE(server.result(impatient).tokens.empty());
  EXPECT_EQ(server.status(impatient).admitted_tick, et::serving::kNoTick);
  // The patient request behind it still gets the slot and finishes.
  EXPECT_EQ(server.result(patient).stop_reason,
            et::nn::StopReason::kMaxTokens);
  EXPECT_EQ(server.result(hog).stop_reason, et::nn::StopReason::kMaxTokens);
  EXPECT_EQ(server.metrics().find_counter("requests_expired")->value(), 1u);
  EXPECT_EQ(server.metrics().find_counter("stop_deadline_exceeded")->value(),
            1u);
}

TEST(Serving, TotalBudgetTruncatesActiveRequestKeepingThePrefix) {
  const Model m = make_model(1, 32, 2, 16, 61);
  InferenceServer server(nn_model(m, 16), {1, 8});
  et::gpusim::Device dev;
  et::core::ExecContext ctx(dev);

  auto req = make_request(m, 1, 12, 41);
  req.total_budget_ticks = 3;
  const auto h = server.submit(std::move(req));
  server.drain(ctx);

  EXPECT_EQ(server.result(h).stop_reason,
            et::nn::StopReason::kDeadlineExceeded);
  // Admitted at tick 0, expired at the top of tick 3: ticks 0..2 each
  // produced a token — the kept prefix.
  EXPECT_EQ(server.result(h).tokens.size(), 3u);
  EXPECT_EQ(server.status(h).finished_tick, 3u);
}

TEST(Serving, ZeroTotalBudgetExpiresAtSubmit) {
  const Model m = make_model(1, 32, 2, 8, 67);
  InferenceServer server(nn_model(m, 8), {1, 8});
  auto req = make_request(m, 1, 4, 43);
  req.total_budget_ticks = 0;
  const auto h = server.submit(std::move(req));
  EXPECT_TRUE(server.finished(h));
  EXPECT_EQ(server.result(h).stop_reason,
            et::nn::StopReason::kDeadlineExceeded);
  EXPECT_TRUE(server.idle());
}

TEST(Serving, CancelQueuedAndActiveKeepsEmittedTokens) {
  const Model m = make_model(1, 32, 2, 16, 71);
  InferenceServer server(nn_model(m, 16), {1, 8});
  et::gpusim::Device dev;
  et::core::ExecContext ctx(dev);

  const auto active = server.submit(make_request(m, 1, 10, 51));
  const auto queued = server.submit(make_request(m, 2, 10, 52));
  server.tick(ctx);
  server.tick(ctx);  // `active` has emitted 2 tokens by now

  EXPECT_TRUE(server.cancel(queued));
  EXPECT_EQ(server.result(queued).stop_reason,
            et::nn::StopReason::kCancelled);
  EXPECT_TRUE(server.result(queued).tokens.empty());

  EXPECT_EQ(server.status(active).state, RequestState::kActive);
  EXPECT_TRUE(server.cancel(active));
  EXPECT_EQ(server.result(active).stop_reason,
            et::nn::StopReason::kCancelled);
  EXPECT_EQ(server.result(active).tokens.size(), 2u);  // prefix kept
  EXPECT_TRUE(server.idle());

  // Cancel after finish loses the race and reports it.
  EXPECT_FALSE(server.cancel(active));
  EXPECT_EQ(server.metrics().find_counter("requests_cancelled")->value(), 2u);
  EXPECT_EQ(server.metrics().find_counter("stop_cancelled")->value(), 2u);

  // The freed slot is reusable: a fresh request still decodes.
  const auto fresh = server.submit(make_request(m, 3, 2, 53));
  server.drain(ctx);
  EXPECT_EQ(server.result(fresh).stop_reason, et::nn::StopReason::kMaxTokens);
}

TEST(Serving, StreamingCallbacksDeliverEveryTokenInOrder) {
  const Model m = make_model(1, 32, 2, 10, 73);
  InferenceServer server(nn_model(m, 10), {2, 8});
  et::gpusim::Device dev;
  et::core::ExecContext ctx(dev);

  std::vector<std::tuple<std::uint64_t, std::int32_t, std::size_t>> stream;
  et::serving::RequestHandle handles[2];
  for (std::size_t i = 0; i < 2; ++i) {
    auto req = make_request(m, static_cast<std::int32_t>(i + 1), 4, 60 + i);
    req.on_token = [&stream](std::uint64_t id, std::int32_t tok,
                             std::size_t index) {
      stream.emplace_back(id, tok, index);
    };
    handles[i] = server.submit(std::move(req));
  }
  server.drain(ctx);

  // Every token streamed exactly once, indices contiguous per request,
  // and the streamed values equal the final transcript.
  std::vector<std::vector<std::int32_t>> streamed(2);
  for (const auto& [id, tok, index] : stream) {
    ASSERT_LT(id, 2u);
    ASSERT_EQ(index, streamed[id].size());  // in-order, no gaps
    streamed[id].push_back(tok);
  }
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(streamed[i], server.result(handles[i]).tokens);
  }
  EXPECT_EQ(server.metrics().find_counter("tokens_emitted")->value(), 8u);
}

// ---------------------------------------------------------------------------
// Serving under fault injection (satellite 4): an armed FaultInjector
// retires only the owning request; queued requests still complete; the
// registry counts the fault exactly once.
// ---------------------------------------------------------------------------
TEST(ServingFaults, SlotFaultRetiresOnlyTheOwnerAndCountsOnce) {
  const std::size_t max_context = 10;
  const Model m = make_model(2, 32, 2, max_context, 79);
  std::vector<Arrival> arrivals;
  for (std::size_t i = 0; i < 4; ++i) {  // 2 slots: requests 2,3 queue
    arrivals.push_back({0, {static_cast<std::int32_t>(i + 1), 5,
                            et::nn::kNoEosToken, 80 + i}});
  }
  const ServerConfig cfg{2, 8};

  // Clean run: reference transcripts.
  et::gpusim::Device clean_dev;
  const auto clean = et::diff::run_served(clean_dev, m.layers, m.opt,
                                          max_context, cfg, arrivals, kVocab);

  // Slot 1's second tick is batched, so its attention launch is shared
  // and a fault there blames no slot. A name rule armed before that tick
  // faults the shared launch and degrades the tick to per-slot stepping;
  // the history of that run locates slot 1's own retry launch (attempt
  // index = history index + 1, past the one faulted attempt).
  const auto arm_shared = [](std::size_t now, et::gpusim::Device& dev) {
    if (now == 1) {
      dev.fault_injector().arm_kernel("incremental_otf_attention", 1);
    }
  };
  et::gpusim::Device once_dev;
  const auto once = et::diff::run_served(once_dev, m.layers, m.opt,
                                         max_context, cfg, arrivals, kVocab, 1,
                                         arm_shared);
  for (std::size_t i = 0; i < arrivals.size(); ++i) {
    EXPECT_EQ(once.outcomes[i].result.tokens, clean.outcomes[i].result.tokens)
        << "request " << i;
    EXPECT_EQ(once.outcomes[i].hidden_hashes, clean.outcomes[i].hidden_hashes)
        << "request " << i;
  }
  std::vector<std::size_t> slot1_attention;
  const auto& history = once_dev.history();
  for (std::size_t i = 0; i < history.size(); ++i) {
    if (history[i].slot == 1 &&
        history[i].name == "incremental_otf_attention") {
      slot1_attention.push_back(i);
    }
  }
  ASSERT_GE(slot1_attention.size(), m.layers.size());
  const std::size_t target = slot1_attention[0] + 1;

  // Armed run, driven directly so the metrics are inspectable: both
  // rules go in after the first tick.
  et::gpusim::Device fault_dev;
  et::core::ExecContext ctx(fault_dev);
  InferenceServer server(nn_model(m, max_context), cfg);
  std::vector<et::serving::RequestHandle> handles;
  std::vector<std::vector<std::uint64_t>> hashes(arrivals.size());
  for (std::size_t i = 0; i < arrivals.size(); ++i) {
    et::serving::Request req;
    req.first_token = arrivals[i].request.first_token;
    req.max_new_tokens = arrivals[i].request.max_new_tokens;
    req.embed = et::diff::make_embed(m.opt.attn.d_model,
                                     arrivals[i].request.seed);
    req.select = et::diff::make_select(kVocab, &hashes[i]);
    handles.push_back(server.submit(req));
  }
  server.tick(ctx);
  arm_shared(server.now(), fault_dev);
  fault_dev.fault_injector().arm_nth_launch(
      target - fault_dev.fault_injector().launches_seen());
  server.drain(ctx);
  EXPECT_EQ(fault_dev.fault_injector().faults_injected(), 2u);

  // Request 1 (slot 1) faulted after one surviving tick.
  const auto& hit = server.result(handles[1]);
  EXPECT_EQ(hit.stop_reason, et::nn::StopReason::kKernelFault);
  EXPECT_NE(hit.fault_kernel.find("incremental_otf_attention"),
            std::string::npos);
  ASSERT_EQ(hit.tokens.size(), 1u);
  EXPECT_EQ(hit.tokens[0], clean.outcomes[1].result.tokens[0]);

  // Everyone else — including the two that were QUEUED behind the fault —
  // completes with the clean run's exact transcript: the freed slot was
  // recycled and the fault never leaked across slots.
  for (std::size_t i : {std::size_t{0}, std::size_t{2}, std::size_t{3}}) {
    EXPECT_EQ(server.result(handles[i]).stop_reason,
              et::nn::StopReason::kMaxTokens)
        << "request " << i;
    EXPECT_EQ(server.result(handles[i]).tokens,
              clean.outcomes[i].result.tokens)
        << "request " << i;
    EXPECT_EQ(hashes[i], clean.outcomes[i].hidden_hashes) << "request " << i;
  }

  // The registry saw the fault exactly once, in both views.
  const auto& metrics = server.metrics();
  EXPECT_EQ(metrics.find_counter("kernel_faults")->value(), 1u);
  EXPECT_EQ(metrics.find_counter("stop_kernel_fault")->value(), 1u);
  EXPECT_EQ(metrics.find_counter("requests_completed")->value(), 4u);
  EXPECT_EQ(metrics.find_counter("requests_submitted")->value(), 4u);
}

// ---------------------------------------------------------------------------
// Server API contract + metrics bookkeeping.
// ---------------------------------------------------------------------------
TEST(ServingApi, ConstructorAndSubmitValidateTheirArguments) {
  const Model m = make_model(1, 32, 2, 8, 83);
  EXPECT_THROW(et::nn::Model(&m.layers, m.opt, /*max_context=*/0),
               std::invalid_argument);
  EXPECT_THROW(InferenceServer(nn_model(m, 8), {/*max_batch=*/0, 8}),
               std::invalid_argument);

  InferenceServer server(nn_model(m, 8), {2, 8});
  et::serving::Request missing;  // no embed/select
  missing.max_new_tokens = 3;
  EXPECT_THROW(server.submit(std::move(missing)), std::invalid_argument);
}

TEST(ServingApi, ZeroTokenRequestCompletesAtSubmit) {
  const Model m = make_model(1, 32, 2, 8, 89);
  InferenceServer server(nn_model(m, 8), {2, 8});
  et::serving::Request req;  // embed/select not needed for 0 tokens
  const auto h = server.submit(std::move(req));
  EXPECT_TRUE(server.finished(h));
  EXPECT_TRUE(server.idle());
  EXPECT_TRUE(server.result(h).tokens.empty());
  EXPECT_EQ(server.result(h).stop_reason, et::nn::StopReason::kMaxTokens);
  EXPECT_EQ(server.metrics().find_counter("requests_completed")->value(), 1u);
}

TEST(ServingApi, ResultThrowsUntilFinishedAndWaitDrivesToCompletion) {
  const Model m = make_model(1, 32, 2, 8, 97);
  InferenceServer server(nn_model(m, 8), {1, 8});
  const auto h = server.submit(make_request(m, 1, 3, 71));
  EXPECT_FALSE(server.finished(h));
  EXPECT_THROW((void)server.result(h), std::logic_error);
  EXPECT_EQ(server.status(h).state, RequestState::kQueued);
  EXPECT_EQ(server.queue_depth(), 1u);

  et::gpusim::Device dev;
  et::core::ExecContext ctx(dev);
  const auto& result = server.wait(h, ctx);
  EXPECT_EQ(result.tokens.size(), 3u);
  EXPECT_EQ(server.status(h).state, RequestState::kFinished);
  EXPECT_EQ(server.scheduler().active(), 0u);
  EXPECT_TRUE(server.idle());
}

TEST(ServingApi, LifecycleCountersBalanceAfterAMixedWorkload) {
  const Model m = make_model(1, 32, 2, 12, 101);
  InferenceServer server(nn_model(m, 12), {1, 2});
  et::gpusim::Device dev;
  et::core::ExecContext ctx(dev);

  const auto done = server.submit(make_request(m, 1, 3, 81));    // completes
  const auto victim = server.submit(make_request(m, 2, 3, 82));  // cancelled
  const auto reject = server.submit(make_request(m, 3, 3, 83));  // queue full
  server.cancel(victim);
  auto hurried = make_request(m, 4, 9, 84);
  hurried.total_budget_ticks = 2;  // expires mid-decode
  const auto expired = server.submit(std::move(hurried));
  server.drain(ctx);

  const auto& mx = server.metrics();
  EXPECT_EQ(mx.find_counter("requests_submitted")->value(), 4u);
  EXPECT_EQ(mx.find_counter("requests_completed")->value(), 1u);
  EXPECT_EQ(mx.find_counter("requests_cancelled")->value(), 1u);
  EXPECT_EQ(mx.find_counter("requests_rejected")->value(), 1u);
  EXPECT_EQ(mx.find_counter("requests_expired")->value(), 1u);
  // Every submission resolved to exactly one terminal stop reason.
  EXPECT_EQ(mx.find_counter("stop_max_tokens")->value(), 1u);
  EXPECT_EQ(mx.find_counter("stop_cancelled")->value(), 1u);
  EXPECT_EQ(mx.find_counter("stop_rejected")->value(), 1u);
  EXPECT_EQ(mx.find_counter("stop_deadline_exceeded")->value(), 1u);
  EXPECT_EQ(server.result(done).stop_reason, et::nn::StopReason::kMaxTokens);
  EXPECT_EQ(server.result(reject).stop_reason,
            et::nn::StopReason::kRejected);
  EXPECT_EQ(server.result(expired).stop_reason,
            et::nn::StopReason::kDeadlineExceeded);
  EXPECT_GT(mx.find_gauge("kv_bytes")->value(), 0.0);
  EXPECT_DOUBLE_EQ(mx.find_gauge("queue_depth")->value(), 0.0);
  EXPECT_DOUBLE_EQ(mx.find_gauge("active_slots")->value(), 0.0);
}

double throughput_gauge(const InferenceServer& s) {
  return s.metrics().find_gauge("throughput_tokens_per_sec")->value();
}

/// Sum of the per-request decode rates (tokens over modeled device time
/// from admission to finish).
double request_rate_sum(const InferenceServer& s) {
  return s.metrics().find_histogram("tokens_per_sec")->sum();
}

TEST(ServingThroughput, LoneServerOnAFreshDeviceIsTokensOverDeviceTotal) {
  const Model m = make_model(1, 32, 2, 16, 131);
  InferenceServer server(nn_model(m, 16), {2, 8});
  et::gpusim::Device dev;
  et::core::ExecContext ctx(dev);
  (void)server.submit(make_request(m, 1, 5, 11));
  (void)server.submit(make_request(m, 2, 7, 12));
  server.drain(ctx);
  EXPECT_EQ(throughput_gauge(server), 1e6 * 12.0 / dev.total_time_us());
}

TEST(ServingThroughput, EnginesSharingADeviceAreChargedOnlyTheirOwnTime) {
  const Model m = make_model(1, 32, 2, 16, 131);
  const et::nn::Model model = nn_model(m, 16);
  // Reference: each engine's request alone on a fresh device.
  const auto alone = [&](std::size_t tokens, std::uint64_t seed) {
    InferenceServer s(model, {1, 8});
    et::gpusim::Device dev;
    et::core::ExecContext ctx(dev);
    (void)s.submit(make_request(m, 1, tokens, seed));
    s.drain(ctx);
    return std::tuple{throughput_gauge(s), dev.total_time_us(),
                      request_rate_sum(s)};
  };
  const auto [rate_a, us_a, request_a] = alone(4, 21);
  const auto [rate_b, us_b, request_b] = alone(9, 22);

  // Both engines tick on one context, as net::ApiServer::drive_engines
  // does for a live engine and one still draining after a hot swap.
  InferenceServer a(model, {1, 8}), b(model, {1, 8});
  et::gpusim::Device dev;
  et::core::ExecContext ctx(dev);
  (void)a.submit(make_request(m, 1, 4, 21));
  (void)b.submit(make_request(m, 1, 9, 22));
  while (!a.idle() || !b.idle()) {
    if (!a.idle()) a.tick(ctx);
    if (!b.idle()) b.tick(ctx);
  }
  EXPECT_NEAR(dev.total_time_us(), us_a + us_b, 1e-9 * (us_a + us_b));
  EXPECT_NEAR(throughput_gauge(a), rate_a, 1e-9 * rate_a);
  EXPECT_NEAR(throughput_gauge(b), rate_b, 1e-9 * rate_b);
  EXPECT_NEAR(request_rate_sum(a), request_a, 1e-9 * request_a);
  EXPECT_NEAR(request_rate_sum(b), request_b, 1e-9 * request_b);

  // An engine created on a device that already holds launches (here, the
  // two above) is charged none of them.
  InferenceServer late(model, {1, 8});
  (void)late.submit(make_request(m, 1, 4, 21));
  late.drain(ctx);
  EXPECT_NEAR(throughput_gauge(late), rate_a, 1e-9 * rate_a);
  EXPECT_NEAR(request_rate_sum(late), request_a, 1e-9 * request_a);
}

TEST(ServingApi, MetricsJsonIsIdenticalAcrossIdenticalRuns) {
  const Model m = make_model(1, 32, 2, 10, 103);
  std::vector<Arrival> arrivals;
  for (std::size_t i = 0; i < 4; ++i) {
    arrivals.push_back({i, {static_cast<std::int32_t>(i + 1), 3,
                            et::nn::kNoEosToken, 90 + i}});
  }
  const ServerConfig cfg{2, 4};

  std::string snapshots[2];
  for (auto& snapshot : snapshots) {
    et::gpusim::Device dev;
    et::core::ExecContext ctx(dev);
    InferenceServer server(nn_model(m, 10), cfg);
    std::size_t next = 0;
    while (next < arrivals.size() || !server.idle()) {
      while (next < arrivals.size() &&
             arrivals[next].tick <= server.now()) {
        et::serving::Request req;
        req.first_token = arrivals[next].request.first_token;
        req.max_new_tokens = arrivals[next].request.max_new_tokens;
        req.embed = et::diff::make_embed(m.opt.attn.d_model,
                                         arrivals[next].request.seed);
        req.select = et::diff::make_select(kVocab);
        (void)server.submit(std::move(req));
        ++next;
      }
      server.tick(ctx);
    }
    snapshot = server.metrics().json();
  }
  EXPECT_EQ(snapshots[0], snapshots[1]);
}

// ---------------------------------------------------------------------------
// Overload resilience: preemption, fault retry, shedding, health — the
// state machine of docs/robustness.md, observed through status() and the
// metrics registry.
// ---------------------------------------------------------------------------
TEST(ServingResilience, PreemptionDisplacesLowestMostRecentAndResumes) {
  const Model m = make_model(1, 32, 2, 16, 117);
  InferenceServer server(nn_model(m, 16), {2, 8});
  et::gpusim::Device dev;
  et::core::ExecContext ctx(dev);

  auto bulk_a = make_request(m, 1, 6, 141);
  bulk_a.priority = Priority::kBulk;
  auto bulk_b = make_request(m, 2, 6, 142);
  bulk_b.priority = Priority::kBulk;
  const auto a = server.submit(std::move(bulk_a));
  const auto b = server.submit(std::move(bulk_b));
  server.tick(ctx);  // both admitted at tick 0

  auto inter = make_request(m, 3, 2, 143);
  inter.priority = Priority::kInteractive;
  const auto c = server.submit(std::move(inter));
  server.tick(ctx);  // c preempts the most recently admitted bulk (b)

  EXPECT_EQ(server.status(b).state, RequestState::kPreempted);
  EXPECT_EQ(server.status(b).preemptions, 1u);
  EXPECT_EQ(server.status(a).state, RequestState::kActive);
  EXPECT_EQ(server.status(c).admitted_tick, 1u);

  server.drain(ctx);
  for (const auto h : {a, b, c}) {
    EXPECT_EQ(server.result(h).stop_reason, et::nn::StopReason::kMaxTokens);
  }
  EXPECT_EQ(server.result(b).tokens.size(), 6u);  // nothing lost to the gap
  EXPECT_EQ(server.metrics().find_counter("preemptions")->value(), 1u);
  // The re-admission is visible in the admission count: 3 requests, 4
  // slot tenures.
  EXPECT_EQ(server.metrics().find_counter("requests_admitted")->value(), 4u);
}

// A displacement while the victim's own recompute-resume replay is
// still catching up must not shrink the kept transcript: the scheduler
// result holds only the replayed-so-far prefix at that point, and the
// server retains the longer transcript across the gap. The resumed run
// stays bit-identical to the never-interrupted reference, with every
// token streamed exactly once.
TEST(ServingResilience, MidReplayPreemptionKeepsTheFullTranscript) {
  const Model m = make_model(1, 32, 2, 16, 118);

  et::gpusim::Device clean_dev;
  et::core::ExecContext clean_ctx(clean_dev);
  InferenceServer clean(nn_model(m, 16), {1, 8});
  auto ref_req = make_request(m, 1, 6, 144);
  ref_req.priority = Priority::kBulk;
  const auto ref = clean.submit(std::move(ref_req));
  clean.drain(clean_ctx);

  InferenceServer server(nn_model(m, 16), {1, 8});
  et::gpusim::Device dev;
  et::core::ExecContext ctx(dev);
  std::vector<std::int32_t> streamed;
  auto bulk = make_request(m, 1, 6, 144);
  bulk.priority = Priority::kBulk;
  bulk.on_token = [&streamed](std::uint64_t, std::int32_t tok, std::size_t) {
    streamed.push_back(tok);
  };
  // select() side effects must fire exactly once per emitted token
  // across the request's whole life — a replay that loses part of its
  // prefix would re-select (and re-fire) the lost tail.
  std::size_t select_calls = 0;
  bulk.select = [&select_calls, inner = bulk.select](
                    const et::tensor::MatrixF& hidden) {
    ++select_calls;
    return inner(hidden);
  };
  const auto victim = server.submit(std::move(bulk));
  for (int i = 0; i < 3; ++i) server.tick(ctx);  // three tokens emitted

  auto first = make_request(m, 2, 2, 145);
  first.priority = Priority::kInteractive;
  const auto a = server.submit(std::move(first));
  server.tick(ctx);  // preemption #1: victim carries a 3-token prefix
  EXPECT_EQ(server.status(victim).state, RequestState::kPreempted);
  server.tick(ctx);  // interactive finishes
  ASSERT_TRUE(server.finished(a));
  server.tick(ctx);  // victim re-admitted, replay 1 of 3

  auto second = make_request(m, 3, 2, 146);
  second.priority = Priority::kInteractive;
  const auto b = server.submit(std::move(second));
  server.tick(ctx);  // preemption #2 strikes MID-REPLAY
  EXPECT_EQ(server.status(victim).state, RequestState::kPreempted);
  EXPECT_EQ(server.status(victim).preemptions, 2u);
  // Nothing already delivered may be forgotten across the gap.
  EXPECT_EQ(server.status(victim).tokens_emitted, 3u);
  server.drain(ctx);

  EXPECT_EQ(server.result(victim).stop_reason,
            et::nn::StopReason::kMaxTokens);
  EXPECT_EQ(server.result(victim).tokens, clean.result(ref).tokens);
  EXPECT_EQ(streamed, server.result(victim).tokens);  // exactly once each
  EXPECT_EQ(select_calls, 6u);  // never re-selected during any replay
  ASSERT_TRUE(server.finished(b));
}

// Terminating a request mid-replay (here: an explicit cancel) keeps the
// full previously-delivered transcript, not the replayed-so-far prefix —
// the result can never be shorter than what on_token already streamed.
TEST(ServingResilience, CancelDuringReplayKeepsEveryStreamedToken) {
  const Model m = make_model(1, 32, 2, 16, 122);

  et::gpusim::Device clean_dev;
  et::core::ExecContext clean_ctx(clean_dev);
  InferenceServer clean(nn_model(m, 16), {1, 8});
  auto ref_req = make_request(m, 1, 6, 147);
  ref_req.priority = Priority::kBulk;
  const auto ref = clean.submit(std::move(ref_req));
  clean.drain(clean_ctx);

  InferenceServer server(nn_model(m, 16), {1, 8});
  et::gpusim::Device dev;
  et::core::ExecContext ctx(dev);
  std::vector<std::int32_t> streamed;
  auto bulk = make_request(m, 1, 6, 147);
  bulk.priority = Priority::kBulk;
  bulk.on_token = [&streamed](std::uint64_t, std::int32_t tok, std::size_t) {
    streamed.push_back(tok);
  };
  const auto victim = server.submit(std::move(bulk));
  for (int i = 0; i < 3; ++i) server.tick(ctx);  // three tokens emitted

  auto inter = make_request(m, 2, 2, 148);
  inter.priority = Priority::kInteractive;
  const auto a = server.submit(std::move(inter));
  server.tick(ctx);  // preempt: victim carries a 3-token prefix
  server.tick(ctx);  // interactive finishes
  ASSERT_TRUE(server.finished(a));
  server.tick(ctx);  // victim re-admitted, replay 1 of 3
  EXPECT_EQ(server.status(victim).state, RequestState::kActive);

  ASSERT_TRUE(server.cancel(victim));  // cancel strikes MID-REPLAY
  EXPECT_EQ(server.result(victim).stop_reason,
            et::nn::StopReason::kCancelled);
  ASSERT_EQ(server.result(victim).tokens.size(), 3u);
  const auto& ref_toks = clean.result(ref).tokens;
  EXPECT_TRUE(std::equal(server.result(victim).tokens.begin(),
                         server.result(victim).tokens.end(),
                         ref_toks.begin()));
  EXPECT_EQ(streamed, server.result(victim).tokens);
  EXPECT_EQ(server.status(victim).tokens_emitted, 3u);
}

TEST(ServingResilience, PreemptionLimitFinishesTheVictimTyped) {
  const Model m = make_model(1, 32, 2, 16, 119);
  ServerConfig cfg{1, 8};
  cfg.preemption_limit = 0;  // first displacement is already terminal
  InferenceServer server(nn_model(m, 16), cfg);
  et::gpusim::Device dev;
  et::core::ExecContext ctx(dev);

  auto bulk = make_request(m, 1, 6, 151);
  bulk.priority = Priority::kBulk;
  const auto victim = server.submit(std::move(bulk));
  server.tick(ctx);
  server.tick(ctx);  // two tokens emitted

  auto inter = make_request(m, 2, 2, 152);
  inter.priority = Priority::kInteractive;
  const auto winner = server.submit(std::move(inter));
  server.drain(ctx);

  EXPECT_EQ(server.result(victim).stop_reason,
            et::nn::StopReason::kPreemptionLimit);
  EXPECT_EQ(server.result(victim).tokens.size(), 2u);  // prefix kept
  EXPECT_EQ(server.result(winner).stop_reason,
            et::nn::StopReason::kMaxTokens);
  const auto& mx = server.metrics();
  EXPECT_EQ(mx.find_counter("stop_preemption_limit")->value(), 1u);
  EXPECT_EQ(mx.find_counter("preemptions")->value(), 0u);  // none resumable
  EXPECT_EQ(mx.find_counter("requests_completed")->value(), 1u);
}

TEST(ServingResilience, PreemptionCanBeDisabled) {
  const Model m = make_model(1, 32, 2, 16, 123);
  ServerConfig cfg{1, 8};
  cfg.enable_preemption = false;
  InferenceServer server(nn_model(m, 16), cfg);
  et::gpusim::Device dev;
  et::core::ExecContext ctx(dev);

  auto bulk = make_request(m, 1, 4, 153);
  bulk.priority = Priority::kBulk;
  const auto hog = server.submit(std::move(bulk));
  server.tick(ctx);
  auto inter = make_request(m, 2, 2, 154);
  inter.priority = Priority::kInteractive;
  const auto waiter = server.submit(std::move(inter));
  server.drain(ctx);

  EXPECT_EQ(server.status(hog).preemptions, 0u);
  EXPECT_GE(server.status(waiter).admitted_tick, 4u);  // waited out the hog
  EXPECT_EQ(server.metrics().find_counter("preemptions")->value(), 0u);
}

TEST(ServingResilience, FaultRetrySitsOutItsBackoffThenReproducesTheRun) {
  const Model m = make_model(1, 32, 2, 16, 127);

  // Clean reference transcript.
  et::gpusim::Device clean_dev;
  et::core::ExecContext clean_ctx(clean_dev);
  InferenceServer clean(nn_model(m, 16), {1, 8});
  const auto ref = clean.submit(make_request(m, 1, 4, 161));
  clean.drain(clean_ctx);

  // Armed run: the first attention launch faults, the retry succeeds.
  et::gpusim::Device dev;
  dev.fault_injector().arm_kernel("incremental_otf_attention",
                                  /*max_faults=*/1);
  et::core::ExecContext ctx(dev);
  InferenceServer server(nn_model(m, 16), {1, 8});
  auto req = make_request(m, 1, 4, 161);
  req.retry_budget = 1;
  req.retry_backoff_ticks = 2;
  const auto h = server.submit(std::move(req));
  server.drain(ctx);

  EXPECT_EQ(server.result(h).stop_reason, et::nn::StopReason::kMaxTokens);
  EXPECT_EQ(server.result(h).tokens, clean.result(ref).tokens);
  EXPECT_EQ(server.status(h).retries, 1u);
  const auto& mx = server.metrics();
  EXPECT_EQ(mx.find_counter("kernel_faults")->value(), 1u);
  EXPECT_EQ(mx.find_counter("retries")->value(), 1u);
  EXPECT_EQ(mx.find_counter("stop_kernel_fault")->value(), 0u);
  // Timeline pins the backoff: fault at tick 0, eligible again at tick
  // 0+1+2 = 3, four decode ticks (3..6) => drained after tick 7. A zero
  // backoff would have finished two ticks earlier.
  EXPECT_EQ(server.now(), 7u);
}

TEST(ServingResilience, RetryBudgetExhaustionKeepsTheKernelFault) {
  const Model m = make_model(1, 32, 2, 16, 131);
  et::gpusim::Device dev;
  dev.fault_injector().arm_kernel("incremental_otf_attention",
                                  /*max_faults=*/2);
  et::core::ExecContext ctx(dev);
  InferenceServer server(nn_model(m, 16), {1, 8});
  auto req = make_request(m, 1, 4, 163);
  req.retry_budget = 1;
  const auto h = server.submit(std::move(req));
  server.drain(ctx);

  EXPECT_EQ(server.result(h).stop_reason, et::nn::StopReason::kKernelFault);
  EXPECT_EQ(server.status(h).retries, 1u);
  const auto& mx = server.metrics();
  EXPECT_EQ(mx.find_counter("kernel_faults")->value(), 2u);  // both events
  EXPECT_EQ(mx.find_counter("retries")->value(), 1u);
  EXPECT_EQ(mx.find_counter("stop_kernel_fault")->value(), 1u);
}

TEST(ServingResilience, ShedRefusesUnmeetableQueueBudgetsAtSubmit) {
  const Model m = make_model(1, 32, 2, 16, 137);
  InferenceServer server(nn_model(m, 16), {1, 16});
  for (int i = 0; i < 3; ++i) {  // three requests already waiting
    (void)server.submit(make_request(m, i + 1, 3, 170 + i));
  }

  auto doomed = make_request(m, 5, 3, 175);
  doomed.queue_budget_ticks = 2;  // estimated wait is 3 ticks
  const auto shed = server.submit(std::move(doomed));
  EXPECT_TRUE(server.finished(shed));
  EXPECT_EQ(server.status(shed).reject_reason, RejectReason::kShed);
  EXPECT_EQ(server.result(shed).stop_reason, et::nn::StopReason::kRejected);

  auto feasible = make_request(m, 6, 3, 176);
  feasible.queue_budget_ticks = 3;  // exactly meets the estimate
  const auto kept = server.submit(std::move(feasible));
  EXPECT_FALSE(server.finished(kept));

  const auto& mx = server.metrics();
  EXPECT_EQ(mx.find_counter("shed")->value(), 1u);
  EXPECT_EQ(mx.find_counter("requests_rejected")->value(), 0u);

  // Same backlog with shedding disabled: the request queues instead.
  ServerConfig off{1, 16};
  off.enable_shedding = false;
  InferenceServer relaxed(nn_model(m, 16), off);
  for (int i = 0; i < 3; ++i) {
    (void)relaxed.submit(make_request(m, i + 1, 3, 180 + i));
  }
  auto tolerated = make_request(m, 5, 3, 185);
  tolerated.queue_budget_ticks = 2;
  EXPECT_FALSE(relaxed.finished(relaxed.submit(std::move(tolerated))));
  EXPECT_EQ(relaxed.metrics().find_counter("shed")->value(), 0u);
}

// The shed estimate is a LOWER bound: a small backlog that fits the
// free slots is admitted next tick with zero wait, so even a zero
// queue budget must not be shed — shedding it would refuse a request
// that was actually admissible.
TEST(ServingResilience, ShedSparesRequestsTheFreeSlotsCanAbsorb) {
  const Model m = make_model(1, 32, 2, 16, 143);
  InferenceServer server(nn_model(m, 16), {4, 16});
  et::gpusim::Device dev;
  et::core::ExecContext ctx(dev);

  for (int i = 0; i < 2; ++i) {  // backlog of 2 over 4 free slots
    (void)server.submit(make_request(m, i + 1, 2, 210 + i));
  }
  auto urgent = make_request(m, 3, 2, 212);
  urgent.queue_budget_ticks = 0;  // must be admitted this very tick
  const auto h = server.submit(std::move(urgent));
  EXPECT_FALSE(server.finished(h));  // not shed: 3 <= 4 free slots
  EXPECT_EQ(server.metrics().find_counter("shed")->value(), 0u);

  server.tick(ctx);
  EXPECT_EQ(server.status(h).state, RequestState::kActive);
  EXPECT_EQ(server.status(h).admitted_tick, 0u);  // zero queue wait
  server.drain(ctx);
  EXPECT_EQ(server.result(h).stop_reason, et::nn::StopReason::kMaxTokens);
}

TEST(ServingResilience, HealthTracksTheBacklog) {
  using et::serving::ServerHealth;
  const Model m = make_model(1, 32, 2, 16, 139);
  InferenceServer server(nn_model(m, 16), {1, 2});
  et::gpusim::Device dev;
  et::core::ExecContext ctx(dev);

  EXPECT_EQ(server.health(), ServerHealth::kHealthy);
  (void)server.submit(make_request(m, 1, 2, 190));
  (void)server.submit(make_request(m, 2, 2, 191));
  EXPECT_EQ(server.health(), ServerHealth::kOverloaded);  // queue at cap
  server.tick(ctx);  // one admitted, one still waiting
  EXPECT_EQ(server.health(), ServerHealth::kDegraded);
  EXPECT_DOUBLE_EQ(server.metrics().find_gauge("health")->value(), 1.0);
  server.drain(ctx);
  EXPECT_EQ(server.health(), ServerHealth::kHealthy);
  EXPECT_DOUBLE_EQ(server.metrics().find_gauge("health")->value(), 0.0);
  EXPECT_DOUBLE_EQ(server.metrics().find_gauge("kv_bytes_used")->value(),
                   0.0);  // every slot's KV returned to the pool
}

TEST(ServingResilience, EnumeratorNamesAreDistinctAndStable) {
  using et::serving::ServerHealth;
  EXPECT_EQ(to_string(RequestState::kPreempted), "preempted");
  EXPECT_EQ(to_string(RejectReason::kShed), "shed");
  EXPECT_EQ(to_string(ServerHealth::kHealthy), "healthy");
  EXPECT_EQ(to_string(ServerHealth::kDegraded), "degraded");
  EXPECT_EQ(to_string(ServerHealth::kOverloaded), "overloaded");
  EXPECT_EQ(to_string(et::nn::StopReason::kPreemptionLimit),
            "preemption_limit");
}

TEST(ServingResilience, ConservationIdentitiesHoldAfterAResilienceStorm) {
  const Model m = make_model(1, 32, 2, 16, 149);
  InferenceServer server(nn_model(m, 16), {1, 8});
  et::gpusim::Device dev;
  et::core::ExecContext ctx(dev);

  auto bulk = make_request(m, 1, 8, 200);
  bulk.priority = Priority::kBulk;
  (void)server.submit(std::move(bulk));
  server.tick(ctx);  // bulk takes the slot

  for (int i = 0; i < 3; ++i) {  // interactive burst: first one preempts
    auto inter = make_request(m, 2 + i, 2, 201 + i);
    inter.priority = Priority::kInteractive;
    (void)server.submit(std::move(inter));
  }
  auto impatient = make_request(m, 6, 2, 205);
  impatient.queue_budget_ticks = 0;  // backlog of 3 ahead => shed
  (void)server.submit(std::move(impatient));
  const auto doomed = server.submit(make_request(m, 7, 2, 206));
  server.cancel(doomed);
  auto hurried = make_request(m, 8, 2, 207);
  hurried.total_budget_ticks = 1;  // expires while queued behind the burst
  (void)server.submit(std::move(hurried));
  server.drain(ctx);

  const auto& mx = server.metrics();
  const auto c = [&mx](const char* name) {
    return mx.find_counter(name)->value();
  };
  EXPECT_GE(c("preemptions"), 1u);
  EXPECT_EQ(c("shed"), 1u);
  EXPECT_EQ(c("requests_cancelled"), 1u);
  EXPECT_EQ(c("requests_expired"), 1u);

  // Conservation: every submission resolves to exactly one terminal.
  EXPECT_EQ(c("requests_submitted"),
            c("requests_completed") + c("requests_rejected") + c("shed") +
                c("requests_cancelled") + c("requests_expired") +
                c("stop_preemption_limit"));
  std::uint64_t stop_sum = 0;
  for (std::size_t r = 0; r < et::nn::kStopReasonCount; ++r) {
    stop_sum += mx.find_counter(
                      "stop_" + std::string(et::nn::to_string(
                                    static_cast<et::nn::StopReason>(r))))
                    ->value();
  }
  EXPECT_EQ(stop_sum, c("requests_submitted"));
  // And the machine is fully drained: no residual slot or KV occupancy.
  EXPECT_DOUBLE_EQ(mx.find_gauge("active_slots")->value(), 0.0);
  EXPECT_DOUBLE_EQ(mx.find_gauge("queue_depth")->value(), 0.0);
  EXPECT_DOUBLE_EQ(mx.find_gauge("kv_bytes_used")->value(), 0.0);
}

// The server reaches the scheduler's embed check: a wrong-width row
// throws out of tick() before anything launches, and once that request is
// cancelled the others finish with the transcripts of a run without it.
TEST(Serving, WrongWidthEmbedThrowsAndCancelRecovers) {
  constexpr std::size_t kMaxContext = 8;
  const Model m = make_model(2, 32, 2, kMaxContext, 63);
  const std::vector<Request> good = {{1, 4, et::nn::kNoEosToken, 81},
                                     {2, 3, et::nn::kNoEosToken, 82}};
  et::gpusim::Device seq_dev;
  const auto sequential = et::diff::run_sequential(
      seq_dev, m.layers, m.opt, kMaxContext, good, kVocab);

  et::gpusim::Device dev;
  et::core::ExecContext ctx(dev);
  InferenceServer server(nn_model(m, kMaxContext), ServerConfig{});
  std::vector<et::diff::Outcome> outcomes(good.size());
  std::vector<et::serving::RequestHandle> handles;
  for (std::size_t i = 0; i < good.size(); ++i) {
    et::serving::Request r =
        make_request(m, good[i].first_token, good[i].max_new_tokens,
                     good[i].seed);
    r.select = et::diff::make_select(kVocab, &outcomes[i].hidden_hashes);
    handles.push_back(server.submit(r));
  }
  et::serving::Request bad = make_request(m, 9, 4, 83);
  bad.embed = [](std::int32_t, std::size_t) {
    return et::tensor::MatrixF(1, 8);
  };
  const et::serving::RequestHandle bad_h = server.submit(bad);

  EXPECT_THROW(server.tick(ctx), std::invalid_argument);
  EXPECT_EQ(dev.launch_count(), 0u);
  EXPECT_TRUE(server.cancel(bad_h));
  server.drain(ctx);
  EXPECT_EQ(server.result(bad_h).stop_reason, et::nn::StopReason::kCancelled);
  for (std::size_t i = 0; i < good.size(); ++i) {
    outcomes[i].result = server.result(handles[i]);
  }
  et::diff::expect_bit_identical(sequential, outcomes);
}

// A tick can retire a slot in its capacity pre-check and then throw on
// another slot's embed row. The retired request is finished by the time
// the exception reaches the caller, so cancelling it loses the race.
TEST(Serving, SlotRetiredBeforeAThrowingTickIsFinished) {
  constexpr std::size_t kMaxContext = 4;
  const Model m = make_model(2, 32, 2, kMaxContext, 64);
  const std::vector<Request> full = {{1, 10, et::nn::kNoEosToken, 84}};
  et::gpusim::Device seq_dev;
  const auto sequential = et::diff::run_sequential(
      seq_dev, m.layers, m.opt, kMaxContext, full, kVocab);
  ASSERT_EQ(sequential[0].result.stop_reason,
            et::nn::StopReason::kKvCacheFull);

  et::gpusim::Device dev;
  et::core::ExecContext ctx(dev);
  InferenceServer server(nn_model(m, kMaxContext), ServerConfig{});
  std::vector<et::diff::Outcome> outcomes(1);
  et::serving::Request a = make_request(m, 1, 10, 84);
  a.select = et::diff::make_select(kVocab, &outcomes[0].hidden_hashes);
  const auto a_h = server.submit(std::move(a));
  server.tick(ctx);
  // B's embed row is 1x8 at context position 3, which it reaches at
  // tick 4 — the tick whose pre-check retires A with a full cache.
  et::serving::Request b = make_request(m, 2, 10, 85);
  b.embed = [inner = b.embed](std::int32_t token, std::size_t position) {
    return position == 3 ? et::tensor::MatrixF(1, 8) : inner(token, position);
  };
  const auto b_h = server.submit(std::move(b));
  for (int i = 0; i < 3; ++i) server.tick(ctx);
  EXPECT_THROW(server.tick(ctx), std::invalid_argument);

  EXPECT_EQ(server.status(a_h).state, RequestState::kFinished);
  EXPECT_FALSE(server.cancel(a_h));
  const auto& mx = server.metrics();
  EXPECT_EQ(mx.find_counter("requests_cancelled")->value(), 0u);
  EXPECT_TRUE(server.cancel(b_h));
  server.drain(ctx);
  outcomes[0].result = server.result(a_h);
  et::diff::expect_bit_identical(sequential, outcomes);
  EXPECT_EQ(server.result(b_h).stop_reason, et::nn::StopReason::kCancelled);
  EXPECT_EQ(mx.find_counter("requests_cancelled")->value(), 1u);
  EXPECT_EQ(mx.find_counter("stop_kv_cache_full")->value(), 1u);
}

// A tick that throws still completes: the clock advances with the ticks
// counter and the gauges are refreshed, so while one bad request keeps
// every tick failing, a co-resident request's budget still runs out.
TEST(Serving, ThrowingTickAdvancesTheClock) {
  constexpr std::size_t kMaxContext = 8;
  const Model m = make_model(2, 32, 2, kMaxContext, 65);
  et::gpusim::Device dev;
  et::core::ExecContext ctx(dev);
  InferenceServer server(nn_model(m, kMaxContext), ServerConfig{});
  et::serving::Request good = make_request(m, 1, 6, 86);
  good.total_budget_ticks = 2;
  const auto good_h = server.submit(std::move(good));
  et::serving::Request bad = make_request(m, 9, 6, 87);
  bad.embed = [](std::int32_t, std::size_t) {
    return et::tensor::MatrixF(1, 8);
  };
  const auto bad_h = server.submit(std::move(bad));

  for (int i = 0; i < 3; ++i) {
    EXPECT_THROW(server.tick(ctx), std::invalid_argument);
  }
  const auto& mx = server.metrics();
  EXPECT_EQ(server.now(), 3u);
  EXPECT_EQ(mx.find_counter("ticks")->value(), 3u);
  ASSERT_EQ(server.status(good_h).state, RequestState::kFinished);
  EXPECT_EQ(server.result(good_h).stop_reason,
            et::nn::StopReason::kDeadlineExceeded);
  EXPECT_DOUBLE_EQ(mx.find_gauge("active_slots")->value(), 1.0);

  EXPECT_TRUE(server.cancel(bad_h));
  server.drain(ctx);
  EXPECT_EQ(server.result(bad_h).stop_reason, et::nn::StopReason::kCancelled);
  EXPECT_EQ(server.now(), mx.find_counter("ticks")->value());
}

// A finished request keeps nothing its closures capture alive, however
// it finished: the server drops its own copies at the finish, and the
// scheduler's seat, the only other holder, goes with the slot.
TEST(ServingApi, FinishedRequestReleasesWhatItsClosuresCapture) {
  using et::nn::StopReason;
  using et::serving::RequestHandle;
  const Model m = make_model(1, 32, 2, 16, 151);
  // embed, select and on_token each hold a copy of `probe`.
  const auto probed = [&m](const std::shared_ptr<int>& probe) {
    et::serving::Request r = make_request(m, 1, 6, 161);
    r.priority = Priority::kBulk;
    r.embed = [probe, inner = r.embed](std::int32_t t, std::size_t pos) {
      return inner(t, pos);
    };
    r.select = [probe, inner = r.select](const et::tensor::MatrixF& h) {
      return inner(h);
    };
    r.on_token = [probe](std::uint64_t, std::int32_t, std::size_t) {};
    return r;
  };
  // An interactive arrival that displaces the bulk request.
  const auto preempt = [&m](InferenceServer& s, et::core::ExecContext& ctx) {
    auto inter = make_request(m, 2, 2, 162);
    inter.priority = Priority::kInteractive;
    (void)s.submit(std::move(inter));
    s.tick(ctx);
  };
  using Finish = std::function<RequestHandle(
      InferenceServer&, et::core::ExecContext&, et::serving::Request)>;
  struct Path {
    const char* name;
    StopReason stop;
    std::size_t preemption_limit;
    Finish finish;
  };
  const std::vector<Path> paths = {
      {"max_tokens", StopReason::kMaxTokens, 2,
       [](auto& s, auto& ctx, auto r) {
         const auto h = s.submit(std::move(r));
         s.drain(ctx);
         return h;
       }},
      {"eos", StopReason::kEos, 2,
       [](auto& s, auto& ctx, auto r) {
         r.eos_token = 5;
         r.select = [inner = std::move(r.select)](
                        const et::tensor::MatrixF& h) {
           (void)inner(h);
           return std::int32_t{5};
         };
         const auto h = s.submit(std::move(r));
         s.drain(ctx);
         return h;
       }},
      {"cancel while active", StopReason::kCancelled, 2,
       [](auto& s, auto& ctx, auto r) {
         const auto h = s.submit(std::move(r));
         s.tick(ctx);
         s.tick(ctx);
         EXPECT_TRUE(s.cancel(h));
         return h;
       }},
      {"cancel while preempted", StopReason::kCancelled, 2,
       [&preempt](auto& s, auto& ctx, auto r) {
         const auto h = s.submit(std::move(r));
         s.tick(ctx);
         s.tick(ctx);
         preempt(s, ctx);
         EXPECT_EQ(s.status(h).state, RequestState::kPreempted);
         EXPECT_TRUE(s.cancel(h));
         return h;
       }},
      {"total budget", StopReason::kDeadlineExceeded, 2,
       [](auto& s, auto& ctx, auto r) {
         r.total_budget_ticks = 2;
         const auto h = s.submit(std::move(r));
         s.drain(ctx);
         return h;
       }},
      {"fault retry then success", StopReason::kMaxTokens, 2,
       [](auto& s, auto& ctx, auto r) {
         r.retry_budget = 1;
         ctx.device().fault_injector().arm_kernel("incremental_otf_attention",
                                                  1);
         const auto h = s.submit(std::move(r));
         s.drain(ctx);
         EXPECT_EQ(s.status(h).retries, 1u);
         return h;
       }},
      {"preemption limit", StopReason::kPreemptionLimit, 0,
       [&preempt](auto& s, auto& ctx, auto r) {
         const auto h = s.submit(std::move(r));
         s.tick(ctx);
         s.tick(ctx);
         preempt(s, ctx);
         return h;
       }},
  };
  for (const Path& path : paths) {
    SCOPED_TRACE(path.name);
    ServerConfig cfg{1, 8};
    cfg.preemption_limit = path.preemption_limit;
    InferenceServer server(nn_model(m, 16), cfg);
    et::gpusim::Device dev;
    et::core::ExecContext ctx(dev);
    const auto probe = std::make_shared<int>(0);
    const RequestHandle h = path.finish(server, ctx, probed(probe));
    ASSERT_TRUE(server.finished(h));
    EXPECT_EQ(server.result(h).stop_reason, path.stop);
    EXPECT_EQ(probe.use_count(), 1);
    server.drain(ctx);
  }
}

}  // namespace
