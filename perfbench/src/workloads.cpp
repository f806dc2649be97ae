#include "workloads.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <random>
#include <string>

namespace perfbench {

namespace {

std::vector<std::int32_t> random_tokens(std::mt19937_64& rng, std::size_t n,
                                        std::size_t vocab) {
  std::uniform_int_distribution<std::int32_t> tok(
      0, static_cast<std::int32_t>(vocab) - 1);
  std::vector<std::int32_t> out(n);
  for (auto& t : out) t = tok(rng);
  return out;
}

std::size_t uniform(std::mt19937_64& rng, std::size_t lo, std::size_t hi) {
  return std::uniform_int_distribution<std::size_t>(lo, hi)(rng);
}

// serve_heavy_tail shape. The mix is synthetic: no trace or measurement
// of real traffic stands behind these numbers. Each stratum is there to
// exercise one part of the server (see perfbench/README.md):
//   short (13/20, 4-24 tokens): continuous batching of decode rows;
//   grouped (5/20, 96-token system prompt + 4-16): the prefix trie, CoW;
//   long (2/20, 128-192 tokens): prompt replay that delays the queue;
//   classes 2/6/2 interactive/normal/bulk: priority admission, preemption.
// Request kinds and priority classes are drawn stratified: every block of
// kKindBlock requests holds exactly the kind counts below (and every
// kPriorityBlock the class counts) in seeded order, so two seeds differ
// in order and lengths but not in mix.
constexpr std::size_t kVocab = 512;
constexpr double kArrivalsPerTick = 0.085;
constexpr std::size_t kGroups = 3;
constexpr std::size_t kSystemPromptTokens = 96;
enum class Kind { kShort, kGrouped, kLong };
constexpr std::size_t kKindBlock = 20;
constexpr std::size_t kGroupedPerBlock = 5;
constexpr std::size_t kLongPerBlock = 2;
constexpr std::size_t kPriorityBlock = 10;
constexpr std::size_t kInteractivePerBlock = 2;
constexpr std::size_t kBulkPerBlock = 2;

/// `block` entries: `a` copies of x, `b` of y, the rest z, shuffled.
template <typename T>
std::vector<T> stratum(std::mt19937_64& rng, std::size_t block, std::size_t a,
                       T x, std::size_t b, T y, T z) {
  std::vector<T> v(block, z);
  std::fill_n(v.begin(), a, x);
  std::fill_n(v.begin() + static_cast<std::ptrdiff_t>(a), b, y);
  std::shuffle(v.begin(), v.end(), rng);
  return v;
}

}  // namespace

Script heavy_tail_script(std::uint64_t seed, std::size_t requests) {
  using et::serving::Priority;
  std::mt19937_64 rng(seed * 0x9E3779B97F4A7C15ull + 1);
  std::vector<std::vector<std::int32_t>> system_prompts;
  for (std::size_t g = 0; g < kGroups; ++g) {
    system_prompts.push_back(random_tokens(rng, kSystemPromptTokens, kVocab));
  }
  std::uniform_real_distribution<double> u(0.0, 1.0);
  std::vector<Kind> kinds;
  std::vector<Priority> classes;
  Script script;
  double due = 0.0;
  for (std::size_t i = 0; i < requests; ++i) {
    if (i % kKindBlock == 0) {
      kinds = stratum(rng, kKindBlock, kGroupedPerBlock, Kind::kGrouped,
                      kLongPerBlock, Kind::kLong, Kind::kShort);
    }
    if (i % kPriorityBlock == 0) {
      classes = stratum(rng, kPriorityBlock, kInteractivePerBlock,
                        Priority::kInteractive, kBulkPerBlock,
                        Priority::kBulk, Priority::kNormal);
    }
    // Jittered arrivals: gaps uniform in [0.5, 1.5] of the mean gap, so
    // queues build from the prompt mix and short bursts, not from the
    // long idle-then-flood swings of a Poisson stream.
    due += (0.5 + u(rng)) / kArrivalsPerTick;
    Arrival a;
    a.tick = static_cast<std::size_t>(due);
    a.priority = classes[i % kPriorityBlock];
    switch (kinds[i % kKindBlock]) {
      case Kind::kGrouped: {
        const std::size_t g = uniform(rng, 0, kGroups - 1);
        a.group = g + 1;
        a.prompt = system_prompts[g];
        const auto suffix = random_tokens(rng, uniform(rng, 4, 16), kVocab);
        a.prompt.insert(a.prompt.end(), suffix.begin(), suffix.end());
        break;
      }
      case Kind::kLong:
        a.prompt = random_tokens(rng, uniform(rng, 128, 192), kVocab);
        break;
      case Kind::kShort:
        a.prompt = random_tokens(rng, uniform(rng, 4, 24), kVocab);
        break;
    }
    a.max_new_tokens = uniform(rng, 4, 32);
    a.outputs = random_tokens(rng, a.max_new_tokens, kVocab);
    script.push_back(std::move(a));
  }
  return script;
}

Script decode_script(std::uint64_t seed, std::size_t requests) {
  std::mt19937_64 rng(seed * 0xD1B54A32D192ED03ull + 7);
  Script script;
  for (std::size_t i = 0; i < requests; ++i) {
    Arrival a;
    // Narrow length ranges: every request is queued at tick 0, so the
    // TTFT of later waves adds up the lengths of earlier ones.
    a.prompt = random_tokens(rng, uniform(rng, 3, 5), 256);
    a.max_new_tokens = uniform(rng, 38, 42);
    script.push_back(std::move(a));
  }
  return script;
}

void add_per_layer(Report& r, const PerLayer& pl) {
  r.add("gpusim.launches_per_op", pl.launches_per_op, "count");
  r.add("gpusim.log_entries", pl.log_entries, "count");
  r.add("gpusim.fallbacks", pl.fallbacks, "count");
  for (std::size_t op = 0; op < kOps - 1; ++op) {  // "other" is not reported
    const std::string base = std::string("op.") + kOpNames[op];
    r.add(base + ".modeled_us", pl.ops.us[op] * pl.ops_scale, "us");
    r.add(base + ".bytes", pl.ops.bytes[op] * pl.ops_scale, "bytes");
    r.add(base + ".launches", pl.ops.launches[op] * pl.ops_scale, "count");
  }
  r.add("op.attn.score_bytes", pl.ops.score_bytes * pl.ops_scale, "bytes");
  for (std::size_t i = 0; i < kImpls; ++i) {
    r.add(std::string("core.attn_impl.") + kImplNames[i],
          pl.ops.impl[i] * pl.ops_scale, "count");
  }
  r.add("kv.bytes_used_peak", pl.kv_bytes_used_peak, "bytes");
  r.add("kv.prefix_hits", pl.kv_prefix_hits, "count");
  r.add("kv.prefix_shared_tokens", pl.kv_prefix_shared_tokens, "count");
  r.add("kv.cow_splits", pl.kv_cow_splits, "count");
  r.add("kv.prefix_hit_frac", pl.kv_prefix_hit_frac, "frac");
  r.add("nn.encoder_forward.dense.host_ms_p50", pl.encoder_dense_ms_p50,
        "ms");
  r.add("nn.encoder_forward.pruned.host_ms_p50", pl.encoder_pruned_ms_p50,
        "ms");
  r.add("nn.batch_occupancy_mean", pl.batch_occupancy_mean, "count");
  r.add("nn.prompt_row_frac", pl.prompt_row_frac, "frac");
  r.add("serving.tick.host_ms_p50", pl.tick_ms_p50, "ms");
  r.add("serving.tick.host_ms_p99", pl.tick_ms_p99, "ms");
  r.add("serving.tick.self_ms_p50", pl.tick_self_ms_p50, "ms");
  r.add("serving.submit.host_us_p50", pl.submit_us_p50, "us");
  r.add("serving.queue_wait_ticks_p50", pl.queue_wait_p50, "ticks");
  r.add("serving.queue_wait_ticks_p99", pl.queue_wait_p99, "ticks");
  r.add("serving.preemptions", pl.preemptions, "count");
  r.add("serving.rejected", pl.rejected, "count");
  r.add("serving.shed", pl.shed, "count");
  r.add("serving.expired", pl.expired, "count");
  r.add("numeric.fp16_overflows", pl.fp16_overflows, "count");
  r.add("setup.weights_s", pl.setup_weights_s, "s");
  r.add("setup.prune_s", pl.setup_prune_s, "s");
  r.add("setup.model_s", pl.setup_model_s, "s");
  r.add("setup.oracle_s", pl.setup_oracle_s, "s");
  r.add("driver.closure_share", pl.closure_share, "frac");
  r.add("trace.overhead_frac", pl.trace_overhead_frac, "frac");
}

void write_trace(const Options& opt, const std::vector<Span>& spans,
                 const std::vector<StepRecord>& steps) {
  if (opt.trace_dir.empty()) return;
  const std::string path = opt.trace_dir + "/" + opt.workload + "-seed" +
                           std::to_string(opt.seed) + ".jsonl";
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "cannot write trace %s\n", path.c_str());
    return;
  }
  out.precision(17);
  for (const auto& s : spans) {
    out << "{\"span\": \"" << s.name << "\", \"start_ns\": " << s.start_ns
        << ", \"end_ns\": " << s.end_ns << ", \"parent\": " << s.parent
        << ", \"request\": " << s.request << "}\n";
  }
  for (const auto& st : steps) {
    out << "{\"step\": " << st.step << ", \"start_ns\": " << st.start_ns
        << ", \"end_ns\": " << st.end_ns
        << ", \"modeled_us\": " << st.modeled_us
        << ", \"launches\": " << st.launches;
    for (std::size_t op = 0; op < kOps; ++op) {
      out << ", \"" << kOpNames[op] << "_us\": " << st.op_us[op];
    }
    out << "}\n";
  }
}

}  // namespace perfbench
