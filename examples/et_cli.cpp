// Command-line latency explorer: query any (model, pipeline, sequence
// length, pruning strategy/ratio, device) combination and get the modeled
// latency and an optional kernel profile — the tool a performance engineer
// would reach for before committing to a deployment configuration.
//
// For example (one command):
//   $ ./examples/et_cli --model bert_base --pipeline et --seq 128
//       --strategy attention-aware --ratio 0.7 --device a100 --profile
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <optional>
#include <string>
#include <thread>

#include "core/adaptive.hpp"
#include "core/block_allocator.hpp"
#include "core/weights.hpp"
#include "gpusim/device.hpp"
#include "gpusim/profiler.hpp"
#include "gpusim/trace_export.hpp"
#include "net/server.hpp"
#include "nn/batched_generation.hpp"
#include "nn/encoder.hpp"
#include "pruning/strategy.hpp"
#include "serving/registry.hpp"
#include "serving/server.hpp"
#include "sparse/formats.hpp"
#include "sparse/mask.hpp"
#include "train/model.hpp"

namespace {

// SIGINT/SIGTERM request a graceful drain (finish in-flight work within
// the --drain-ticks budget, then exit 0) instead of aborting mid-tick.
volatile std::sig_atomic_t g_signal = 0;
extern "C" void handle_stop_signal(int) { g_signal = 1; }

void install_stop_signals() {
  std::signal(SIGINT, handle_stop_signal);
  std::signal(SIGTERM, handle_stop_signal);
}

/// One accepted value of a flag: the token as typed (echoed in the
/// output) and what it selects.
template <typename T>
struct Choice {
  const char* token;
  T value;
};

constexpr Choice<et::nn::ModelConfig (*)()> kModels[] = {
    {"transformer", et::nn::transformer_wikitext},
    {"bert_base", et::nn::bert_base},
    {"distilbert", et::nn::distilbert},
    {"bert_large", et::nn::bert_large}};
constexpr Choice<et::nn::Pipeline> kPipelines[] = {
    {"pytorch", et::nn::Pipeline::kModular},
    {"tensorrt", et::nn::Pipeline::kTensorRT},
    {"fastertransformer", et::nn::Pipeline::kFasterTransformer},
    {"et", et::nn::Pipeline::kET}};
/// nullopt: no pruning.
constexpr Choice<std::optional<et::pruning::Strategy>> kStrategies[] = {
    {"none", std::nullopt},
    {"irregular", et::pruning::Strategy::kIrregular},
    {"column", et::pruning::Strategy::kColumn},
    {"tile", et::pruning::Strategy::kTile},
    {"attention-aware", et::pruning::Strategy::kAttentionAware}};
constexpr Choice<et::gpusim::DeviceSpec (*)()> kDevices[] = {
    {"v100s", et::gpusim::v100s}, {"a100", et::gpusim::a100}};

struct Args {
  const Choice<et::nn::ModelConfig (*)()>* model = &kModels[1];  // bert_base
  const Choice<et::nn::Pipeline>* pipeline = &kPipelines[3];     // et
  const Choice<std::optional<et::pruning::Strategy>>* strategy =
      &kStrategies[0];  // none
  // E.T. attention operator: a name core::from_string accepts pins
  // adaptive.forced; "auto" leaves selection to choose_attention_impl.
  // Distinct from --strategy, which picks the *pruning* strategy.
  std::string attention = "auto";
  const Choice<et::gpusim::DeviceSpec (*)()>* device = &kDevices[0];  // v100s
  std::size_t seq = 128;
  std::size_t batch = 0;    // > 0: batched-generation serving demo
  std::size_t tokens = 16;  // tokens per sequence in serving modes
  // Decode-path weight layout for --serve/--batch/--listen: the cached
  // dense path, the pre-computed W_VO fold (§3.1), attention-aware pruned
  // formats (condensed-V row-pruned W_V + tile-pruned W_Q), or per-channel
  // INT8 GEMMs over the dense materialization (docs/quantization.md).
  et::nn::WeightFormat weights_layout = et::nn::WeightFormat::kDense;
  // Paged-KV storage precision for the serving modes: fp32 (lossless) or
  // int8 with per-row scales (~4× smaller KV blocks, bounded decode
  // error — docs/quantization.md).
  et::core::KvPrecision kv_precision = et::core::KvPrecision::kFp32;
  bool kv_precision_given = false;  // flag only applies to serving modes
  std::size_t threads = 1;  // ExecContext thread-pool size
  double ratio = 0.0;
  bool profile = false;
  bool json = false;
  bool help = false;
  std::string trace;         // chrome-trace output path
  bool inject_given = false;
  std::string inject_fault;  // fault-injection spec (see usage)

  // --serve: request-level serving runtime (docs/serving.md).
  bool serve = false;
  std::size_t requests = 8;      // total requests in the arrival script
  std::size_t queue_cap = 16;    // bounded admission queue
  std::size_t arrive = 0;        // requests arriving per tick; 0 = all at t0
  std::size_t deadline = 0;      // per-request total budget (ticks); 0 = none
  std::size_t queue_budget = 0;  // per-request queue budget (ticks); 0 = none
  std::size_t retries = 0;       // per-request kernel-fault retry budget
  std::size_t backoff_ticks = 0; // ticks between a fault and re-admission
  bool backoff_given = false;    // --backoff-ticks without --retries is an error
  bool preempt = true;           // priority preemption with recompute-resume

  // --listen: the network API server (docs/api.md).
  bool listen_given = false;
  std::size_t listen_port = 0;       // 0 = ephemeral, printed at startup
  std::size_t drain_ticks = 64;      // graceful-shutdown drain budget
};

/// Arm the device's fault injector from a CLI spec:
///   kernel=<substr>   fault every launch whose name contains <substr>
///   nth=<N>           fault the Nth launch (0-based)
///   alloc=<bytes>     fault launches requesting > <bytes> shared mem/CTA
///   random=<frac>[:seed]  fault a seeded random fraction of launches
/// Returns false (after printing an error) on a malformed spec.
/// Whole-string unsigned parse; returns false on empty or trailing junk
/// so "alloc=abc" is rejected instead of silently arming threshold 0.
bool parse_u64(const std::string& s, std::uint64_t& out) {
  if (s.empty()) return false;
  char* end = nullptr;
  out = std::strtoull(s.c_str(), &end, 10);
  return end == s.c_str() + s.size();
}

bool parse_fraction(const std::string& s, double& out) {
  if (s.empty()) return false;
  char* end = nullptr;
  out = std::strtod(s.c_str(), &end);
  return end == s.c_str() + s.size() && out >= 0.0 && out <= 1.0;
}

bool arm_from_spec(et::gpusim::FaultInjector& inj, const std::string& spec) {
  const auto eq = spec.find('=');
  if (eq == std::string::npos) {
    std::fprintf(stderr, "bad --inject-fault spec '%s' (want key=value)\n",
                 spec.c_str());
    return false;
  }
  const std::string key = spec.substr(0, eq);
  const std::string val = spec.substr(eq + 1);
  std::uint64_t n = 0;
  if (key == "kernel") {
    inj.arm_kernel(val);
  } else if (key == "nth") {
    if (!parse_u64(val, n)) {
      std::fprintf(stderr, "bad --inject-fault nth '%s' (want a number)\n",
                   val.c_str());
      return false;
    }
    inj.arm_nth_launch(n);
  } else if (key == "alloc") {
    if (!parse_u64(val, n)) {
      std::fprintf(stderr, "bad --inject-fault alloc '%s' (want bytes)\n",
                   val.c_str());
      return false;
    }
    inj.arm_alloc_above(n);
  } else if (key == "random") {
    const auto colon = val.find(':');
    double frac = 0.0;
    if (!parse_fraction(val.substr(0, colon), frac)) {
      std::fprintf(stderr,
                   "bad --inject-fault random '%s' (want a fraction in "
                   "[0, 1])\n",
                   val.c_str());
      return false;
    }
    std::uint64_t seed = 0;
    if (colon != std::string::npos &&
        !parse_u64(val.substr(colon + 1), seed)) {
      std::fprintf(stderr, "bad --inject-fault seed in '%s'\n", val.c_str());
      return false;
    }
    inj.arm_random(frac, seed);
  } else {
    std::fprintf(stderr, "unknown --inject-fault kind '%s'\n", key.c_str());
    return false;
  }
  return true;
}

/// Point `out` at the entry of `table` whose token is `v`. An unknown
/// token is an error that names it and every accepted one.
template <typename T, std::size_t N>
bool pick(const std::string& flag, const std::string& v,
          const Choice<T> (&table)[N], const Choice<T>*& out) {
  for (const Choice<T>& c : table) {
    if (v == c.token) {
      out = &c;
      return true;
    }
  }
  std::string want;
  for (const Choice<T>& c : table) {
    want += (want.empty() ? "" : " | ") + std::string(c.token);
  }
  std::fprintf(stderr, "bad value for %s: '%s' (want %s)\n", flag.c_str(),
               v.c_str(), want.c_str());
  return false;
}

/// Strict CLI parsing: every error names the offending token on stderr
/// and fails the parse (main exits 2) — a typo'd flag or a junk value
/// must never be silently dropped or read as zero.
bool parse(int argc, char** argv, Args& a) {
  bool ok = true;
  int i = 1;
  // Value fetch for flags that require one; missing value = parse error.
  const auto next = [&](const std::string& flag, std::string& out) {
    if (i + 1 >= argc) {
      std::fprintf(stderr, "missing value for %s\n", flag.c_str());
      ok = false;
      return false;
    }
    out = argv[++i];
    return true;
  };
  const auto next_size = [&](const std::string& flag, std::size_t& out) {
    std::string v;
    if (!next(flag, v)) return;
    std::uint64_t n = 0;
    if (!parse_u64(v, n)) {
      std::fprintf(stderr, "bad value for %s: '%s' (want an unsigned integer)\n",
                   flag.c_str(), v.c_str());
      ok = false;
      return;
    }
    out = static_cast<std::size_t>(n);
  };
  const auto next_choice = [&](const std::string& flag, const auto& table,
                               auto& out) {
    std::string v;
    if (next(flag, v) && !pick(flag, v, table, out)) ok = false;
  };
  for (; i < argc; ++i) {
    const std::string arg = argv[i];
    std::string v;
    if (arg == "--model") next_choice(arg, kModels, a.model);
    else if (arg == "--pipeline") next_choice(arg, kPipelines, a.pipeline);
    else if (arg == "--strategy") next_choice(arg, kStrategies, a.strategy);
    else if (arg == "--attention") {
      if (next(arg, v)) {
        if (v != "auto" && !et::core::from_string(v)) {
          std::fprintf(stderr,
                       "bad value for --attention: '%s' (want modular | "
                       "fused | otf | partial_otf | flash | auto)\n",
                       v.c_str());
          ok = false;
        } else {
          a.attention = v;
        }
      }
    }
    else if (arg == "--device") next_choice(arg, kDevices, a.device);
    else if (arg == "--seq") {
      next_size(arg, a.seq);
      if (a.seq == 0) {
        std::fprintf(stderr,
                     "bad value for --seq: '%s' (want a positive integer)\n",
                     argv[i]);
        ok = false;
      }
    }
    else if (arg == "--batch") next_size(arg, a.batch);
    else if (arg == "--tokens") next_size(arg, a.tokens);
    else if (arg == "--threads") {
      next_size(arg, a.threads);
      if (a.threads == 0) {
        std::fprintf(stderr,
                     "bad value for --threads: '%s' (want a positive "
                     "integer)\n",
                     argv[i]);
        ok = false;
      }
    }
    else if (arg == "--requests") next_size(arg, a.requests);
    else if (arg == "--queue-cap") next_size(arg, a.queue_cap);
    else if (arg == "--arrive") next_size(arg, a.arrive);
    else if (arg == "--deadline") next_size(arg, a.deadline);
    else if (arg == "--queue-budget") next_size(arg, a.queue_budget);
    else if (arg == "--retries") next_size(arg, a.retries);
    else if (arg == "--backoff-ticks") {
      a.backoff_given = true;
      next_size(arg, a.backoff_ticks);
    }
    else if (arg == "--preempt") {
      if (next(arg, v)) {
        if (v != "on" && v != "off") {
          std::fprintf(stderr,
                       "bad value for --preempt: '%s' (want on | off)\n",
                       v.c_str());
          ok = false;
        } else {
          a.preempt = v == "on";
        }
      }
    }
    else if (arg == "--ratio") {
      if (next(arg, v)) {
        char* end = nullptr;
        a.ratio = std::strtod(v.c_str(), &end);
        if (v.empty() || end != v.c_str() + v.size() || a.ratio < 0.0 ||
            a.ratio >= 1.0) {
          std::fprintf(stderr,
                       "bad value for --ratio: '%s' (want a number in [0, 1))\n",
                       v.c_str());
          ok = false;
        }
      }
    }
    else if (arg == "--weights") {
      if (next(arg, v)) {
        const auto f = et::nn::from_string(v);
        if (!f) {
          std::fprintf(stderr,
                       "bad value for --weights: '%s' (want dense | "
                       "precomputed | pruned | int8)\n",
                       v.c_str());
          ok = false;
        } else {
          a.weights_layout = *f;
        }
      }
    }
    else if (arg == "--kv-precision") {
      if (next(arg, v)) {
        const auto p = et::core::kv_precision_from_string(v);
        if (!p) {
          std::fprintf(stderr,
                       "bad value for --kv-precision: '%s' (want fp32 | "
                       "int8)\n",
                       v.c_str());
          ok = false;
        } else {
          a.kv_precision = *p;
          a.kv_precision_given = true;
        }
      }
    }
    else if (arg == "--serve") a.serve = true;
    else if (arg == "--listen") {
      a.listen_given = true;
      next_size(arg, a.listen_port);
      if (ok && a.listen_port > 65535) {
        std::fprintf(stderr, "bad value for --listen: port %zu > 65535\n",
                     a.listen_port);
        ok = false;
      }
    }
    else if (arg == "--drain-ticks") next_size(arg, a.drain_ticks);
    else if (arg == "--profile") a.profile = true;
    else if (arg == "--json") a.json = true;
    else if (arg == "--trace") { if (next(arg, v)) a.trace = v; }
    else if (arg == "--inject-fault") {
      if (next(arg, v)) {
        a.inject_given = true;
        a.inject_fault = v;
      }
    }
    else if (arg == "--help" || arg == "-h") a.help = true;
    else {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      ok = false;
    }
  }
  // Cross-flag validation: a backoff without a retry budget would never
  // apply (no fault is ever requeued), so reject it loudly instead of
  // letting the flag silently do nothing.
  if (ok && a.backoff_given && a.retries == 0) {
    std::fprintf(stderr,
                 "--backoff-ticks requires --retries N with N > 0\n");
    ok = false;
  }
  // --kv-precision selects the paged KV pool's storage precision, which
  // only the serving modes own — outside them the flag would silently do
  // nothing.
  if (ok && a.kv_precision_given && !a.serve && a.batch == 0 &&
      !a.listen_given) {
    std::fprintf(stderr,
                 "--kv-precision requires a serving mode (--serve, --batch N "
                 "or --listen)\n");
    ok = false;
  }
  return ok;
}

void usage() {
  std::printf(
      "et_cli — modeled-latency explorer for the E.T. reproduction\n\n"
      "  --model     transformer | bert_base | distilbert | bert_large\n"
      "  --pipeline  pytorch | tensorrt | fastertransformer | et\n"
      "  --strategy  none | irregular | column | tile | attention-aware\n"
      "  --attention modular | fused | otf | partial_otf | flash | auto\n"
      "              pin the E.T. attention operator (default auto: the\n"
      "              adaptive dispatch picks; docs/attention.md). Distinct\n"
      "              from --strategy, which selects the pruning strategy.\n"
      "              Launch-time faults still degrade down the chain\n"
      "  --ratio     pruning ratio in [0, 1)          (default 0)\n"
      "  --seq       sequence length                  (default 128)\n"
      "  --batch N   serving demo: decode N sequences through the\n"
      "              slot-based batched scheduler (see docs/serving.md);\n"
      "              under --serve, N is the slot count (default 4, cap 8)\n"
      "  --tokens T  tokens per sequence in serving modes (default 16)\n"
      "  --weights   dense | precomputed | pruned | int8  (default dense)\n"
      "              decode-path weight layout for --serve/--batch/--listen:\n"
      "              'precomputed' folds W_V·W_O into the condensed W_VO\n"
      "              block (smaller KV V-plane, no out-projection);\n"
      "              'pruned' deploys a condensable row-pruned W_V plus a\n"
      "              tile-pruned W_Q; both need dense base projections\n"
      "              (drop --strategy/--ratio). 'int8' runs every decode\n"
      "              GEMM as a per-channel INT8 kernel over the dense\n"
      "              materialization (docs/quantization.md)\n"
      "  --kv-precision fp32 | int8               (default fp32)\n"
      "              paged-KV storage precision for the serving modes:\n"
      "              'int8' stores K/V rows quantized with per-row scales\n"
      "              (~4x smaller blocks, bounded decode error); needs\n"
      "              --serve, --batch or --listen\n"
      "  --threads N run kernels on an N-thread ExecContext pool; output\n"
      "              is bit-identical at every N (docs/threading.md)\n"
      "  --device    v100s | a100                     (default v100s)\n"
      "  --json      machine-readable output; serving-demo field names\n"
      "              match bench/ablation_batching --json\n"
      "  --serve     request-level serving runtime: scripted arrivals\n"
      "              through the continuous-batching InferenceServer with\n"
      "              admission control and a metrics snapshot; --json field\n"
      "              names match bench/ablation_serving rows\n"
      "  --listen PORT     network API server on 127.0.0.1:PORT (0 picks an\n"
      "                    ephemeral port, printed at startup); demo tenants\n"
      "                    demo-interactive / demo-normal / demo-bulk, model\n"
      "                    'demo' v1 from the registry (docs/api.md). SIGINT/\n"
      "                    SIGTERM drains in flight work and exits 0\n"
      "  --drain-ticks N   graceful-shutdown drain budget for --serve and\n"
      "                    --listen: ticks to let in-flight requests finish\n"
      "                    before cancelling the rest (default 64)\n"
      "  --requests N      total requests in the arrival script (default 8);\n"
      "                    0 = unbounded, serve until SIGINT/SIGTERM\n"
      "  --queue-cap N     bounded admission queue; overflow is rejected\n"
      "                    with backpressure (default 16)\n"
      "  --arrive R        R requests arrive per tick; 0 = all at tick 0\n"
      "                    (default 0)\n"
      "  --deadline T      per-request end-to-end budget in ticks; 0 = none\n"
      "  --queue-budget T  per-request queue-wait budget in ticks; 0 = none\n"
      "  --retries N       per-request kernel-fault retry budget; a faulted\n"
      "                    request is requeued and recomputed up to N times\n"
      "                    before retiring as kernel_fault (default 0)\n"
      "  --backoff-ticks T ticks a faulted request sits out before it is\n"
      "                    eligible for re-admission (needs --retries > 0)\n"
      "  --preempt on|off  priority preemption with recompute-resume\n"
      "                    (docs/robustness.md; default on)\n"
      "  --profile   print the per-kernel nvprof-style table\n"
      "  --trace F   write a chrome://tracing JSON timeline to F\n"
      "  --inject-fault SPEC\n"
      "              arm deterministic fault injection and show recovery.\n"
      "              SPEC: kernel=<substr> | nth=<N> | alloc=<bytes> |\n"
      "                    random=<frac>[:seed]\n"
      "              e.g. --inject-fault kernel=flash_attention with the et\n"
      "              pipeline demos the flash->otf fallback chain\n");
}

/// Build the two-layer decode stack --serve/--batch run, in the layout
/// --weights selects. kDense strips any fold the strategy path left
/// behind (the cached dense decode). kPrecomputed folds W_V·W_O into a
/// per-head condensed W_VO block keeping d/(2H) output columns per head;
/// kPruned deploys a balanced row-pruned W_V (half of each head's rows,
/// so the KV cache stores the condensed V) plus a checkerboard
/// tile-pruned W_Q. Those two rebuild from the dense projection matrices,
/// so they refuse (with an error naming the flag) when --strategy/--ratio
/// already replaced those with pruned formats. kInt8 keeps whatever
/// layout the strategy path deployed — the nn::Model handle quantizes
/// each weight's dense materialization at construction.
bool build_serving_layers(const Args& args, const et::nn::ModelConfig& model,
                          const et::nn::EncoderWeights& weights,
                          std::vector<et::nn::EncoderWeights>& layers) {
  layers.assign(2, weights);
  for (auto& l : layers) l.attn.vo = {};
  if (args.weights_layout == et::nn::WeightFormat::kDense ||
      args.weights_layout == et::nn::WeightFormat::kInt8) {
    return true;
  }

  const auto* wq = std::get_if<et::sparse::DenseWeight>(&weights.attn.wq);
  const auto* wv = std::get_if<et::sparse::DenseWeight>(&weights.attn.wv);
  const auto* wo = std::get_if<et::sparse::DenseWeight>(&weights.attn.wo);
  const std::size_t d = model.d_model;
  const std::size_t dk = d / model.num_heads;

  if (args.weights_layout == et::nn::WeightFormat::kPrecomputed) {
    if (wv == nullptr || wo == nullptr) {
      std::fprintf(stderr,
                   "--weights precomputed needs dense W_V/W_O to fold; drop "
                   "--strategy/--ratio\n");
      return false;
    }
    const std::size_t kept = dk / 2 > 0 ? dk / 2 : 1;
    std::vector<std::uint32_t> kept_cols(kept);
    for (std::size_t r = 0; r < kept; ++r) {
      kept_cols[r] = static_cast<std::uint32_t>(r);
    }
    for (auto& l : layers) {
      l.attn.vo = et::core::precompute_vo(wv->matrix(), wo->matrix(),
                                          model.num_heads, kept_cols);
    }
    return true;
  }

  // "pruned"
  if (wq == nullptr || wv == nullptr) {
    std::fprintf(stderr,
                 "--weights pruned needs dense W_Q/W_V to prune; drop "
                 "--strategy/--ratio\n");
    return false;
  }
  // Balanced per-head row pruning of W_V: keep the first half of every
  // head's d_k rows — the condensable shape the KV cache stores condensed.
  std::vector<std::uint32_t> kept_rows;
  for (std::size_t h = 0; h < model.num_heads; ++h) {
    for (std::size_t r = 0; r < dk / 2; ++r) {
      kept_rows.push_back(static_cast<std::uint32_t>(h * dk + r));
    }
  }
  // Checkerboard tile mask over W_Q (50% of the 16×16 tiles).
  et::sparse::Mask mask(d, d, 1);
  const std::size_t side = et::sparse::kTileSide;
  for (std::size_t tr = 0; tr < d / side; ++tr) {
    for (std::size_t tc = 0; tc < d / side; ++tc) {
      if ((tr + tc) % 2 == 0) continue;
      for (std::size_t r = 0; r < side; ++r) {
        for (std::size_t c = 0; c < side; ++c) {
          mask(tr * side + r, tc * side + c) = 0;
        }
      }
    }
  }
  for (auto& l : layers) {
    l.attn.wv =
        et::sparse::RowPrunedWeight::from_kept_rows(wv->matrix(), kept_rows);
    l.attn.wq = et::sparse::TilePrunedWeight::from_masked(wq->matrix(), mask);
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse(argc, argv, args)) {
    std::fprintf(stderr, "run with --help for usage\n");
    return 2;
  }
  if (args.help) {
    usage();
    return 0;
  }

  const et::nn::ModelConfig model = args.model->value();
  const et::nn::Pipeline pipeline = args.pipeline->value;
  const et::gpusim::DeviceSpec spec = args.device->value();
  // "auto" keeps adaptive selection; anything else was validated by parse()
  // and pins the operator through AdaptivePolicy::forced (only the E.T.
  // pipeline consults the policy — baselines model fixed engines).
  const std::optional<et::core::AttentionImpl> forced_attention =
      args.attention == "auto" ? std::optional<et::core::AttentionImpl>{}
                               : et::core::from_string(args.attention);

  // Build weights: dense, or pruned through the requested strategy.
  et::nn::EncoderWeights weights;
  if (!args.strategy->value || args.ratio <= 0.0) {
    weights = et::nn::make_dense_encoder_weights(model, 1);
  } else {
    const et::pruning::Strategy strategy = *args.strategy->value;
    et::train::TrainModelConfig tcfg;
    tcfg.vocab_size = 64;
    tcfg.d_model = model.d_model;
    tcfg.num_heads = model.num_heads;
    tcfg.d_ff = model.d_ff;
    tcfg.num_layers = 1;
    et::train::TransformerModel shapes(tcfg, 2);
    const auto masks = et::pruning::compute_layer_masks(shapes.layers()[0],
                                                        strategy, args.ratio);
    weights = et::pruning::deploy_layer(shapes.layers()[0], masks, strategy);
  }

  et::gpusim::Device dev(spec);
  et::core::ExecContext ctx(dev, args.threads);
  dev.set_traffic_only(true);
  if (args.inject_given &&
      !arm_from_spec(dev.fault_injector(), args.inject_fault)) {
    return 2;
  }
  // Explicit non-dense formats are validated (or, for int8, applied) by
  // the nn::Model handle against the deployed weights. kDense stays
  // nullopt-derived: under --strategy the "dense" layout legitimately
  // carries pruned formats, and an explicit kDense request would refuse
  // them.
  const std::optional<et::nn::WeightFormat> weight_format =
      args.weights_layout == et::nn::WeightFormat::kDense
          ? std::optional<et::nn::WeightFormat>{}
          : std::optional<et::nn::WeightFormat>(args.weights_layout);
  if (args.listen_given) {
    // Network API server (docs/api.md): the demo model registered as
    // ("demo", v1) in a ModelRegistry, served to the three demo tenants
    // over the frame protocol. Runs until SIGINT/SIGTERM, then drains.
    std::vector<et::nn::EncoderWeights> layers;
    if (!build_serving_layers(args, model, weights, layers)) return 2;
    auto gopt =
        et::nn::options_for(pipeline, model, args.seq, /*causal=*/true);
    gopt.adaptive.forced = forced_attention;

    et::serving::ModelRegistry registry;
    registry.add("demo", 1, std::move(layers), gopt, args.seq, 257,
                 weight_format);

    et::net::ApiServerConfig ncfg;
    ncfg.port = static_cast<std::uint16_t>(args.listen_port);
    ncfg.default_model = "demo";
    const std::size_t requested = args.batch == 0 ? 4 : args.batch;
    ncfg.engine.max_batch = requested < 8 ? requested : 8;
    ncfg.engine.queue_capacity = args.queue_cap;
    ncfg.engine.enable_preemption = args.preempt;
    ncfg.engine.kv.precision = args.kv_precision;

    et::net::ApiServer api(ncfg, et::net::TenantTable::demo(), registry);
    api.serve_model("demo");
    // Handlers go in before the readiness line is printed: a script
    // that reads the line and immediately signals must hit the graceful
    // path, never the default-action window.
    install_stop_signals();
    api.start(ctx);
    // The startup line is the readiness handshake scripts wait for.
    std::printf("listening on 127.0.0.1:%u\n",
                static_cast<unsigned>(api.port()));
    std::fflush(stdout);
    while (g_signal == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    const et::net::DrainResult dr = api.shutdown(args.drain_ticks);
    if (args.json) {
      // Config echo first (the same weights/kv_precision keys the other
      // serving modes carry), then the metrics snapshot.
      std::printf("{\n  \"weights\": \"%s\", \"kv_precision\": \"%s\",\n"
                  "  \"metrics\": %s\n}\n",
                  std::string(et::nn::to_string(args.weights_layout)).c_str(),
                  std::string(et::core::to_string(args.kv_precision)).c_str(),
                  api.metrics_json(2).c_str());
    } else {
      std::printf("drained in %zu tick(s), %zu request(s) cancelled\n",
                  dr.drain_ticks_used, dr.cancelled);
    }
    return 0;
  }

  // Serving modes list every recovered fallback; the encoder lists them
  // only under --inject-fault, next to what was injected.
  bool list_recoveries = true;
  if (args.serve) {
    // Request-level serving: a scripted arrival sequence through the
    // continuous-batching InferenceServer (docs/serving.md) — two decoder
    // layers at the chosen model's width, --batch slots (default 4, cap
    // 8), bounded queue, optional per-request deadlines.
    std::vector<et::nn::EncoderWeights> layers;
    if (!build_serving_layers(args, model, weights, layers)) return 2;
    auto gopt =
        et::nn::options_for(pipeline, model, args.seq, /*causal=*/true);
    gopt.adaptive.forced = forced_attention;
    const std::size_t requested = args.batch == 0 ? 4 : args.batch;
    const std::size_t slots = requested < 8 ? requested : 8;
    const et::nn::Model handle(&layers, gopt, args.tokens + 1, weight_format);
    et::serving::ServerConfig scfg;
    scfg.max_batch = slots;
    scfg.queue_capacity = args.queue_cap;
    scfg.enable_preemption = args.preempt;
    scfg.kv.precision = args.kv_precision;
    et::serving::InferenceServer server(handle, scfg);

    std::vector<et::serving::RequestHandle> handles;
    std::size_t submitted = 0;
    const auto submit_some = [&](std::size_t n) {
      for (std::size_t k = 0;
           k < n && (args.requests == 0 || submitted < args.requests); ++k) {
        et::serving::Request req;
        req.first_token = static_cast<std::int32_t>(submitted);
        req.max_new_tokens = args.tokens;
        req.embed = [&model](std::int32_t, std::size_t) {
          return et::tensor::MatrixF(1, model.d_model);
        };
        req.select = [](const et::tensor::MatrixF&) {
          return std::int32_t{1};
        };
        if (args.deadline > 0) req.total_budget_ticks = args.deadline;
        if (args.queue_budget > 0) req.queue_budget_ticks = args.queue_budget;
        req.retry_budget = args.retries;
        req.retry_backoff_ticks = args.backoff_ticks;
        handles.push_back(server.submit(std::move(req)));
        ++submitted;
      }
    };
    // Arrival script: everything at tick 0, or --arrive per tick — the
    // offered-load knob bench/ablation_serving sweeps. --requests 0 keeps
    // serving until a signal. On SIGINT/SIGTERM arrivals stop and the
    // server drains: in-flight requests get --drain-ticks more ticks to
    // finish, then the remainder is cancelled — never an abort mid-tick.
    install_stop_signals();
    if (args.arrive == 0) submit_some(args.requests);
    const bool unbounded = args.requests == 0;
    std::size_t drain_used = 0;
    bool draining = false;
    for (;;) {
      if (g_signal != 0) draining = true;
      const bool more_arrivals =
          !draining && (unbounded || submitted < args.requests);
      if (!more_arrivals && server.idle()) break;
      if (draining) {
        if (drain_used >= args.drain_ticks) {
          for (const auto& h : handles) (void)server.cancel(h);
        }
        ++drain_used;
      }
      server.tick(ctx);
      if (more_arrivals) submit_some(args.arrive);
    }

    if (args.json) {
      // Config fields first, then every MetricsRegistry scalar — the
      // exact name/value list bench/ablation_serving rows use, so the
      // two outputs can never drift apart — then the full snapshot with
      // histogram buckets.
      std::printf("{\n");
      std::printf("  \"model\": \"%s\", \"pipeline\": \"%s\", \"device\": "
                  "\"%s\",\n",
                  model.name.c_str(), args.pipeline->token,
                  spec.name.c_str());
      std::printf("  \"requests\": %zu, \"slots\": %zu, \"queue_capacity\": "
                  "%zu, \"offered_per_tick\": %zu, \"threads\": %zu, "
                  "\"weights\": \"%s\", \"kv_precision\": \"%s\", "
                  "\"attention\": \"%s\",\n",
                  args.requests, slots, args.queue_cap, args.arrive,
                  ctx.threads(),
                  std::string(et::nn::to_string(handle.weight_layout())).c_str(),
                  std::string(et::core::to_string(args.kv_precision)).c_str(),
                  args.attention.c_str());
      std::printf("  \"retries\": %zu, \"backoff_ticks\": %zu, "
                  "\"preempt\": %s,\n",
                  args.retries, args.backoff_ticks,
                  args.preempt ? "true" : "false");
      std::printf("  \"time_us\": %.1f,\n", dev.total_time_us());
      for (const auto& f : server.metrics().scalars()) {
        std::printf("  \"%s\": %g,\n", f.name.c_str(), f.value);
      }
      std::printf("  \"metrics\": %s\n", server.metrics().json(0).c_str());
      std::printf("}\n");
    } else {
      std::printf("%s · %s · serving %zu request(s) on %zu slot(s), queue "
                  "%zu · %s weights · %s kv · %s\n",
                  model.name.c_str(), args.pipeline->token, args.requests,
                  slots, args.queue_cap,
                  std::string(et::nn::to_string(handle.weight_layout())).c_str(),
                  std::string(et::core::to_string(args.kv_precision)).c_str(),
                  spec.name.c_str());
      if (args.arrive > 0) {
        std::printf("  offered load: %zu request(s)/tick\n", args.arrive);
      }
      const auto counter = [&](const char* name) {
        const auto* c = server.metrics().find_counter(name);
        return c != nullptr ? c->value() : 0;
      };
      std::printf("  %llu completed, %llu rejected, %llu expired over %zu "
                  "ticks\n",
                  static_cast<unsigned long long>(counter("requests_completed")),
                  static_cast<unsigned long long>(counter("requests_rejected")),
                  static_cast<unsigned long long>(counter("requests_expired")),
                  server.now());
      std::printf("  %llu tokens in %.1f us (%.1f tokens/sec)\n",
                  static_cast<unsigned long long>(counter("tokens_emitted")),
                  dev.total_time_us(),
                  dev.total_time_us() > 0.0
                      ? 1e6 * static_cast<double>(counter("tokens_emitted")) /
                            dev.total_time_us()
                      : 0.0);
      const auto hist_mean = [&](const char* name) {
        const auto* h = server.metrics().find_histogram(name);
        return h != nullptr ? h->mean() : 0.0;
      };
      std::printf("  mean queue wait %.1f ticks, ttft %.1f ticks, e2e %.1f "
                  "ticks\n",
                  hist_mean("queue_wait_ticks"), hist_mean("ttft_ticks"),
                  hist_mean("e2e_ticks"));
    }
  } else if (args.batch > 0) {
    // Serving demo: decode N sequences through the slot-based batched
    // scheduler (docs/serving.md) — two decoder layers at the chosen
    // model's width, up to 8 slots, every sequence submitted at tick 0 to
    // an InferenceServer whose queue holds them all, backfilling slots as
    // they retire.
    std::vector<et::nn::EncoderWeights> layers;
    if (!build_serving_layers(args, model, weights, layers)) return 2;
    auto gopt =
        et::nn::options_for(pipeline, model, args.seq, /*causal=*/true);
    gopt.adaptive.forced = forced_attention;
    const std::size_t max_batch = args.batch < 8 ? args.batch : 8;
    const et::nn::Model handle(&layers, gopt, args.tokens + 1, weight_format);
    et::serving::ServerConfig scfg;
    scfg.max_batch = max_batch;
    scfg.queue_capacity = args.batch;
    scfg.kv.precision = args.kv_precision;
    et::serving::InferenceServer server(handle, scfg);
    std::vector<et::serving::RequestHandle> handles;
    for (std::size_t i = 0; i < args.batch; ++i) {
      et::serving::Request req;
      req.first_token = static_cast<std::int32_t>(i);
      req.max_new_tokens = args.tokens;
      req.embed = [&model](std::int32_t, std::size_t) {
        return et::tensor::MatrixF(1, model.d_model);
      };
      req.select = [](const et::tensor::MatrixF&) { return std::int32_t{1}; };
      handles.push_back(server.submit(std::move(req)));
    }
    server.drain(ctx);
    const et::nn::BatchedGenerationScheduler& sched = server.scheduler();
    std::vector<et::nn::GenerationResult> results;
    std::size_t total_tokens = 0;
    for (const auto h : handles) {
      results.push_back(server.result(h));
      total_tokens += results.back().tokens.size();
    }
    const double tokens_per_sec =
        dev.total_time_us() > 0.0
            ? 1e6 * static_cast<double>(total_tokens) / dev.total_time_us()
            : 0.0;
    if (args.json) {
      // One JSON object per run; scalar field names are identical to the
      // bench/ablation_batching --json row keys so serving dashboards can
      // consume either source unchanged.
      std::printf("{\n");
      std::printf("  \"model\": \"%s\", \"pipeline\": \"%s\", \"device\": "
                  "\"%s\",\n",
                  model.name.c_str(), args.pipeline->token,
                  spec.name.c_str());
      std::printf("  \"batch\": %zu, \"threads\": %zu, \"slots\": %zu, "
                  "\"weights\": \"%s\", \"kv_precision\": \"%s\", "
                  "\"attention\": \"%s\",\n",
                  args.batch, ctx.threads(), max_batch,
                  std::string(et::nn::to_string(handle.weight_layout())).c_str(),
                  std::string(et::core::to_string(args.kv_precision)).c_str(),
                  args.attention.c_str());
      std::printf("  \"total_tokens\": %zu, \"ticks\": %zu, "
                  "\"batched_ticks\": %zu, \"per_slot_fallback_ticks\": "
                  "%zu,\n",
                  total_tokens, sched.ticks(), sched.batched_ticks(),
                  sched.per_slot_fallback_ticks());
      std::printf("  \"time_us\": %.1f, \"tokens_per_sec\": %.1f,\n",
                  dev.total_time_us(), tokens_per_sec);
      std::printf("  \"results\": [\n");
      for (std::size_t i = 0; i < results.size(); ++i) {
        std::printf("    {\"id\": %zu, \"tokens\": %zu, \"stop_reason\": "
                    "\"%s\", \"fault_kernel\": \"%s\"}%s\n",
                    i, results[i].tokens.size(),
                    std::string(to_string(results[i].stop_reason)).c_str(),
                    results[i].fault_kernel.c_str(),
                    i + 1 < results.size() ? "," : "");
      }
      std::printf("  ],\n");
      std::printf("  \"slot_time_us\": [");
      for (std::size_t s = 0; s < max_batch; ++s) {
        std::printf("%.1f%s", dev.time_us_for_slot(static_cast<int>(s)),
                    s + 1 < max_batch ? ", " : "");
      }
      std::printf("],\n");
      std::printf("  \"fallbacks\": %zu\n", dev.fallback_log().size());
      std::printf("}\n");
    } else {
      std::printf("%s · %s · serving %zu sequences on %zu slot(s) · %s "
                  "weights · %s kv · %s\n",
                  model.name.c_str(), args.pipeline->token, args.batch,
                  max_batch,
                  std::string(et::nn::to_string(handle.weight_layout())).c_str(),
                  std::string(et::core::to_string(args.kv_precision)).c_str(),
                  spec.name.c_str());
      std::printf("  %zu tokens in %.1f us (%.1f tokens/sec), %zu ticks "
                  "(%zu batched, %zu degraded to per-slot)\n",
                  total_tokens, dev.total_time_us(), tokens_per_sec,
                  sched.ticks(), sched.batched_ticks(),
                  sched.per_slot_fallback_ticks());
      for (std::size_t i = 0; i < results.size(); ++i) {
        std::printf("  seq %zu: %zu token(s), stop=%s", i,
                    results[i].tokens.size(),
                    std::string(to_string(results[i].stop_reason)).c_str());
        if (!results[i].fault_kernel.empty()) {
          std::printf(" (kernel '%s')", results[i].fault_kernel.c_str());
        }
        std::printf("\n");
      }
      // A batched tick's attention launch covers every live slot, so it
      // belongs to none: it gets a line of its own, and a slot's line
      // counts only the launches that stepped that slot alone.
      std::size_t shared_launches = 0;
      double shared_us = 0.0;
      for (const auto& k : dev.history()) {
        if (k.slot == et::gpusim::kNoSlot &&
            k.name == "incremental_otf_attention") {
          ++shared_launches;
          shared_us += k.time_us;
        }
      }
      std::printf("  shared attention: %zu launch(es), %.1f us\n",
                  shared_launches, shared_us);
      for (std::size_t s = 0; s < max_batch; ++s) {
        std::printf("  slot %zu own attention time: %.1f us\n", s,
                    dev.time_us_for_slot(static_cast<int>(s)));
      }
    }
  } else {
    et::tensor::MatrixF x(args.seq, model.d_model);
    auto opt = et::nn::options_for(pipeline, model, args.seq);
    opt.adaptive.forced = forced_attention;
    try {
      (void)et::nn::encoder_forward(ctx, x, weights, opt);
    } catch (const et::gpusim::KernelFault& f) {
      // Only the E.T. pipeline routes attention through the resilient
      // adaptive dispatch; the baselines die on the first fault — which
      // is exactly the contrast this flag exists to demonstrate. E.T.
      // itself can still die when the rule also matches the modular
      // baseline or a kernel outside the attention operator (FFN,
      // layernorm).
      if (pipeline == et::nn::Pipeline::kET) {
        std::fprintf(stderr,
                     "unrecovered kernel fault in '%s' (degradation chain "
                     "exhausted, or the fault is outside the attention "
                     "operator)\n",
                     f.kernel().c_str());
      } else {
        std::fprintf(stderr,
                     "unrecovered kernel fault in '%s' (pipeline '%s' has "
                     "no fallback chain)\n",
                     f.kernel().c_str(), args.pipeline->token);
      }
      return 1;
    }

    const double layer_us = dev.total_time_us();
    if (args.json) {
      std::printf("{\"model\": \"%s\", \"pipeline\": \"%s\", \"seq\": %zu, "
                  "\"device\": \"%s\", \"threads\": %zu, \"ratio\": %.2f, "
                  "\"attention\": \"%s\", \"layer_us\": %.1f, "
                  "\"model_ms\": %.2f, \"kernels\": %zu}\n",
                  model.name.c_str(), args.pipeline->token, args.seq,
                  spec.name.c_str(), ctx.threads(), args.ratio,
                  args.attention.c_str(), layer_us,
                  layer_us * static_cast<double>(model.num_layers) / 1e3,
                  dev.launch_count());
    } else {
      std::printf("%s · %s · seq %zu · %s", model.name.c_str(),
                  args.pipeline->token, args.seq, spec.name.c_str());
      if (args.ratio > 0.0) {
        std::printf(" · %s @ %.0f%%", args.strategy->token,
                    100 * args.ratio);
      }
      if (args.attention != "auto") {
        std::printf(" · %s attention", args.attention.c_str());
      }
      std::printf("\n  %.1f us / layer,  %.2f ms for the %zu-layer model,  "
                  "%zu kernels\n",
                  layer_us,
                  layer_us * static_cast<double>(model.num_layers) / 1e3,
                  model.num_layers, dev.launch_count());
      if (args.inject_given) {
        const auto& inj = dev.fault_injector();
        std::printf("  injected %zu fault(s) over %zu launch attempts\n",
                    inj.faults_injected(), inj.launches_seen());
        if (dev.fallback_log().empty() && inj.faults_injected() == 0) {
          std::printf("  no launch matched the armed fault rule\n");
        }
      }
    }
    list_recoveries = args.inject_given;
  }

  // One emission tail for every mode. Under --json the document above is
  // the whole stdout, so only the trace file follows it.
  if (!args.json) {
    if (list_recoveries) {
      for (const auto& f : dev.fallback_log()) {
        std::printf("  recovered: %s -> %s after fault in '%s' (%s)\n",
                    f.from_impl.c_str(), f.to_impl.c_str(), f.kernel.c_str(),
                    f.cause.c_str());
      }
    }
    if (args.profile) {
      std::printf("\n");
      print_report(std::cout, et::gpusim::profile(dev));
    }
  }
  if (!args.trace.empty()) {
    et::gpusim::write_chrome_trace(args.trace, dev);
    if (!args.json) {
      std::printf("trace written to %s (open in chrome://tracing)\n",
                  args.trace.c_str());
    }
  }
  return 0;
}
