// Workload-level declarations shared by the drivers: SLO limits, the
// arrival scripts, the per-layer table and the trace writer.
#pragma once

#include <cstdint>
#include <vector>

#include "common.hpp"
#include "serving/server.hpp"

namespace perfbench {

// ------------------------------------------------------------ SLO limits
// A request meets its SLO when its modeled TTFT and modeled time per
// output token are both within these limits; a failed request misses.
// Each is set from the workload's modeled measurement on this commit.

/// encoder_bert_base: one request = one 128-token sequence. A forward
/// models 930 us (7.27 us per position); the limits leave 7.5% headroom,
/// so a larger modeled regression turns slo_ok_frac from 1 to 0.
inline constexpr double kEncoderTtftLimitUs = 1000.0;
inline constexpr double kEncoderTpotLimitUs = 7.8;
/// serve_heavy_tail.
inline constexpr double kServeTtftLimitUs = 40000.0;
inline constexpr double kServeTpotLimitUs = 250.0;
/// decode_numerics.
inline constexpr double kDecodeTtftLimitUs = 7000.0;
inline constexpr double kDecodeTpotLimitUs = 150.0;

// --------------------------------------------------------------- scripts

/// One scripted request: when it is due (logical tick) and what it asks.
struct Arrival {
  std::size_t tick = 0;
  et::serving::Priority priority = et::serving::Priority::kNormal;
  std::vector<std::int32_t> prompt;
  std::uint64_t group = et::core::kNoPrefixGroup;
  std::size_t max_new_tokens = 0;
  /// Tokens select() returns, in order (traffic-only workloads, whose
  /// hidden states carry no values to decode from).
  std::vector<std::int32_t> outputs;
};

using Script = std::vector<Arrival>;

/// serve_heavy_tail: seeded jittered-uniform arrival gaps on the tick
/// clock; a synthetic prompt mix (mostly short prompts, a long stratum
/// about 11x the short median), a share of requests in prefix groups behind a
/// shared system prompt, short-to-medium outputs, mixed priority classes.
[[nodiscard]] Script heavy_tail_script(std::uint64_t seed,
                                       std::size_t requests);
/// decode_numerics: every request due at tick 0, short prompts,
/// decode-heavy outputs, no prefix groups.
[[nodiscard]] Script decode_script(std::uint64_t seed, std::size_t requests);

// ------------------------------------------------------------ per-layer

/// The per-layer numbers of one traced run. Fields a workload never
/// exercises stay 0 (not applicable). launches_per_op, fallbacks,
/// fp16_overflows and ops are per forward or per busy tick.
struct PerLayer {
  double launches_per_op = 0, log_entries = 0, fallbacks = 0;
  OpTotals ops;
  double ops_scale = 0;  ///< 1 / (forwards or busy ticks)
  double kv_bytes_used_peak = 0, kv_prefix_hits = 0,
         kv_prefix_shared_tokens = 0, kv_cow_splits = 0,
         kv_prefix_hit_frac = 0;
  double encoder_dense_ms_p50 = 0, encoder_pruned_ms_p50 = 0;
  double batch_occupancy_mean = 0, prompt_row_frac = 0;
  double tick_ms_p50 = 0, tick_ms_p99 = 0, tick_self_ms_p50 = 0;
  double submit_us_p50 = 0;
  double queue_wait_p50 = 0, queue_wait_p99 = 0;
  double preemptions = 0, rejected = 0, shed = 0, expired = 0;
  double fp16_overflows = 0;
  double setup_weights_s = 0, setup_prune_s = 0, setup_model_s = 0,
         setup_oracle_s = 0;
  double closure_share = 0, trace_overhead_frac = 0;
};

void add_per_layer(Report& report, const PerLayer& pl);

// ----------------------------------------------------------------- trace

/// Per-step launch record the trace joins spans to (a step is one
/// serving tick or one encoder forward).
struct StepRecord {
  std::size_t step = 0;
  std::int64_t start_ns = 0, end_ns = 0;
  double modeled_us = 0;
  std::size_t launches = 0;
  double op_us[kOps] = {};
};

/// Write spans and step records as JSON lines to
/// <trace_dir>/<workload>-seed<seed>.jsonl (no-op without a trace dir).
void write_trace(const Options& opt, const std::vector<Span>& spans,
                 const std::vector<StepRecord>& steps);

}  // namespace perfbench
