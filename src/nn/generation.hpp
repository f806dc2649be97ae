// Autoregressive generation over the inference stack: a decoder-only
// model (stack of causal encoder layers, GPT-style per §2.1) consuming
// one token per step with per-layer KV caches.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/block_allocator.hpp"
#include "core/prefix_trie.hpp"
#include "nn/encoder.hpp"
#include "nn/model.hpp"

namespace et::nn {

/// The layer tail (nn::layer_tail) kernel names of both decode loops:
/// GenerationSession's and the batched scheduler's fused tick. Under int8
/// the FF kernels carry an `_int8` suffix.
inline constexpr LayerTailNames kDecodeTail{
    "gen_residual_layernorm1", "gen_ff1", "gen_ff2", "gen_residual_layernorm2"};
inline constexpr LayerTailNames kDecodeTailInt8{
    "gen_residual_layernorm1", "gen_ff1_int8", "gen_ff2_int8",
    "gen_residual_layernorm2"};

/// Holds the per-layer KV caches and steps the stack one token at a time.
///
/// The caches are one slot of a core::PagedKVPool whose single block
/// spans max_context — the same store the batched scheduler decodes on,
/// in the geometry of one contiguous row band per layer. The pool holds
/// pointers into itself, so a session is neither copyable nor movable.
class GenerationSession {
 public:
  /// Constructed from the validated nn::Model handle — the session copies
  /// the handle (cheap: pointer + options + flags), so the caller's Model
  /// may be a temporary, but the layer vector the Model borrows must
  /// outlive the session. Each per-layer cache is sized to the layer's
  /// V-plane width (Model::v_width), so condensed and folded layouts
  /// allocate only what they cache.
  explicit GenerationSession(const Model& model);

  /// Feed one token's embedding (1 × d_model); returns the top-layer
  /// hidden state for that position (1 × d_model), a zero row on a
  /// traffic-only device, which computes none. Atomic under faults:
  /// if a kernel fails partway through the layer stack, every per-layer
  /// KV cache is rolled back to its pre-step length before the exception
  /// propagates, so the session stays consistent and resumable. Throws
  /// std::invalid_argument, before anything launches, when x_row is not
  /// 1 × d_model.
  [[nodiscard]] tensor::MatrixF step(core::ExecContext& ctx,
                                     const tensor::MatrixF& x_row);

  [[nodiscard]] const Model& model() const noexcept { return model_; }

  [[nodiscard]] std::size_t context_length() const noexcept {
    return kv_.slot(0).tokens();
  }
  [[nodiscard]] std::size_t max_context() const noexcept {
    return model_.max_context();
  }
  [[nodiscard]] bool at_capacity() const noexcept {
    return context_length() >= max_context();
  }

  void reset();

 private:
  [[nodiscard]] tensor::MatrixF step_layers(core::ExecContext& ctx,
                                            const tensor::MatrixF& x_row,
                                            numeric::Precision p);

  Model model_;
  core::PagedKVPool kv_;  // one slot, acquired for the session's lifetime
};

/// Why generate() stopped emitting tokens. The last three arise only
/// through the request-level serving runtime (serving::InferenceServer,
/// docs/serving.md), which finishes requests on behalf of a caller: an
/// explicit cancel, an exhausted queue-wait/end-to-end budget, or refused
/// admission at a full queue.
enum class StopReason {
  kMaxTokens,         ///< reached the requested token budget — the happy path
  kEos,               ///< the model emitted the end-of-sequence token
  kKvCacheFull,       ///< per-layer KV caches reached capacity
  kKernelFault,       ///< a kernel failed mid-step (injected or real)
  kCancelled,         ///< cancelled by the caller; emitted tokens are kept
  kDeadlineExceeded,  ///< queue-wait or end-to-end budget expired
  kRejected,          ///< refused admission (bounded queue full or shed)
  kPreemptionLimit,   ///< preempted more times than the server allows
};

/// Count of StopReason enumerators, for exhaustive iteration (per-reason
/// metrics counters, the round-trip regression test).
inline constexpr std::size_t kStopReasonCount = 8;

[[nodiscard]] constexpr std::string_view to_string(StopReason r) noexcept {
  switch (r) {
    case StopReason::kMaxTokens: return "max_tokens";
    case StopReason::kEos: return "eos";
    case StopReason::kKvCacheFull: return "kv_cache_full";
    case StopReason::kKernelFault: return "kernel_fault";
    case StopReason::kCancelled: return "cancelled";
    case StopReason::kDeadlineExceeded: return "deadline_exceeded";
    case StopReason::kRejected: return "rejected";
    case StopReason::kPreemptionLimit: return "preemption_limit";
  }
  return "?";
}

/// Tokens are vocabulary indices (>= 0); any negative eos_token disables
/// end-of-sequence detection.
inline constexpr std::int32_t kNoEosToken = -1;

/// Outcome of a generate() call. Tokens emitted before a fault or a full
/// cache are always preserved — running out of capacity mid-reply returns
/// the partial reply, it never throws it away.
struct GenerationResult {
  std::vector<std::int32_t> tokens;  ///< tokens emitted, in order
  StopReason stop_reason = StopReason::kMaxTokens;
  std::string fault_kernel;  ///< faulted kernel when stop_reason == kKernelFault
};

/// Maps a token id (and its absolute position) to its input embedding row
/// (1 × d_model) — embedding table + positional encoding in most callers.
using EmbedFn =
    std::function<tensor::MatrixF(std::int32_t token, std::size_t position)>;

/// Picks the next token from the top-layer hidden state (1 × d_model) —
/// greedy argmax over an LM head in most callers.
using SelectFn = std::function<std::int32_t(const tensor::MatrixF& hidden)>;

/// The sampling/limit fields every decode submit path shares. Both
/// nn::GenerationRequest (scheduler) and serving::Request extend this
/// struct, so the two request shapes cannot drift apart — one definition
/// of what a decode job IS, envelopes added per layer.
struct DecodeParams {
  std::int32_t first_token = 0;
  /// Optional multi-token prompt. Empty: the legacy single-token shape —
  /// `first_token` alone seeds decoding. Non-empty: overrides
  /// first_token; positions 0..n-2 prefill the KV caches (their hidden
  /// states are discarded, nothing is emitted for them) and position n-1
  /// decodes the first emission. The prompt is also what paged prefix
  /// sharing keys on (core::PrefixTrie, docs/serving.md).
  std::vector<std::int32_t> prompt_tokens;
  /// Prefix-sharing scope; core::kNoPrefixGroup (the default) never
  /// shares. Callers may put two requests in one group ONLY when their
  /// embed closures are bit-identical functions — token ids alone do not
  /// determine KV content, the embedding does.
  std::uint64_t prefix_group = core::kNoPrefixGroup;
  std::size_t max_new_tokens = 0;
  EmbedFn embed;
  SelectFn select;
  std::int32_t eos_token = kNoEosToken;

  /// The effective prompt: prompt_tokens, or the single first_token.
  [[nodiscard]] std::vector<std::int32_t> prompt() const {
    if (!prompt_tokens.empty()) return prompt_tokens;
    return {first_token};
  }
};

/// Autoregressive generation with graceful limits: feeds
/// `params.first_token`, then repeatedly selects and feeds the next
/// token, up to `max_new_tokens` emissions. KV-cache exhaustion and
/// per-step kernel faults are stop conditions, not errors: the result
/// carries everything generated so far plus the reason generation ended.
/// Only non-fault exceptions (e.g. a bad config) propagate. A
/// non-negative `eos_token` additionally stops (reason kEos) once that
/// token is emitted — the emission itself is kept in the result.
[[nodiscard]] GenerationResult generate(core::ExecContext& ctx,
                                        GenerationSession& session,
                                        const DecodeParams& params);

}  // namespace et::nn
