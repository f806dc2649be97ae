// Slot-based batched generation: the serving-side engine over the
// incremental decode path. Up to `max_batch` sequences are decoded
// together, one fused tick at a time — the per-slot q/k/v projections
// collapse into one batched GEMM (kernels::batched_gemm_nt) and the MLP
// runs once over the stacked rows, amortizing weight loads and kernel
// launches across the batch. Attention is one launch per layer too, on a
// heads × slots grid, while its math stays partitioned per slot (each
// sequence attends over its own paged KV cache, E.T.'s single-row OTF
// instance).
//
// The scheduler holds nothing but its slots. A caller (serving::
// InferenceServer) seats a request with admit(), reads its transcript
// with tokens(), and gets the whole GenerationResult back when the slot
// retires (eos / max_tokens / kv_cache_full / kernel_fault, drained with
// take_retired()) or is cancelled. KV storage is recycled through the
// paged, block-refcounted core::PagedKVPool (docs/serving.md "Paged KV
// and prefix sharing") — freeing a slot drops one reference per block in
// its table, so prompt-prefix blocks other requests still alias survive.
//
// The correctness contract, enforced by tests/test_batched_generation.cpp:
// every per-row kernel is row-wise independent, so a batch-of-N decode is
// BIT-IDENTICAL to N independent nn::generate runs — batching buys
// throughput, never different answers.
//
// Fault semantics (extends the truncate-on-fault step atomicity):
//   - a fault in a launch shared by two or more slots — every batched
//     GEMM, and the attention launch of a batched tick — rolls every slot
//     back to its pre-tick context and the tick degrades to per-slot
//     stepping (recorded via Device::note_fallback), where any persistent
//     fault is attributable again;
//   - a fault in an attention launch covering one slot (a degraded tick,
//     or a tick with one live slot) carries that slot's id and retires
//     only the owning slot; the other slots' tick completes unaffected.
#pragma once

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "core/block_allocator.hpp"
#include "nn/encoder.hpp"
#include "nn/generation.hpp"
#include "nn/model.hpp"

namespace et::nn {

/// One generation job: the shared nn::DecodeParams fields —
/// semantics match a `nn::generate(ctx, session, params)` call — plus the
/// transcript an earlier tenure already emitted.
struct GenerationRequest : DecodeParams {
  /// Tokens earlier slot tenures of this job emitted (the serving
  /// runtime's preemption/retry resume path, docs/robustness.md). The
  /// seated request's result starts with them, and the tick REPLAYS
  /// their positions through the fused decode to rebuild the KV caches —
  /// embed() runs for each, select() does NOT (the outcome is already
  /// known, and the caller's select may carry observable side effects) —
  /// so a resumed job's transcript is bit-identical to an uninterrupted
  /// run.
  std::vector<std::int32_t> resume_tokens;
};

/// A slot a tick retired, with its request's whole result.
struct RetiredSlot {
  std::size_t slot = 0;
  GenerationResult result;
};

class BatchedGenerationScheduler {
 public:
  /// Constructed from the validated nn::Model handle (copied; the layer
  /// vector it borrows must outlive the scheduler). KV storage is the
  /// PAGED pool (core::PagedKVPool): fixed-size refcounted blocks with
  /// per-slot block tables, shaped by `kv` — per-layer V-plane widths
  /// from the Model are preserved inside the block geometry, so
  /// pre-computed W_VO and condensed row-pruned layouts still cache only
  /// what they need. The default PagedKVOptions sizes the pool so no
  /// workload the old contiguous pool could serve can OOM; a smaller
  /// num_blocks makes block exhaustion a typed kv_cache_full stop, and
  /// kv.enable_prefix_sharing lets same-group requests with a common
  /// prompt prefix alias blocks copy-on-write (memory only — transcripts
  /// and metrics are bit-identical either way).
  /// Throws std::invalid_argument on a zero batch size (model validity
  /// is the Model's own job).
  BatchedGenerationScheduler(const Model& model, std::size_t max_batch,
                             core::PagedKVOptions kv = {});

  /// Seat `req` in a free slot now and return the slot. The pool's
  /// prefix trie — flushed first, so it holds every prompt block earlier
  /// ticks completed — may seed the slot's block table with another
  /// request's resident prompt blocks. Throws std::invalid_argument on a
  /// request with no tokens to decode, and std::length_error when every
  /// slot is taken.
  std::size_t admit(GenerationRequest req);

  /// Free `slot` now and return its result, finished with `reason` —
  /// kCancelled for a caller cancel or a preemption, kDeadlineExceeded
  /// when the serving runtime's budget expired (docs/serving.md). The
  /// result keeps every token of the transcript, earlier tenures'
  /// included. Throws std::invalid_argument when nothing is seated there.
  GenerationResult cancel(std::size_t slot,
                          StopReason reason = StopReason::kCancelled);

  /// The seated request's transcript so far (resume_tokens first) — the
  /// streaming view the serving layer reads after each tick to deliver
  /// per-token callbacks.
  [[nodiscard]] const std::vector<std::int32_t>& tokens(
      std::size_t slot) const {
    return slots_.at(slot).value().result.tokens;
  }

  /// The paged slot storage, for capacity/memory accounting (the
  /// kv_bytes gauges count resident blocks) and the sharing stats.
  [[nodiscard]] const core::PagedKVPool& pool() const noexcept {
    return pool_;
  }

  /// One decode tick: step every seated sequence by one token and retire
  /// the finished ones. The per-slot attention math runs in parallel
  /// across active slots on ctx.pool(), bit-identical to the serial tick
  /// at any thread count. Throws std::invalid_argument, naming the slot,
  /// before anything launches when a slot's embed() row is not
  /// 1 × d_model; cancelling that slot (or fixing its embed) and ticking
  /// again resumes the batch. Slots the capacity pre-check retired before
  /// the throw are in take_retired() all the same.
  void tick(core::ExecContext& ctx);

  /// The slots retired since the last call, in retirement order, each
  /// with its request's whole result. A retired slot is free at once.
  [[nodiscard]] std::vector<RetiredSlot> take_retired() {
    return std::exchange(retired_, {});
  }

  [[nodiscard]] std::size_t active() const noexcept {
    return pool_.num_slots() - pool_.free_slots();
  }
  [[nodiscard]] std::size_t max_batch() const noexcept {
    return slots_.size();
  }

  /// Tick accounting for benchmarks and tests.
  [[nodiscard]] std::size_t ticks() const noexcept { return ticks_; }
  [[nodiscard]] std::size_t batched_ticks() const noexcept {
    return batched_ticks_;
  }
  [[nodiscard]] std::size_t per_slot_fallback_ticks() const noexcept {
    return fallback_ticks_;
  }

 private:
  struct Seat {
    DecodeParams params;
    GenerationResult result;  // the transcript so far
  };

  /// Free `slot` and hand back its result, finished with `reason`.
  GenerationResult release(std::size_t slot, StopReason reason);
  void retire(std::size_t slot, StopReason reason) {
    retired_.push_back({slot, release(slot, reason)});
  }

  Model model_;
  core::PagedKVPool pool_;
  std::vector<std::optional<Seat>> slots_;  // index == pool slot id
  std::vector<RetiredSlot> retired_;

  std::size_t ticks_ = 0;
  std::size_t batched_ticks_ = 0;
  std::size_t fallback_ticks_ = 0;
};

}  // namespace et::nn
