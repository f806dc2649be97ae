// Slot-based batched generation: the serving-side engine over the
// incremental decode path. Up to `max_batch` sequences are decoded
// together, one fused tick at a time — the per-slot q/k/v projections
// collapse into one batched GEMM (kernels::batched_gemm_nt) and the MLP
// runs once over the stacked rows, amortizing weight loads and kernel
// launches across the batch. Attention is one launch per layer too, on a
// heads × slots grid, while its math stays partitioned per slot (each
// sequence attends over its own paged KV cache, E.T.'s single-row OTF
// instance). Finished sequences (eos / max_tokens / kv_cache_full /
// kernel_fault) retire their slot, which is immediately backfilled from a
// FIFO pending queue; KV storage is recycled through the paged, block-
// refcounted core::PagedKVPool (docs/serving.md "Paged KV and prefix
// sharing") — retiring a slot drops one reference per block in its
// table, so prompt-prefix blocks other requests still alias survive.
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
#include <deque>
#include <optional>
#include <vector>

#include "core/block_allocator.hpp"
#include "nn/encoder.hpp"
#include "nn/generation.hpp"
#include "nn/model.hpp"

namespace et::nn {

/// One generation job: the shared nn::DecodeParams fields —
/// semantics match a `nn::generate(ctx, session, params)` call — plus an
/// optional recompute-resume prefix.
struct GenerationRequest : DecodeParams {
  /// Tokens an earlier run of this job already emitted (the serving
  /// runtime's preemption/retry resume path, docs/robustness.md). They
  /// are REPLAYED through the fused decode tick to rebuild the KV caches
  /// — embed() runs for each, select() does NOT (the outcome is already
  /// known, and the caller's select may carry observable side effects) —
  /// and they re-appear at the front of the result's token stream, so a
  /// resumed job's transcript is bit-identical to an uninterrupted run.
  std::vector<std::int32_t> resume_tokens;
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

  /// Enqueue a request; returns its id (index into run()'s results).
  /// Admission to a slot happens at the next tick.
  std::size_t submit(GenerationRequest req);

  /// Finish request `id` early with `reason` — kCancelled for an explicit
  /// caller cancel, kDeadlineExceeded when the serving runtime's budget
  /// expired (docs/serving.md). A still-queued request finishes with no
  /// tokens; an active one keeps every token emitted so far and frees its
  /// slot for the next tick's backfill. Returns false (and does nothing)
  /// when the request already finished.
  bool cancel(std::size_t id, StopReason reason = StopReason::kCancelled);

  /// Tokens emitted so far for request `id`, finished or not — the
  /// streaming view the serving layer reads after each tick to deliver
  /// per-token callbacks.
  [[nodiscard]] const std::vector<std::int32_t>& tokens_so_far(
      std::size_t id) const {
    return results_.at(id).tokens;
  }

  /// The paged slot storage, for capacity/memory accounting (the
  /// kv_bytes gauges count resident blocks) and the sharing stats.
  [[nodiscard]] const core::PagedKVPool& pool() const noexcept {
    return pool_;
  }

  /// One decode tick: backfill free slots from the queue, step every
  /// active sequence by one token, retire finished ones. The per-slot
  /// attention math runs in parallel across active slots on ctx.pool(),
  /// bit-identical to the serial tick at any thread count. Throws
  /// std::invalid_argument, naming the request, before anything launches
  /// when a slot's embed() row is not 1 × d_model; cancelling that
  /// request (or fixing its embed) and ticking again resumes the batch.
  void tick(core::ExecContext& ctx);

  /// Drain: tick until every submitted request has a result. Returns all
  /// results so far, indexed by the id submit() returned.
  std::vector<GenerationResult> run(core::ExecContext& ctx);

  [[nodiscard]] const Model& model() const noexcept { return model_; }

  [[nodiscard]] bool idle() const noexcept {
    return queue_.empty() && active() == 0;
  }
  [[nodiscard]] std::size_t pending() const noexcept { return queue_.size(); }
  [[nodiscard]] std::size_t active() const noexcept;
  [[nodiscard]] std::size_t max_batch() const noexcept {
    return slots_.size();
  }

  [[nodiscard]] bool finished(std::size_t id) const {
    return completed_.at(id);
  }
  [[nodiscard]] const GenerationResult& result(std::size_t id) const;

  /// Tick accounting for benchmarks and tests.
  [[nodiscard]] std::size_t ticks() const noexcept { return ticks_; }
  [[nodiscard]] std::size_t batched_ticks() const noexcept {
    return batched_ticks_;
  }
  [[nodiscard]] std::size_t per_slot_fallback_ticks() const noexcept {
    return fallback_ticks_;
  }

 private:
  struct ActiveSlot {
    std::size_t request_id = 0;
    std::size_t replayed = 0;  ///< resume_tokens consumed so far
  };

  void admit(std::size_t request_id);
  void retire(std::size_t pool_slot, StopReason reason);

  Model model_;
  core::PagedKVPool pool_;
  std::vector<std::optional<ActiveSlot>> slots_;  // index == pool slot id
  std::deque<std::size_t> queue_;                 // pending request ids

  std::vector<GenerationRequest> requests_;
  std::vector<GenerationResult> results_;
  std::vector<bool> completed_;

  std::size_t ticks_ = 0;
  std::size_t batched_ticks_ = 0;
  std::size_t fallback_ticks_ = 0;
};

}  // namespace et::nn
