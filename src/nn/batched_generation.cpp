#include "nn/batched_generation.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <string>
#include <utility>

#include "core/incremental_attention.hpp"
#include "kernels/gemm.hpp"
#include "kernels/linear.hpp"
#include "quant/quantize.hpp"

namespace et::nn {

namespace {

/// A batch of one pays the fused path's bookkeeping for zero
/// amortization, so a tick with fewer active slots than this steps per
/// slot instead (identical math, one sequence per launch).
constexpr std::size_t kBatchedDecodeMinSlots = 2;

/// Per-sequence state threaded through one tick. `pre_used` is the
/// context length every layer's cache is rolled back to if this slot (or
/// the whole tick) has to be undone — the PR-1 step-atomicity invariant,
/// per slot.
struct TickSlot {
  enum class State { kRunning, kOk, kKernelFault, kKvCacheFull };

  std::size_t pool_slot = 0;
  std::vector<core::PagedKVCache>* caches = nullptr;
  std::size_t pre_used = 0;

  State state = State::kRunning;
  std::string fault_kernel;
  tensor::MatrixF hidden;  // 1 × d_model when state == kOk
};

// Cursor-only: PagedKVCache::truncate never frees a block, so the
// same-tick per-slot retry after a shared-kernel fault still finds its
// prepared block in the table. Storage reclamation happens at slot
// release.
void rollback(TickSlot& slot) {
  for (auto& cache : *slot.caches) cache.truncate(slot.pre_used);
  slot.hidden = tensor::MatrixF();
}

/// The input token for context position `pos`: a prompt position embeds
/// the prompt token, everything after embeds the transcript (which holds
/// a resumed request's earlier tenures, so replay derives identical
/// inputs).
std::int32_t input_token(const DecodeParams& req,
                         const std::vector<std::int32_t>& transcript,
                         std::size_t pos) {
  const std::vector<std::int32_t>& pt = req.prompt_tokens;
  const std::size_t n = pt.empty() ? 1 : pt.size();
  if (pos < n) return pt.empty() ? req.first_token : pt[pos];
  return transcript.at(pos - n);
}

/// One fused decode step for every sequence in `live` (rows(i) is
/// live[i]'s embedded input). Each shared kernel is row-wise independent
/// and the layer's one core::incremental_attention_step runs each slot's
/// row over its own cache, so every sequence's output is bit-identical to
/// a batch-of-one nn::generate step. Under Model's kInt8 descriptor
/// every projection/FF GEMM swaps to quant::int8_linear, whose per-ROW
/// activation scales keep that row-wise independence exactly (a stacked
/// row quantizes as it would alone). Slot-attributed faults (an
/// attention launch covering one slot) retire only the owning slot (its
/// caches rolled back, its row dropped); faults in shared kernels roll
/// back every live slot and propagate to the caller, which degrades the
/// tick to per-slot stepping.
void fused_step(core::ExecContext& ctx, const Model& model,
                std::vector<TickSlot*> live, tensor::MatrixF rows) {
  gpusim::Device& dev = ctx.device();
  const std::vector<EncoderWeights>& layers = model.layers();
  const EncoderOptions& opt = model.options();
  const bool int8 = model.quantized();
  const auto p = opt.attn.precision;
  const std::size_t d = opt.attn.d_model;
  kernels::LinearOptions lopt;
  lopt.precision = p;

  const auto rollback_all = [&live]() {
    for (TickSlot* slot : live) rollback(*slot);
  };

  tensor::MatrixF h = std::move(rows);
  try {
    for (std::size_t l = 0; l < layers.size(); ++l) {
      const EncoderWeights& w = layers[l];

      // Shared: the whole batch's q/k/v projections, in the layout the
      // caches store (the same three-way V split as
      // core::incremental_attention; docs/attention.md "Weight layouts in
      // the decode path"). Dense weights fuse into ONE batched GEMM (the
      // A strips — the stacked hidden rows — staged once for all panels);
      // under the W_VO fold the third panel is W_VO itself, so the
      // batched projection directly emits the condensed m rows. Pruned
      // formats keep their specialized kernels, still amortized across
      // the batch by stacking.
      tensor::MatrixF q, k_new, v_new;
      const core::PrecomputedVO* vo =
          w.attn.has_precomputed() ? &w.attn.vo : nullptr;
      std::vector<std::uint32_t> v_kept;
      const QuantizedLayer* ql = int8 ? &model.quantized_layer(l) : nullptr;
      const auto* dq = std::get_if<sparse::DenseWeight>(&w.attn.wq);
      const auto* dk = std::get_if<sparse::DenseWeight>(&w.attn.wk);
      const auto* dv = std::get_if<sparse::DenseWeight>(&w.attn.wv);
      if (int8) {
        // INT8 keeps the same three-way V split, fused into ONE launch
        // like the dense batched projection (decode is launch-bound —
        // three separate launches would hand the fp16 path back its
        // win). The fold's metadata (kept/heads) still reads the fp
        // W_VO while the GEMM operand is the quantized one.
        auto qkv = quant::int8_batched_linear(
            ctx, h, {&ql->wq, &ql->wk, vo != nullptr ? &ql->vo : &ql->wv},
            "gen_qkv_int8");
        q = std::move(qkv[0]);
        k_new = std::move(qkv[1]);
        v_new = std::move(qkv[2]);
      } else if (vo != nullptr && dq != nullptr && dk != nullptr) {
        auto qkm = kernels::batched_gemm_nt(
            ctx, h, {&dq->matrix(), &dk->matrix(), &vo->weight}, p, nullptr,
            "gen_qkv_batched");
        q = std::move(qkm[0]);
        k_new = std::move(qkm[1]);
        v_new = std::move(qkm[2]);
      } else if (vo != nullptr) {
        q = kernels::linear(ctx, h, w.attn.wq, lopt, "gen_q_linear").y;
        k_new = kernels::linear(ctx, h, w.attn.wk, lopt, "gen_k_linear").y;
        v_new = kernels::gemm_nt(ctx, h, vo->weight, p, nullptr,
                                 "gen_vo_linear");
      } else if (w.attn.v_condensable(opt.attn.num_heads)) {
        q = kernels::linear(ctx, h, w.attn.wq, lopt, "gen_q_linear").y;
        k_new = kernels::linear(ctx, h, w.attn.wk, lopt, "gen_k_linear").y;
        kernels::LinearOptions vopt = lopt;
        vopt.scatter_row_pruned_output = false;
        auto res = kernels::linear(ctx, h, w.attn.wv, vopt, "gen_v_linear");
        v_new = std::move(res.y);
        v_kept = std::move(res.nonzero_cols);
      } else if (dq != nullptr && dk != nullptr && dv != nullptr) {
        auto qkv = kernels::batched_gemm_nt(
            ctx, h, {&dq->matrix(), &dk->matrix(), &dv->matrix()}, p, nullptr,
            "gen_qkv_batched");
        q = std::move(qkv[0]);
        k_new = std::move(qkv[1]);
        v_new = std::move(qkv[2]);
      } else {
        q = kernels::linear(ctx, h, w.attn.wq, lopt, "gen_q_linear").y;
        k_new = kernels::linear(ctx, h, w.attn.wk, lopt, "gen_k_linear").y;
        v_new = kernels::linear(ctx, h, w.attn.wv, lopt, "gen_v_linear").y;
      }
      const std::vector<std::uint32_t>* v_kept_ptr =
          int8 ? (ql->v_kept.empty() ? nullptr : &ql->v_kept)
               : (v_kept.empty() ? nullptr : &v_kept);

      // Per slot: append this token's K/V row to the slot's own cache. A
      // cache that filled behind the tick's capacity pre-check retires
      // only its slot, kv_cache_full, before anything is launched —
      // exactly like generate()'s defensive stop.
      std::vector<std::size_t> keep;  // indices into live that attend
      keep.reserve(live.size());
      for (std::size_t b = 0; b < live.size(); ++b) {
        try {
          core::append_kv(dev, (*live[b]->caches)[l], k_new.row(b),
                          v_new.row(b));
          keep.push_back(b);
        } catch (const std::length_error&) {
          rollback(*live[b]);
          live[b]->state = TickSlot::State::kKvCacheFull;
        }
      }

      // One attention launch for the batch: every slot attends over its
      // own cache (a 1-row OTF instance per sequence) on a heads × slots
      // grid. A launch covering one slot carries that slot's id, so a
      // fault in it retires only the owner. A launch shared by several
      // slots blames none: its fault propagates like any shared kernel's,
      // and the per-slot retry makes each slot's launch its own again.
      tensor::MatrixF z(keep.size(), d);
      if (!keep.empty()) {
        std::vector<core::DecodeRow> attend;
        attend.reserve(keep.size());
        for (std::size_t i = 0; i < keep.size(); ++i) {
          attend.push_back(
              {q.row(keep[i]), &(*live[keep[i]]->caches)[l], z.row(i)});
        }
        const int owner = keep.size() == 1
                              ? static_cast<int>(live[keep[0]]->pool_slot)
                              : gpusim::kNoSlot;
        try {
          gpusim::SlotScope scope(dev, owner);
          core::incremental_attention_step(ctx, attend, vo, v_kept_ptr,
                                           opt.attn);
        } catch (const gpusim::KernelFault& f) {
          if (owner == gpusim::kNoSlot) throw;
          TickSlot& slot = *live[keep[0]];
          rollback(slot);
          slot.state = TickSlot::State::kKernelFault;
          slot.fault_kernel = f.kernel();
          dev.note_fallback({"batched_decode", "retire_slot", f.kernel(),
                             std::string(to_string(f.cause())), owner});
          keep.clear();
        }
      }
      if (keep.size() != live.size()) {
        std::vector<TickSlot*> survivors;
        tensor::MatrixF h2(keep.size(), d);
        for (std::size_t i = 0; i < keep.size(); ++i) {
          survivors.push_back(live[keep[i]]);
          // A traffic-only h holds no values to carry over.
          if (dev.traffic_only()) continue;
          const auto src = h.row(keep[i]);
          std::copy(src.begin(), src.end(), h2.row(i).begin());
        }
        live = std::move(survivors);
        if (live.empty()) return;
        h = std::move(h2);
      }

      // Shared: output projection (already folded into the cached rows
      // under W_VO) and the layer tail over the stacked survivors — one
      // launch each instead of one per sequence.
      tensor::MatrixF attn =
          vo != nullptr
              ? std::move(z)
              : (int8
                     ? quant::int8_linear(ctx, z, ql->wo, "gen_out_int8")
                     : kernels::linear(ctx, z, w.attn.wo, lopt,
                                       "gen_out_linear")
                           .y);
      h = layer_tail(ctx, std::move(attn), h, w, ql, p,
                     int8 ? kDecodeTailInt8 : kDecodeTail);
    }
  } catch (...) {
    // A shared kernel failed: no slot can be blamed, so no slot may keep
    // this tick's partial work. Roll back everything and let the caller
    // degrade to per-slot stepping.
    rollback_all();
    throw;
  }

  // A traffic-only h holds no values: select() sees a zero row instead.
  for (std::size_t b = 0; b < live.size(); ++b) {
    live[b]->state = TickSlot::State::kOk;
    live[b]->hidden = dev.traffic_only() ? tensor::MatrixF(1, d)
                                         : tensor::slice_rows(h, b, 1);
  }
}

}  // namespace

namespace {
std::size_t checked_batch(std::size_t max_batch) {
  // Thrown before pool_ is constructed so the zero-batch error keeps the
  // scheduler's own message, not the pool's.
  if (max_batch == 0) {
    throw std::invalid_argument(
        "BatchedGenerationScheduler: max_batch must be nonzero");
  }
  return max_batch;
}
}  // namespace

BatchedGenerationScheduler::BatchedGenerationScheduler(const Model& model,
                                                       std::size_t max_batch,
                                                       core::PagedKVOptions kv)
    : model_(model),
      pool_(checked_batch(max_batch), model_.max_context(), model_.k_width(),
            model_.v_widths(), kv),
      slots_(max_batch) {}

std::size_t BatchedGenerationScheduler::admit(GenerationRequest req) {
  if (req.max_new_tokens == 0) {
    throw std::invalid_argument(
        "BatchedGenerationScheduler::admit: a request must decode at least "
        "one token");
  }
  // Checked before the trie flush below, so a refused admit changes
  // nothing.
  if (!pool_.has_free()) {
    throw std::length_error(
        "BatchedGenerationScheduler::admit: every slot is taken");
  }
  // Trie flush: advertise every prompt block earlier ticks' appends
  // completed before the lookup below. Prompt-aware acquisition: the trie
  // may seed the slot's block table with another request's resident
  // prompt blocks (refcounts bumped; appends below the shared frontier
  // skip the write).
  pool_.flush_registrations();
  const std::size_t slot = pool_.acquire(req.prefix_group, req.prompt());
  GenerationResult result;
  result.tokens = std::move(req.resume_tokens);
  slots_[slot] = Seat{std::move(req), std::move(result)};
  return slot;
}

GenerationResult BatchedGenerationScheduler::cancel(std::size_t slot,
                                                    StopReason reason) {
  if (slot >= slots_.size() || !slots_[slot].has_value()) {
    throw std::invalid_argument("BatchedGenerationScheduler::cancel: slot " +
                                std::to_string(slot) + " is not seated");
  }
  return release(slot, reason);
}

GenerationResult BatchedGenerationScheduler::release(std::size_t slot,
                                                     StopReason reason) {
  GenerationResult result = std::move(slots_[slot]->result);
  result.stop_reason = reason;
  slots_[slot].reset();
  pool_.release(slot);
  return result;
}

void BatchedGenerationScheduler::tick(core::ExecContext& ctx) {
  gpusim::Device& dev = ctx.device();
  ++ticks_;

  // Trie flush: advertise every prompt block the PREVIOUS tick's appends
  // completed.
  pool_.flush_registrations();

  // Capacity pre-check — the same at_capacity() stop generate() takes
  // before a step, applied per slot so one exhausted sequence never
  // blocks the rest of the batch. prepare_append is the paged half of
  // it, run SERIALLY in slot order: it allocates (or CoW-splits) the
  // block this tick's append lands in, so block exhaustion retires the
  // slot kv_cache_full here, deterministically, and the appends below
  // are pure row writes. A retirement frees blocks that later
  // slots' prepares may immediately reuse — still deterministic, the
  // loop is serial.
  std::vector<TickSlot> tick_slots;
  tick_slots.reserve(slots_.size());
  for (std::size_t s = 0; s < slots_.size(); ++s) {
    if (!slots_[s].has_value()) continue;
    core::PagedKVSlot& kv_slot = pool_.slot(s);
    if (kv_slot.tokens() >= model_.max_context()) {
      retire(s, StopReason::kKvCacheFull);
      continue;
    }
    if (!kv_slot.prepare_append()) {
      retire(s, StopReason::kKvCacheFull);
      continue;
    }
    TickSlot ts;
    ts.pool_slot = s;
    ts.caches = &pool_.caches(s);
    ts.pre_used = kv_slot.tokens();
    tick_slots.push_back(std::move(ts));
  }
  if (tick_slots.empty()) return;

  // Embed every sequence's input at its own context position: prompt
  // tokens first (prefill and decode share this one code path), then the
  // emission stream.
  const std::size_t d = model_.d_model();
  tensor::MatrixF rows(tick_slots.size(), d);
  for (std::size_t i = 0; i < tick_slots.size(); ++i) {
    const TickSlot& ts = tick_slots[i];
    const Seat& seat = *slots_[ts.pool_slot];
    const std::int32_t token =
        input_token(seat.params, seat.result.tokens, ts.pre_used);
    const tensor::MatrixF row = seat.params.embed(token, ts.pre_used);
    // Checked before the tick's first launch: prepare_append is
    // idempotent, so a retried tick or a cancel leaves the pool whole.
    if (row.rows() != 1 || row.cols() != d) {
      throw std::invalid_argument(
          "BatchedGenerationScheduler::tick: slot " +
          std::to_string(ts.pool_slot) + " embedded a " +
          std::to_string(row.rows()) + "x" + std::to_string(row.cols()) +
          " row, want 1x" + std::to_string(d));
    }
    for (std::size_t c = 0; c < d; ++c) rows(i, c) = row(0, c);
  }

  bool per_slot = tick_slots.size() < kBatchedDecodeMinSlots;
  if (!per_slot) {
    ++batched_ticks_;
    std::vector<TickSlot*> live;
    live.reserve(tick_slots.size());
    for (auto& ts : tick_slots) live.push_back(&ts);
    try {
      fused_step(ctx, model_, std::move(live), rows);
    } catch (const gpusim::KernelFault& f) {
      // Shared-kernel fault: the aborted batched attempt has no effect
      // (fused_step rolled every slot back). Degrade this tick to
      // per-slot stepping so any persistent fault becomes attributable.
      for (auto& ts : tick_slots) {
        ts.state = TickSlot::State::kRunning;
        ts.fault_kernel.clear();
      }
      dev.note_fallback({"batched_decode", "per_slot_decode", f.kernel(),
                         std::string(to_string(f.cause())), gpusim::kNoSlot});
      ++fallback_ticks_;
      per_slot = true;
    }
  }
  if (per_slot) {
    for (std::size_t i = 0; i < tick_slots.size(); ++i) {
      TickSlot& ts = tick_slots[i];
      if (ts.state != TickSlot::State::kRunning) continue;
      try {
        fused_step(ctx, model_, {&ts}, tensor::slice_rows(rows, i, 1));
      } catch (const gpusim::KernelFault& f) {
        ts.state = TickSlot::State::kKernelFault;
        ts.fault_kernel = f.kernel();
      }
    }
  }

  // Retire / advance.
  for (TickSlot& ts : tick_slots) {
    switch (ts.state) {
      case TickSlot::State::kOk: {
        Seat& seat = *slots_[ts.pool_slot];
        const DecodeParams& req = seat.params;
        std::vector<std::int32_t>& tokens = seat.result.tokens;
        // Prefill positions (every prompt token but the last) emit
        // nothing: the hidden state is discarded and the slot just
        // advances, exactly like nn::generate's prefill loop.
        const std::size_t prompt_len =
            req.prompt_tokens.empty() ? 1 : req.prompt_tokens.size();
        if (ts.pre_used + 1 < prompt_len) break;
        // Recompute-resume replay: a position the transcript already
        // holds was decided by an earlier tenure — the tick only rebuilt
        // its KV rows. select() runs past the transcript's end alone, so
        // its side effects (streaming hashes, logging) fire once per
        // token across the request's whole life.
        const std::size_t index = ts.pre_used + 1 - prompt_len;
        if (index == tokens.size()) tokens.push_back(req.select(ts.hidden));
        const std::int32_t token = tokens[index];
        if (req.eos_token >= 0 && token == req.eos_token) {
          retire(ts.pool_slot, StopReason::kEos);
        } else if (index + 1 >= req.max_new_tokens) {
          retire(ts.pool_slot, StopReason::kMaxTokens);
        }
        break;
      }
      case TickSlot::State::kKernelFault:
        slots_[ts.pool_slot]->result.fault_kernel = ts.fault_kernel;
        retire(ts.pool_slot, StopReason::kKernelFault);
        break;
      case TickSlot::State::kKvCacheFull:
        retire(ts.pool_slot, StopReason::kKvCacheFull);
        break;
      case TickSlot::State::kRunning:
        // Unreachable: every path above resolves the slot.
        assert(false);
        break;
    }
  }
}

}  // namespace et::nn
