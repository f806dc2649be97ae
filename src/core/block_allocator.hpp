// Paged KV storage (docs/serving.md "Paged KV and prefix sharing"): the
// vLLM PagedAttention memory model (Kwon et al.,
// https://arxiv.org/abs/2309.06180) applied to this repo's per-layer KV
// planes. Instead of one contiguous max_context-row cache per slot per
// layer, KV rows live in fixed-size BLOCKS of `block_tokens` rows; each
// serving slot holds a block TABLE mapping logical token index ->
// (block, offset), and blocks are refcounted so requests with a common
// prompt prefix can alias the same physical rows (copy-on-write split on
// the first divergent append).
//
// Layer geometry: one block id spans EVERY layer — block b owns row band
// [b*block_tokens, (b+1)*block_tokens) of each layer's K plane (k_width
// wide) and V plane (that layer's v_width: d_model dense, Σkept
// condensed, H·kept folded — the PR-5 widths, preserved inside the block
// geometry). One table per slot therefore serves all layers, which is
// what lets the scheduler allocate/CoW once per position, not per layer.
//
// Determinism: allocation order is part of the observable transcript
// (which request OOMs first), so all allocation and CoW happens in the
// scheduler's SERIAL prepare phase (PagedKVSlot::prepare_append, called
// slot-by-slot before the decode section) and the free list is LIFO —
// the same script yields the same block ids at any thread count. The
// per-slot appends are then pure row writes, and the attention math that
// runs on the thread pool only reads blocks.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string_view>
#include <utility>
#include <vector>

#include "core/prefix_trie.hpp"
#include "tensor/matrix.hpp"

namespace et::core {

/// Storage precision of the pooled KV planes. kFp32 is the lossless
/// reference layout; kInt8 stores every K/V row as symmetric int8 with
/// one FP32 reconstruction scale per row per plane, held in the block
/// metadata (scale = amax/127 over that row alone, so quantization is a
/// pure function of the appended row — deterministic at any thread count
/// and identical whether the row is written by its first author or
/// skipped under prefix sharing). Gathers reconstruct FP32, so decode
/// math is unchanged in shape and bounded-error in value
/// (docs/quantization.md).
enum class KvPrecision : std::uint8_t { kFp32, kInt8 };

[[nodiscard]] constexpr std::string_view to_string(KvPrecision p) noexcept {
  switch (p) {
    case KvPrecision::kFp32: return "fp32";
    case KvPrecision::kInt8: return "int8";
  }
  return "?";
}

/// Round-trip inverse of to_string (the PR-8 parsing convention): parse a
/// CLI token or config value; nullopt on junk. Named for its enum because
/// C++ cannot overload core::from_string on return type alone.
[[nodiscard]] constexpr std::optional<KvPrecision> kv_precision_from_string(
    std::string_view name) noexcept {
  constexpr KvPrecision kAll[] = {KvPrecision::kFp32, KvPrecision::kInt8};
  for (KvPrecision p : kAll) {
    if (to_string(p) == name) return p;
  }
  return std::nullopt;
}

/// Paged-pool shape knobs, carried alongside the model geometry.
struct PagedKVOptions {
  /// Rows per block (nonzero). block_tokens >= max_context gives each
  /// slot one whole-context block — the layout nn::GenerationSession
  /// decodes on — and disables prefix sharing: a whole-context block can
  /// never share a proper prefix without copying everything.
  std::size_t block_tokens = 16;
  /// Physical blocks in the pool; 0 = num_slots * ceil(max_context /
  /// block_tokens), the capacity at which no slot can run out of blocks
  /// before it reaches max_context (per-slot demand never exceeds
  /// ceil(max_context/block_tokens) blocks). Smaller values make block
  /// exhaustion a reachable, typed kv_cache_full stop.
  std::size_t num_blocks = 0;
  /// Admission-time prompt-prefix sharing (the trie + CoW machinery).
  /// Off: every request fills private blocks; transcripts and device
  /// traffic are identical either way — sharing changes memory only.
  bool enable_prefix_sharing = true;
  /// Plane storage precision. kInt8 shrinks every KV element from 4
  /// bytes to 1 (+ one FP32 scale per row per plane in block metadata),
  /// so kv_bytes / kv_bytes_used drop to roughly a quarter of the fp32
  /// layout and the same pool holds ~2× the resident batch of a
  /// half-precision one (bench/ablation_serving's capacity row).
  KvPrecision precision = KvPrecision::kFp32;
};

/// Pool-lifetime sharing statistics (monotonic; serving gauges).
struct PagedKVStats {
  std::uint64_t prefix_hits = 0;  ///< admissions that aliased >= 1 block
  std::uint64_t prefix_shared_tokens = 0;  ///< KV rows seeded from the trie
  std::uint64_t cow_splits = 0;  ///< blocks copied on a divergent append
};

/// Refcounted fixed-size KV block storage for every layer. Rows are
/// addressed as (layer, block, offset); `allocate` hands out blocks at
/// refcount 1 from a LIFO free list, `add_ref`/`release` track table
/// aliases, and `copy_rows` is the CoW primitive. The allocator knows
/// nothing about slots, prompts or the trie — that is PagedKVPool's job.
class BlockAllocator {
 public:
  /// Throws std::invalid_argument on zero blocks/block_tokens/k_width,
  /// empty v_widths, or a zero v_width entry.
  BlockAllocator(std::size_t num_blocks, std::size_t block_tokens,
                 std::size_t k_width, const std::vector<std::size_t>& v_widths,
                 KvPrecision precision = KvPrecision::kFp32);

  [[nodiscard]] KvPrecision precision() const noexcept { return precision_; }

  [[nodiscard]] std::size_t num_blocks() const noexcept { return refs_.size(); }
  [[nodiscard]] std::size_t block_tokens() const noexcept {
    return block_tokens_;
  }
  [[nodiscard]] std::size_t num_layers() const noexcept {
    return v_widths_.size();
  }
  [[nodiscard]] std::size_t k_width() const noexcept { return k_width_; }
  [[nodiscard]] std::size_t v_width(std::size_t layer) const {
    return v_widths_.at(layer);
  }

  [[nodiscard]] std::size_t free_blocks() const noexcept {
    return free_.size();
  }
  [[nodiscard]] std::size_t resident_blocks() const noexcept {
    return num_blocks() - free_blocks();
  }

  /// Bytes one block holds across every layer's K and V planes — the
  /// unit of the kv_bytes accounting formula (docs/serving.md):
  ///   kv_bytes_used = resident_blocks * block_tokens * Σ_l (k_width +
  ///   v_width_l) * elem_bytes   (+ 2 scale floats per row per layer
  /// under kInt8, where elem_bytes is 1 instead of sizeof(float)).
  [[nodiscard]] std::size_t bytes_per_block() const noexcept {
    return block_tokens_ * row_bytes_;
  }
  /// Full pool capacity in bytes (the kv_bytes gauge).
  [[nodiscard]] std::size_t memory_bytes() const noexcept {
    return num_blocks() * bytes_per_block();
  }
  /// Bytes of blocks currently held by at least one reference (the
  /// kv_bytes_used gauge — Σ resident blocks).
  [[nodiscard]] std::size_t resident_bytes() const noexcept {
    return resident_blocks() * bytes_per_block();
  }

  /// Claim a free block at refcount 1; nullopt when the pool is
  /// exhausted (the caller's typed kv_cache_full condition). LIFO.
  [[nodiscard]] std::optional<BlockId> allocate();

  /// One more table references `block`. Throws std::logic_error on a
  /// free block.
  void add_ref(BlockId block);

  /// Drop one reference; returns true when the block became free (the
  /// caller must then un-advertise it, e.g. PrefixTrie::erase_block).
  /// Throws std::logic_error on a block that is already free.
  bool release(BlockId block);

  [[nodiscard]] std::size_t ref_count(BlockId block) const {
    return refs_.at(block);
  }

  /// Raw FP32 row accessors: row `offset` (< block_tokens) of `block` in
  /// `layer`. Only meaningful on kFp32 pools (throws std::logic_error on
  /// kInt8 ones — int8 rows are reached through store_/load_ below, which
  /// own the scale bookkeeping).
  [[nodiscard]] std::span<float> k_row(std::size_t layer, BlockId block,
                                       std::size_t offset);
  [[nodiscard]] std::span<const float> k_row(std::size_t layer, BlockId block,
                                             std::size_t offset) const;
  [[nodiscard]] std::span<float> v_row(std::size_t layer, BlockId block,
                                       std::size_t offset);
  [[nodiscard]] std::span<const float> v_row(std::size_t layer, BlockId block,
                                             std::size_t offset) const;

  /// Precision-aware row IO. store_* writes `src` in the pool's storage
  /// precision — a plain copy under kFp32; under kInt8 a symmetric
  /// round-to-nearest quantization against the row's own amax with the
  /// reconstruction scale recorded in the block metadata. load_* fills
  /// `dst` with the FP32 reconstruction (exact under kFp32, q·scale
  /// under kInt8). Spans must match the plane width.
  void store_k_row(std::size_t layer, BlockId block, std::size_t offset,
                   std::span<const float> src);
  void store_v_row(std::size_t layer, BlockId block, std::size_t offset,
                   std::span<const float> src);
  void load_k_row(std::size_t layer, BlockId block, std::size_t offset,
                  std::span<float> dst) const;
  void load_v_row(std::size_t layer, BlockId block, std::size_t offset,
                  std::span<float> dst) const;

  /// Reconstruction scale stored for a row (1.0 on kFp32 pools) — the
  /// per-block metadata the quant property suite reconstructs against.
  [[nodiscard]] float k_row_scale(std::size_t layer, BlockId block,
                                  std::size_t offset) const;
  [[nodiscard]] float v_row_scale(std::size_t layer, BlockId block,
                                  std::size_t offset) const;

  /// CoW split: copy the first `rows` rows of every layer's planes from
  /// `from` into `to` (including the per-row scales on kInt8 pools — a
  /// split must never re-quantize). The destination must already be
  /// allocated.
  void copy_rows(BlockId from, BlockId to, std::size_t rows);

  /// Free-list snapshot (LIFO order), for the invariant/fuzz suite:
  /// free ∩ live must be empty and free + resident must partition the
  /// pool.
  [[nodiscard]] const std::vector<BlockId>& free_list() const noexcept {
    return free_;
  }

 private:
  std::size_t block_tokens_;
  std::size_t k_width_;
  std::size_t row_bytes_ = 0;  // Σ_l (k_width + v_width_l) * elem + scales
  KvPrecision precision_ = KvPrecision::kFp32;
  std::vector<std::size_t> v_widths_;
  // Exactly one plane family is populated, per precision_.
  std::vector<tensor::MatrixF> k_planes_;  // per layer: num_blocks*bt rows
  std::vector<tensor::MatrixF> v_planes_;
  std::vector<tensor::Matrix<std::int8_t>> k8_planes_;
  std::vector<tensor::Matrix<std::int8_t>> v8_planes_;
  // kInt8 block metadata: one reconstruction scale per row per plane,
  // indexed [layer][block * block_tokens + offset].
  std::vector<std::vector<float>> k_scales_;
  std::vector<std::vector<float>> v_scales_;
  std::vector<std::uint32_t> refs_;  // per block; 0 == free
  std::vector<BlockId> free_;        // LIFO
};

class PagedKVPool;
class PagedKVSlot;

/// Per-layer view of one slot's paged KV: the cache surface
/// (append / used / k_prefix / v_prefix / truncate / capacity) that
/// core::incremental_attention_step appends to and gathers through the
/// block table. All state lives in the owning PagedKVSlot; the view is
/// two pointers.
class PagedKVCache {
 public:
  PagedKVCache() = default;

  [[nodiscard]] std::size_t capacity() const noexcept;
  [[nodiscard]] std::size_t used() const noexcept;
  [[nodiscard]] bool full() const noexcept { return used() == capacity(); }
  [[nodiscard]] std::size_t k_width() const noexcept;
  [[nodiscard]] std::size_t v_width() const noexcept;
  /// Storage precision of the backing pool — the decode tick reads this
  /// to account 1-byte K/V traffic (plus scale loads) on int8 pools.
  [[nodiscard]] KvPrecision precision() const noexcept;

  /// Append one projected row to each of K and V. Throws
  /// std::length_error when the logical capacity OR the block pool is
  /// exhausted (both are the typed kv_cache_full stop) and
  /// std::invalid_argument on a row-width mismatch. Strong guarantee:
  /// every check runs before either plane is written or the cursor moves.
  /// Rows inside the slot's shared prefix advance the cursor without
  /// writing (the resident shared block already holds bit-identical
  /// content, and may be aliased by other tables).
  void append(std::span<const float> k_row, std::span<const float> v_row);

  /// Contiguous copies of the filled prefix, gathered through the block
  /// table — bit-identical to the rows appended, at any block size (the
  /// oracle property tests/test_paged_kv.cpp pins).
  [[nodiscard]] tensor::MatrixF k_prefix() const;
  [[nodiscard]] tensor::MatrixF v_prefix() const;

  /// Cursor-only rollback (no block is freed), so a same-tick retry
  /// still finds the block prepare_append made writable. Block
  /// reclamation happens at slot release or an explicit
  /// PagedKVSlot::rollback.
  void truncate(std::size_t n) noexcept;

 private:
  friend class PagedKVSlot;
  friend class PagedKVPool;
  PagedKVCache(PagedKVSlot* slot, std::size_t layer)
      : slot_(slot), layer_(layer) {}
  PagedKVSlot* slot_ = nullptr;
  std::size_t layer_ = 0;
};

/// One serving slot's paged KV state: the block table shared by every
/// layer, per-layer fill cursors, the shared-prefix bookkeeping, and the
/// per-layer PagedKVCache views handed to the decode tick.
class PagedKVSlot {
 public:
  [[nodiscard]] std::vector<PagedKVCache>& caches() noexcept { return views_; }
  [[nodiscard]] const std::vector<PagedKVCache>& caches() const noexcept {
    return views_;
  }

  [[nodiscard]] std::size_t used(std::size_t layer) const {
    return used_.at(layer);
  }
  /// Logical context length (layer cursors agree between ticks).
  [[nodiscard]] std::size_t tokens() const noexcept {
    return used_.empty() ? 0 : used_[0];
  }
  [[nodiscard]] const std::vector<BlockId>& table() const noexcept {
    return table_;
  }
  /// KV rows seeded from another request's blocks at acquire time.
  [[nodiscard]] std::size_t shared_rows() const noexcept {
    return shared_rows_;
  }
  [[nodiscard]] bool in_use() const noexcept { return in_use_; }

  /// Serial pre-decode phase: make the row at the current cursor
  /// writable — allocate the block the next append lands in, CoW-split
  /// it first if other tables alias it. Returns false on block
  /// exhaustion (the caller retires the request kv_cache_full BEFORE the
  /// tick, deterministically). Never called concurrently; the appends
  /// that follow are pure row writes.
  [[nodiscard]] bool prepare_append();

  /// Per-layer append — PagedKVCache::append's implementation.
  void append(std::size_t layer, std::span<const float> k_row,
              std::span<const float> v_row);

  [[nodiscard]] tensor::MatrixF k_prefix(std::size_t layer) const;
  [[nodiscard]] tensor::MatrixF v_prefix(std::size_t layer) const;

  void truncate(std::size_t layer, std::size_t n) noexcept;

  /// Serial rollback: truncate every layer to `n` rows AND return the
  /// blocks past the new frontier to the allocator — the fault-atomic
  /// truncate with storage to give back. Keeps ceil(n / block_tokens)
  /// blocks (never trimming below the seeded shared prefix), so a
  /// rollback landing exactly ON a block boundary frees the boundary
  /// block — the partial-block release case tests/test_paged_kv.cpp pins.
  void rollback(std::size_t n);

 private:
  friend class PagedKVPool;
  friend class PagedKVCache;

  /// CoW-split table_[bi], preserving its first `rows` rows. False on
  /// block exhaustion.
  [[nodiscard]] bool cow_block(std::size_t bi, std::size_t rows);
  void register_completed_prefix(std::size_t rows_done);

  PagedKVPool* pool_ = nullptr;
  std::vector<PagedKVCache> views_;
  std::vector<BlockId> table_;
  std::vector<std::size_t> used_;  // per-layer cursor
  std::size_t shared_rows_ = 0;
  std::size_t seeded_blocks_ = 0;  // rollback floor: shared blocks stay
  std::uint64_t group_ = kNoPrefixGroup;
  std::vector<std::int32_t> prompt_;  // retained for trie registration
  // Prompt blocks completed this tick, to advertise in the trie. Trie
  // writes are deferred to the flush at the top of the next tick
  // (pool.flush_registrations).
  std::vector<std::pair<std::size_t, BlockId>> pending_;  // (prefix_len, blk)
  bool in_use_ = false;
};

/// The one KV store for decode: a fixed set of slots (acquire/release/
/// caches, memory_bytes/used_bytes for the serving gauges) over a shared
/// BlockAllocator, plus prompt-aware acquisition that seeds a slot's
/// table from the prefix trie and the serial registration flush. The
/// batched scheduler runs one slot per sequence; nn::GenerationSession
/// runs a one-slot pool with a single whole-context block.
class PagedKVPool {
 public:
  /// Per-layer V-plane widths (index = layer) size each layer's plane on
  /// its own, so a folded or condensed layer allocates only its
  /// condensed width; K rows are always `k_width` wide. Throws
  /// std::invalid_argument on zero slots, zero block_tokens, or anything
  /// else BlockAllocator rejects.
  PagedKVPool(std::size_t num_slots, std::size_t max_context,
              std::size_t k_width, const std::vector<std::size_t>& v_widths,
              PagedKVOptions opts = {});

  // Slots and their per-layer views hold pointers back into this pool;
  // relocating it would dangle them.
  PagedKVPool(const PagedKVPool&) = delete;
  PagedKVPool& operator=(const PagedKVPool&) = delete;
  PagedKVPool(PagedKVPool&&) = delete;
  PagedKVPool& operator=(PagedKVPool&&) = delete;

  [[nodiscard]] std::size_t num_slots() const noexcept {
    return slots_.size();
  }
  [[nodiscard]] std::size_t free_slots() const noexcept {
    return free_slots_.size();
  }
  [[nodiscard]] bool has_free() const noexcept { return !free_slots_.empty(); }
  [[nodiscard]] std::size_t max_context() const noexcept {
    return max_context_;
  }
  [[nodiscard]] std::size_t block_tokens() const noexcept {
    return alloc_.block_tokens();
  }
  [[nodiscard]] bool sharing_enabled() const noexcept { return sharing_; }
  [[nodiscard]] KvPrecision precision() const noexcept {
    return alloc_.precision();
  }

  [[nodiscard]] std::size_t memory_bytes() const noexcept {
    return alloc_.memory_bytes();
  }
  /// Σ resident blocks × bytes_per_block — block-granular, so aliased
  /// prefixes count ONCE (the whole point). Zero at drain: the trie is
  /// non-owning, releasing every slot frees every block.
  [[nodiscard]] std::size_t used_bytes() const noexcept {
    return alloc_.resident_bytes();
  }

  /// Claim a slot with no sharing (kNoPrefixGroup path).
  [[nodiscard]] std::size_t acquire();

  /// Claim a slot for a request in `group` with `prompt`: the trie's
  /// longest registered prefix (capped at prompt.size() - 1 — the last
  /// prompt position always decodes locally, its hidden state feeds
  /// select()) is aliased into the slot's table with refcounts bumped,
  /// and those rows' later appends advance past resident content instead
  /// of rewriting it. The prompt is retained so the slot can advertise
  /// its own completed blocks.
  [[nodiscard]] std::size_t acquire(std::uint64_t group,
                                    std::span<const std::int32_t> prompt);

  /// Release a slot: every table reference dropped (blocks free when
  /// theirs was the last — the preemption/retry/cancel path routes
  /// through HERE, refcount decrement, not slot truncation), trie
  /// advertisements of freed blocks erased, pending registrations
  /// dropped. Throws std::invalid_argument on out-of-range/double
  /// release.
  void release(std::size_t slot);

  [[nodiscard]] PagedKVSlot& slot(std::size_t i) { return slots_.at(i); }
  [[nodiscard]] const PagedKVSlot& slot(std::size_t i) const {
    return slots_.at(i);
  }
  [[nodiscard]] std::vector<PagedKVCache>& caches(std::size_t i) {
    return slots_.at(i).caches();
  }
  [[nodiscard]] const std::vector<PagedKVCache>& caches(std::size_t i) const {
    return slots_.at(i).caches();
  }

  /// Serial flush of every slot's completed-prompt-block registrations
  /// into the trie — the scheduler calls this at the top of each tick,
  /// before admissions, so they see every prompt block earlier ticks
  /// completed.
  void flush_registrations();

  [[nodiscard]] const BlockAllocator& allocator() const noexcept {
    return alloc_;
  }
  [[nodiscard]] const PrefixTrie& trie() const noexcept { return trie_; }
  [[nodiscard]] const PagedKVStats& stats() const noexcept { return stats_; }

 private:
  friend class PagedKVSlot;

  /// Drop one reference; erases the trie advertisement when the block
  /// frees.
  void release_block(BlockId b);

  BlockAllocator alloc_;
  PrefixTrie trie_;
  std::size_t max_context_;
  bool sharing_;
  std::vector<PagedKVSlot> slots_;
  std::vector<std::size_t> free_slots_;  // LIFO
  PagedKVStats stats_;
};

}  // namespace et::core
