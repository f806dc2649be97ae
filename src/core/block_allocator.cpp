#include "core/block_allocator.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <string>

namespace et::core {

// ---------------------------------------------------------------------------
// BlockAllocator

namespace {

/// Symmetric int8 quantization of one row against its own amax — the
/// same scheme as quant::quantize_weight, restated here so core stays
/// below et_quant in the library graph. A pure function of `src`:
/// deterministic at any thread count, identical whichever slot writes
/// the row.
void quantize_row(std::span<const float> src, std::int8_t* dst,
                  float& scale) {
  float amax = 0.0f;
  for (const float v : src) amax = std::max(amax, std::abs(v));
  scale = amax > 0.0f ? amax / 127.0f : 1.0f;
  for (std::size_t c = 0; c < src.size(); ++c) {
    dst[c] = static_cast<std::int8_t>(
        std::clamp(std::round(src[c] / scale), -127.0f, 127.0f));
  }
}

}  // namespace

BlockAllocator::BlockAllocator(std::size_t num_blocks, std::size_t block_tokens,
                               std::size_t k_width,
                               const std::vector<std::size_t>& v_widths,
                               KvPrecision precision)
    : block_tokens_(block_tokens),
      k_width_(k_width),
      precision_(precision),
      v_widths_(v_widths) {
  if (num_blocks == 0 || block_tokens == 0 || k_width == 0) {
    throw std::invalid_argument(
        "BlockAllocator: num_blocks, block_tokens and k_width must be "
        "nonzero");
  }
  if (v_widths_.empty()) {
    throw std::invalid_argument("BlockAllocator: v_widths must be non-empty");
  }
  const bool int8 = precision_ == KvPrecision::kInt8;
  for (const std::size_t vw : v_widths_) {
    if (vw == 0) {
      throw std::invalid_argument("BlockAllocator: zero v_width");
    }
    // kInt8: 1 byte per element plus the two per-row reconstruction
    // scales (K and V) the block metadata carries.
    row_bytes_ += int8 ? (k_width + vw) + 2 * sizeof(float)
                       : (k_width + vw) * sizeof(float);
  }
  // Planes start uninitialized: a row is always stored before anything
  // reads it (appends write at the cursor, gathers and CoW copies read
  // below it), so a plane's pages are first touched by their first write.
  const std::size_t rows = num_blocks * block_tokens;
  if (int8) {
    using PlaneI8 = tensor::Matrix<std::int8_t>;
    k8_planes_.reserve(v_widths_.size());
    v8_planes_.reserve(v_widths_.size());
    k_scales_.reserve(v_widths_.size());
    v_scales_.reserve(v_widths_.size());
    for (const std::size_t vw : v_widths_) {
      k8_planes_.push_back(PlaneI8::uninitialized(rows, k_width));
      v8_planes_.push_back(PlaneI8::uninitialized(rows, vw));
      k_scales_.emplace_back(rows, 1.0f);
      v_scales_.emplace_back(rows, 1.0f);
    }
  } else {
    k_planes_.reserve(v_widths_.size());
    v_planes_.reserve(v_widths_.size());
    for (const std::size_t vw : v_widths_) {
      k_planes_.push_back(tensor::MatrixF::uninitialized(rows, k_width));
      v_planes_.push_back(tensor::MatrixF::uninitialized(rows, vw));
    }
  }
  refs_.assign(num_blocks, 0);
  free_.reserve(num_blocks);
  for (std::size_t b = 0; b < num_blocks; ++b) {
    // LIFO pop order hands out block 0 first — allocation order is part
    // of the deterministic transcript (which request OOMs first).
    free_.push_back(static_cast<BlockId>(num_blocks - 1 - b));
  }
}

std::optional<BlockId> BlockAllocator::allocate() {
  if (free_.empty()) return std::nullopt;
  const BlockId b = free_.back();
  free_.pop_back();
  assert(refs_[b] == 0);
  refs_[b] = 1;
  return b;
}

void BlockAllocator::add_ref(BlockId block) {
  if (refs_.at(block) == 0) {
    throw std::logic_error("BlockAllocator::add_ref: block " +
                           std::to_string(block) + " is free");
  }
  ++refs_[block];
}

bool BlockAllocator::release(BlockId block) {
  if (refs_.at(block) == 0) {
    throw std::logic_error("BlockAllocator::release: block " +
                           std::to_string(block) + " is already free");
  }
  if (--refs_[block] > 0) return false;
  free_.push_back(block);
  return true;
}

namespace {
[[noreturn]] void throw_raw_row_on_int8(const char* fn) {
  throw std::logic_error(std::string("BlockAllocator::") + fn +
                         ": raw FP32 rows do not exist on a kInt8 pool "
                         "(use store_/load_ row IO)");
}
}  // namespace

std::span<float> BlockAllocator::k_row(std::size_t layer, BlockId block,
                                       std::size_t offset) {
  assert(refs_.at(block) > 0 && offset < block_tokens_);
  if (precision_ == KvPrecision::kInt8) throw_raw_row_on_int8("k_row");
  tensor::MatrixF& plane = k_planes_.at(layer);
  return plane.row(block * block_tokens_ + offset);
}

std::span<const float> BlockAllocator::k_row(std::size_t layer, BlockId block,
                                             std::size_t offset) const {
  assert(refs_.at(block) > 0 && offset < block_tokens_);
  if (precision_ == KvPrecision::kInt8) throw_raw_row_on_int8("k_row");
  const tensor::MatrixF& plane = k_planes_.at(layer);
  return plane.row(block * block_tokens_ + offset);
}

std::span<float> BlockAllocator::v_row(std::size_t layer, BlockId block,
                                       std::size_t offset) {
  assert(refs_.at(block) > 0 && offset < block_tokens_);
  if (precision_ == KvPrecision::kInt8) throw_raw_row_on_int8("v_row");
  tensor::MatrixF& plane = v_planes_.at(layer);
  return plane.row(block * block_tokens_ + offset);
}

std::span<const float> BlockAllocator::v_row(std::size_t layer, BlockId block,
                                             std::size_t offset) const {
  assert(refs_.at(block) > 0 && offset < block_tokens_);
  if (precision_ == KvPrecision::kInt8) throw_raw_row_on_int8("v_row");
  const tensor::MatrixF& plane = v_planes_.at(layer);
  return plane.row(block * block_tokens_ + offset);
}

void BlockAllocator::store_k_row(std::size_t layer, BlockId block,
                                 std::size_t offset,
                                 std::span<const float> src) {
  assert(refs_.at(block) > 0 && offset < block_tokens_ &&
         src.size() == k_width_);
  const std::size_t r = block * block_tokens_ + offset;
  if (precision_ == KvPrecision::kInt8) {
    quantize_row(src, k8_planes_.at(layer).row(r).data(),
                 k_scales_[layer][r]);
  } else {
    std::memcpy(k_planes_.at(layer).row(r).data(), src.data(),
                src.size() * sizeof(float));
  }
}

void BlockAllocator::store_v_row(std::size_t layer, BlockId block,
                                 std::size_t offset,
                                 std::span<const float> src) {
  assert(refs_.at(block) > 0 && offset < block_tokens_ &&
         src.size() == v_widths_.at(layer));
  const std::size_t r = block * block_tokens_ + offset;
  if (precision_ == KvPrecision::kInt8) {
    quantize_row(src, v8_planes_.at(layer).row(r).data(),
                 v_scales_[layer][r]);
  } else {
    std::memcpy(v_planes_.at(layer).row(r).data(), src.data(),
                src.size() * sizeof(float));
  }
}

void BlockAllocator::load_k_row(std::size_t layer, BlockId block,
                                std::size_t offset,
                                std::span<float> dst) const {
  assert(refs_.at(block) > 0 && offset < block_tokens_ &&
         dst.size() == k_width_);
  const std::size_t r = block * block_tokens_ + offset;
  if (precision_ == KvPrecision::kInt8) {
    const auto q = k8_planes_.at(layer).row(r);
    const float scale = k_scales_[layer][r];
    for (std::size_t c = 0; c < dst.size(); ++c) {
      dst[c] = static_cast<float>(q[c]) * scale;
    }
  } else {
    const auto s = k_planes_.at(layer).row(r);
    std::memcpy(dst.data(), s.data(), dst.size() * sizeof(float));
  }
}

void BlockAllocator::load_v_row(std::size_t layer, BlockId block,
                                std::size_t offset,
                                std::span<float> dst) const {
  assert(refs_.at(block) > 0 && offset < block_tokens_ &&
         dst.size() == v_widths_.at(layer));
  const std::size_t r = block * block_tokens_ + offset;
  if (precision_ == KvPrecision::kInt8) {
    const auto q = v8_planes_.at(layer).row(r);
    const float scale = v_scales_[layer][r];
    for (std::size_t c = 0; c < dst.size(); ++c) {
      dst[c] = static_cast<float>(q[c]) * scale;
    }
  } else {
    const auto s = v_planes_.at(layer).row(r);
    std::memcpy(dst.data(), s.data(), dst.size() * sizeof(float));
  }
}

float BlockAllocator::k_row_scale(std::size_t layer, BlockId block,
                                  std::size_t offset) const {
  if (precision_ != KvPrecision::kInt8) return 1.0f;
  return k_scales_.at(layer).at(block * block_tokens_ + offset);
}

float BlockAllocator::v_row_scale(std::size_t layer, BlockId block,
                                  std::size_t offset) const {
  if (precision_ != KvPrecision::kInt8) return 1.0f;
  return v_scales_.at(layer).at(block * block_tokens_ + offset);
}

void BlockAllocator::copy_rows(BlockId from, BlockId to, std::size_t rows) {
  assert(rows <= block_tokens_);
  if (precision_ == KvPrecision::kInt8) {
    // Verbatim int8 + scale copy — re-quantizing a reconstruction would
    // compound error and break the CoW-is-invisible contract.
    for (std::size_t l = 0; l < num_layers(); ++l) {
      const std::size_t fb = from * block_tokens_;
      const std::size_t tb = to * block_tokens_;
      for (std::size_t r = 0; r < rows; ++r) {
        const auto ks = k8_planes_[l].row(fb + r);
        const auto vs = v8_planes_[l].row(fb + r);
        std::memcpy(k8_planes_[l].row(tb + r).data(), ks.data(), ks.size());
        std::memcpy(v8_planes_[l].row(tb + r).data(), vs.data(), vs.size());
        k_scales_[l][tb + r] = k_scales_[l][fb + r];
        v_scales_[l][tb + r] = v_scales_[l][fb + r];
      }
    }
    return;
  }
  for (std::size_t l = 0; l < num_layers(); ++l) {
    for (std::size_t r = 0; r < rows; ++r) {
      const auto ks = k_row(l, from, r);
      const auto vs = v_row(l, from, r);
      std::memcpy(k_row(l, to, r).data(), ks.data(),
                  ks.size() * sizeof(float));
      std::memcpy(v_row(l, to, r).data(), vs.data(),
                  vs.size() * sizeof(float));
    }
  }
}

// ---------------------------------------------------------------------------
// PagedKVCache — thin per-layer forwarding views.

std::size_t PagedKVCache::capacity() const noexcept {
  return slot_->pool_->max_context();
}
std::size_t PagedKVCache::used() const noexcept { return slot_->used_[layer_]; }
std::size_t PagedKVCache::k_width() const noexcept {
  return slot_->pool_->allocator().k_width();
}
std::size_t PagedKVCache::v_width() const noexcept {
  return slot_->pool_->allocator().v_width(layer_);
}
KvPrecision PagedKVCache::precision() const noexcept {
  return slot_->pool_->allocator().precision();
}
void PagedKVCache::append(std::span<const float> k_row,
                          std::span<const float> v_row) {
  slot_->append(layer_, k_row, v_row);
}
tensor::MatrixF PagedKVCache::k_prefix() const {
  return slot_->k_prefix(layer_);
}
tensor::MatrixF PagedKVCache::v_prefix() const {
  return slot_->v_prefix(layer_);
}
void PagedKVCache::truncate(std::size_t n) noexcept {
  slot_->truncate(layer_, n);
}

// ---------------------------------------------------------------------------
// PagedKVSlot

bool PagedKVSlot::cow_block(std::size_t bi, std::size_t rows) {
  BlockAllocator& alloc = pool_->alloc_;
  const auto nb = alloc.allocate();
  if (!nb) return false;
  alloc.copy_rows(table_[bi], *nb, rows);
  pool_->release_block(table_[bi]);  // ref > 1 here, never frees
  table_[bi] = *nb;
  ++pool_->stats_.cow_splits;
  return true;
}

bool PagedKVSlot::prepare_append() {
  const std::size_t pos = tokens();
  if (pos >= pool_->max_context_) return true;  // caller's capacity stop
  if (pos < shared_rows_) return true;  // row resident in a shared block
  const std::size_t bt = pool_->alloc_.block_tokens();
  const std::size_t bi = pos / bt;
  const std::size_t off = pos % bt;
  if (bi == table_.size()) {
    const auto b = pool_->alloc_.allocate();
    if (!b) return false;
    table_.push_back(*b);
  } else if (pool_->alloc_.ref_count(table_[bi]) > 1) {
    // Another table aliases this block (a shared prefix about to
    // diverge, or a later arrival that seeded off our prompt): never
    // write a block with refcount > 1 — split it, preserving the rows
    // already decoded into it.
    if (!cow_block(bi, off)) return false;
  }
  // About to overwrite row `off`: any trie advertisement claiming more
  // rows of this block no longer describes its contents. Done here, in
  // the serial phase, so the appends' own invalidate calls find nothing
  // to erase (read-only scans).
  pool_->trie_.invalidate(table_[bi], off);
  return true;
}

void PagedKVSlot::append(std::size_t layer, std::span<const float> k_row,
                         std::span<const float> v_row) {
  BlockAllocator& alloc = pool_->alloc_;
  const std::size_t kw = alloc.k_width();
  const std::size_t vw = alloc.v_width(layer);
  const std::size_t pos = used_.at(layer);
  // Checks precede any write or cursor move: a rejected append must never
  // leave K one row longer than V (or half-written).
  if (pos >= pool_->max_context_) {
    throw std::length_error("PagedKVCache::append: cache is full (" +
                            std::to_string(pool_->max_context_) + " rows)");
  }
  if (k_row.size() != kw || v_row.size() != vw) {
    throw std::invalid_argument(
        "PagedKVCache::append: row width mismatch (k " +
        std::to_string(k_row.size()) + ", v " + std::to_string(v_row.size()) +
        ", cache k " + std::to_string(kw) + ", cache v " + std::to_string(vw) +
        ")");
  }
  if (pos < shared_rows_) {
    // The row is already resident in a seeded shared block, bit-identical
    // by the prefix_group contract — advance past it without writing
    // (the block may be aliased by other tables). The decode tick still
    // computed this position's math, so transcripts, launches and device
    // time are identical with sharing on or off; only memory changes.
    ++used_[layer];
    if (layer + 1 == alloc.num_layers()) register_completed_prefix(pos + 1);
    return;
  }
  const std::size_t bt = alloc.block_tokens();
  const std::size_t bi = pos / bt;
  const std::size_t off = pos % bt;
  if (bi == table_.size()) {
    // Fallback for direct users — the scheduler's prepare_append
    // pre-allocates, so the decode tick never takes this branch.
    const auto b = pool_->alloc_.allocate();
    if (!b) {
      throw std::length_error(
          "PagedKVCache::append: block pool exhausted (kv_cache_full)");
    }
    table_.push_back(*b);
  } else if (alloc.ref_count(table_[bi]) > 1) {
    if (!cow_block(bi, off)) {
      throw std::length_error(
          "PagedKVCache::append: block pool exhausted (kv_cache_full)");
    }
  }
  pool_->trie_.invalidate(table_[bi], off);  // no-op after prepare_append
  const BlockId b = table_[bi];
  // Precision-aware row write: a plain copy on fp32 pools, a
  // deterministic per-row quantization (scale recorded in the block
  // metadata) on int8 ones. Still a pure row write.
  alloc.store_k_row(layer, b, off, k_row);
  alloc.store_v_row(layer, b, off, v_row);
  ++used_[layer];
  if (layer + 1 == alloc.num_layers()) register_completed_prefix(pos + 1);
}

void PagedKVSlot::register_completed_prefix(std::size_t rows_done) {
  if (group_ == kNoPrefixGroup || !pool_->sharing_) return;
  const std::size_t n = prompt_.size();
  if (rows_done == 0 || rows_done > n) return;
  const std::size_t bt = pool_->alloc_.block_tokens();
  if (rows_done == n || rows_done % bt == 0) {
    // The block holding row rows_done-1 now carries its full share of
    // the prompt. Advertising is deferred to the next tick's flush.
    pending_.emplace_back(rows_done, table_[(rows_done - 1) / bt]);
  }
}

tensor::MatrixF PagedKVSlot::k_prefix(std::size_t layer) const {
  const BlockAllocator& alloc = pool_->alloc_;
  const std::size_t bt = alloc.block_tokens();
  const std::size_t used = used_.at(layer);
  auto out = tensor::MatrixF::uninitialized(used, alloc.k_width());
  for (std::size_t r = 0; r < used; ++r) {
    alloc.load_k_row(layer, table_[r / bt], r % bt, out.row(r));
  }
  return out;
}

tensor::MatrixF PagedKVSlot::v_prefix(std::size_t layer) const {
  const BlockAllocator& alloc = pool_->alloc_;
  const std::size_t bt = alloc.block_tokens();
  const std::size_t used = used_.at(layer);
  auto out = tensor::MatrixF::uninitialized(used, alloc.v_width(layer));
  for (std::size_t r = 0; r < used; ++r) {
    alloc.load_v_row(layer, table_[r / bt], r % bt, out.row(r));
  }
  return out;
}

void PagedKVSlot::truncate(std::size_t layer, std::size_t n) noexcept {
  if (n < used_[layer]) used_[layer] = n;
}

void PagedKVSlot::rollback(std::size_t n) {
  for (std::size_t l = 0; l < used_.size(); ++l) truncate(l, n);
  const std::size_t bt = pool_->alloc_.block_tokens();
  // ceil(n / bt) blocks hold rows [0, n): a rollback landing exactly ON
  // a block boundary keeps no part of the boundary block, so it frees —
  // keeping `n / bt + 1` here is the partial-block leak the regression
  // suite pins. Seeded shared blocks are floored in: their rows stay
  // resident (appends below shared_rows_ skip the write and rely on
  // them).
  const std::size_t keep = std::max(seeded_blocks_, (n + bt - 1) / bt);
  while (table_.size() > keep) {
    pool_->release_block(table_.back());
    table_.pop_back();
  }
  std::erase_if(pending_, [n](const auto& p) { return p.first > n; });
}

// ---------------------------------------------------------------------------
// PagedKVPool

namespace {
std::size_t resolve_num_blocks(std::size_t num_slots, std::size_t max_context,
                               const PagedKVOptions& opts) {
  if (opts.num_blocks != 0) return opts.num_blocks;
  const std::size_t bt = opts.block_tokens;
  if (bt == 0) return 0;  // BlockAllocator throws the real error
  return num_slots * ((max_context + bt - 1) / bt);
}
}  // namespace

PagedKVPool::PagedKVPool(std::size_t num_slots, std::size_t max_context,
                         std::size_t k_width,
                         const std::vector<std::size_t>& v_widths,
                         PagedKVOptions opts)
    : alloc_(resolve_num_blocks(num_slots, max_context, opts),
             opts.block_tokens, k_width, v_widths, opts.precision),
      trie_(alloc_.block_tokens()),
      max_context_(max_context),
      // Whole-context blocks cannot share a proper prefix without copying
      // everything, so sharing is meaningful only when a block is smaller
      // than the context.
      sharing_(opts.enable_prefix_sharing &&
               alloc_.block_tokens() < max_context) {
  if (num_slots == 0) {
    throw std::invalid_argument("PagedKVPool: num_slots must be nonzero");
  }
  slots_.resize(num_slots);
  free_slots_.reserve(num_slots);
  for (std::size_t s = 0; s < num_slots; ++s) {
    PagedKVSlot& sl = slots_[s];
    sl.pool_ = this;
    sl.used_.assign(v_widths.size(), 0);
    sl.views_.reserve(v_widths.size());
    for (std::size_t l = 0; l < v_widths.size(); ++l) {
      sl.views_.push_back(PagedKVCache(&sl, l));
    }
    free_slots_.push_back(num_slots - 1 - s);  // pop order: slot 0 first
  }
}

std::size_t PagedKVPool::acquire() {
  if (free_slots_.empty()) {
    throw std::runtime_error("PagedKVPool::acquire: no free slot");
  }
  const std::size_t s = free_slots_.back();
  free_slots_.pop_back();
  PagedKVSlot& sl = slots_[s];
  assert(sl.table_.empty() && sl.pending_.empty());
  for (auto& u : sl.used_) u = 0;
  sl.shared_rows_ = 0;
  sl.seeded_blocks_ = 0;
  sl.group_ = kNoPrefixGroup;
  sl.prompt_.clear();
  sl.in_use_ = true;
  return s;
}

std::size_t PagedKVPool::acquire(std::uint64_t group,
                                 std::span<const std::int32_t> prompt) {
  const std::size_t s = acquire();
  if (!sharing_ || group == kNoPrefixGroup || prompt.empty()) return s;
  PagedKVSlot& sl = slots_[s];
  sl.group_ = group;
  sl.prompt_.assign(prompt.begin(), prompt.end());
  if (prompt.size() < 2) return s;  // nothing shareable below the cap
  // Cap at prompt.size()-1: the last prompt position always decodes
  // locally — its hidden state feeds the first select() — which also
  // guarantees a shared-everything request still makes its first append
  // inside (or right after) the aliased region, CoW-splitting naturally.
  const PrefixTrie::Match m = trie_.lookup(group, prompt, prompt.size() - 1);
  if (m.tokens == 0) return s;
  for (const BlockId b : m.blocks) {
    alloc_.add_ref(b);
    sl.table_.push_back(b);
  }
  // Cursors stay at ZERO: the decode tick recomputes every shared
  // position's math (identical launches and device time with sharing on
  // or off — the sharing-differential's bit-identical-metrics contract);
  // appends below shared_rows_ just skip the write. Sharing buys memory,
  // not ticks.
  sl.shared_rows_ = m.tokens;
  sl.seeded_blocks_ = sl.table_.size();
  ++stats_.prefix_hits;
  stats_.prefix_shared_tokens += m.tokens;
  return s;
}

void PagedKVPool::release(std::size_t slot) {
  if (slot >= slots_.size() || !slots_[slot].in_use_) {
    throw std::invalid_argument("PagedKVPool::release: slot " +
                                std::to_string(slot) +
                                " is not an acquired slot");
  }
  PagedKVSlot& sl = slots_[slot];
  // Preemption, retry-recompute, cancel and normal retirement all end
  // here: REFCOUNT DECREMENT per table entry, not slot truncation. A
  // block a later request still aliases survives; the rest free (and
  // drop out of the trie), so a drained pool is back to zero used bytes.
  for (const BlockId b : sl.table_) release_block(b);
  sl.table_.clear();
  sl.pending_.clear();
  sl.prompt_.clear();
  sl.group_ = kNoPrefixGroup;
  sl.shared_rows_ = 0;
  sl.seeded_blocks_ = 0;
  for (auto& u : sl.used_) u = 0;
  sl.in_use_ = false;
  free_slots_.push_back(slot);
}

void PagedKVPool::release_block(BlockId b) {
  if (alloc_.release(b)) trie_.erase_block(b);
}

void PagedKVPool::flush_registrations() {
  if (!sharing_) return;
  for (PagedKVSlot& sl : slots_) {  // slot order: deterministic
    if (!sl.in_use_) continue;
    for (const auto& [prefix_len, block] : sl.pending_) {
      trie_.insert(sl.group_,
                   std::span<const std::int32_t>(sl.prompt_.data(), prefix_len),
                   block);
    }
    sl.pending_.clear();
  }
}

}  // namespace et::core
