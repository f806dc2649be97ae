// The paged KV subsystem (core::BlockAllocator + core::PrefixTrie +
// core::PagedKVPool; docs/serving.md "Paged KV and prefix sharing"),
// pinned at three levels:
//
//   1. allocator/trie unit semantics — refcount lifecycle, LIFO
//      determinism, first-wins registration, stale-advertisement
//      invalidation;
//   2. a seeded randomized property/fuzz sweep over interleaved
//      acquire / append / share / CoW-split / rollback / release
//      sequences, asserting the block-level invariants after EVERY op:
//      refcount conservation (refs == table references), two-table ⇒
//      refcount ≥ 2, free-list ∩ live = ∅, byte accounting == Σ resident
//      blocks — plus a shadow content model proving gathers never read a
//      row CoW should have protected;
//   3. oracles — gathers across block sizes {1, 3, 16} and the
//      dense/condensed/folded V-plane widths against the rows appended,
//      and full decode transcripts through the batched scheduler
//      (prompts, sharing on/off, OOM-as-kv_cache_full, fault storms at a
//      block boundary) bit-identical to the sequential path.
//
// Content checks are BIT-exact: a shared prefix row is only sound if the
// producer's bytes equal what the consumer would have written, so any
// aliasing bug shows up as a flipped float, not a tolerance miss.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <set>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/block_allocator.hpp"
#include "core/prefix_trie.hpp"
#include "differential.hpp"

namespace {

using et::core::BlockAllocator;
using et::core::BlockId;
using et::core::kNoPrefixGroup;
using et::core::PagedKVCache;
using et::core::PagedKVOptions;
using et::core::PagedKVPool;
using et::core::PagedKVSlot;
using et::core::PrefixTrie;
using et::diff::splitmix64;
using et::diff::unit_float;

constexpr std::size_t kKWidth = 8;

// ---------------------------------------------------------------------------
// BlockAllocator: refcount lifecycle and accounting.
// ---------------------------------------------------------------------------

TEST(BlockAllocator, ValidatesGeometry) {
  const std::vector<std::size_t> vw{4};
  EXPECT_THROW(BlockAllocator(0, 2, kKWidth, vw), std::invalid_argument);
  EXPECT_THROW(BlockAllocator(4, 0, kKWidth, vw), std::invalid_argument);
  EXPECT_THROW(BlockAllocator(4, 2, 0, vw), std::invalid_argument);
  EXPECT_THROW(BlockAllocator(4, 2, kKWidth, {}), std::invalid_argument);
  EXPECT_THROW(BlockAllocator(4, 2, kKWidth, {4, 0}), std::invalid_argument);
}

TEST(BlockAllocator, AllocatesLifoBlockZeroFirstAndExhaustsToNullopt) {
  BlockAllocator alloc(3, 2, kKWidth, {4, 6});
  EXPECT_EQ(alloc.allocate(), BlockId{0});
  EXPECT_EQ(alloc.allocate(), BlockId{1});
  EXPECT_EQ(alloc.allocate(), BlockId{2});
  EXPECT_EQ(alloc.allocate(), std::nullopt);  // typed OOM, not a throw
  EXPECT_TRUE(alloc.release(1));
  EXPECT_EQ(alloc.allocate(), BlockId{1});  // LIFO reuse
}

TEST(BlockAllocator, RefcountLifecycleAndMisuseThrows) {
  BlockAllocator alloc(2, 2, kKWidth, {4});
  const BlockId b = *alloc.allocate();
  EXPECT_EQ(alloc.ref_count(b), 1u);
  alloc.add_ref(b);
  EXPECT_EQ(alloc.ref_count(b), 2u);
  EXPECT_FALSE(alloc.release(b));  // still referenced
  EXPECT_TRUE(alloc.release(b));   // now free
  EXPECT_EQ(alloc.ref_count(b), 0u);
  EXPECT_THROW(alloc.release(b), std::logic_error);
  EXPECT_THROW(alloc.add_ref(b), std::logic_error);
}

TEST(BlockAllocator, ByteAccountingMatchesTheDocumentedFormula) {
  const std::vector<std::size_t> vw{16, 4, 8};  // dense/condensed/folded-ish
  BlockAllocator alloc(5, 3, kKWidth, vw);
  std::size_t row_bytes = 0;
  for (const std::size_t w : vw) row_bytes += (kKWidth + w) * sizeof(float);
  EXPECT_EQ(alloc.bytes_per_block(), 3 * row_bytes);
  EXPECT_EQ(alloc.memory_bytes(), 5 * 3 * row_bytes);
  EXPECT_EQ(alloc.resident_bytes(), 0u);
  (void)alloc.allocate();
  (void)alloc.allocate();
  EXPECT_EQ(alloc.resident_bytes(), 2 * 3 * row_bytes);
  EXPECT_EQ(alloc.free_blocks() + alloc.resident_blocks(), alloc.num_blocks());
}

// ---------------------------------------------------------------------------
// PrefixTrie: registration, lookup, invalidation.
// ---------------------------------------------------------------------------

std::vector<std::int32_t> tokens(std::initializer_list<int> t) {
  return std::vector<std::int32_t>(t.begin(), t.end());
}

TEST(PrefixTrie, LookupWalksFullChunksThenPartialLeaf) {
  PrefixTrie trie(3);
  const auto prompt = tokens({1, 2, 3, 4, 5, 6, 7, 8});
  trie.insert(7, std::span(prompt).first(3), 10);  // block 10: rows 0-2
  trie.insert(7, std::span(prompt).first(6), 11);  // block 11: rows 3-5
  trie.insert(7, std::span(prompt).first(8), 12);  // block 12: rows 6-7 partial
  EXPECT_EQ(trie.size(), 3u);

  const auto m = trie.lookup(7, prompt, 8);
  EXPECT_EQ(m.tokens, 8u);
  EXPECT_EQ(m.blocks, (std::vector<BlockId>{10, 11, 12}));

  // A cap mid-block takes that block partially and stops the walk.
  const auto capped = trie.lookup(7, prompt, 4);
  EXPECT_EQ(capped.tokens, 4u);
  EXPECT_EQ(capped.blocks, (std::vector<BlockId>{10, 11}));

  // Divergence in the partial leaf shares only the agreeing tokens.
  const auto div = tokens({1, 2, 3, 4, 5, 6, 7, 99});
  const auto pm = trie.lookup(7, div, 8);
  EXPECT_EQ(pm.tokens, 7u);
  EXPECT_EQ(pm.blocks, (std::vector<BlockId>{10, 11, 12}));

  // Divergence inside a full chunk stops before it.
  const auto early = tokens({1, 2, 3, 9, 9, 9});
  EXPECT_EQ(trie.lookup(7, early, 6).tokens, 3u);
}

TEST(PrefixTrie, GroupsAreDisjointAndNoGroupNeverMatches) {
  PrefixTrie trie(2);
  const auto prompt = tokens({5, 6, 7, 8});
  trie.insert(1, std::span(prompt).first(2), 3);
  EXPECT_EQ(trie.lookup(1, prompt, 4).tokens, 2u);
  EXPECT_EQ(trie.lookup(2, prompt, 4).tokens, 0u);
  EXPECT_EQ(trie.lookup(kNoPrefixGroup, prompt, 4).tokens, 0u);
  trie.insert(kNoPrefixGroup, std::span(prompt).first(2), 4);  // ignored
  EXPECT_EQ(trie.size(), 1u);
}

TEST(PrefixTrie, FirstRegistrationWinsAndMissingParentSkips) {
  PrefixTrie trie(2);
  const auto prompt = tokens({1, 2, 3, 4, 5});
  trie.insert(1, std::span(prompt).first(2), 10);
  trie.insert(1, std::span(prompt).first(2), 20);  // duplicate chunk: kept 10
  EXPECT_EQ(trie.lookup(1, prompt, 2).blocks, (std::vector<BlockId>{10}));
  // rows 2-3 with no registered parent for rows 0-1 of a DIFFERENT prompt.
  const auto other = tokens({9, 9, 3, 4});
  trie.insert(1, other, 30);  // parent chunk {9,9} missing — skipped
  EXPECT_EQ(trie.size(), 1u);
  // One partial leaf per parent, first wins: a second, diverging partial
  // under the same {1,2} parent is skipped.
  trie.insert(1, std::span(prompt).first(3), 40);
  const auto diverge = tokens({1, 2, 9});
  trie.insert(1, diverge, 50);
  EXPECT_EQ(trie.size(), 2u);
  EXPECT_EQ(trie.lookup(1, prompt, 5).blocks, (std::vector<BlockId>{10, 40}));
  EXPECT_EQ(trie.lookup(1, diverge, 3).tokens, 2u);  // partial is NOT {9}
}

TEST(PrefixTrie, InvalidateErasesStaleAdvertisementsAndSubtrees) {
  PrefixTrie trie(2);
  const auto prompt = tokens({1, 2, 3, 4, 5, 6});
  trie.insert(1, std::span(prompt).first(2), 10);
  trie.insert(1, std::span(prompt).first(4), 11);
  trie.insert(1, std::span(prompt).first(6), 12);
  // A writer overwrote block 10 from row 1 on: its node (2 rows > 1) is
  // stale, and the children that extended it are unreachable prefixes.
  trie.invalidate(10, 1);
  EXPECT_EQ(trie.size(), 0u);

  trie.insert(1, std::span(prompt).first(2), 10);
  trie.insert(1, std::span(prompt).first(3), 13);  // partial: 1 row of blk 13
  // Writing row 1 of block 13 leaves its 1-row advertisement valid.
  trie.invalidate(13, 1);
  EXPECT_EQ(trie.size(), 2u);
  trie.erase_block(13);
  EXPECT_EQ(trie.size(), 1u);
}

// ---------------------------------------------------------------------------
// PagedKVPool slot mechanics: append contract, sharing, CoW, rollback.
// ---------------------------------------------------------------------------

/// Deterministic row content, shared by writers and the shadow oracle.
/// Prompt rows are a pure function of (group, token, position) — the
/// bit-identical-embed contract that makes aliasing sound; generated
/// rows salt with a per-tenure uid so two slots NEVER agree by accident.
void fill_row(std::vector<float>& row, std::uint64_t key, std::size_t layer) {
  for (std::size_t c = 0; c < row.size(); ++c) {
    row[c] = unit_float(splitmix64(key ^ (layer << 48) ^ (c + 1)));
  }
}

std::uint64_t prompt_key(std::uint64_t group,
                         const std::vector<std::int32_t>& prompt,
                         std::size_t pos) {
  return splitmix64(group ^ (static_cast<std::uint64_t>(prompt[pos]) << 20) ^
                    (pos << 4) ^ 0xabcdefull);
}

std::uint64_t gen_key(std::uint64_t uid, std::size_t pos) {
  return splitmix64(uid ^ (pos << 4) ^ 0x777ull);
}

/// Append one logical position across every layer of `slot`, mirroring
/// the scheduler's serial-prepare + append protocol. Returns false on
/// block exhaustion (the slot was left untouched).
bool append_position(PagedKVPool& pool, std::size_t s, std::uint64_t key) {
  PagedKVSlot& slot = pool.slot(s);
  if (!slot.prepare_append()) return false;
  const BlockAllocator& alloc = pool.allocator();
  std::vector<float> k(alloc.k_width());
  for (std::size_t l = 0; l < alloc.num_layers(); ++l) {
    std::vector<float> v(alloc.v_width(l));
    fill_row(k, key, 1000 + l);
    fill_row(v, key, 2000 + l);
    slot.append(l, k, v);
  }
  return true;
}

TEST(PagedKVPool, AppendContractMatchesContiguousCache) {
  PagedKVPool pool(1, 4, kKWidth, {4}, PagedKVOptions{.block_tokens = 2});
  const std::size_t s = pool.acquire();
  PagedKVCache& cache = pool.caches(s)[0];
  std::vector<float> k(kKWidth, 1.0f), v(4, 2.0f), bad(3, 0.0f);
  EXPECT_THROW(cache.append(k, bad), std::invalid_argument);
  for (int i = 0; i < 4; ++i) cache.append(k, v);
  EXPECT_TRUE(cache.full());
  EXPECT_THROW(cache.append(k, v), std::length_error);
  EXPECT_EQ(cache.used(), 4u);  // checks precede writes and cursor moves
  pool.release(s);
  EXPECT_EQ(pool.used_bytes(), 0u);
  EXPECT_THROW(pool.release(s), std::invalid_argument);
}

TEST(PagedKVPool, ContiguousModeMatchesKVCachePoolFootprintAndDisablesSharing) {
  // One whole-context block per slot (GenerationSession's layout): the
  // footprint of one max_context-row band per slot per layer, and no
  // sharing — a whole-context block has no proper prefix to alias.
  const std::vector<std::size_t> vw{16, 4, 8};
  PagedKVPool paged(3, 8, kKWidth, vw,
                    PagedKVOptions{.block_tokens = 8,
                                   .enable_prefix_sharing = true});
  EXPECT_EQ(paged.block_tokens(), 8u);
  EXPECT_EQ(paged.allocator().num_blocks(), 3u);
  EXPECT_FALSE(paged.sharing_enabled());
  std::size_t band_bytes = 0;
  for (const std::size_t w : vw) {
    band_bytes += 8 * (kKWidth + w) * sizeof(float);
  }
  EXPECT_EQ(paged.memory_bytes(), 3 * band_bytes);
}

TEST(PagedKVPool, ZeroBlockTokensIsRejected) {
  // A zero block size is a configuration error whether or not num_blocks
  // is given (and the default block count never divides by it).
  EXPECT_THROW(
      PagedKVPool(1, 8, kKWidth, {4}, PagedKVOptions{.block_tokens = 0}),
      std::invalid_argument);
  EXPECT_THROW(PagedKVPool(1, 8, kKWidth, {4},
                           PagedKVOptions{.block_tokens = 0, .num_blocks = 4}),
               std::invalid_argument);
}

TEST(PagedKVCache, RejectedAppendLeavesBothPlanesAndCursorUntouched) {
  // Regression: every validation must precede the first write, or a
  // rejected append leaves K one row longer than V (or a row half-set).
  // One-row blocks, so a rejected append that allocated first would also
  // show up as a leaked block.
  PagedKVPool pool(1, 2, 3, {3}, PagedKVOptions{.block_tokens = 1});
  PagedKVCache& cache = pool.caches(pool.acquire())[0];
  const float k1[] = {1, 2, 3};
  const float v1[] = {4, 5, 6};
  const float narrow[] = {7, 8};
  cache.append(k1, v1);
  const std::size_t bytes = pool.used_bytes();

  EXPECT_THROW(cache.append(narrow, v1), std::invalid_argument);
  EXPECT_THROW(cache.append(k1, narrow), std::invalid_argument);
  EXPECT_EQ(cache.used(), 1u);
  EXPECT_EQ(pool.used_bytes(), bytes);
  const auto k = cache.k_prefix();
  const auto v = cache.v_prefix();
  ASSERT_EQ(k.rows(), 1u);
  for (std::size_t c = 0; c < 3; ++c) {
    EXPECT_EQ(k(0, c), k1[c]);
    EXPECT_EQ(v(0, c), v1[c]);
  }

  // The capacity check fires before the width check touches anything.
  cache.append(v1, k1);
  EXPECT_THROW(cache.append(k1, narrow), std::length_error);
  EXPECT_EQ(cache.used(), 2u);
  EXPECT_EQ(cache.k_prefix()(1, 0), 4.0f);
  EXPECT_EQ(cache.v_prefix()(1, 0), 1.0f);
}

TEST(PagedKVCache, TruncateRollsBackTheCursorAndPastUsedIsANoOp) {
  PagedKVPool pool(1, 4, 2, {2}, PagedKVOptions{.block_tokens = 4});
  PagedKVCache& cache = pool.caches(pool.acquire())[0];
  const float r[] = {1, 2};
  cache.append(r, r);
  cache.append(r, r);
  cache.truncate(1);
  EXPECT_EQ(cache.used(), 1u);
  cache.truncate(3);  // beyond used: no-op
  EXPECT_EQ(cache.used(), 1u);
}

TEST(PagedKVPool, ReacquiredSlotStartsEmptyAndReleaseIsValidated) {
  PagedKVPool pool(2, 4, 3, {3, 3, 3}, PagedKVOptions{.block_tokens = 2});
  EXPECT_EQ(pool.num_slots(), 2u);
  EXPECT_EQ(pool.free_slots(), 2u);

  const std::size_t a = pool.acquire();
  const std::size_t b = pool.acquire();
  EXPECT_EQ(a, 0u);
  EXPECT_EQ(b, 1u);
  EXPECT_FALSE(pool.has_free());
  EXPECT_THROW((void)pool.acquire(), std::runtime_error);
  ASSERT_EQ(pool.caches(a).size(), 3u);

  const float r[] = {1, 2, 3};
  pool.caches(a)[0].append(r, r);
  pool.release(a);
  EXPECT_THROW(pool.release(a), std::invalid_argument);
  EXPECT_THROW(pool.release(99), std::invalid_argument);

  // Reacquiring hands back empty caches — stale context must never leak
  // between sequences.
  const std::size_t again = pool.acquire();
  EXPECT_EQ(again, a);
  EXPECT_EQ(pool.caches(again)[0].used(), 0u);
  EXPECT_EQ(pool.caches(again)[0].k_prefix().rows(), 0u);
  EXPECT_TRUE(pool.slot(again).table().empty());
  EXPECT_EQ(pool.used_bytes(), 0u);
}

TEST(PagedKVPool, PrefixSharingAliasesBlocksAndCountsBytesOnce) {
  PagedKVPool pool(3, 12, kKWidth, {4, 6},
                   PagedKVOptions{.block_tokens = 3});
  std::vector<std::int32_t> prompt{1, 2, 3, 4, 5, 6, 7, 8};
  const std::size_t a = pool.acquire(9, prompt);
  EXPECT_EQ(pool.slot(a).shared_rows(), 0u);  // empty trie: nothing to alias
  for (std::size_t p = 0; p < prompt.size(); ++p) {
    ASSERT_TRUE(append_position(pool, a, prompt_key(9, prompt, p)));
  }
  pool.flush_registrations();
  EXPECT_EQ(pool.trie().size(), 3u);  // rows 0-2, 3-5, 6-7(partial)

  const std::size_t bytes_a = pool.used_bytes();
  const std::size_t b = pool.acquire(9, prompt);
  // Cap at n-1 = 7: full blocks 0,1 plus one row of the partial block.
  EXPECT_EQ(pool.slot(b).shared_rows(), 7u);
  EXPECT_EQ(pool.slot(b).table().size(), 3u);
  EXPECT_EQ(pool.used_bytes(), bytes_a);  // aliased blocks count ONCE
  EXPECT_EQ(pool.stats().prefix_hits, 1u);
  EXPECT_EQ(pool.stats().prefix_shared_tokens, 7u);
  for (const BlockId blk : pool.slot(b).table()) {
    EXPECT_GE(pool.allocator().ref_count(blk), 2u);
  }

  // Decode b through the shared region: appends skip the write (cursor
  // only) until position 7, whose block is aliased — CoW splits it.
  for (std::size_t p = 0; p < prompt.size(); ++p) {
    ASSERT_TRUE(append_position(pool, b, prompt_key(9, prompt, p)));
  }
  EXPECT_EQ(pool.stats().cow_splits, 1u);
  EXPECT_NE(pool.slot(a).table()[2], pool.slot(b).table()[2]);
  EXPECT_EQ(pool.slot(a).table()[0], pool.slot(b).table()[0]);

  // Both gathers must see the full, correct prompt — bit-exact.
  for (const std::size_t s : {a, b}) {
    for (std::size_t l = 0; l < 2; ++l) {
      const auto kp = pool.slot(s).k_prefix(l);
      ASSERT_EQ(kp.rows(), prompt.size());
      for (std::size_t p = 0; p < prompt.size(); ++p) {
        std::vector<float> want(kKWidth);
        fill_row(want, prompt_key(9, prompt, p), 1000 + l);
        for (std::size_t c = 0; c < kKWidth; ++c) {
          ASSERT_EQ(kp(p, c), want[c]) << "slot " << s << " row " << p;
        }
      }
    }
  }

  // Releasing the producer keeps the still-aliased blocks alive; the
  // drain invariant holds once every reference is gone.
  pool.release(a);
  EXPECT_GT(pool.used_bytes(), 0u);
  pool.release(b);
  EXPECT_EQ(pool.used_bytes(), 0u);
  EXPECT_EQ(pool.trie().size(), 0u);  // non-owning: freed ⇒ un-advertised
}

TEST(PagedKVPool, RollbackAtBlockBoundaryReleasesThePartialBlock) {
  PagedKVPool pool(1, 12, kKWidth, {4},
                   PagedKVOptions{.block_tokens = 4});
  const std::size_t s = pool.acquire();
  for (std::size_t p = 0; p < 6; ++p) {
    ASSERT_TRUE(append_position(pool, s, gen_key(1, p)));
  }
  ASSERT_EQ(pool.slot(s).table().size(), 2u);
  const std::size_t per_block = pool.allocator().bytes_per_block();

  // Mid-block rollback keeps ceil(5/4) = 2 blocks.
  pool.slot(s).rollback(5);
  EXPECT_EQ(pool.slot(s).table().size(), 2u);
  // EXACTLY on the boundary: rows [0,4) need one block — the regression
  // this suite pins is keeping (and leaking) the boundary block here.
  pool.slot(s).rollback(4);
  EXPECT_EQ(pool.slot(s).table().size(), 1u);
  EXPECT_EQ(pool.used_bytes(), per_block);
  EXPECT_EQ(pool.slot(s).tokens(), 4u);

  // Refill after the rollback: content lands in a fresh block and the
  // gather reflects the new frontier.
  ASSERT_TRUE(append_position(pool, s, gen_key(2, 4)));
  EXPECT_EQ(pool.slot(s).table().size(), 2u);
  const auto kp = pool.slot(s).k_prefix(0);
  std::vector<float> want(kKWidth);
  fill_row(want, gen_key(2, 4), 1000);
  for (std::size_t c = 0; c < kKWidth; ++c) EXPECT_EQ(kp(4, c), want[c]);

  pool.slot(s).rollback(0);
  EXPECT_EQ(pool.used_bytes(), 0u);
  pool.release(s);
}

TEST(PagedKVPool, RollbackNeverTrimsSeededSharedBlocks) {
  PagedKVPool pool(2, 8, kKWidth, {4}, PagedKVOptions{.block_tokens = 2});
  std::vector<std::int32_t> prompt{1, 2, 3, 4, 5, 6};
  const std::size_t a = pool.acquire(3, prompt);
  for (std::size_t p = 0; p < prompt.size(); ++p) {
    ASSERT_TRUE(append_position(pool, a, prompt_key(3, prompt, p)));
  }
  pool.flush_registrations();
  const std::size_t b = pool.acquire(3, prompt);
  ASSERT_EQ(pool.slot(b).shared_rows(), 5u);
  ASSERT_EQ(pool.slot(b).table().size(), 3u);
  // A rollback to zero (fault storm during prefill) must keep the seeded
  // blocks: later skip-appends rely on their resident rows.
  pool.slot(b).rollback(0);
  EXPECT_EQ(pool.slot(b).table().size(), 3u);
  EXPECT_EQ(pool.slot(b).tokens(), 0u);
  for (std::size_t p = 0; p < prompt.size(); ++p) {
    ASSERT_TRUE(append_position(pool, b, prompt_key(3, prompt, p)));
  }
  const auto kp = pool.slot(b).k_prefix(0);
  for (std::size_t p = 0; p < prompt.size(); ++p) {
    std::vector<float> want(kKWidth);
    fill_row(want, prompt_key(3, prompt, p), 1000);
    for (std::size_t c = 0; c < kKWidth; ++c) ASSERT_EQ(kp(p, c), want[c]);
  }
  pool.release(a);
  pool.release(b);
  EXPECT_EQ(pool.used_bytes(), 0u);
}

// ---------------------------------------------------------------------------
// Gather oracle: paged k/v_prefix == the rows appended, across block sizes
// and the dense/condensed/folded V-plane widths.
// ---------------------------------------------------------------------------

TEST(PagedGatherOracle, PrefixGathersMatchContiguousAcrossBlockSizes) {
  const std::vector<std::size_t> vw{16, 4, 8};  // dense/condensed/folded-ish
  constexpr std::size_t kCtx = 11;
  for (const std::size_t bt : {std::size_t{1}, std::size_t{3},
                               std::size_t{16}}) {
    SCOPED_TRACE("block_tokens=" + std::to_string(bt));
    PagedKVPool pool(2, kCtx, kKWidth, vw, PagedKVOptions{.block_tokens = bt});
    const std::size_t s = pool.acquire();
    for (std::size_t p = 0; p < kCtx; ++p) {
      PagedKVSlot& slot = pool.slot(s);
      ASSERT_TRUE(slot.prepare_append());
      std::vector<float> k(kKWidth);
      for (std::size_t l = 0; l < vw.size(); ++l) {
        std::vector<float> v(vw[l]);
        fill_row(k, gen_key(7, p), 1000 + l);
        fill_row(v, gen_key(7, p), 2000 + l);
        slot.append(l, k, v);
      }
    }
    for (std::size_t l = 0; l < vw.size(); ++l) {
      const auto pk = pool.slot(s).k_prefix(l);
      const auto pv = pool.slot(s).v_prefix(l);
      ASSERT_EQ(pk.rows(), kCtx);
      ASSERT_EQ(pv.rows(), kCtx);
      ASSERT_EQ(pv.cols(), vw[l]);
      std::vector<float> want_k(kKWidth), want_v(vw[l]);
      for (std::size_t r = 0; r < kCtx; ++r) {
        fill_row(want_k, gen_key(7, r), 1000 + l);
        fill_row(want_v, gen_key(7, r), 2000 + l);
        for (std::size_t c = 0; c < kKWidth; ++c) {
          ASSERT_EQ(pk(r, c), want_k[c]) << "layer " << l << " row " << r;
        }
        for (std::size_t c = 0; c < vw[l]; ++c) {
          ASSERT_EQ(pv(r, c), want_v[c]) << "layer " << l << " row " << r;
        }
      }
    }
    pool.release(s);
  }
}

// ---------------------------------------------------------------------------
// Property/fuzz sweep: interleaved acquire/append/share/CoW/rollback/
// release with every invariant checked after every op.
// ---------------------------------------------------------------------------

struct ShadowSlot {
  bool live = false;
  std::uint64_t group = kNoPrefixGroup;
  std::vector<std::int32_t> prompt;
  std::uint64_t uid = 0;          // salts generated (post-prompt) rows
  std::size_t rows = 0;           // expected cursor
};

class PagedFuzz {
 public:
  PagedFuzz(std::uint64_t seed, PagedKVOptions opts)
      : pool_(kSlots, kCtx, kKWidth, {6, 3}, opts), rng_(seed) {
    shadows_.resize(kSlots);
  }

  void step() {
    switch (next() % 6) {
      case 0: acquire(); break;
      case 1: acquire(); break;  // double weight: keep slots occupied
      case 2: append(); break;
      case 3: append(); break;
      case 4: rollback(); break;
      case 5: release(); break;
    }
    pool_.flush_registrations();  // the scheduler's serial cadence
    check_invariants();
  }

  const PagedKVPool& pool() const { return pool_; }

 private:
  static constexpr std::size_t kSlots = 4;
  static constexpr std::size_t kCtx = 10;

  std::uint64_t next() { return state_ = splitmix64(state_ + rng_); }

  /// Shared-group prompts draw from 2 groups × 2 tails over a common
  /// 5-token head, so lookups hit full-chunk, partial-leaf and divergent
  /// cases; a third of acquisitions opt out of sharing entirely.
  void acquire() {
    if (!pool_.has_free()) return;
    const std::uint64_t pick = next();
    std::uint64_t group = kNoPrefixGroup;
    std::vector<std::int32_t> prompt;
    if (pick % 3 != 0) {
      group = 1 + (pick >> 8) % 2;
      const std::int32_t tail = static_cast<std::int32_t>((pick >> 16) % 2);
      prompt = {10, 11, 12, 13, 14, 20 + tail, 30 + tail};
    }
    const std::size_t s = pool_.acquire(group, prompt);
    ShadowSlot& sh = shadows_[s];
    sh.live = true;
    sh.group = group;
    sh.prompt = prompt;
    sh.uid = next();
    sh.rows = 0;
    // Seeded rows are the producer's bytes — which the shadow predicts
    // identically for prompt positions, so no shadow state is needed:
    // expected content is always derivable from (group, prompt, pos).
  }

  void append() {
    const std::size_t s = pick_live();
    if (s == kSlots) return;
    ShadowSlot& sh = shadows_[s];
    if (sh.rows >= kCtx) return;
    const std::uint64_t key = row_key(sh, sh.rows);
    if (!append_position(pool_, s, key)) {
      // Block exhaustion: the scheduler retires kv_cache_full — release.
      pool_.release(s);
      sh.live = false;
      return;
    }
    ++sh.rows;
  }

  void rollback() {
    const std::size_t s = pick_live();
    if (s == kSlots) return;
    ShadowSlot& sh = shadows_[s];
    const std::size_t n = sh.rows == 0 ? 0 : next() % (sh.rows + 1);
    pool_.slot(s).rollback(n);
    sh.rows = n;
  }

  void release() {
    const std::size_t s = pick_live();
    if (s == kSlots) return;
    pool_.release(s);
    shadows_[s].live = false;
  }

  std::size_t pick_live() {
    std::vector<std::size_t> live;
    for (std::size_t s = 0; s < kSlots; ++s) {
      if (shadows_[s].live) live.push_back(s);
    }
    if (live.empty()) return kSlots;
    return live[next() % live.size()];
  }

  std::uint64_t row_key(const ShadowSlot& sh, std::size_t pos) const {
    if (sh.group != kNoPrefixGroup && pos < sh.prompt.size()) {
      return prompt_key(sh.group, sh.prompt, pos);
    }
    return gen_key(sh.uid, pos);
  }

  void check_invariants() {
    const BlockAllocator& alloc = pool_.allocator();
    // Refcount conservation: refs(b) == #table references, exactly — the
    // trie holds none, so two tables ⇒ refcount ≥ 2 follows.
    std::map<BlockId, std::size_t> table_refs;
    for (std::size_t s = 0; s < kSlots; ++s) {
      for (const BlockId b : pool_.slot(s).table()) ++table_refs[b];
    }
    std::size_t resident = 0;
    for (BlockId b = 0; b < alloc.num_blocks(); ++b) {
      const auto it = table_refs.find(b);
      ASSERT_EQ(alloc.ref_count(b), it == table_refs.end() ? 0u : it->second)
          << "block " << b;
      resident += alloc.ref_count(b) > 0 ? 1 : 0;
    }
    // free ∩ live = ∅, and free + resident partitions the pool.
    std::set<BlockId> free_set(alloc.free_list().begin(),
                               alloc.free_list().end());
    ASSERT_EQ(free_set.size(), alloc.free_list().size());  // no duplicates
    for (const auto& [b, n] : table_refs) {
      ASSERT_EQ(free_set.count(b), 0u) << "block " << b << " free AND live";
    }
    ASSERT_EQ(free_set.size() + resident, alloc.num_blocks());
    // Byte accounting == Σ resident blocks, recomputed from geometry.
    std::size_t row_bytes = 0;
    for (std::size_t l = 0; l < alloc.num_layers(); ++l) {
      row_bytes += (alloc.k_width() + alloc.v_width(l)) * sizeof(float);
    }
    ASSERT_EQ(pool_.used_bytes(),
              resident * alloc.block_tokens() * row_bytes);
    ASSERT_EQ(pool_.memory_bytes(),
              alloc.num_blocks() * alloc.block_tokens() * row_bytes);
    // Every block the trie would hand out is resident (non-owning but
    // never dangling), for every prompt the workload can produce.
    for (const std::uint64_t g : {1ull, 2ull}) {
      for (const std::int32_t tail : {0, 1}) {
        const std::vector<std::int32_t> p{10, 11, 12, 13, 14,
                                          20 + tail, 30 + tail};
        const auto m = pool_.trie().lookup(g, p, p.size());
        for (const BlockId b : m.blocks) {
          ASSERT_GT(alloc.ref_count(b), 0u) << "trie advertises free block";
        }
      }
    }
    // Shadow content oracle: every live slot's gather is bit-exact, so
    // no CoW split ever failed to protect an aliased row.
    for (std::size_t s = 0; s < kSlots; ++s) {
      const ShadowSlot& sh = shadows_[s];
      if (!sh.live) continue;
      ASSERT_EQ(pool_.slot(s).tokens(), sh.rows);
      for (std::size_t l = 0; l < alloc.num_layers(); ++l) {
        const auto kp = pool_.slot(s).k_prefix(l);
        const auto vp = pool_.slot(s).v_prefix(l);
        for (std::size_t p = 0; p < sh.rows; ++p) {
          // Rows the slot skipped (below its shared frontier) hold the
          // PRODUCER'S bytes — identical to the shadow's prediction by
          // the prompt_key construction, which is the whole sharing
          // contract.
          std::vector<float> wk(alloc.k_width()), wv(alloc.v_width(l));
          fill_row(wk, row_key(sh, p), 1000 + l);
          fill_row(wv, row_key(sh, p), 2000 + l);
          for (std::size_t c = 0; c < wk.size(); ++c) {
            ASSERT_EQ(kp(p, c), wk[c])
                << "slot " << s << " layer " << l << " row " << p;
          }
          for (std::size_t c = 0; c < wv.size(); ++c) {
            ASSERT_EQ(vp(p, c), wv[c])
                << "slot " << s << " layer " << l << " row " << p;
          }
        }
      }
    }
  }

  PagedKVPool pool_;
  std::uint64_t rng_;
  std::uint64_t state_ = 0x1234;
  std::vector<ShadowSlot> shadows_;
};

TEST(PagedKVFuzz, InvariantsHoldAcrossSeededInterleavings) {
  for (const std::uint64_t seed : {1ull, 7ull, 42ull, 1337ull}) {
    for (const std::size_t bt : {std::size_t{1}, std::size_t{3},
                                 std::size_t{4}}) {
      SCOPED_TRACE("seed=" + std::to_string(seed) +
                   " block_tokens=" + std::to_string(bt));
      PagedFuzz fuzz(seed, PagedKVOptions{.block_tokens = bt});
      for (int i = 0; i < 400; ++i) fuzz.step();
    }
  }
}

TEST(PagedKVFuzz, TightPoolsHitExhaustionAndStayConsistent) {
  // 6 physical blocks for 4 slots × up to 10 rows forces the OOM path
  // (prepare_append == false) to fire regularly mid-sequence.
  for (const std::uint64_t seed : {3ull, 99ull}) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    PagedFuzz fuzz(seed,
                   PagedKVOptions{.block_tokens = 2, .num_blocks = 6});
    for (int i = 0; i < 400; ++i) fuzz.step();
  }
}

// ---------------------------------------------------------------------------
// Decode-level oracles through the scheduler.
// ---------------------------------------------------------------------------

constexpr std::int32_t kVocab = 97;
constexpr std::size_t kMaxContext = 12;

std::vector<et::nn::EncoderWeights> make_layers(std::uint64_t seed) {
  et::nn::ModelConfig cfg;
  cfg.num_layers = 2;
  cfg.d_model = 32;
  cfg.num_heads = 2;
  cfg.d_ff = 64;
  std::vector<et::nn::EncoderWeights> layers;
  for (std::size_t l = 0; l < cfg.num_layers; ++l) {
    layers.push_back(et::nn::make_dense_encoder_weights(cfg, seed + l));
  }
  return layers;
}

et::nn::EncoderOptions make_opt() {
  et::nn::ModelConfig cfg;
  cfg.num_layers = 2;
  cfg.d_model = 32;
  cfg.num_heads = 2;
  cfg.d_ff = 64;
  auto opt = et::nn::options_for(et::nn::Pipeline::kET, cfg, kMaxContext,
                                 /*causal=*/true);
  opt.attn.precision = et::numeric::Precision::kFp32;
  return opt;
}

/// Same-group requests share a 5-token system prompt and the SAME embed
/// seed (the bit-identical-embed contract sharing relies on).
std::vector<et::diff::Request> prompt_workload() {
  std::vector<et::diff::Request> reqs;
  for (int i = 0; i < 5; ++i) {
    et::diff::Request r;
    r.max_new_tokens = 5;
    r.seed = 500;  // one embedding identity across the group
    r.prompt = {7, 8, 9, 10, 11, 40 + i};
    r.prefix_group = 77;
    reqs.push_back(r);
  }
  et::diff::Request lone;  // opts out of sharing, different embedding
  lone.max_new_tokens = 5;
  lone.seed = 41;
  lone.prompt = {7, 8, 9};
  reqs.push_back(lone);
  return reqs;
}

TEST(PagedDecodeOracle, PromptDecodeMatchesSequentialAcrossBlockSizes) {
  const auto layers = make_layers(900);
  const auto opt = make_opt();
  const auto requests = prompt_workload();
  et::gpusim::Device ref_dev;
  const auto ref = et::diff::run_sequential(ref_dev, layers, opt, kMaxContext,
                                            requests, kVocab);
  for (const std::size_t bt : {std::size_t{1}, std::size_t{3},
                               std::size_t{16}}) {
    for (const std::size_t threads : {1u, 2u, 8u}) {
      SCOPED_TRACE("block_tokens=" + std::to_string(bt) +
                   " threads=" + std::to_string(threads));
      et::gpusim::Device dev;
      const auto batched = et::diff::run_batched(
          dev, layers, opt, /*max_batch=*/3, kMaxContext, requests, kVocab,
          threads, PagedKVOptions{.block_tokens = bt});
      et::diff::expect_bit_identical(ref, batched.outcomes);
    }
  }
}

TEST(PagedDecodeOracle, SharingOnOffTranscriptsBitIdentical) {
  const auto layers = make_layers(901);
  const auto opt = make_opt();
  const auto requests = prompt_workload();
  for (const std::size_t threads : {1u, 2u, 8u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    et::gpusim::Device on_dev, off_dev;
    const auto on = et::diff::run_batched(
        on_dev, layers, opt, 3, kMaxContext, requests, kVocab, threads,
        PagedKVOptions{.block_tokens = 3, .enable_prefix_sharing = true});
    const auto off = et::diff::run_batched(
        off_dev, layers, opt, 3, kMaxContext, requests, kVocab, threads,
        PagedKVOptions{.block_tokens = 3, .enable_prefix_sharing = false});
    et::diff::expect_bit_identical(on.outcomes, off.outcomes);
    // Sharing must not change the tick structure either.
    EXPECT_EQ(on.ticks, off.ticks);
    EXPECT_EQ(on.batched_ticks, off.batched_ticks);
  }
}

TEST(PagedDecodeOracle, BlockExhaustionIsDeterministicKvCacheFull) {
  const auto layers = make_layers(902);
  const auto opt = make_opt();
  const auto requests = prompt_workload();
  // 8 blocks × 3 rows = 24 KV rows for 6 requests wanting ~11 each:
  // somebody runs out, and WHO must not depend on threads or repetition.
  const PagedKVOptions kv{.block_tokens = 3, .num_blocks = 8};
  et::gpusim::Device base_dev;
  const auto base = et::diff::run_batched(base_dev, layers, opt, 3,
                                          kMaxContext, requests, kVocab, 1,
                                          kv);
  bool any_full = false;
  for (const auto& o : base.outcomes) {
    any_full = any_full ||
               o.result.stop_reason == et::nn::StopReason::kKvCacheFull;
  }
  EXPECT_TRUE(any_full) << "workload did not exercise block exhaustion";
  for (const std::size_t threads : {2u, 8u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    et::gpusim::Device dev;
    const auto rerun = et::diff::run_batched(dev, layers, opt, 3, kMaxContext,
                                             requests, kVocab, threads, kv);
    et::diff::expect_bit_identical(base.outcomes, rerun.outcomes);
  }
}

TEST(PagedDecodeOracle, FaultStormsDrainEveryBlockDeterministically) {
  // Faults mid-decode (block_tokens=3, prompt rows cross block
  // boundaries at 3 and 6) trigger the fault-atomic rollback plus
  // kernel-fault retirement; afterwards EVERY block — including boundary
  // partials and CoW copies — must be back on the free list, and the
  // faulted transcript must not depend on the thread count.
  const auto layers = make_layers(903);
  const auto opt = make_opt();
  const auto requests = prompt_workload();
  const PagedKVOptions kv{.block_tokens = 3};
  // A name rule on the attention kernel, armed before tick `arm_tick`:
  // its first strike hits a batched tick's shared launch (absorbed by the
  // per-slot fallback, retiring nobody); the next strikes hit the slots'
  // own retry launches and retire them. Armed at tick 0 the retirement
  // lands at cursor 0, a block boundary; armed at tick 4 all three slots
  // retire at cursor 4, mid-block, and the fifth strike degrades the next
  // tick, whose backfilled requests then decode to the end.
  struct Storm {
    std::size_t arm_tick;
    std::size_t faults;
    std::size_t retired;
  };
  for (const Storm storm : {Storm{0, 2, 1}, Storm{4, 5, 3}}) {
    SCOPED_TRACE("arm_tick=" + std::to_string(storm.arm_tick) +
                 " faults=" + std::to_string(storm.faults));
    const auto arm = [&](std::size_t ticks_run, et::gpusim::Device& dev) {
      if (ticks_run == storm.arm_tick) {
        dev.fault_injector().arm_kernel("incremental_otf_attention",
                                        storm.faults);
      }
    };
    et::gpusim::Device ref_dev;
    const auto ref = et::diff::run_batched(ref_dev, layers, opt, 3,
                                           kMaxContext, requests, kVocab, 1,
                                           kv, {}, false, arm);
    EXPECT_EQ(ref.kv_used_bytes, 0u) << "blocks leaked across the fault drain";
    std::size_t retired = 0;
    for (const auto& o : ref.outcomes) {
      retired += o.result.stop_reason == et::nn::StopReason::kKernelFault;
    }
    EXPECT_EQ(retired, storm.retired);
    EXPECT_EQ(ref_dev.fault_injector().faults_injected(), storm.faults);
    for (const std::size_t threads : {2u, 8u}) {
      SCOPED_TRACE("threads=" + std::to_string(threads));
      et::gpusim::Device dev;
      const auto rerun = et::diff::run_batched(dev, layers, opt, 3,
                                               kMaxContext, requests, kVocab,
                                               threads, kv, {}, false, arm);
      et::diff::expect_bit_identical(ref.outcomes, rerun.outcomes);
      EXPECT_EQ(rerun.kv_used_bytes, 0u);
      EXPECT_EQ(rerun.kv_free_blocks, ref.kv_free_blocks);
    }
  }
}

}  // namespace
