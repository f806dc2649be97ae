// Decode-path weight layouts behind the nn::Model handle: the
// pre-computed W_VO fold (§3.1 / Eq. 5) and the attention-aware pruned
// formats (§4.3) must flow through every decode entry path — sequential
// generate(), the batched scheduler, the serving runtime — and produce
// transcripts BIT-IDENTICAL to their dense references at every thread
// count.
//
// Bit-identity (not allclose) is achievable because the references are
// constructed for exactness:
//   - the fold tests use a signed-selection W_O — each kept row holds
//     exactly one ±1 entry per head column block — so every folded W_VO
//     row is ±(a W_V row) and both paths add the same floats in the same
//     order;
//   - a masked-dense row dot over an all-zero row accumulates exactly +0,
//     which is what the condensed path writes for pruned positions;
//   - the tile-BCSR kernels walk kept tiles in ascending order, visiting
//     the surviving terms in the same order the masked-dense dot does.
// A single-ulp divergence anywhere flips the select() bit-hash, the token
// stream, and the test.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "core/block_allocator.hpp"
#include "core/weights.hpp"
#include "differential.hpp"
#include "serving/server.hpp"
#include "sparse/formats.hpp"
#include "sparse/mask.hpp"

namespace {

constexpr std::int32_t kVocab = 97;
constexpr std::size_t kDModel = 32;
constexpr std::size_t kHeads = 2;
constexpr std::size_t kDk = kDModel / kHeads;
constexpr std::size_t kMaxContext = 8;
constexpr std::size_t kFoldKept = 4;  // kept W_O rows under the fold

struct Stack {
  std::vector<et::nn::EncoderWeights> layers;
  et::nn::EncoderOptions opt;
};

Stack make_dense_stack(std::uint64_t seed) {
  et::nn::ModelConfig cfg;
  cfg.num_layers = 2;
  cfg.d_model = kDModel;
  cfg.num_heads = kHeads;
  cfg.d_ff = 2 * kDModel;
  Stack s;
  for (std::size_t l = 0; l < cfg.num_layers; ++l) {
    s.layers.push_back(et::nn::make_dense_encoder_weights(cfg, seed + l));
  }
  s.opt = et::nn::options_for(et::nn::Pipeline::kET, cfg, kMaxContext,
                              /*causal=*/true);
  s.opt.attn.precision = et::numeric::Precision::kFp32;
  return s;
}

const et::tensor::MatrixF& dense_matrix(const et::sparse::AnyWeight& w) {
  return std::get<et::sparse::DenseWeight>(w).matrix();
}

/// Signed-selection output projection: kept row r carries one ±1 per head
/// column block (at in-head feature r); all other rows are zero.
et::tensor::MatrixF selection_wo() {
  et::tensor::MatrixF wo(kDModel, kDModel);
  for (std::size_t r = 0; r < kFoldKept; ++r) {
    for (std::size_t h = 0; h < kHeads; ++h) {
      wo(r, h * kDk + r) = ((r + h) % 2 == 0) ? 1.0f : -1.0f;
    }
  }
  return wo;
}

/// Dense reference and folded stack sharing every projection; the fold is
/// exact by construction, so their decodes must agree bit for bit.
void make_fold_pair(std::uint64_t seed, Stack& dense, Stack& folded) {
  dense = make_dense_stack(seed);
  const auto wo = selection_wo();
  for (auto& l : dense.layers) l.attn.wo = et::sparse::DenseWeight(wo);
  folded = dense;
  std::vector<std::uint32_t> kept(kFoldKept);
  for (std::size_t r = 0; r < kFoldKept; ++r) {
    kept[r] = static_cast<std::uint32_t>(r);
  }
  for (auto& l : folded.layers) {
    l.attn.vo = et::core::precompute_vo(dense_matrix(l.attn.wv), wo, kHeads,
                                        kept);
  }
}

/// Masked-dense reference and condensable row-pruned stack: W_V keeps the
/// first half of every head's rows.
void make_row_pair(std::uint64_t seed, Stack& masked, Stack& pruned) {
  masked = make_dense_stack(seed);
  pruned = masked;
  std::vector<std::uint32_t> kept;
  for (std::size_t h = 0; h < kHeads; ++h) {
    for (std::size_t r = 0; r < kDk / 2; ++r) {
      kept.push_back(static_cast<std::uint32_t>(h * kDk + r));
    }
  }
  et::sparse::Mask mask(kDModel, kDModel, 1);
  for (std::size_t h = 0; h < kHeads; ++h) {
    for (std::size_t r = kDk / 2; r < kDk; ++r) {
      for (std::size_t c = 0; c < kDModel; ++c) mask(h * kDk + r, c) = 0;
    }
  }
  for (std::size_t l = 0; l < masked.layers.size(); ++l) {
    const auto wv = dense_matrix(masked.layers[l].attn.wv);
    auto wv_masked = wv;
    et::sparse::apply_mask(wv_masked, mask);
    masked.layers[l].attn.wv = et::sparse::DenseWeight(wv_masked);
    pruned.layers[l].attn.wv =
        et::sparse::RowPrunedWeight::from_kept_rows(wv, kept);
  }
}

/// Masked-dense reference and tile-pruned stack: W_Q loses a checkerboard
/// of 16×16 tiles.
void make_tile_pair(std::uint64_t seed, Stack& masked, Stack& pruned) {
  masked = make_dense_stack(seed);
  pruned = masked;
  const std::size_t side = et::sparse::kTileSide;
  et::sparse::Mask mask(kDModel, kDModel, 1);
  for (std::size_t tr = 0; tr < kDModel / side; ++tr) {
    for (std::size_t tc = 0; tc < kDModel / side; ++tc) {
      if ((tr + tc) % 2 == 0) continue;
      for (std::size_t r = 0; r < side; ++r) {
        for (std::size_t c = 0; c < side; ++c) {
          mask(tr * side + r, tc * side + c) = 0;
        }
      }
    }
  }
  for (std::size_t l = 0; l < masked.layers.size(); ++l) {
    const auto wq = dense_matrix(masked.layers[l].attn.wq);
    auto wq_masked = wq;
    et::sparse::apply_mask(wq_masked, mask);
    masked.layers[l].attn.wq = et::sparse::DenseWeight(wq_masked);
    pruned.layers[l].attn.wq =
        et::sparse::TilePrunedWeight::from_masked(wq, mask);
  }
}

std::vector<et::diff::Request> workload() {
  return {{3, 6, et::nn::kNoEosToken, 11},
          {5, 6, et::nn::kNoEosToken, 12},
          {7, 6, et::nn::kNoEosToken, 13}};
}

std::vector<et::diff::Arrival> arrivals_at_tick0() {
  std::vector<et::diff::Arrival> a;
  for (const auto& r : workload()) a.push_back({0, r});
  return a;
}

/// The differential sweep: the `candidate` stack decoded through every
/// entry path at threads {1, 2, 8} must reproduce the single-threaded
/// sequential decode of `reference` bit for bit.
void expect_equivalent_everywhere(const Stack& reference,
                                  const Stack& candidate) {
  const auto requests = workload();
  et::gpusim::Device ref_dev;
  const auto ref = et::diff::run_sequential(
      ref_dev, reference.layers, reference.opt, kMaxContext, requests, kVocab);

  for (const std::size_t threads : {1u, 2u, 8u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    et::gpusim::Device seq_dev, batch_dev, serve_dev;
    const auto seq =
        et::diff::run_sequential(seq_dev, candidate.layers, candidate.opt,
                                 kMaxContext, requests, kVocab, threads);
    et::diff::expect_bit_identical(ref, seq);

    const auto batched =
        et::diff::run_batched(batch_dev, candidate.layers, candidate.opt,
                              /*max_batch=*/2, kMaxContext, requests, kVocab,
                              threads);
    et::diff::expect_bit_identical(ref, batched.outcomes);

    const auto served = et::diff::run_served(
        serve_dev, candidate.layers, candidate.opt, kMaxContext,
        {/*max_batch=*/2, /*queue_capacity=*/8}, arrivals_at_tick0(), kVocab,
        threads);
    et::diff::expect_bit_identical(ref, served.outcomes);
  }
}

// ---------------------------------------------------------------------------
// The nn::Model handle: capability flags, widths, validation.
// ---------------------------------------------------------------------------
TEST(DecodeFormats, ModelHandleReportsLayoutAndWidths) {
  Stack dense, folded;
  make_fold_pair(41, dense, folded);

  const et::nn::Model d(&dense.layers, dense.opt, kMaxContext);
  EXPECT_FALSE(d.has_precomputed());
  EXPECT_EQ(d.weight_layout(), et::nn::WeightFormat::kDense);
  EXPECT_EQ(d.k_width(), kDModel);
  EXPECT_EQ(d.v_widths(), std::vector<std::size_t>({kDModel, kDModel}));

  const et::nn::Model f(&folded.layers, folded.opt, kMaxContext);
  EXPECT_TRUE(f.has_precomputed());
  EXPECT_EQ(f.weight_layout(), et::nn::WeightFormat::kPrecomputed);
  EXPECT_EQ(f.v_width(0), kHeads * kFoldKept);
  EXPECT_EQ(f.v_width(1), kHeads * kFoldKept);
  EXPECT_EQ(f.num_layers(), 2u);

  Stack masked, row;
  make_row_pair(43, masked, row);
  const et::nn::Model r(&row.layers, row.opt, kMaxContext);
  EXPECT_EQ(r.weight_layout(), et::nn::WeightFormat::kPruned);
  EXPECT_EQ(r.v_width(0), kDModel / 2);  // Σkept across both head blocks

  Stack tmasked, tile;
  make_tile_pair(47, tmasked, tile);
  const et::nn::Model t(&tile.layers, tile.opt, kMaxContext);
  EXPECT_EQ(t.weight_layout(), et::nn::WeightFormat::kPruned);
  EXPECT_EQ(t.v_width(0), kDModel);  // a pruned W_Q leaves the V plane full
}

TEST(DecodeFormats, ModelHandleValidatesItsArguments) {
  Stack dense, folded;
  make_fold_pair(53, dense, folded);
  EXPECT_THROW(et::nn::Model(nullptr, dense.opt, kMaxContext),
               std::invalid_argument);
  EXPECT_THROW(et::nn::Model(&dense.layers, dense.opt, 0),
               std::invalid_argument);

  auto bad_layers = folded.layers;
  bad_layers[0].attn.vo.num_heads = kHeads + 1;
  EXPECT_THROW(et::nn::Model(&bad_layers, folded.opt, kMaxContext),
               std::invalid_argument);
}

/// The Model must refuse `s` with std::invalid_argument naming the layer
/// and the field — before any decode path over-reads or throws mid-tick.
void expect_refused(const Stack& s, const std::string& layer_and_field) {
  try {
    (void)et::nn::Model(&s.layers, s.opt, kMaxContext);
    ADD_FAILURE() << "accepted a stack with a bad " << layer_and_field;
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(layer_and_field), std::string::npos)
        << e.what();
  }
}

TEST(DecodeFormats, ModelRefusesAMisShapedAttentionWeight) {
  Stack s = make_dense_stack(61);
  s.layers[1].attn.wk =
      et::sparse::DenseWeight(et::tensor::MatrixF(kDModel, kDModel + 16));
  expect_refused(s, "layer 1 W_K");
}

TEST(DecodeFormats, ModelRefusesAnFfWeightOfTheWrongWidth) {
  Stack s = make_dense_stack(62);
  s.layers[0].w_ff1 =
      et::sparse::DenseWeight(et::tensor::MatrixF(2 * kDModel, kDModel + 16));
  expect_refused(s, "layer 0 W_FF1");
}

TEST(DecodeFormats, ModelRefusesAnFf2ThatDisagreesWithFf1) {
  Stack s = make_dense_stack(63);
  s.layers[1].w_ff2 =
      et::sparse::DenseWeight(et::tensor::MatrixF(kDModel, kDModel));
  expect_refused(s, "layer 1 W_FF2");
}

TEST(DecodeFormats, ModelRefusesAShortFfBias) {
  Stack s = make_dense_stack(64);
  s.layers[0].b_ff1.pop_back();
  expect_refused(s, "layer 0 b_ff1");
}

TEST(DecodeFormats, ModelRefusesAShortOutputBias) {
  Stack s = make_dense_stack(65);
  s.layers[1].b_ff2.pop_back();
  expect_refused(s, "layer 1 b_ff2");
}

TEST(DecodeFormats, ModelRefusesALayernormVectorOfTheWrongLength) {
  Stack s = make_dense_stack(66);
  s.layers[1].ln2_beta.resize(kDModel / 2);
  expect_refused(s, "layer 1 ln2_beta");
  s = make_dense_stack(66);
  s.layers[0].ln1_gamma.push_back(1.0f);
  expect_refused(s, "layer 0 ln1_gamma");
}

TEST(DecodeFormats, ModelRefusesAFoldKeptColumnOutOfRange) {
  Stack dense, folded;
  make_fold_pair(67, dense, folded);
  folded.layers[0].attn.vo.kept_cols.back() = kDModel;
  expect_refused(folded, "layer 0 W_VO kept column");
}

// ---------------------------------------------------------------------------
// PagedKVPool: independent K and V plane widths.
// ---------------------------------------------------------------------------
TEST(DecodeFormats, KvCacheStoresIndependentPlaneWidths) {
  et::core::PagedKVPool pool(1, 4, 32, {8}, {.block_tokens = 4});
  et::core::PagedKVCache& cache = pool.caches(pool.acquire())[0];
  EXPECT_EQ(cache.k_width(), 32u);
  EXPECT_EQ(cache.v_width(), 8u);
  EXPECT_EQ(pool.memory_bytes(), 4 * (32 + 8) * sizeof(float));

  const std::vector<float> k(32, 1.0f), v(8, 2.0f), wide(32, 3.0f);
  cache.append(k, v);
  EXPECT_EQ(cache.used(), 1u);
  // A full-width V row no longer fits a condensed plane; the failed
  // append must leave both planes untouched.
  EXPECT_THROW(cache.append(k, wide), std::invalid_argument);
  EXPECT_EQ(cache.used(), 1u);
  while (!cache.full()) cache.append(k, v);
  EXPECT_THROW(cache.append(k, v), std::length_error);
}

TEST(DecodeFormats, KvCachePoolSizesEachLayerIndependently) {
  // Layer 0 condensed to 8 floats per V row, layer 1 full width; K rows
  // stay full width in both.
  et::core::PagedKVPool pool(2, 4, 32, {8, 32}, {.block_tokens = 4});
  EXPECT_EQ(pool.memory_bytes(),
            2 * (4 * (32 + 8) + 4 * (32 + 32)) * sizeof(float));
  const std::size_t slot = pool.acquire();
  auto& caches = pool.caches(slot);
  ASSERT_EQ(caches.size(), 2u);
  EXPECT_EQ(caches[0].v_width(), 8u);
  EXPECT_EQ(caches[1].v_width(), 32u);
  EXPECT_EQ(caches[0].k_width(), 32u);
  EXPECT_EQ(caches[1].k_width(), 32u);

  // Each layer's cursor moves on its own.
  const std::vector<float> k(32, 1.0f), v(8, 2.0f), wide(32, 3.0f);
  caches[1].append(k, wide);
  caches[0].append(k, v);
  caches[0].append(k, v);
  EXPECT_EQ(caches[0].used(), 2u);
  EXPECT_EQ(caches[1].used(), 1u);
  pool.release(slot);
}

// ---------------------------------------------------------------------------
// The differential sweep: every layout, every entry path, threads 1/2/8.
// ---------------------------------------------------------------------------
TEST(DecodeFormats, PrecomputedVoBitIdenticalToDenseUnfused) {
  Stack dense, folded;
  make_fold_pair(61, dense, folded);
  expect_equivalent_everywhere(dense, folded);
}

TEST(DecodeFormats, RowPrunedCondensedVBitIdenticalToMaskedDense) {
  Stack masked, pruned;
  make_row_pair(67, masked, pruned);
  expect_equivalent_everywhere(masked, pruned);
}

TEST(DecodeFormats, TilePrunedBitIdenticalToMaskedDense) {
  Stack masked, pruned;
  make_tile_pair(71, masked, pruned);
  expect_equivalent_everywhere(masked, pruned);
}

// ---------------------------------------------------------------------------
// Regression: the serving stack accepts every layout end to end (the old
// scheduler rejected pre-computed W_VO at construction).
// ---------------------------------------------------------------------------
TEST(DecodeFormats, ServerServesEveryLayoutEndToEnd) {
  Stack dense, folded, masked, row, tmasked, tile;
  make_fold_pair(73, dense, folded);
  make_row_pair(79, masked, row);
  make_tile_pair(83, tmasked, tile);
  for (const Stack* s : {&dense, &folded, &row, &tile}) {
    et::serving::InferenceServer server(
        et::nn::Model(&s->layers, s->opt, kMaxContext), {2, 8});
    et::gpusim::Device dev;
    et::core::ExecContext ctx(dev);
    std::vector<et::serving::RequestHandle> handles;
    for (const auto& r : workload()) {
      et::serving::Request req;
      req.first_token = r.first_token;
      req.max_new_tokens = r.max_new_tokens;
      req.embed = et::diff::make_embed(kDModel, r.seed);
      req.select = et::diff::make_select(kVocab);
      handles.push_back(server.submit(std::move(req)));
    }
    server.drain(ctx);
    for (const auto& h : handles) {
      EXPECT_EQ(server.result(h).stop_reason, et::nn::StopReason::kMaxTokens);
      EXPECT_EQ(server.result(h).tokens.size(), 6u);
    }
  }
}

}  // namespace
