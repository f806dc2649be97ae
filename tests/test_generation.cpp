// KV-cached autoregressive inference: the incremental path must equal the
// full causal forward position by position, and its kernel profile must
// show the generation regime (context-linear attention cost, weight-bound
// linears).
#include <gtest/gtest.h>

#include <set>
#include <stdexcept>
#include <string_view>

#include "core/incremental_attention.hpp"
#include "nn/generation.hpp"
#include "pruning/criteria.hpp"
#include "tensor/random.hpp"

namespace {

using et::tensor::MatrixF;

et::nn::ModelConfig tiny_model() {
  et::nn::ModelConfig cfg;
  cfg.num_layers = 2;
  cfg.d_model = 32;
  cfg.num_heads = 2;
  cfg.d_ff = 64;
  return cfg;
}

MatrixF row_of(const MatrixF& m, std::size_t r) {
  MatrixF out(1, m.cols());
  for (std::size_t c = 0; c < m.cols(); ++c) out(0, c) = m(r, c);
  return out;
}

// The session's KV store: a one-slot PagedKVPool whose single block spans
// the whole context.
TEST(KVCache, AppendAndPrefix) {
  et::core::PagedKVPool pool(1, 4, 3, {3}, {.block_tokens = 4});
  et::core::PagedKVSlot& slot = pool.slot(pool.acquire());
  et::core::PagedKVCache& cache = slot.caches()[0];
  EXPECT_EQ(cache.used(), 0u);
  const float k1[] = {1, 2, 3};
  const float v1[] = {4, 5, 6};
  cache.append(k1, v1);
  cache.append(v1, k1);
  EXPECT_EQ(cache.used(), 2u);
  const auto k = cache.k_prefix();
  EXPECT_EQ(k.rows(), 2u);
  EXPECT_EQ(k(0, 2), 3.0f);
  EXPECT_EQ(k(1, 0), 4.0f);
  slot.rollback(0);  // GenerationSession::reset
  EXPECT_EQ(cache.used(), 0u);
}

TEST(KVCache, ThrowsWhenFull) {
  et::core::PagedKVPool pool(1, 1, 2, {2}, {.block_tokens = 1});
  et::core::PagedKVCache& cache = pool.caches(pool.acquire())[0];
  const float r[] = {1, 2};
  cache.append(r, r);
  EXPECT_TRUE(cache.full());
  EXPECT_THROW(cache.append(r, r), std::length_error);
}

TEST(IncrementalAttention, MatchesCausalAttentionPerPosition) {
  et::core::AttentionConfig cfg;
  cfg.seq_len = 12;
  cfg.d_model = 32;
  cfg.num_heads = 2;
  cfg.precision = et::numeric::Precision::kFp32;
  cfg.causal_mask = true;
  const auto w = et::core::make_dense_weights(cfg, 1);
  MatrixF x(12, 32);
  et::tensor::fill_normal(x, 2);

  et::gpusim::Device dev;
  et::core::ExecContext ctx(dev);
  const MatrixF full = et::core::otf_attention(ctx, x, w, cfg);

  et::core::PagedKVPool pool(1, 12, 32, {32}, {.block_tokens = 12});
  et::core::PagedKVCache& cache = pool.caches(pool.acquire())[0];
  for (std::size_t t = 0; t < 12; ++t) {
    const MatrixF step =
        et::core::incremental_attention(ctx, row_of(x, t), w, cfg, cache);
    for (std::size_t c = 0; c < 32; ++c) {
      ASSERT_NEAR(step(0, c), full(t, c), 1e-4f)
          << "position " << t << " col " << c;
    }
  }
}

TEST(IncrementalAttention, RejectsPrecomputedWeights) {
  et::core::AttentionConfig cfg;
  cfg.seq_len = 4;
  cfg.d_model = 32;
  cfg.num_heads = 2;
  auto w = et::core::make_dense_weights(cfg, 3);
  const auto& wv = std::get<et::sparse::DenseWeight>(w.wv).matrix();
  const auto& wo = std::get<et::sparse::DenseWeight>(w.wo).matrix();
  w.vo = et::core::precompute_vo(wv, wo, cfg.num_heads);
  et::core::PagedKVPool pool(1, 4, 32, {32}, {.block_tokens = 4});
  et::core::PagedKVCache& cache = pool.caches(pool.acquire())[0];
  et::gpusim::Device dev;
  et::core::ExecContext ctx(dev);
  MatrixF x(1, 32);
  EXPECT_THROW(
      (void)et::core::incremental_attention(ctx, x, w, cfg, cache),
      std::invalid_argument);
}

TEST(GenerationSession, MatchesFullCausalForwardPerPosition) {
  const auto model = tiny_model();
  std::vector<et::nn::EncoderWeights> layers;
  for (std::size_t l = 0; l < model.num_layers; ++l) {
    layers.push_back(et::nn::make_dense_encoder_weights(model, 10 + l));
  }
  MatrixF x(10, model.d_model);
  et::tensor::fill_normal(x, 4, 0.0f, 0.5f);

  auto opt = et::nn::options_for(et::nn::Pipeline::kET, model, 10,
                                 /*causal=*/true);
  opt.attn.precision = et::numeric::Precision::kFp32;

  et::gpusim::Device dev;
  et::core::ExecContext ctx(dev);
  const MatrixF full = et::nn::encoder_stack_forward(ctx, x, layers, opt);

  et::nn::GenerationSession session(
      et::nn::Model(&layers, opt, /*max_context=*/16));
  for (std::size_t t = 0; t < x.rows(); ++t) {
    const MatrixF h = session.step(ctx, row_of(x, t));
    for (std::size_t c = 0; c < x.cols(); ++c) {
      ASSERT_NEAR(h(0, c), full(t, c), 2e-3f)
          << "position " << t << " col " << c;
    }
  }
  EXPECT_EQ(session.context_length(), 10u);
}

TEST(GenerationSession, StepCostGrowsLinearlyWithContext) {
  // The attention kernel's loads scale with the cache length; the linears
  // stay constant — the classic generation cost profile.
  const auto model = tiny_model();
  std::vector<et::nn::EncoderWeights> layers = {
      et::nn::make_dense_encoder_weights(model, 21)};
  auto opt = et::nn::options_for(et::nn::Pipeline::kET, model, 1, true);

  et::nn::GenerationSession session(et::nn::Model(&layers, opt, 512));
  MatrixF row(1, model.d_model);

  double early = 0.0, late = 0.0;
  for (int t = 0; t < 400; ++t) {
    et::gpusim::Device dev;
    et::core::ExecContext ctx(dev);
    dev.set_traffic_only(true);
    (void)session.step(ctx, row);
    const double us = dev.time_us_matching("incremental_otf_attention");
    if (t == 10) early = us;
    if (t == 390) late = us;
  }
  EXPECT_GT(late, early) << "attention cost must grow with context";
}

TEST(GenerationSession, WorksWithPrunedWeights) {
  const auto model = tiny_model();
  auto w = et::nn::make_dense_encoder_weights(model, 22);
  const auto& wq = std::get<et::sparse::DenseWeight>(w.attn.wq).matrix();
  w.attn.wq = et::sparse::make_weight(et::sparse::PruneMethod::kTile, wq,
                                      et::pruning::tile_mask(wq, 0.5));
  std::vector<et::nn::EncoderWeights> layers = {std::move(w)};
  auto opt = et::nn::options_for(et::nn::Pipeline::kET, model, 1, true);
  opt.attn.precision = et::numeric::Precision::kFp32;

  et::gpusim::Device dev;
  et::core::ExecContext ctx(dev);
  et::nn::GenerationSession session(et::nn::Model(&layers, opt, 8));
  MatrixF row(1, model.d_model);
  et::tensor::fill_normal(row, 23, 0.0f, 0.5f);
  for (int t = 0; t < 4; ++t) {
    const MatrixF h = session.step(ctx, row);
    for (float v : h.flat()) ASSERT_TRUE(std::isfinite(v));
  }
  EXPECT_GT(dev.time_us_matching("bcsr"), 0.0);
}

TEST(Generate, StopsAtEosTokenAndKeepsTheEmission) {
  const auto model = tiny_model();
  std::vector<et::nn::EncoderWeights> layers = {
      et::nn::make_dense_encoder_weights(model, 30)};
  auto opt = et::nn::options_for(et::nn::Pipeline::kET, model, 8, true);
  opt.attn.precision = et::numeric::Precision::kFp32;

  const auto embed = [&](std::int32_t token, std::size_t) {
    MatrixF row(1, model.d_model);
    row(0, 0) = 0.1f * static_cast<float>(token);
    return row;
  };
  const auto select = [](const MatrixF&) { return std::int32_t{5}; };

  et::gpusim::Device dev;
  et::core::ExecContext ctx(dev);
  et::nn::GenerationSession session(et::nn::Model(&layers, opt, 8));
  et::nn::DecodeParams params;
  params.first_token = 1;
  params.max_new_tokens = 6;
  params.embed = embed;
  params.select = select;
  params.eos_token = 5;
  const auto r = et::nn::generate(ctx, session, params);
  EXPECT_EQ(r.stop_reason, et::nn::StopReason::kEos);
  ASSERT_EQ(r.tokens.size(), 1u);
  EXPECT_EQ(r.tokens[0], 5);

  // A negative eos_token (the default) disables the check entirely.
  session.reset();
  params.eos_token = et::nn::kNoEosToken;
  const auto full = et::nn::generate(ctx, session, params);
  EXPECT_EQ(full.stop_reason, et::nn::StopReason::kMaxTokens);
  EXPECT_EQ(full.tokens.size(), 6u);
}

TEST(StopReason, ToStringIsDistinctForEveryEnumerator) {
  // Regression for the serving-layer extension (kCancelled /
  // kDeadlineExceeded / kRejected): every enumerator round-trips to a
  // distinct, non-placeholder string, and kStopReasonCount matches the
  // enum. to_string() is a no-default switch, so adding an enumerator
  // without a case breaks the build; adding one without bumping
  // kStopReasonCount breaks this test.
  std::set<std::string_view> names;
  for (std::size_t r = 0; r < et::nn::kStopReasonCount; ++r) {
    const auto name = et::nn::to_string(static_cast<et::nn::StopReason>(r));
    EXPECT_NE(name, "?") << "enumerator " << r << " missing a switch case";
    EXPECT_FALSE(name.empty());
    EXPECT_TRUE(names.insert(name).second)
        << "duplicate to_string value: " << name;
  }
  EXPECT_EQ(names.size(), et::nn::kStopReasonCount);
  // Spot-check the serving additions by exact spelling — these strings
  // are metric names (`stop_<reason>`) and part of the JSON contract.
  EXPECT_EQ(et::nn::to_string(et::nn::StopReason::kCancelled), "cancelled");
  EXPECT_EQ(et::nn::to_string(et::nn::StopReason::kDeadlineExceeded),
            "deadline_exceeded");
  EXPECT_EQ(et::nn::to_string(et::nn::StopReason::kRejected), "rejected");
}

}  // namespace
