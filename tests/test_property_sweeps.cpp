// Randomized property sweeps across seeds and shapes — the long-tail net
// behind the targeted unit tests.
#include <gtest/gtest.h>

#include <cmath>
#include <random>

#include "core/attention.hpp"
#include "core/incremental_attention.hpp"
#include "gpusim/device.hpp"
#include "kernels/gemm.hpp"
#include "nn/reference.hpp"
#include "numeric/half.hpp"
#include "pruning/criteria.hpp"
#include "sparse/formats.hpp"
#include "tensor/compare.hpp"
#include "tensor/random.hpp"
#include "tensor/reference_gemm.hpp"

namespace {

using et::tensor::MatrixF;

// ---------------------------------------------------------------------------
// Exhaustive binary16 identity: every finite half value must survive
// half -> float -> half bit-exactly (the conversion pair is lossless on
// its own domain).
// ---------------------------------------------------------------------------
TEST(HalfExhaustive, FloatRoundTripIsIdentityOnAllFiniteBits) {
  et::numeric::reset_overflow_count();
  for (std::uint32_t bits = 0; bits <= 0xffffu; ++bits) {
    const auto h = et::numeric::half::from_bits(
        static_cast<std::uint16_t>(bits));
    if (!h.is_finite()) continue;
    const float f = static_cast<float>(h);
    const auto back = et::numeric::half(f);
    ASSERT_EQ(back.bits(), h.bits()) << "bits " << bits;
  }
  EXPECT_EQ(et::numeric::overflow_count(), 0u);
}

TEST(HalfExhaustive, OrderingMatchesFloatOrdering) {
  // For random pairs of finite halves, the half comparison agrees with
  // the float comparison (total order on non-NaN values).
  std::mt19937_64 rng(1);
  std::uniform_int_distribution<std::uint32_t> dist(0, 0xffff);
  for (int n = 0; n < 20000; ++n) {
    const auto a = et::numeric::half::from_bits(
        static_cast<std::uint16_t>(dist(rng)));
    const auto b = et::numeric::half::from_bits(
        static_cast<std::uint16_t>(dist(rng)));
    if (a.is_nan() || b.is_nan()) continue;
    ASSERT_EQ(a < b, static_cast<float>(a) < static_cast<float>(b));
  }
}

// ---------------------------------------------------------------------------
// Format round trips over random shapes and seeds.
// ---------------------------------------------------------------------------
class SeedSweep : public ::testing::TestWithParam<int> {};

TEST_P(SeedSweep, AllFormatsRoundTripOnRandomShapes) {
  std::mt19937_64 rng(static_cast<std::uint64_t>(GetParam()));
  std::uniform_int_distribution<std::size_t> tiles(1, 5);
  std::uniform_real_distribution<double> ratio_dist(0.1, 0.9);

  const std::size_t rows = 16 * tiles(rng);
  const std::size_t cols = 16 * tiles(rng);
  const double ratio = ratio_dist(rng);
  MatrixF w(rows, cols);
  et::tensor::fill_normal(w, static_cast<std::uint64_t>(GetParam()) + 100);

  const auto check = [&](et::sparse::PruneMethod m,
                         const et::sparse::Mask& mask) {
    MatrixF masked = w;
    et::sparse::apply_mask(masked, mask);
    const auto any = et::sparse::make_weight(m, w, mask);
    EXPECT_TRUE(allclose(to_dense(any), masked, 0.0, 0.0))
        << to_string(m) << " " << rows << "x" << cols << " @ " << ratio;
  };
  check(et::sparse::PruneMethod::kRow, et::pruning::row_mask(w, ratio));
  check(et::sparse::PruneMethod::kColumn,
        et::pruning::column_mask(w, ratio));
  check(et::sparse::PruneMethod::kTile, et::pruning::tile_mask(w, ratio));
  check(et::sparse::PruneMethod::kIrregular,
        et::pruning::magnitude_mask(w, ratio));
}

TEST_P(SeedSweep, GemmTransposeSymmetry) {
  // (A·Bᵀ)ᵀ == B·Aᵀ for random shapes.
  std::mt19937_64 rng(static_cast<std::uint64_t>(GetParam()) * 7);
  std::uniform_int_distribution<std::size_t> dim(1, 40);
  MatrixF a(dim(rng), dim(rng));
  MatrixF b(dim(rng), a.cols());
  et::tensor::fill_normal(a, static_cast<std::uint64_t>(GetParam()) + 1);
  et::tensor::fill_normal(b, static_cast<std::uint64_t>(GetParam()) + 2);

  et::gpusim::Device dev;
  et::core::ExecContext ctx(dev);
  const MatrixF ab = et::kernels::gemm_nt(ctx, a, b);
  const MatrixF ba = et::kernels::gemm_nt(ctx, b, a);
  ASSERT_EQ(ab.rows(), ba.cols());
  ASSERT_EQ(ab.cols(), ba.rows());
  for (std::size_t i = 0; i < ab.rows(); ++i) {
    for (std::size_t j = 0; j < ab.cols(); ++j) {
      EXPECT_NEAR(ab(i, j), ba(j, i), 1e-4 + 1e-4 * std::abs(ba(j, i)))
          << "(" << i << "," << j << ")";
    }
  }
}

TEST_P(SeedSweep, AttentionRowsAreConvexCombinationsUnderIdentityV) {
  // With W_V = I and W_O = I, each output row of attention is a convex
  // combination of input rows: its entries stay within the column-wise
  // min/max of X (pre-output-projection property made checkable by
  // choosing identity weights).
  et::core::AttentionConfig cfg;
  cfg.seq_len = 12;
  cfg.d_model = 16;
  cfg.num_heads = 2;
  cfg.precision = et::numeric::Precision::kFp32;
  cfg.causal_mask = false;
  auto w = et::core::make_dense_weights(cfg, GetParam());
  MatrixF eye(16, 16);
  for (std::size_t i = 0; i < 16; ++i) eye(i, i) = 1.0f;
  w.wv = et::sparse::DenseWeight(eye);
  w.wo = et::sparse::DenseWeight(eye);

  MatrixF x(12, 16);
  et::tensor::fill_normal(x, static_cast<std::uint64_t>(GetParam()) + 9);
  et::gpusim::Device dev;
  et::core::ExecContext ctx(dev);
  const MatrixF out = et::core::otf_attention(ctx, x, w, cfg);
  for (std::size_t c = 0; c < 16; ++c) {
    float lo = 1e30f, hi = -1e30f;
    for (std::size_t r = 0; r < 12; ++r) {
      lo = std::min(lo, x(r, c));
      hi = std::max(hi, x(r, c));
    }
    for (std::size_t r = 0; r < 12; ++r) {
      ASSERT_GE(out(r, c), lo - 1e-4f) << "col " << c;
      ASSERT_LE(out(r, c), hi + 1e-4f) << "col " << c;
    }
  }
}

TEST_P(SeedSweep, MaskRatiosWithinTolerance) {
  std::mt19937_64 rng(static_cast<std::uint64_t>(GetParam()) * 13);
  std::uniform_real_distribution<double> ratio_dist(0.05, 0.95);
  const double ratio = ratio_dist(rng);
  MatrixF w(64, 64);
  et::tensor::fill_normal(w, static_cast<std::uint64_t>(GetParam()) + 50);
  EXPECT_NEAR(et::sparse::pruning_ratio(et::pruning::magnitude_mask(w, ratio)),
              ratio, 0.01);
  EXPECT_NEAR(et::sparse::pruning_ratio(et::pruning::tile_mask(w, ratio)),
              ratio, 0.1);
}

TEST_P(SeedSweep, PrecomputeIdentityAcrossSeeds) {
  et::core::AttentionConfig cfg;
  cfg.seq_len = 10;
  cfg.d_model = 24;
  cfg.num_heads = 3;
  cfg.precision = et::numeric::Precision::kFp32;
  auto w = et::core::make_dense_weights(cfg, GetParam() * 31);
  MatrixF x(10, 24);
  et::tensor::fill_normal(x, static_cast<std::uint64_t>(GetParam()) + 77);
  et::gpusim::Device dev;
  et::core::ExecContext ctx(dev);
  const MatrixF without = et::core::otf_attention(ctx, x, w, cfg);
  const auto& wv = std::get<et::sparse::DenseWeight>(w.wv).matrix();
  const auto& wo = std::get<et::sparse::DenseWeight>(w.wo).matrix();
  w.vo = et::core::precompute_vo(wv, wo, cfg.num_heads);
  const MatrixF with_pre = et::core::otf_attention(ctx, x, w, cfg);
  EXPECT_TRUE(allclose(with_pre, without, 1e-3, 1e-3));
}

TEST_P(SeedSweep, IncrementalPrefixDecodeMatchesFullOtf) {
  // Prefix-decode equivalence over random shapes: running a causal
  // sequence through the KV-cached incremental path one position at a
  // time must reproduce the full-sequence OTF forward position by
  // position — the invariant the generation stack (and its batched
  // scheduler) is built on.
  std::mt19937_64 rng(static_cast<std::uint64_t>(GetParam()) * 17);
  const std::size_t heads =
      std::uniform_int_distribution<std::size_t>(0, 2)(rng) + 1;  // 1..3
  const std::size_t d_k =
      8 * std::uniform_int_distribution<std::size_t>(1, 2)(rng);  // 8 or 16
  const std::size_t d_model = heads * d_k;
  const std::size_t seq =
      std::uniform_int_distribution<std::size_t>(2, 14)(rng);

  et::core::AttentionConfig cfg;
  cfg.seq_len = seq;
  cfg.d_model = d_model;
  cfg.num_heads = heads;
  cfg.precision = et::numeric::Precision::kFp32;
  cfg.causal_mask = true;
  const auto w =
      et::core::make_dense_weights(cfg, static_cast<std::uint64_t>(GetParam()));
  MatrixF x(seq, d_model);
  et::tensor::fill_normal(x, static_cast<std::uint64_t>(GetParam()) + 200);

  et::gpusim::Device dev;
  et::core::ExecContext ctx(dev);
  const MatrixF full = et::core::otf_attention(ctx, x, w, cfg);

  et::core::PagedKVPool pool(1, seq, d_model, {d_model},
                             {.block_tokens = seq});
  et::core::PagedKVCache& cache = pool.caches(pool.acquire())[0];
  for (std::size_t t = 0; t < seq; ++t) {
    const MatrixF step = et::core::incremental_attention(
        ctx, et::tensor::slice_rows(x, t, 1), w, cfg, cache);
    for (std::size_t c = 0; c < d_model; ++c) {
      ASSERT_NEAR(step(0, c), full(t, c), 1e-4f)
          << "heads " << heads << " d_model " << d_model << " seq " << seq
          << " position " << t << " col " << c;
    }
  }
  EXPECT_EQ(cache.used(), seq);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeedSweep, ::testing::Range(1, 11));

}  // namespace
