// The streaming flash operator: tiled online-softmax attention that never
// materializes Q·Kᵀ in simulated global memory. Pins the contracts the
// operator was added for — bounded error against the modular baseline at
// every tile boundary, bit-identical output at any thread count, O(N)
// score-side traffic against partial-OTF's O(N²), a sequence-independent
// shared-memory footprint, and graceful degradation through the adaptive
// chain when the Br×Bc tile does not fit or the kernel faults.
#include <gtest/gtest.h>

#include <cstdint>

#include "core/adaptive.hpp"
#include "core/attention.hpp"
#include "tensor/compare.hpp"
#include "tensor/random.hpp"

namespace {

using et::core::AttentionConfig;
using et::core::AttentionImpl;
using et::core::AttentionWeights;
using et::gpusim::Device;
using et::numeric::Precision;
using et::tensor::MatrixF;

AttentionConfig base_cfg(std::size_t seq, bool causal = true) {
  AttentionConfig cfg;
  cfg.seq_len = seq;
  cfg.d_model = 32;
  cfg.num_heads = 2;
  cfg.precision = Precision::kFp32;
  cfg.causal_mask = causal;
  return cfg;
}

MatrixF random_input(const AttentionConfig& cfg, std::uint64_t seed = 91) {
  MatrixF x(cfg.seq_len, cfg.d_model);
  et::tensor::fill_normal(x, seed);
  return x;
}

// --------------------------------------------------------- numerics ----

TEST(FlashAttention, BoundedErrorVsModularAcrossTileBoundaries) {
  // Lengths straddling every tiling edge: below/at/above the default
  // Br=Bc=64 tile, multiple K/V blocks, and a ragged final block.
  for (const std::size_t seq : {15u, 16u, 63u, 64u, 65u, 96u, 129u, 200u}) {
    for (const bool causal : {false, true}) {
      const auto cfg = base_cfg(seq, causal);
      const auto w = et::core::make_dense_weights(cfg, 5);
      const MatrixF x = random_input(cfg, 90 + seq);
      Device dev;
      et::core::ExecContext ctx(dev);
      const MatrixF flash = et::core::flash_attention(ctx, x, w, cfg);
      const MatrixF modular = et::core::modular_attention(ctx, x, w, cfg);
      EXPECT_TRUE(allclose(flash, modular, 1e-4, 1e-3))
          << "seq " << seq << " causal " << causal << " max diff "
          << max_abs_diff(flash, modular);
    }
  }
}

TEST(FlashAttention, TinyTilesStressManyBlockBoundaries) {
  // Force 8×8 tiles so a seq-65 input crosses nine row tiles and nine
  // K/V blocks — the online-softmax rescale runs dozens of times per row.
  auto cfg = base_cfg(65);
  cfg.flash_block_rows = 8;
  cfg.flash_block_cols = 8;
  const auto w = et::core::make_dense_weights(cfg, 6);
  const MatrixF x = random_input(cfg);
  Device dev;
  et::core::ExecContext ctx(dev);
  const MatrixF flash = et::core::flash_attention(ctx, x, w, cfg);
  const MatrixF modular = et::core::modular_attention(ctx, x, w, cfg);
  EXPECT_TRUE(allclose(flash, modular, 1e-4, 1e-3))
      << "max diff " << max_abs_diff(flash, modular);
}

TEST(FlashAttention, ZeroTileDimensionsAreRejected) {
  auto cfg = base_cfg(32);
  cfg.flash_block_rows = 0;
  const auto w = et::core::make_dense_weights(cfg, 6);
  const MatrixF x = random_input(cfg);
  Device dev;
  et::core::ExecContext ctx(dev);
  EXPECT_THROW((void)et::core::flash_attention(ctx, x, w, cfg),
               std::invalid_argument);
}

TEST(FlashAttention, BitIdenticalAcrossThreadCounts) {
  // Each query row lives in exactly one Br tile and its K/V loop runs
  // serially inside that tile, so the math cannot depend on how tiles are
  // distributed over workers.
  auto cfg = base_cfg(129, /*causal=*/true);
  cfg.flash_block_rows = 16;  // 9 tiles: enough to spread over 8 threads
  const auto w = et::core::make_dense_weights(cfg, 7);
  const MatrixF x = random_input(cfg);

  Device dev1;
  et::core::ExecContext ctx1(dev1, 1);
  const MatrixF want = et::core::flash_attention(ctx1, x, w, cfg);
  for (const std::size_t threads : {2u, 8u}) {
    Device dev;
    et::core::ExecContext ctx(dev, threads);
    const MatrixF got = et::core::flash_attention(ctx, x, w, cfg);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      ASSERT_EQ(got.flat()[i], want.flat()[i])
          << "threads " << threads << " index " << i;
    }
  }
}

TEST(FlashAttention, ReducedPrecisionStaysNearFp32) {
  for (const Precision p :
       {Precision::kMixed, Precision::kPureFp16, Precision::kBf16Mixed}) {
    auto cfg = base_cfg(80);
    const auto w = et::core::make_dense_weights(cfg, 9);
    const MatrixF x = random_input(cfg);
    Device dev;
    et::core::ExecContext ctx(dev);
    cfg.precision = Precision::kFp32;
    const MatrixF exact = et::core::flash_attention(ctx, x, w, cfg);
    cfg.precision = p;
    cfg.scale_before_multiply = true;
    const MatrixF approx = et::core::flash_attention(ctx, x, w, cfg);
    EXPECT_TRUE(allclose(approx, exact, 0.05, 0.05))
        << to_string(p) << " max diff " << max_abs_diff(approx, exact);
  }
}

TEST(FlashAttention, PrecomputedVoIsAnIdentity) {
  // Eq. 5 holds for the streaming operator too: folding W_V·W_O in must
  // not change the function (§3.1), only remove the output linear.
  const auto cfg = base_cfg(70);
  auto w = et::core::make_dense_weights(cfg, 10);
  const MatrixF x = random_input(cfg);
  Device dev;
  et::core::ExecContext ctx(dev);
  const MatrixF without = et::core::flash_attention(ctx, x, w, cfg);
  const auto& wv = std::get<et::sparse::DenseWeight>(w.wv).matrix();
  const auto& wo = std::get<et::sparse::DenseWeight>(w.wo).matrix();
  w.vo = et::core::precompute_vo(wv, wo, cfg.num_heads);
  ASSERT_TRUE(w.has_precomputed());
  const MatrixF with = et::core::flash_attention(ctx, x, w, cfg);
  EXPECT_TRUE(allclose(with, without, 1e-3, 1e-3))
      << "max diff " << max_abs_diff(with, without);
}

TEST(FlashAttention, CondensedVMatchesScatteredV) {
  auto cfg = base_cfg(48);
  auto w = et::core::make_dense_weights(cfg, 11);
  const MatrixF x = random_input(cfg);
  const auto& wv = std::get<et::sparse::DenseWeight>(w.wv).matrix();
  // Balanced per-head mask: prune the last 8 rows of each 16-row head.
  et::sparse::Mask mask(32, 32, 1);
  for (std::size_t h = 0; h < 2; ++h) {
    for (std::size_t r = 8; r < 16; ++r) {
      for (std::size_t c = 0; c < 32; ++c) mask(h * 16 + r, c) = 0;
    }
  }
  AttentionWeights pruned = w;
  pruned.wv = et::sparse::RowPrunedWeight::from_masked(wv, mask);
  ASSERT_TRUE(pruned.v_condensable(cfg.num_heads));
  AttentionWeights padded = w;
  MatrixF wv_masked = wv;
  et::sparse::apply_mask(wv_masked, mask);
  padded.wv = et::sparse::DenseWeight(wv_masked);

  Device dev;
  et::core::ExecContext ctx(dev);
  const MatrixF a = et::core::flash_attention(ctx, x, pruned, cfg);
  const MatrixF b = et::core::flash_attention(ctx, x, padded, cfg);
  EXPECT_TRUE(allclose(a, b, 1e-4, 1e-3)) << max_abs_diff(a, b);
}

// ------------------------------------------------ resource contracts ----

TEST(FlashAttention, SharedBytesAreSequenceIndependent) {
  AttentionConfig cfg;
  cfg.d_model = 768;
  cfg.num_heads = 12;
  cfg.precision = Precision::kMixed;
  cfg.seq_len = 64;
  const auto at64 = et::core::flash_shared_bytes(cfg);
  cfg.seq_len = 4096;
  const auto at4096 = et::core::flash_shared_bytes(cfg);
  EXPECT_EQ(at64, at4096)
      << "the Br×Bc working set must not grow with the sequence";
  // The Eq. 6 footprint does grow — that asymmetry is why flash survives
  // lengths that force OTF off the scratchpad.
  cfg.seq_len = 64;
  const auto otf64 = et::core::otf_shared_bytes(cfg);
  cfg.seq_len = 4096;
  EXPECT_GT(et::core::otf_shared_bytes(cfg), otf64);
}

TEST(FlashAttention, ScoreTrafficIsLinearWherePartialOtfIsQuadratic) {
  AttentionConfig cfg;
  cfg.d_model = 64;
  cfg.num_heads = 4;
  cfg.precision = Precision::kMixed;
  cfg.causal_mask = false;
  const auto w = et::core::make_dense_weights(cfg, 14);

  const auto score_bytes = [&](AttentionImpl impl, std::size_t seq) {
    cfg.seq_len = seq;
    MatrixF x(seq, cfg.d_model);
    Device dev;
    dev.set_traffic_only(true);
    et::core::ExecContext ctx(dev);
    et::core::AdaptivePolicy policy;
    policy.forced = impl;
    (void)et::core::adaptive_attention(ctx, x, w, cfg, policy);
    return dev.total_score_bytes();
  };

  const auto flash256 = score_bytes(AttentionImpl::kFlash, 256);
  const auto flash512 = score_bytes(AttentionImpl::kFlash, 512);
  const auto partial256 = score_bytes(AttentionImpl::kPartialOtf, 256);
  const auto partial512 = score_bytes(AttentionImpl::kPartialOtf, 512);
  const auto otf512 = score_bytes(AttentionImpl::kOtf, 512);

  EXPECT_EQ(flash512, 2 * flash256) << "flash spills only per-row stats";
  EXPECT_EQ(partial512, 4 * partial256) << "partial materializes N×N";
  EXPECT_LT(flash512, partial512);
  EXPECT_EQ(otf512, 0u) << "full OTF never touches DRAM with scores";
  EXPECT_GT(flash512, 0u) << "flash is honest about its (m, l) spill";
}

// -------------------------------------------------- degradation chain ----

TEST(FlashAttention, SharedOverflowDegradesToOtfBitIdentical) {
  // 20 KB of shared memory: the 28 KB Br×Bc tile overflows at launch, the
  // 5 KB Eq. 6 row does not. Forcing flash must degrade — observably —
  // and return exactly what a clean OTF run returns.
  et::gpusim::DeviceSpec spec;
  spec.shared_mem_per_cta_bytes = 20 * 1024;
  const auto cfg = base_cfg(32);
  const auto w = et::core::make_dense_weights(cfg, 15);
  const MatrixF x = random_input(cfg);

  Device clean(spec);
  et::core::ExecContext clean_ctx(clean);
  const MatrixF want = et::core::otf_attention(clean_ctx, x, w, cfg);

  Device dev(spec);
  et::core::ExecContext ctx(dev);
  ASSERT_FALSE(dev.fits_shared(et::core::flash_shared_bytes(cfg)));
  et::core::AdaptivePolicy policy;
  policy.forced = AttentionImpl::kFlash;
  const MatrixF got = et::core::adaptive_attention(ctx, x, w, cfg, policy);

  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got.flat()[i], want.flat()[i]) << "bit-identical at " << i;
  }
  ASSERT_EQ(dev.fallback_log().size(), 1u);
  EXPECT_EQ(dev.fallback_log()[0].from_impl, "flash");
  EXPECT_EQ(dev.fallback_log()[0].to_impl, "otf");
  EXPECT_EQ(dev.fallback_log()[0].cause, "shared_mem_overflow");
}

TEST(FlashAttention, KernelFaultDegradesToOtfBitIdentical) {
  const auto cfg = base_cfg(32);
  const auto w = et::core::make_dense_weights(cfg, 16);
  const MatrixF x = random_input(cfg);

  Device clean;
  et::core::ExecContext clean_ctx(clean);
  const MatrixF want = et::core::otf_attention(clean_ctx, x, w, cfg);

  Device dev;
  et::core::ExecContext ctx(dev);
  dev.fault_injector().arm_kernel("flash_attention");
  const MatrixF got = et::core::adaptive_attention(ctx, x, w, cfg);

  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got.flat()[i], want.flat()[i]) << "bit-identical at " << i;
  }
  ASSERT_EQ(dev.fallback_log().size(), 1u);
  EXPECT_EQ(dev.fallback_log()[0].from_impl, "flash");
  EXPECT_EQ(dev.fallback_log()[0].to_impl, "otf");
}

// ------------------------------------------------------- selection API ----

TEST(FlashAttention, FromStringRoundTripsEveryOperator) {
  for (const AttentionImpl impl :
       {AttentionImpl::kModular, AttentionImpl::kFused, AttentionImpl::kOtf,
        AttentionImpl::kPartialOtf, AttentionImpl::kFlash}) {
    const auto parsed = et::core::from_string(to_string(impl));
    ASSERT_TRUE(parsed.has_value()) << to_string(impl);
    EXPECT_EQ(*parsed, impl);
  }
  EXPECT_FALSE(et::core::from_string("banana").has_value());
  EXPECT_FALSE(et::core::from_string("").has_value());
  EXPECT_FALSE(et::core::from_string("Flash").has_value())
      << "operator names are exact, not case-folded";
}

}  // namespace
