// The core contribution: all attention implementations compute the same
// function; the pre-computed linear transformation is an identity (Eq. 5);
// scale reordering fixes pure-FP16 overflow (§3.3); the adaptive dispatch
// runs the modeled-fastest operator that fits the device (§3.2, Eq. 6).
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <limits>
#include <map>
#include <optional>
#include <random>
#include <string>

#include "core/adaptive.hpp"
#include "core/attention.hpp"
#include "core/attention_math.hpp"
#include "nn/reference.hpp"
#include "pruning/criteria.hpp"
#include "tensor/compare.hpp"
#include "tensor/random.hpp"

namespace {

using et::core::AttentionConfig;
using et::core::AttentionWeights;
using et::gpusim::Device;
using et::numeric::Precision;
using et::tensor::MatrixF;

AttentionConfig small_cfg(bool causal = true) {
  AttentionConfig cfg;
  cfg.seq_len = 24;
  cfg.d_model = 32;
  cfg.num_heads = 2;
  cfg.precision = Precision::kFp32;
  cfg.causal_mask = causal;
  return cfg;
}

MatrixF random_input(const AttentionConfig& cfg, std::uint64_t seed = 77) {
  MatrixF x(cfg.seq_len, cfg.d_model);
  et::tensor::fill_normal(x, seed);
  return x;
}

TEST(Attention, AllImplementationsMatchReference) {
  const auto cfg = small_cfg();
  const auto w = et::core::make_dense_weights(cfg, 5);
  const MatrixF x = random_input(cfg);
  const MatrixF ref = et::nn::reference_attention(x, w, cfg);

  Device dev;
  et::core::ExecContext ctx(dev);
  const MatrixF modular = et::core::modular_attention(ctx, x, w, cfg);
  const MatrixF fused = et::core::fused_attention(ctx, x, w, cfg);
  const MatrixF ft = et::core::fused_attention(ctx, x, w, cfg, true);
  const MatrixF otf = et::core::otf_attention(ctx, x, w, cfg);
  const MatrixF partial = et::core::partial_otf_attention(ctx, x, w, cfg);
  const MatrixF flash = et::core::flash_attention(ctx, x, w, cfg);

  EXPECT_TRUE(allclose(modular, ref, 1e-4, 1e-3));
  EXPECT_TRUE(allclose(fused, ref, 1e-4, 1e-3));
  EXPECT_TRUE(allclose(ft, ref, 1e-4, 1e-3));
  EXPECT_TRUE(allclose(otf, ref, 1e-4, 1e-3))
      << "max diff " << max_abs_diff(otf, ref);
  EXPECT_TRUE(allclose(partial, ref, 1e-4, 1e-3));
  EXPECT_TRUE(allclose(flash, ref, 1e-4, 1e-3))
      << "max diff " << max_abs_diff(flash, ref);
}

TEST(Attention, BidirectionalMaskMatchesReference) {
  const auto cfg = small_cfg(/*causal=*/false);
  const auto w = et::core::make_dense_weights(cfg, 6);
  const MatrixF x = random_input(cfg);
  const MatrixF ref = et::nn::reference_attention(x, w, cfg);
  Device dev;
  et::core::ExecContext ctx(dev);
  EXPECT_TRUE(allclose(et::core::otf_attention(ctx, x, w, cfg), ref, 1e-4,
                       1e-3));
}

TEST(Attention, PrecomputeIsExactIdentity) {
  // Eq. 5: the pre-computed path "yields the same results as the original
  // design" (§3.1).
  const auto cfg = small_cfg();
  auto w = et::core::make_dense_weights(cfg, 7);
  const MatrixF x = random_input(cfg);
  Device dev;
  et::core::ExecContext ctx(dev);
  const MatrixF without = et::core::otf_attention(ctx, x, w, cfg);

  const auto& wv = std::get<et::sparse::DenseWeight>(w.wv).matrix();
  const auto& wo = std::get<et::sparse::DenseWeight>(w.wo).matrix();
  w.vo = et::core::precompute_vo(wv, wo, cfg.num_heads);
  ASSERT_TRUE(w.has_precomputed());
  const MatrixF with = et::core::otf_attention(ctx, x, w, cfg);

  EXPECT_TRUE(allclose(with, without, 1e-3, 1e-3))
      << "max diff " << max_abs_diff(with, without);
}

TEST(Attention, PrecomputeWithRowPrunedWoMatchesMaskedBaseline) {
  const auto cfg = small_cfg();
  auto w = et::core::make_dense_weights(cfg, 8);
  const MatrixF x = random_input(cfg);
  const auto& wv = std::get<et::sparse::DenseWeight>(w.wv).matrix();
  const auto& wo = std::get<et::sparse::DenseWeight>(w.wo).matrix();

  const auto wo_mask = et::pruning::row_mask(wo, 0.5);
  auto wo_row = et::sparse::RowPrunedWeight::from_masked(wo, wo_mask);

  // Baseline: dense path with the masked W_O.
  AttentionWeights masked = w;
  MatrixF wo_masked = wo;
  et::sparse::apply_mask(wo_masked, wo_mask);
  masked.wo = et::sparse::DenseWeight(wo_masked);
  Device dev;
  et::core::ExecContext ctx(dev);
  const MatrixF ref = et::core::otf_attention(ctx, x, masked, cfg);

  // Pre-computed path with only the kept rows folded in.
  w.vo = et::core::precompute_vo(wv, wo, cfg.num_heads, wo_row.kept_rows());
  const MatrixF pre = et::core::otf_attention(ctx, x, w, cfg);
  EXPECT_TRUE(allclose(pre, ref, 1e-3, 1e-3))
      << "max diff " << max_abs_diff(pre, ref);
}

TEST(Attention, PrecomputeSkipsOutputLinearKernel) {
  const auto cfg = small_cfg();
  auto w = et::core::make_dense_weights(cfg, 9);
  const MatrixF x = random_input(cfg);
  Device dev;
  et::core::ExecContext ctx(dev);
  (void)et::core::otf_attention(ctx, x, w, cfg);
  EXPECT_GT(dev.time_us_matching("out_linear"), 0.0);
  dev.reset();
  const auto& wv = std::get<et::sparse::DenseWeight>(w.wv).matrix();
  const auto& wo = std::get<et::sparse::DenseWeight>(w.wo).matrix();
  w.vo = et::core::precompute_vo(wv, wo, cfg.num_heads);
  (void)et::core::otf_attention(ctx, x, w, cfg);
  EXPECT_EQ(dev.time_us_matching("out_linear"), 0.0);
  EXPECT_GT(dev.time_us_matching("vo_linear"), 0.0);
}

TEST(Attention, CondensedVMatchesScatteredV) {
  // Attention-aware row-pruned W_V: E.T. consumes the condensed V; result
  // must equal running with the zero-padded V.
  auto cfg = small_cfg();
  auto w = et::core::make_dense_weights(cfg, 10);
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
  const MatrixF a = et::core::otf_attention(ctx, x, pruned, cfg);
  const MatrixF b = et::core::otf_attention(ctx, x, padded, cfg);
  EXPECT_TRUE(allclose(a, b, 1e-4, 1e-3)) << max_abs_diff(a, b);
}

TEST(Attention, UnbalancedRowPrunedVIsNotCondensable) {
  auto cfg = small_cfg();
  auto w = et::core::make_dense_weights(cfg, 11);
  const auto& wv = std::get<et::sparse::DenseWeight>(w.wv).matrix();
  et::sparse::Mask mask(32, 32, 1);
  for (std::size_t c = 0; c < 32; ++c) mask(0, c) = 0;  // head 0 only
  w.wv = et::sparse::RowPrunedWeight::from_masked(wv, mask);
  EXPECT_FALSE(w.v_condensable(cfg.num_heads));
  // Still numerically correct via the scatter path.
  const MatrixF x = random_input(cfg);
  Device dev;
  et::core::ExecContext ctx(dev);
  const MatrixF out = et::core::otf_attention(ctx, x, w, cfg);
  EXPECT_EQ(out.rows(), cfg.seq_len);
}

TEST(Attention, ScaleReorderIsExactInFp32) {
  auto cfg = small_cfg();
  const auto w = et::core::make_dense_weights(cfg, 12);
  const MatrixF x = random_input(cfg);
  Device dev;
  et::core::ExecContext ctx(dev);
  cfg.scale_before_multiply = true;
  const MatrixF before = et::core::otf_attention(ctx, x, w, cfg);
  cfg.scale_before_multiply = false;
  const MatrixF after = et::core::otf_attention(ctx, x, w, cfg);
  EXPECT_TRUE(allclose(before, after, 1e-5, 1e-5));
}

TEST(Attention, PureFp16OverflowsWithoutReorderOnly) {
  // Fig. 4 in miniature: activations/weights large enough that unscaled
  // Q·Kᵀ products exceed 65504, while scaled ones do not.
  AttentionConfig cfg;
  cfg.seq_len = 16;
  cfg.d_model = 256;
  cfg.num_heads = 2;
  cfg.precision = Precision::kPureFp16;
  cfg.causal_mask = false;

  AttentionWeights w = et::core::make_dense_weights(cfg, 13);
  // Scale weights up to "trained-model" magnitudes.
  for (auto* any : {&w.wq, &w.wk}) {
    auto& m = std::get<et::sparse::DenseWeight>(*any);
    MatrixF big = m.matrix();
    for (auto& v : big.flat()) v *= 15.0f;
    *any = et::sparse::DenseWeight(std::move(big));
  }
  MatrixF x(cfg.seq_len, cfg.d_model);
  et::tensor::fill_normal(x, 14, 0.0f, 4.0f);

  Device dev;
  et::core::ExecContext ctx(dev);
  cfg.scale_before_multiply = false;
  et::numeric::reset_overflow_count();
  (void)et::core::otf_attention(ctx, x, w, cfg);
  const auto overflows_after = et::numeric::overflow_count();
  EXPECT_GT(overflows_after, 0u) << "unreordered pure FP16 must overflow";

  cfg.scale_before_multiply = true;
  et::numeric::reset_overflow_count();
  (void)et::core::otf_attention(ctx, x, w, cfg);
  EXPECT_EQ(et::numeric::overflow_count(), 0u)
      << "the §3.3 reorder keeps everything in range";
}

TEST(Attention, SharedBytesFollowEq6) {
  AttentionConfig cfg;
  cfg.seq_len = 384;
  cfg.d_model = 1024;
  cfg.num_heads = 16;
  cfg.precision = Precision::kMixed;
  // The §3.2 worked example: BERT_LARGE at seq 384 needs ~7 KB...
  // (16·64 + 16·384) accumulator entries = 7168 floats.
  const auto bytes = et::core::otf_shared_bytes(cfg);
  EXPECT_GE(bytes, 7168u * 4u);
  EXPECT_LT(bytes, 96u * 1024u) << "fits the V100S budget as the paper says";
  // Pure FP16 halves the accumulator footprint (§3.3 overhead (i)).
  AttentionConfig fp16 = cfg;
  fp16.precision = Precision::kPureFp16;
  EXPECT_LT(et::core::otf_shared_bytes(fp16), bytes);
}

TEST(Adaptive, ForcedOverrideBypassesSelection) {
  Device dev;
  et::core::ExecContext ctx(dev);
  auto cfg = small_cfg();
  const auto w = et::core::make_dense_weights(cfg, 15);
  cfg.seq_len = 128;  // selection would say kOtf
  et::core::AdaptivePolicy policy;
  for (const auto impl :
       {et::core::AttentionImpl::kModular, et::core::AttentionImpl::kFused,
        et::core::AttentionImpl::kOtf, et::core::AttentionImpl::kPartialOtf,
        et::core::AttentionImpl::kFlash}) {
    policy.forced = impl;
    EXPECT_EQ(et::core::choose_attention_impl(dev, w, cfg, policy), impl);
  }
}

TEST(Adaptive, SharedMemoryCapacityForcesPartial) {
  // A device with tiny shared memory cannot host the full OTF kernel.
  et::gpusim::DeviceSpec spec;
  spec.shared_mem_per_cta_bytes = 1024;
  Device dev(spec);
  et::core::ExecContext ctx(dev);
  auto cfg = small_cfg();
  cfg.seq_len = 64;
  const auto w = et::core::make_dense_weights(cfg, 16);
  EXPECT_EQ(et::core::choose_attention_impl(dev, w, cfg),
            et::core::AttentionImpl::kPartialOtf);
}

TEST(Adaptive, AutoTuneAgreesWithThresholdAtExtremes) {
  Device dev;
  et::core::ExecContext ctx(dev);
  AttentionConfig cfg;
  cfg.d_model = 768;
  cfg.num_heads = 12;
  cfg.precision = Precision::kPureFp16;
  const auto w = et::core::make_dense_weights(cfg, 17);
  et::core::AdaptivePolicy policy;

  // On a full-sized scratchpad the latency model prices flash lowest at
  // both ends of the sweep for BERT_BASE pure FP16.
  cfg.seq_len = 64;
  EXPECT_EQ(et::core::choose_attention_impl(dev, w, cfg, policy),
            et::core::AttentionImpl::kFlash);

  cfg.seq_len = 512;
  EXPECT_EQ(et::core::choose_attention_impl(dev, w, cfg, policy),
            et::core::AttentionImpl::kFlash);
}

TEST(Adaptive, AutoTuneWithoutFlashRediscoversLegacyCrossover) {
  // 16 KB of shared memory: the 18 KB flash tile is infeasible for
  // BERT_BASE pure-FP16, the Eq. 6 row fits at seq 64 (5 KB) but not at
  // seq 512 (19 KB) — the choice must land where the paper's §3.2
  // thresholds did before flash existed.
  et::gpusim::DeviceSpec spec;
  spec.shared_mem_per_cta_bytes = 16 * 1024;
  Device dev(spec);
  et::core::ExecContext ctx(dev);
  AttentionConfig cfg;
  cfg.d_model = 768;
  cfg.num_heads = 12;
  cfg.precision = Precision::kPureFp16;
  const auto w = et::core::make_dense_weights(cfg, 17);
  ASSERT_FALSE(dev.fits_shared(et::core::flash_shared_bytes(cfg)));
  et::core::AdaptivePolicy policy;

  cfg.seq_len = 64;
  EXPECT_EQ(et::core::choose_attention_impl(dev, w, cfg, policy),
            et::core::AttentionImpl::kOtf);

  cfg.seq_len = 512;
  EXPECT_EQ(et::core::choose_attention_impl(dev, w, cfg, policy),
            et::core::AttentionImpl::kPartialOtf);
}

// ------------------------------------------------- selection sweeps ----
//
// Over seeded lengths, shapes, precisions, V-side layouts and devices, the
// chosen operator — run on a fresh traffic-only device, projections
// included — is never slower than any candidate that launches there, and
// can itself launch.

enum class VLayout { kDense, kCondensed, kFolded };

/// Zero-valued weights in one V-side layout: the sweeps run traffic-only,
/// so only formats and shapes matter. `ratio` prunes each head's W_V rows
/// (condensed) or W_O's rows before the W_VO fold (folded).
AttentionWeights layout_weights(std::size_t d, std::size_t h, VLayout layout,
                                double ratio) {
  AttentionWeights w;
  w.wq = et::sparse::DenseWeight(MatrixF(d, d));
  w.wk = et::sparse::DenseWeight(MatrixF(d, d));
  w.wv = et::sparse::DenseWeight(MatrixF(d, d));
  w.wo = et::sparse::DenseWeight(MatrixF(d, d));
  if (layout == VLayout::kCondensed) {
    const std::size_t dk = d / h;
    const auto kept = static_cast<std::size_t>((1.0 - ratio) * dk);
    std::vector<std::uint32_t> rows;
    for (std::size_t head = 0; head < h; ++head) {
      for (std::size_t r = 0; r < kept; ++r) {
        rows.push_back(static_cast<std::uint32_t>(head * dk + r));
      }
    }
    w.wv = et::sparse::RowPrunedWeight::from_kept_rows(MatrixF(d, d),
                                                       std::move(rows));
  } else if (layout == VLayout::kFolded) {
    const auto kept = static_cast<std::size_t>((1.0 - ratio) * d);
    w.vo.num_heads = h;
    for (std::size_t c = 0; c < kept; ++c) {
      w.vo.kept_cols.push_back(static_cast<std::uint32_t>(c));
    }
    w.vo.weight = MatrixF(h * kept, d);
  }
  return w;
}

/// Calls `visit(cfg, w, spec, rng)` for a seeded sample of lengths,
/// precisions and devices under every (shape, layout, ratio) combination.
template <typename Visit>
void selection_sweep(Visit visit) {
  std::mt19937_64 rng(2021);
  et::gpusim::DeviceSpec kb20 = et::gpusim::v100s();
  kb20.shared_mem_per_cta_bytes = 20 * 1024;
  et::gpusim::DeviceSpec kb16 = et::gpusim::v100s();
  kb16.shared_mem_per_cta_bytes = 16 * 1024;
  const et::gpusim::DeviceSpec devices[] = {et::gpusim::v100s(),
                                            et::gpusim::a100(), kb20, kb16};
  const std::pair<std::size_t, std::size_t> shapes[] = {
      {32, 2}, {768, 12}, {800, 4}};
  const std::pair<VLayout, double> layouts[] = {
      {VLayout::kDense, 0.0},     {VLayout::kCondensed, 0.5},
      {VLayout::kCondensed, 0.8}, {VLayout::kFolded, 0.5},
      {VLayout::kFolded, 0.8}};
  for (const auto& [d, h] : shapes) {
    for (const auto& [layout, ratio] : layouts) {
      const AttentionWeights w = layout_weights(d, h, layout, ratio);
      for (int i = 0; i < 12; ++i) {
        AttentionConfig cfg;
        cfg.d_model = d;
        cfg.num_heads = h;
        cfg.seq_len = std::uniform_int_distribution<std::size_t>(8, 512)(rng);
        cfg.precision =
            rng() % 2 == 0 ? Precision::kFp32 : Precision::kPureFp16;
        visit(cfg, w, devices[rng() % std::size(devices)], rng);
      }
    }
  }
}

TEST(Adaptive, ChoiceIsModeledFastestFeasible) {
  using et::core::AttentionImpl;
  std::map<AttentionImpl, int> chosen_count;
  int infeasible = 0;
  selection_sweep([&](const AttentionConfig& cfg, const AttentionWeights& w,
                      const et::gpusim::DeviceSpec& spec, std::mt19937_64&) {
    // One forced run per candidate; a candidate whose kernel cannot
    // launch degrades, and the fallback log says so.
    const auto run = [&](AttentionImpl impl) -> std::optional<double> {
      Device dev(spec);
      dev.set_traffic_only(true);
      et::core::ExecContext ctx(dev);
      et::core::AdaptivePolicy policy;
      policy.forced = impl;
      (void)et::core::adaptive_attention(ctx, MatrixF(cfg.seq_len, cfg.d_model),
                                         w, cfg, policy);
      if (!dev.fallback_log().empty()) return std::nullopt;
      return dev.total_time_us();
    };
    std::map<AttentionImpl, double> feasible_us;
    for (const AttentionImpl impl : {AttentionImpl::kPartialOtf,
                                     AttentionImpl::kOtf,
                                     AttentionImpl::kFlash}) {
      if (const std::optional<double> us = run(impl)) {
        feasible_us[impl] = *us;
      } else {
        ++infeasible;
      }
    }
    const AttentionImpl chosen =
        et::core::choose_attention_impl(Device(spec), w, cfg);
    ++chosen_count[chosen];
    ASSERT_TRUE(feasible_us.count(chosen))
        << to_string(chosen) << " cannot launch on " << spec.name
        << " at seq " << cfg.seq_len;
    const double chosen_us = feasible_us.at(chosen);
    for (const auto& [impl, us] : feasible_us) {
      EXPECT_LE(chosen_us, us * (1.0 + 1e-9))
          << to_string(chosen) << " chosen over faster " << to_string(impl)
          << ": d=" << cfg.d_model << " H=" << cfg.num_heads
          << " seq=" << cfg.seq_len << " on " << spec.name;
    }
  });
  // The sweep must exercise every outcome and the feasibility rule.
  EXPECT_GT(chosen_count[AttentionImpl::kFlash], 0);
  EXPECT_GT(chosen_count[AttentionImpl::kOtf], 0);
  EXPECT_GT(chosen_count[AttentionImpl::kPartialOtf], 0);
  EXPECT_GT(infeasible, 0);
}

TEST(Attention, OtfStoresLessLoadsMore) {
  // Fig. 11's claim in kernel form: the fused OTF kernel stores much less
  // and loads somewhat more than the TensorRT-like sequence.
  AttentionConfig cfg;
  cfg.seq_len = 128;
  cfg.d_model = 768;
  cfg.num_heads = 12;
  cfg.precision = Precision::kMixed;
  const auto w = et::core::make_dense_weights(cfg, 18);
  MatrixF x(cfg.seq_len, cfg.d_model);

  Device trt, otf;
  et::core::ExecContext trt_ctx(trt), otf_ctx(otf);
  trt.set_traffic_only(true);
  otf.set_traffic_only(true);
  (void)et::core::fused_attention(trt_ctx, x, w, cfg);
  (void)et::core::otf_attention(otf_ctx, x, w, cfg);

  // Compare the attention region only (steps ②–⑥) — both pipelines share
  // the projection and output GEMMs.
  const auto region = [](const Device& dev) {
    std::uint64_t loads = 0, stores = 0;
    std::size_t launches = 0;
    for (const auto& k : dev.history()) {
      if (k.name.view().find("linear") != std::string::npos) continue;
      loads += k.global_load_bytes;
      stores += k.global_store_bytes;
      ++launches;
    }
    return std::tuple{loads, stores, launches};
  };
  const auto [trt_ld, trt_st, trt_n] = region(trt);
  const auto [otf_ld, otf_st, otf_n] = region(otf);

  EXPECT_LT(otf_st, trt_st / 2)
      << "OTF never writes Q·Kᵀ or S to global memory";
  EXPECT_GT(otf_ld, trt_ld) << "the price: K and V re-read per row tile";
  EXPECT_LT(otf_n, trt_n) << "one kernel instead of four";
}

TEST(Attention, PrecomputeVoRefusesBadShapes) {
  const MatrixF w(32, 32);
  const MatrixF narrow(32, 16), other(16, 16);
  EXPECT_THROW((void)et::core::precompute_vo(narrow, w, 2),
               std::invalid_argument);
  EXPECT_THROW((void)et::core::precompute_vo(w, narrow, 2),
               std::invalid_argument);
  EXPECT_THROW((void)et::core::precompute_vo(w, other, 2),
               std::invalid_argument);
  EXPECT_THROW((void)et::core::precompute_vo(w, w, 0), std::invalid_argument);
  EXPECT_THROW((void)et::core::precompute_vo(w, w, 3), std::invalid_argument);
  // Kept rows past d_model would be read out of W_O's bounds; repeated or
  // unordered ones are not a kept set.
  EXPECT_THROW((void)et::core::precompute_vo(w, w, 2, {0, 40}),
               std::invalid_argument);
  EXPECT_THROW((void)et::core::precompute_vo(w, w, 2, {3, 3}),
               std::invalid_argument);
  EXPECT_THROW((void)et::core::precompute_vo(w, w, 2, {5, 2}),
               std::invalid_argument);
  EXPECT_EQ(et::core::precompute_vo(w, w, 2, {0, 31}).kept(), 2u);
}

TEST(ConfigValidation, RejectsBadConfigs) {
  Device dev;
  et::core::ExecContext ctx(dev);
  MatrixF x(8, 30);
  {
    AttentionConfig cfg;
    cfg.seq_len = 8;
    cfg.d_model = 30;  // not divisible by 4 heads
    cfg.num_heads = 4;
    const auto w = et::core::make_dense_weights(small_cfg(false), 9);
    EXPECT_THROW((void)et::core::otf_attention(ctx, x, w, cfg),
                 std::invalid_argument);
  }
  {
    auto cfg = small_cfg(false);
    cfg.num_heads = 0;
    EXPECT_THROW(cfg.validate(), std::invalid_argument);
  }
}

// ---------------------------------------------------------------------------
// attention_math under kPureFp16 and kMixed against the per-step row loop
// it runs instead of, written out here over numeric::half (the out-of-line
// conversion) so it shares no code with the lane path: the same output
// bits, NaN compared by class, and the same overflow count.
// ---------------------------------------------------------------------------

using et::core::PrecomputedVO;

float to_half(float x) { return static_cast<float>(et::numeric::half(x)); }

float oracle_step(Precision p, float a, float b, float acc) {
  if (p == Precision::kPureFp16) {
    return to_half(to_half(to_half(a) * to_half(b)) + to_half(acc));
  }
  return to_half(a) * to_half(b) + acc;
}

MatrixF oracle_attention(const MatrixF& q, const MatrixF& k,
                         const MatrixF& context, const PrecomputedVO* vo,
                         const std::vector<std::uint32_t>* v_kept,
                         const AttentionConfig& cfg) {
  const std::size_t s = cfg.seq_len;
  const std::size_t kv = k.rows();
  const std::size_t h_count = cfg.num_heads;
  const std::size_t dk = cfg.d_k();
  const std::size_t vw = context.cols() / h_count;
  const Precision p = cfg.precision;
  const float scale = cfg.scale();
  MatrixF out(s, cfg.d_model);
  std::vector<float> qrow(dk), scores(kv);
  for (std::size_t i = 0; i < s; ++i) {
    for (std::size_t h = 0; h < h_count; ++h) {
      for (std::size_t c = 0; c < dk; ++c) {
        const float v = q(i, h * dk + c);
        qrow[c] = cfg.scale_before_multiply ? to_half(v * scale) : v;
      }
      for (std::size_t j = 0; j < kv; ++j) {
        float acc = 0.0f;
        for (std::size_t c = 0; c < dk; ++c) {
          acc = oracle_step(p, qrow[c], k(j, h * dk + c), acc);
        }
        acc = to_half(acc);
        if (!cfg.scale_before_multiply) acc = to_half(acc * scale);
        scores[j] = acc;
      }
      if (cfg.causal_mask && kv == s) {
        for (std::size_t j = i + 1; j < kv; ++j) {
          scores[j] = -std::numeric_limits<float>::infinity();
        }
      }
      float mx = -std::numeric_limits<float>::infinity();
      for (std::size_t j = 0; j < kv; ++j) mx = std::max(mx, scores[j]);
      float sum = 0.0f;
      for (std::size_t j = 0; j < kv; ++j) {
        scores[j] = std::exp(scores[j] - mx);
        sum += scores[j];
      }
      const float inv = sum > 0.0f ? 1.0f / sum : 0.0f;
      for (std::size_t j = 0; j < kv; ++j) {
        scores[j] = to_half(scores[j] * inv);
      }
      for (std::size_t c = 0; c < vw; ++c) {
        float acc = 0.0f;
        for (std::size_t j = 0; j < kv; ++j) {
          acc = oracle_step(p, scores[j], context(j, h * vw + c), acc);
        }
        acc = to_half(acc);
        if (v_kept != nullptr) {
          out(i, (*v_kept)[h * vw + c]) = acc;
        } else if (vo != nullptr) {
          out(i, vo->kept_cols[c]) += acc;
        } else {
          out(i, h * dk + c) = acc;
        }
      }
    }
  }
  return out;
}

::testing::AssertionResult same_bits(const MatrixF& got, const MatrixF& want) {
  for (std::size_t i = 0; i < got.rows(); ++i) {
    for (std::size_t j = 0; j < got.cols(); ++j) {
      const float g = got(i, j);
      const float w = want(i, j);
      if (std::isnan(g) && std::isnan(w)) continue;
      if (std::bit_cast<std::uint32_t>(g) != std::bit_cast<std::uint32_t>(w)) {
        return ::testing::AssertionFailure()
               << "(" << i << "," << j << "): got " << g << ", oracle " << w;
      }
    }
  }
  return ::testing::AssertionSuccess();
}

enum class ContextForm { kDense, kCondensed, kFolded };
enum class Plant { kNone, kQ, kK, kV };

struct AttnOperandCase {
  const char* name;
  float qk_scale;  ///< standard deviation of Q and K (V: 1)
  bool int8;       ///< K and V as int8 codes times a non-binary16 scale
  Plant plant;
  float special;   ///< the value planted
};

constexpr float kAttnInf = std::numeric_limits<float>::infinity();
constexpr float kAttnNaN = std::numeric_limits<float>::quiet_NaN();

// qk_large overflows Q·Kᵀ partway along the chain when the scale comes
// after the multiply. A planted 7e4 or 65520 overflows on rounding, which
// keeps the call (K, V) or the (row, head) (q) on the per-step loop.
// v_max fills one context column with 65504, whose S·V sum can round
// past the binary16 range.
const AttnOperandCase kAttnCases[] = {
    {"unit", 1.0f, false, Plant::kNone, 0.0f},
    {"int8_dequantized", 1.0f, true, Plant::kNone, 0.0f},
    {"qk_large", 100.0f, false, Plant::kNone, 0.0f},
    {"q_7e4", 1.0f, false, Plant::kQ, 7e4f},
    {"k_65520", 1.0f, false, Plant::kK, 65520.0f},
    {"v_7e4", 1.0f, false, Plant::kV, 7e4f},
    {"v_max", 1.0f, false, Plant::kV, 65504.0f},
    {"k_inf", 1.0f, false, Plant::kK, kAttnInf},
    {"q_nan", 1.0f, false, Plant::kQ, kAttnNaN},
    {"v_nan", 1.0f, false, Plant::kV, kAttnNaN},
};

void fill_int8(MatrixF& m, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<int> code(-127, 127);
  for (float& v : m.flat()) v = 0.0173f * static_cast<float>(code(rng));
}

struct AttnShape {
  std::size_t d, heads;
};

class AttentionMathFp16Differential
    : public ::testing::TestWithParam<std::tuple<AttnShape, ContextForm>> {};

TEST_P(AttentionMathFp16Differential, MatchesPerStepLoop) {
  const auto [shape, form] = GetParam();
  const std::size_t d = shape.d;
  const std::size_t dk = d / shape.heads;

  // Context layouts: the condensed V keeps every other column of each
  // head; the fold keeps the output columns c % 3 != 1 (an odd width).
  std::vector<std::uint32_t> v_kept;
  for (std::size_t h = 0; h < shape.heads; ++h) {
    for (std::size_t c = 0; c < dk; c += 2) {
      v_kept.push_back(static_cast<std::uint32_t>(h * dk + c));
    }
  }
  PrecomputedVO vo;
  vo.num_heads = shape.heads;
  for (std::size_t c = 0; c < d; ++c) {
    if (c % 3 != 1) vo.kept_cols.push_back(static_cast<std::uint32_t>(c));
  }
  const std::size_t ctx_cols = form == ContextForm::kDense ? d
                               : form == ContextForm::kCondensed
                                   ? v_kept.size()
                                   : shape.heads * vo.kept();
  const PrecomputedVO* vo_ptr = form == ContextForm::kFolded ? &vo : nullptr;
  const std::vector<std::uint32_t>* kept_ptr =
      form == ContextForm::kCondensed ? &v_kept : nullptr;

  et::core::ThreadPool pool4(4);
  std::uint64_t seed = 500;
  std::uint64_t total_overflows = 0;
  for (const std::size_t kv : {1, 3, 5, 16, 17, 33, 130}) {
    // One decode row over the cache, and for short caches the causal
    // full-sequence form at 1 and 4 threads.
    std::vector<std::size_t> rows = {1};
    if (kv == 3 || kv == 17) rows.push_back(kv);
    for (const std::size_t s : rows) {
      for (const Precision p : {Precision::kPureFp16, Precision::kMixed}) {
        for (const bool before : {true, false}) {
          for (const AttnOperandCase& oc : kAttnCases) {
            AttentionConfig cfg;
            cfg.seq_len = s;
            cfg.d_model = d;
            cfg.num_heads = shape.heads;
            cfg.precision = p;
            cfg.scale_before_multiply = before;
            cfg.causal_mask = true;
            MatrixF q(s, d), k(kv, d), ctx(kv, ctx_cols);
            et::tensor::fill_normal(q, ++seed, 0.0f, oc.qk_scale);
            if (oc.int8) {
              fill_int8(k, ++seed);
              fill_int8(ctx, ++seed);
            } else {
              et::tensor::fill_normal(k, ++seed, 0.0f, oc.qk_scale);
              et::tensor::fill_normal(ctx, ++seed);
            }
            if (oc.plant == Plant::kQ) q(0, 1) = oc.special;
            if (oc.plant == Plant::kK) k(kv / 2, d - 1) = oc.special;
            if (oc.plant == Plant::kV && oc.special == 65504.0f) {
              for (std::size_t j = 0; j < kv; ++j) ctx(j, 0) = oc.special;
            } else if (oc.plant == Plant::kV) {
              ctx(kv / 2, ctx_cols / 2) = oc.special;
            }

            std::uint64_t c0 = et::numeric::overflow_count();
            const MatrixF want =
                oracle_attention(q, k, ctx, vo_ptr, kept_ptr, cfg);
            const std::uint64_t oracle_overflows =
                et::numeric::overflow_count() - c0;
            total_overflows += oracle_overflows;
            for (et::core::ThreadPool* pool :
                 {static_cast<et::core::ThreadPool*>(nullptr), &pool4}) {
              if (pool != nullptr && s == 1) continue;
              SCOPED_TRACE(std::string(oc.name) + " kv=" +
                           std::to_string(kv) + " s=" + std::to_string(s) +
                           " " + std::string(et::numeric::to_string(p)) +
                           (before ? " scale-first" : " scale-last") +
                           (pool != nullptr ? " threads=4" : " threads=1"));
              c0 = et::numeric::overflow_count();
              const MatrixF got = et::core::detail::attention_math(
                  q, k, ctx, vo_ptr, kept_ptr, cfg, pool);
              EXPECT_EQ(et::numeric::overflow_count() - c0, oracle_overflows);
              EXPECT_TRUE(same_bits(got, want));
            }
          }
        }
      }
    }
  }
  EXPECT_GT(total_overflows, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, AttentionMathFp16Differential,
    ::testing::Combine(::testing::Values(AttnShape{32, 2}, AttnShape{128, 2},
                                         AttnShape{30, 3}),
                       ::testing::Values(ContextForm::kDense,
                                         ContextForm::kCondensed,
                                         ContextForm::kFolded)),
    [](const auto& pinfo) {
      const AttnShape sh = std::get<0>(pinfo.param);
      const ContextForm f = std::get<1>(pinfo.param);
      return "d" + std::to_string(sh.d) + "h" + std::to_string(sh.heads) +
             (f == ContextForm::kDense       ? "Dense"
              : f == ContextForm::kCondensed ? "CondensedV"
                                             : "FoldedVO");
    });

}  // namespace
