// The fault-injection framework and the resilient execution layer built
// on it: injector rules fire deterministically, adaptive_attention walks
// the flash → otf → partial_otf → fused → modular degradation chain with
// observable (profiled) fallbacks and bit-identical output, and generate()
// turns KV-cache exhaustion and mid-step kernel faults into graceful stop
// reasons instead of exceptions. See docs/robustness.md.
#include <gtest/gtest.h>

#include <functional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/adaptive.hpp"
#include "core/incremental_attention.hpp"
#include "gpusim/profiler.hpp"
#include "nn/generation.hpp"
#include "tensor/random.hpp"

namespace {

using et::core::AttentionConfig;
using et::core::AttentionImpl;
using et::gpusim::FaultCause;
using et::gpusim::KernelFault;
using et::tensor::MatrixF;

et::gpusim::Launch make_launch(et::gpusim::Device& dev, const char* name,
                               std::size_t shared = 0) {
  return dev.launch({.name = name, .ctas = 1, .shared_bytes_per_cta = shared});
}

// ------------------------------------------------- injector mechanics ----

TEST(FaultInjector, NthLaunchFaultsExactlyOnce) {
  et::gpusim::Device dev;
  et::core::ExecContext ctx(dev);
  dev.fault_injector().arm_nth_launch(2);
  make_launch(dev, "k0").finish();
  make_launch(dev, "k1").finish();
  try {
    (void)make_launch(dev, "k2");
    FAIL() << "launch 2 must fault";
  } catch (const KernelFault& f) {
    EXPECT_EQ(f.kernel(), "k2");
    EXPECT_EQ(f.cause(), FaultCause::kLaunchIndex);
  }
  // One-shot: subsequent launches are healthy again.
  make_launch(dev, "k3").finish();
  EXPECT_EQ(dev.fault_injector().faults_injected(), 1u);
  EXPECT_EQ(dev.fault_injector().launches_seen(), 4u);
  ASSERT_EQ(dev.fault_injector().fault_log().size(), 1u);
  EXPECT_EQ(dev.fault_injector().fault_log()[0].launch_index, 2u);
}

TEST(FaultInjector, NthRulesAreCumulative) {
  // Two nth rules armed before either fires both stay armed.
  et::gpusim::Device dev;
  et::core::ExecContext ctx(dev);
  et::gpusim::FaultInjector& inj = dev.fault_injector();
  const auto faulted_launches = [&](std::size_t launches) {
    std::vector<std::size_t> faulted;
    for (std::size_t i = 0; i < launches; ++i) {
      try {
        make_launch(dev, "k").finish();
      } catch (const KernelFault& f) {
        EXPECT_EQ(f.cause(), FaultCause::kLaunchIndex);
        faulted.push_back(i);
      }
    }
    return faulted;
  };
  inj.arm_nth_launch(2);
  inj.arm_nth_launch(5);
  EXPECT_EQ(faulted_launches(8), (std::vector<std::size_t>{2, 5}));
  ASSERT_EQ(inj.fault_log().size(), 2u);
  EXPECT_EQ(inj.fault_log()[0].launch_index, 2u);
  EXPECT_EQ(inj.fault_log()[1].launch_index, 5u);
  EXPECT_FALSE(inj.armed()) << "every nth rule is spent";

  // The same index armed twice faults its launch once.
  inj.arm_nth_launch(1);
  inj.arm_nth_launch(1);
  EXPECT_EQ(faulted_launches(4), (std::vector<std::size_t>{1}));
  EXPECT_EQ(inj.faults_injected(), 3u);
  EXPECT_FALSE(inj.armed());
}

TEST(FaultInjector, NamedKernelFaultWithBudget) {
  et::gpusim::Device dev;
  et::core::ExecContext ctx(dev);
  dev.fault_injector().arm_kernel("otf", /*max_faults=*/2);
  EXPECT_THROW((void)make_launch(dev, "otf_attention"), KernelFault);
  make_launch(dev, "bmm_qk").finish();  // non-matching name unaffected
  EXPECT_THROW((void)make_launch(dev, "partial_otf_qk"), KernelFault);
  // Budget exhausted: the same name now launches fine.
  make_launch(dev, "otf_attention").finish();
  EXPECT_EQ(dev.fault_injector().faults_injected(), 2u);
}

TEST(FaultInjector, AllocationThreshold) {
  et::gpusim::Device dev;
  et::core::ExecContext ctx(dev);
  dev.fault_injector().arm_alloc_above(1024);
  make_launch(dev, "small", 1024).finish();  // at the threshold: fine
  try {
    (void)make_launch(dev, "big", 2048);
    FAIL() << "allocation above threshold must fault";
  } catch (const KernelFault& f) {
    EXPECT_EQ(f.cause(), FaultCause::kAllocation);
  }
}

TEST(FaultInjector, RandomFractionIsSeededAndDeterministic) {
  const auto faulted_indices = [](std::uint64_t seed) {
    et::gpusim::Device dev;
    et::core::ExecContext ctx(dev);
    dev.fault_injector().arm_random(0.3, seed);
    std::vector<std::size_t> out;
    for (std::size_t i = 0; i < 100; ++i) {
      try {
        make_launch(dev, "k").finish();
      } catch (const KernelFault&) {
        out.push_back(i);
      }
    }
    return out;
  };
  const auto a = faulted_indices(7);
  EXPECT_EQ(a, faulted_indices(7)) << "same seed, same faults";
  EXPECT_NE(a, faulted_indices(8)) << "different seed, different faults";
  EXPECT_GT(a.size(), 10u);
  EXPECT_LT(a.size(), 60u);
}

TEST(FaultInjector, DisarmStopsFaulting) {
  et::gpusim::Device dev;
  et::core::ExecContext ctx(dev);
  dev.fault_injector().arm_kernel("k");
  EXPECT_TRUE(dev.fault_injector().armed());
  EXPECT_THROW((void)make_launch(dev, "k"), KernelFault);
  dev.fault_injector().disarm();
  EXPECT_FALSE(dev.fault_injector().armed());
  make_launch(dev, "k").finish();
  EXPECT_EQ(dev.launch_count(), 1u);
}

TEST(SharedMemOverflow, CarriesKernelAndSizes) {
  et::gpusim::Device dev;
  et::core::ExecContext ctx(dev);
  const std::size_t cap = dev.spec().shared_mem_per_cta_bytes;
  try {
    (void)make_launch(dev, "greedy", cap + 1);
    FAIL() << "must overflow";
  } catch (const et::gpusim::SharedMemOverflow& o) {
    EXPECT_EQ(o.kernel(), "greedy");
    EXPECT_EQ(o.requested(), cap + 1);
    EXPECT_EQ(o.capacity(), cap);
  }
}

// ----------------------------------------------- degradation chain ----

AttentionConfig small_cfg() {
  AttentionConfig cfg;
  cfg.seq_len = 32;  // flash's one Br-row tile prices lowest => flash
  cfg.d_model = 32;
  cfg.num_heads = 2;
  cfg.precision = et::numeric::Precision::kFp32;
  return cfg;
}

TEST(AdaptiveFallback, FlashFaultFallsBackToOtf) {
  const AttentionConfig cfg = small_cfg();
  const auto w = et::core::make_dense_weights(cfg, 11);
  MatrixF x(cfg.seq_len, cfg.d_model);
  et::tensor::fill_normal(x, 12);

  ASSERT_EQ(et::core::choose_attention_impl(et::gpusim::Device(), w, cfg),
            AttentionImpl::kFlash);

  et::gpusim::Device clean;
  et::core::ExecContext clean_ctx(clean);
  const MatrixF want = et::core::otf_attention(clean_ctx, x, w, cfg);

  et::gpusim::Device dev;
  et::core::ExecContext ctx(dev);
  dev.fault_injector().arm_kernel("flash_attention");
  const MatrixF got = et::core::adaptive_attention(ctx, x, w, cfg);

  ASSERT_EQ(got.rows(), want.rows());
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got.flat()[i], want.flat()[i]) << "bit-identical at " << i;
  }
  ASSERT_EQ(dev.fallback_log().size(), 1u);
  EXPECT_EQ(dev.fallback_log()[0].from_impl, "flash");
  EXPECT_EQ(dev.fallback_log()[0].to_impl, "otf");
  EXPECT_EQ(dev.fallback_log()[0].kernel, "flash_attention");
  EXPECT_EQ(dev.fallback_log()[0].cause, "kernel_name");
}

TEST(AdaptiveFallback, OtfFaultFallsBackToPartialOtf) {
  // Pin the chain's entry at otf through the forced policy (the same
  // mechanism et_cli --attention uses): a fault there must degrade to
  // partial_otf, not restart selection.
  const AttentionConfig cfg = small_cfg();
  const auto w = et::core::make_dense_weights(cfg, 11);
  MatrixF x(cfg.seq_len, cfg.d_model);
  et::tensor::fill_normal(x, 12);

  et::gpusim::Device clean;
  et::core::ExecContext clean_ctx(clean);
  const MatrixF want = et::core::partial_otf_attention(clean_ctx, x, w, cfg);

  et::gpusim::Device dev;
  et::core::ExecContext ctx(dev);
  et::core::AdaptivePolicy policy;
  policy.forced = AttentionImpl::kOtf;
  dev.fault_injector().arm_kernel("otf_attention");
  const MatrixF got = et::core::adaptive_attention(ctx, x, w, cfg, policy);

  ASSERT_EQ(got.rows(), want.rows());
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got.flat()[i], want.flat()[i]) << "bit-identical at " << i;
  }
  ASSERT_EQ(dev.fallback_log().size(), 1u);
  EXPECT_EQ(dev.fallback_log()[0].from_impl, "otf");
  EXPECT_EQ(dev.fallback_log()[0].to_impl, "partial_otf");
  EXPECT_EQ(dev.fallback_log()[0].kernel, "otf_attention");
  EXPECT_EQ(dev.fallback_log()[0].cause, "kernel_name");
}

TEST(AdaptiveFallback, FullChainDegradesToModularBitIdentical) {
  // Fault every fast path; the chain must land on the modular baseline
  // and return exactly what an unfaulted modular run returns.
  const AttentionConfig cfg = small_cfg();
  const auto w = et::core::make_dense_weights(cfg, 13);
  MatrixF x(cfg.seq_len, cfg.d_model);
  et::tensor::fill_normal(x, 14);

  et::gpusim::Device clean;
  et::core::ExecContext clean_ctx(clean);
  const MatrixF want = et::core::modular_attention(clean_ctx, x, w, cfg);

  et::gpusim::Device dev;
  et::core::ExecContext ctx(dev);
  dev.fault_injector().arm_kernel("flash_attention");
  dev.fault_injector().arm_kernel("otf_attention");
  dev.fault_injector().arm_kernel("partial_otf");
  dev.fault_injector().arm_kernel("trt_");
  const MatrixF got = et::core::adaptive_attention(ctx, x, w, cfg);

  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got.flat()[i], want.flat()[i]) << "bit-identical at " << i;
  }
  ASSERT_EQ(dev.fallback_log().size(), 4u);
  EXPECT_EQ(dev.fallback_log()[0].from_impl, "flash");
  EXPECT_EQ(dev.fallback_log()[0].to_impl, "otf");
  EXPECT_EQ(dev.fallback_log()[1].from_impl, "otf");
  EXPECT_EQ(dev.fallback_log()[2].from_impl, "partial_otf");
  EXPECT_EQ(dev.fallback_log()[3].from_impl, "fused");
  EXPECT_EQ(dev.fallback_log()[3].to_impl, "modular");
}

TEST(AdaptiveFallback, FaultInModularBaselinePropagates) {
  const AttentionConfig cfg = small_cfg();
  const auto w = et::core::make_dense_weights(cfg, 15);
  MatrixF x(cfg.seq_len, cfg.d_model);
  et::tensor::fill_normal(x, 16);

  et::gpusim::Device dev;
  et::core::ExecContext ctx(dev);
  // Matches every kernel in every implementation: nothing can recover.
  dev.fault_injector().arm_kernel("");
  EXPECT_THROW((void)et::core::adaptive_attention(ctx, x, w, cfg),
               KernelFault);
}

TEST(AdaptiveFallback, ProfilerReportsFallbacks) {
  const AttentionConfig cfg = small_cfg();
  const auto w = et::core::make_dense_weights(cfg, 17);
  MatrixF x(cfg.seq_len, cfg.d_model);
  et::tensor::fill_normal(x, 18);

  et::gpusim::Device dev;
  et::core::ExecContext ctx(dev);
  dev.fault_injector().arm_kernel("flash_attention");
  (void)et::core::adaptive_attention(ctx, x, w, cfg);

  const auto report = et::gpusim::profile(dev);
  ASSERT_EQ(report.fallbacks.size(), 1u);
  std::ostringstream os;
  et::gpusim::print_report(os, report);
  EXPECT_NE(os.str().find("fallbacks (1)"), std::string::npos);
  EXPECT_NE(os.str().find("flash -> otf"), std::string::npos);
}

TEST(AdaptiveFallback, HealthyRunRecordsNoFallback) {
  const AttentionConfig cfg = small_cfg();
  const auto w = et::core::make_dense_weights(cfg, 19);
  MatrixF x(cfg.seq_len, cfg.d_model);
  et::tensor::fill_normal(x, 20);

  et::gpusim::Device dev;
  et::core::ExecContext ctx(dev);
  (void)et::core::adaptive_attention(ctx, x, w, cfg);
  EXPECT_TRUE(dev.fallback_log().empty());
  EXPECT_EQ(dev.fault_injector().faults_injected(), 0u);
}

// ----------------------------------------------- config validation ----

TEST(AttentionConfigValidation, EveryOperatorRejectsBadHeadSplit) {
  AttentionConfig good = small_cfg();
  const auto w = et::core::make_dense_weights(good, 21);
  MatrixF x(good.seq_len, good.d_model);

  AttentionConfig bad = good;
  bad.num_heads = 3;  // 32 % 3 != 0
  et::gpusim::Device dev;
  et::core::ExecContext ctx(dev);
  EXPECT_THROW((void)et::core::modular_attention(ctx, x, w, bad),
               std::invalid_argument);
  EXPECT_THROW((void)et::core::fused_attention(ctx, x, w, bad),
               std::invalid_argument);
  EXPECT_THROW((void)et::core::otf_attention(ctx, x, w, bad),
               std::invalid_argument);
  EXPECT_THROW((void)et::core::partial_otf_attention(ctx, x, w, bad),
               std::invalid_argument);
  EXPECT_THROW((void)et::core::flash_attention(ctx, x, w, bad),
               std::invalid_argument);
  EXPECT_THROW((void)et::core::adaptive_attention(ctx, x, w, bad),
               std::invalid_argument);
  et::core::PagedKVPool pool(1, 4, good.d_model, {good.d_model},
                             {.block_tokens = 4});
  et::core::PagedKVCache& cache = pool.caches(pool.acquire())[0];
  MatrixF row(1, good.d_model);
  EXPECT_THROW((void)et::core::incremental_attention(ctx, row, w, bad, cache),
               std::invalid_argument);
}

// Every operator reads cfg.seq_len rows of Q and d_model-wide operands, so
// an input of another shape throws before anything launches — it would
// otherwise read past the end of Q.
TEST(AttentionConfigValidation, EveryOperatorRejectsMismatchedInputShape) {
  const AttentionConfig cfg = small_cfg();
  const auto w = et::core::make_dense_weights(cfg, 23);
  using Op = std::function<MatrixF(et::core::ExecContext&, const MatrixF&)>;
  const std::vector<std::pair<const char*, Op>> ops = {
      {"modular",
       [&](auto& ctx, const MatrixF& x) {
         return et::core::modular_attention(ctx, x, w, cfg);
       }},
      {"tensorrt",
       [&](auto& ctx, const MatrixF& x) {
         return et::core::fused_attention(ctx, x, w, cfg);
       }},
      {"fastertransformer",
       [&](auto& ctx, const MatrixF& x) {
         return et::core::fused_attention(ctx, x, w, cfg, true);
       }},
      {"otf",
       [&](auto& ctx, const MatrixF& x) {
         return et::core::otf_attention(ctx, x, w, cfg);
       }},
      {"partial_otf",
       [&](auto& ctx, const MatrixF& x) {
         return et::core::partial_otf_attention(ctx, x, w, cfg);
       }},
      {"flash",
       [&](auto& ctx, const MatrixF& x) {
         return et::core::flash_attention(ctx, x, w, cfg);
       }},
      {"adaptive",
       [&](auto& ctx, const MatrixF& x) {
         return et::core::adaptive_attention(ctx, x, w, cfg);
       }},
  };
  const std::vector<MatrixF> bad_inputs = {
      MatrixF(8, cfg.d_model),                // too few rows
      MatrixF(cfg.seq_len + 4, cfg.d_model),  // too many rows
      MatrixF(cfg.seq_len, 16),               // too narrow
      MatrixF(cfg.seq_len, 48),               // too wide
  };
  for (const auto& [name, op] : ops) {
    for (const MatrixF& x : bad_inputs) {
      SCOPED_TRACE(std::string(name) + ", x " + std::to_string(x.rows()) +
                   "x" + std::to_string(x.cols()));
      for (const bool traffic_only : {false, true}) {
        et::gpusim::Device dev;
        dev.set_traffic_only(traffic_only);
        et::core::ExecContext ctx(dev);
        EXPECT_THROW((void)op(ctx, x), std::invalid_argument);
        EXPECT_EQ(dev.launch_count(), 0u);
        EXPECT_TRUE(dev.fallback_log().empty());
      }
    }
  }
}

TEST(AttentionConfigValidation, RejectsZeroDims) {
  et::gpusim::Device dev;
  et::core::ExecContext ctx(dev);
  const AttentionConfig good = small_cfg();
  const auto w = et::core::make_dense_weights(good, 22);
  MatrixF x(good.seq_len, good.d_model);

  AttentionConfig zero = good;
  zero.num_heads = 0;
  EXPECT_THROW((void)et::core::adaptive_attention(ctx, x, w, zero),
               std::invalid_argument);
}

// ------------------------------------------------- graceful generate ----

struct TinyStack {
  et::nn::ModelConfig model;
  std::vector<et::nn::EncoderWeights> layers;
  et::nn::EncoderOptions opt;

  explicit TinyStack(std::size_t num_layers = 2) {
    model.num_layers = num_layers;
    model.d_model = 32;
    model.num_heads = 2;
    model.d_ff = 64;
    for (std::size_t l = 0; l < num_layers; ++l) {
      layers.push_back(et::nn::make_dense_encoder_weights(model, 30 + l));
    }
    opt = et::nn::options_for(et::nn::Pipeline::kET, model, 1, true);
    opt.attn.precision = et::numeric::Precision::kFp32;
  }
};

et::nn::EmbedFn test_embed(std::size_t d_model) {
  return [d_model](std::int32_t token, std::size_t position) {
    MatrixF row(1, d_model);
    for (std::size_t c = 0; c < d_model; ++c) {
      row(0, c) = 0.01f * static_cast<float>((token + 1) % 7) +
                  0.001f * static_cast<float>((position + c) % 11);
    }
    return row;
  };
}

et::nn::SelectFn test_select() {
  return [](const MatrixF& h) {
    return static_cast<std::int32_t>(h(0, 0) > 0.0f ? 1 : 2);
  };
}

/// Token 0 first, then up to `max_new_tokens` greedy emissions.
et::nn::DecodeParams test_params(std::size_t d_model,
                                 std::size_t max_new_tokens) {
  et::nn::DecodeParams params;
  params.max_new_tokens = max_new_tokens;
  params.embed = test_embed(d_model);
  params.select = test_select();
  return params;
}

TEST(Generate, CompletesWithMaxTokens) {
  TinyStack s;
  et::gpusim::Device dev;
  et::core::ExecContext ctx(dev);
  et::nn::GenerationSession session(et::nn::Model(&s.layers, s.opt, /*max_context=*/16));
  const auto result = et::nn::generate(
      ctx, session, test_params(s.model.d_model, 5));
  EXPECT_EQ(result.stop_reason, et::nn::StopReason::kMaxTokens);
  EXPECT_EQ(result.tokens.size(), 5u);
}

TEST(Generate, StopsCleanlyWhenKvCacheFills) {
  TinyStack s;
  et::gpusim::Device dev;
  et::core::ExecContext ctx(dev);
  et::nn::GenerationSession session(et::nn::Model(&s.layers, s.opt, /*max_context=*/3));
  const auto result = et::nn::generate(
      ctx, session, test_params(s.model.d_model, 10));
  EXPECT_EQ(result.stop_reason, et::nn::StopReason::kKvCacheFull);
  // All three steps that fit the cache produced (and kept) their tokens.
  EXPECT_EQ(result.tokens.size(), 3u);
  EXPECT_EQ(session.context_length(), 3u);
}

TEST(Generate, CapacityOneCacheReturnsInsteadOfThrowing) {
  // The acceptance scenario: a capacity-1 cache must yield exactly one
  // token and a kv_cache_full stop, never a std::length_error.
  TinyStack s;
  et::gpusim::Device dev;
  et::core::ExecContext ctx(dev);
  et::nn::GenerationSession session(et::nn::Model(&s.layers, s.opt, /*max_context=*/1));
  const auto result = et::nn::generate(
      ctx, session, test_params(s.model.d_model, 10));
  EXPECT_EQ(result.stop_reason, et::nn::StopReason::kKvCacheFull);
  EXPECT_EQ(result.tokens.size(), 1u);
}

TEST(Generate, KernelFaultMidGenerationKeepsEarlierTokens) {
  TinyStack s;
  // Count the launches one healthy step costs, to aim the fault at the
  // middle of the third step.
  std::size_t launches_per_step = 0;
  {
    et::gpusim::Device dev;
    et::core::ExecContext ctx(dev);
    et::nn::GenerationSession session(et::nn::Model(&s.layers, s.opt, 16));
    (void)session.step(ctx, test_embed(s.model.d_model)(0, 0));
    launches_per_step = dev.launch_count();
  }

  et::gpusim::Device dev;
  et::core::ExecContext ctx(dev);
  et::nn::GenerationSession session(et::nn::Model(&s.layers, s.opt, 16));
  dev.fault_injector().arm_nth_launch(2 * launches_per_step +
                                      launches_per_step / 2);
  const auto result = et::nn::generate(
      ctx, session, test_params(s.model.d_model, 10));
  EXPECT_EQ(result.stop_reason, et::nn::StopReason::kKernelFault);
  EXPECT_FALSE(result.fault_kernel.empty());
  EXPECT_EQ(result.tokens.size(), 2u) << "tokens before the fault survive";
  // The faulted step rolled its cache appends back: two clean steps.
  EXPECT_EQ(session.context_length(), 2u);
}

TEST(GenerationSession, StepIsAtomicUnderFaults) {
  TinyStack s;
  const auto embed = test_embed(s.model.d_model);

  // Reference: two clean steps.
  et::gpusim::Device ref_dev;
  et::core::ExecContext ref_dev_ctx(ref_dev);
  et::nn::GenerationSession ref(et::nn::Model(&s.layers, s.opt, 8));
  (void)ref.step(ref_dev_ctx, embed(0, 0));
  const MatrixF want = ref.step(ref_dev_ctx, embed(1, 1));

  // Launches one healthy step costs, to aim a fault inside layer 1.
  std::size_t launches_per_step = 0;
  {
    et::gpusim::Device probe;
    et::core::ExecContext probe_ctx(probe);
    et::nn::GenerationSession scratch(et::nn::Model(&s.layers, s.opt, 8));
    (void)scratch.step(probe_ctx, embed(0, 0));
    launches_per_step = probe.launch_count();
  }
  const std::size_t per_layer = launches_per_step / s.layers.size();

  et::gpusim::Device dev;
  et::core::ExecContext ctx(dev);
  et::nn::GenerationSession session(et::nn::Model(&s.layers, s.opt, 8));
  (void)session.step(ctx, embed(0, 0));
  ASSERT_EQ(session.context_length(), 1u);

  // Fault partway through layer 1 of the next step: layer 0 has already
  // appended its K/V row when the fault fires, so a missing rollback
  // would leave the caches at inconsistent lengths.
  dev.fault_injector().arm_nth_launch(per_layer + 1);
  EXPECT_THROW((void)session.step(ctx, embed(1, 1)), KernelFault);
  EXPECT_EQ(session.context_length(), 1u)
      << "failed step must roll back every layer's cache";

  // Retrying the same step now succeeds and matches the clean run bit for
  // bit — the failed attempt left no trace in the session.
  const MatrixF got = session.step(ctx, embed(1, 1));
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got.flat()[i], want.flat()[i]);
  }
  EXPECT_EQ(session.context_length(), 2u);
}

}  // namespace
