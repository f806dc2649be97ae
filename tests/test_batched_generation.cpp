// BatchedGenerationScheduler: slot-based batched decoding must be
// BIT-IDENTICAL to N independent nn::generate runs — across shapes,
// pruned formats, retirement causes (eos / max_tokens / kv_cache_full /
// kernel_fault) and injected faults mid-batch. See tests/differential.hpp
// for the harness and docs/serving.md for the methodology.
#include <gtest/gtest.h>

#include <ostream>

#include "differential.hpp"
#include "gpusim/profiler.hpp"
#include "pruning/criteria.hpp"
#include "tensor/random.hpp"

namespace {

using et::diff::Outcome;
using et::diff::Request;

constexpr std::int32_t kVocab = 257;

struct Model {
  std::vector<et::nn::EncoderWeights> layers;
  et::nn::EncoderOptions opt;
};

Model make_model(std::size_t num_layers, std::size_t d_model,
                 std::size_t num_heads, std::size_t max_context,
                 std::uint64_t seed, bool prune_wq) {
  et::nn::ModelConfig cfg;
  cfg.num_layers = num_layers;
  cfg.d_model = d_model;
  cfg.num_heads = num_heads;
  cfg.d_ff = 2 * d_model;

  Model m;
  for (std::size_t l = 0; l < num_layers; ++l) {
    auto w = et::nn::make_dense_encoder_weights(cfg, seed + l);
    if (prune_wq) {
      const auto& wq =
          std::get<et::sparse::DenseWeight>(w.attn.wq).matrix();
      w.attn.wq = et::sparse::make_weight(et::sparse::PruneMethod::kTile, wq,
                                          et::pruning::tile_mask(wq, 0.5));
    }
    m.layers.push_back(std::move(w));
  }
  m.opt = et::nn::options_for(et::nn::Pipeline::kET, cfg, max_context,
                              /*causal=*/true);
  m.opt.attn.precision = et::numeric::Precision::kFp32;
  return m;
}

// ---------------------------------------------------------------------------
// Differential sweep: batch-of-N vs N sequential runs, bit for bit.
// ---------------------------------------------------------------------------
struct SweepCase {
  std::size_t num_heads;
  std::size_t max_new_tokens;
  bool prune_wq;
  std::size_t num_requests;
  std::size_t max_batch;
};

std::ostream& operator<<(std::ostream& os, const SweepCase& c) {
  return os << "heads=" << c.num_heads << " tokens=" << c.max_new_tokens
            << (c.prune_wq ? " tile-pruned" : " dense") << " requests="
            << c.num_requests << " max_batch=" << c.max_batch;
}

std::vector<SweepCase> sweep_cases() {
  std::vector<SweepCase> cases;
#ifdef ET_DIFF_SWEEP_DENSE
  // Dense sweep (-DET_DIFF_SWEEP_DENSE=ON): the full cross product.
  for (std::size_t heads : {1, 2, 4}) {
    for (std::size_t tokens : {1, 3, 5, 9}) {
      for (bool prune : {false, true}) {
        cases.push_back({heads, tokens, prune, 4, 3});
        cases.push_back({heads, tokens, prune, 5, 2});
      }
    }
  }
#else
  // Default sweep: every dimension varied at least once, batch > requests
  // (idle slots), batch < requests (backfill), the per-slot N=1 path, and
  // the tile-pruned projection path.
  cases.push_back({2, 5, false, 4, 3});
  cases.push_back({1, 1, false, 3, 3});
  cases.push_back({4, 9, false, 5, 2});
  cases.push_back({2, 3, false, 2, 4});
  cases.push_back({2, 4, false, 1, 2});
  cases.push_back({2, 5, true, 4, 3});
  cases.push_back({4, 3, true, 3, 2});
#endif
  return cases;
}

class DifferentialSweep : public ::testing::TestWithParam<SweepCase> {};

TEST_P(DifferentialSweep, BatchedEqualsSequentialBitForBit) {
  const SweepCase& c = GetParam();
  const std::size_t max_context = c.max_new_tokens + 2;
  const Model m = make_model(2, c.num_heads * 16, c.num_heads, max_context,
                             40 + c.num_heads, c.prune_wq);

  std::vector<Request> requests;
  for (std::size_t i = 0; i < c.num_requests; ++i) {
    requests.push_back({static_cast<std::int32_t>(i + 1), c.max_new_tokens,
                        et::nn::kNoEosToken, 90 + i});
  }

  et::gpusim::Device seq_dev, batch_dev;
  const auto sequential = et::diff::run_sequential(
      seq_dev, m.layers, m.opt, max_context, requests, kVocab);
  const auto batched = et::diff::run_batched(
      batch_dev, m.layers, m.opt, c.max_batch, max_context, requests, kVocab);

  et::diff::expect_bit_identical(sequential, batched.outcomes);
  for (const auto& o : batched.outcomes) {
    EXPECT_EQ(o.result.stop_reason, et::nn::StopReason::kMaxTokens);
    EXPECT_EQ(o.result.tokens.size(), c.max_new_tokens);
  }
  EXPECT_GE(batched.ticks, c.max_new_tokens);
}

INSTANTIATE_TEST_SUITE_P(Shapes, DifferentialSweep,
                         ::testing::ValuesIn(sweep_cases()));

// ---------------------------------------------------------------------------
// Retirement causes beyond the happy path.
// ---------------------------------------------------------------------------
TEST(BatchedGeneration, KvCacheFullStopsBothPathsIdentically) {
  const std::size_t max_context = 4;
  const Model m = make_model(2, 32, 2, max_context, 7, false);
  const std::vector<Request> requests = {
      {1, 10, et::nn::kNoEosToken, 1},
      {2, 10, et::nn::kNoEosToken, 2},
      {3, 2, et::nn::kNoEosToken, 3},  // finishes before the cache fills
  };

  et::gpusim::Device seq_dev, batch_dev;
  const auto sequential = et::diff::run_sequential(
      seq_dev, m.layers, m.opt, max_context, requests, kVocab);
  const auto batched = et::diff::run_batched(batch_dev, m.layers, m.opt, 3,
                                             max_context, requests, kVocab);

  et::diff::expect_bit_identical(sequential, batched.outcomes);
  EXPECT_EQ(batched.outcomes[0].result.stop_reason,
            et::nn::StopReason::kKvCacheFull);
  EXPECT_EQ(batched.outcomes[0].result.tokens.size(), max_context);
  EXPECT_EQ(batched.outcomes[2].result.stop_reason,
            et::nn::StopReason::kMaxTokens);
}

TEST(BatchedGeneration, EosRetiresSlotIdenticallyToSequential) {
  // vocab 3 makes the eos token land within a handful of steps; the
  // emission itself is kept and both paths must agree on where it fell.
  const std::int32_t vocab = 3, eos = 1;
  const std::size_t max_context = 40;
  const Model m = make_model(2, 32, 2, max_context, 11, false);
  const std::vector<Request> requests = {
      {5, 32, eos, 21}, {6, 32, eos, 22}, {7, 32, eos, 23}};

  et::gpusim::Device seq_dev, batch_dev;
  const auto sequential = et::diff::run_sequential(
      seq_dev, m.layers, m.opt, max_context, requests, vocab);
  const auto batched = et::diff::run_batched(batch_dev, m.layers, m.opt, 3,
                                             max_context, requests, vocab);

  et::diff::expect_bit_identical(sequential, batched.outcomes);
  for (const auto& o : batched.outcomes) {
    ASSERT_EQ(o.result.stop_reason, et::nn::StopReason::kEos);
    EXPECT_EQ(o.result.tokens.back(), eos);
  }
}

TEST(BatchedGeneration, BackfillAdmitsQueuedRequestsAsSlotsRetire) {
  // 7 requests of staggered lengths through 2 slots: retirement frees a
  // slot mid-run and the queue backfills it — results still bit-identical
  // and ordered by submission id.
  const std::size_t max_context = 16;
  const Model m = make_model(2, 32, 2, max_context, 13, false);
  std::vector<Request> requests;
  for (std::size_t i = 0; i < 7; ++i) {
    requests.push_back({static_cast<std::int32_t>(i), 2 + i % 4,
                        et::nn::kNoEosToken, 70 + i});
  }

  et::gpusim::Device seq_dev, batch_dev;
  const auto sequential = et::diff::run_sequential(
      seq_dev, m.layers, m.opt, max_context, requests, kVocab);
  const auto batched = et::diff::run_batched(batch_dev, m.layers, m.opt, 2,
                                             max_context, requests, kVocab);

  et::diff::expect_bit_identical(sequential, batched.outcomes);
  EXPECT_GT(batched.batched_ticks, 0u);
}

// ---------------------------------------------------------------------------
// Faults mid-batch (satellite of docs/robustness.md's truncate-on-fault).
// ---------------------------------------------------------------------------
TEST(BatchedGenerationFaults, SharedKernelFaultFallsBackPerSlotBitIdentically) {
  // One fault in the shared batched q/k/v GEMM: the tick rolls every slot
  // back and degrades to per-slot stepping. No slot retires, nothing
  // diverges — the fallback only costs time.
  const std::size_t max_context = 8;
  const Model m = make_model(2, 32, 2, max_context, 17, false);
  const std::vector<Request> requests = {
      {1, 5, et::nn::kNoEosToken, 31}, {2, 5, et::nn::kNoEosToken, 32},
      {3, 5, et::nn::kNoEosToken, 33}};

  et::gpusim::Device seq_dev, batch_dev;
  batch_dev.fault_injector().arm_kernel("gen_qkv_batched", 1);

  const auto sequential = et::diff::run_sequential(
      seq_dev, m.layers, m.opt, max_context, requests, kVocab);
  const auto batched = et::diff::run_batched(batch_dev, m.layers, m.opt, 3,
                                             max_context, requests, kVocab);

  et::diff::expect_bit_identical(sequential, batched.outcomes);
  EXPECT_GE(batched.per_slot_fallback_ticks, 1u);
  ASSERT_FALSE(batch_dev.fallback_log().empty());
  const auto& fb = batch_dev.fallback_log().front();
  EXPECT_EQ(fb.from_impl, "batched_decode");
  EXPECT_EQ(fb.to_impl, "per_slot_decode");
  EXPECT_EQ(fb.slot, et::gpusim::kNoSlot);
}

TEST(BatchedGenerationFaults, NthLaunchFaultRetiresOnlyTheFaultedSlot) {
  // Satellite 3: locate (from a clean run's slot-attributed history) the
  // launch index of slot 1's attention kernel in its SECOND tick, arm the
  // injector to fault exactly that launch on a fresh device, and decode
  // again. Only slot 1 may stop (kernel_fault, tokens a strict prefix);
  // slots 0 and 2 must still be bit-identical to the sequential runs.
  const std::size_t max_context = 10;
  const Model m = make_model(2, 32, 2, max_context, 19, false);
  const std::vector<Request> requests = {
      {1, 6, et::nn::kNoEosToken, 51}, {2, 6, et::nn::kNoEosToken, 52},
      {3, 6, et::nn::kNoEosToken, 53}};

  et::gpusim::Device seq_dev, clean_dev;
  const auto sequential = et::diff::run_sequential(
      seq_dev, m.layers, m.opt, max_context, requests, kVocab);
  const auto clean = et::diff::run_batched(clean_dev, m.layers, m.opt, 3,
                                           max_context, requests, kVocab);
  et::diff::expect_bit_identical(sequential, clean.outcomes);

  // Faulted launches never reach the history, so on a clean run the
  // 0-based launch-attempt index equals the history index.
  std::vector<std::size_t> slot1_attention;
  const auto& history = clean_dev.history();
  for (std::size_t i = 0; i < history.size(); ++i) {
    if (history[i].slot == 1 &&
        history[i].name == "incremental_otf_attention") {
      slot1_attention.push_back(i);
    }
  }
  ASSERT_GE(slot1_attention.size(), m.layers.size() + 1);
  const std::size_t target = slot1_attention[m.layers.size()];

  et::gpusim::Device fault_dev;
  fault_dev.fault_injector().arm_nth_launch(target);
  const auto faulted = et::diff::run_batched(fault_dev, m.layers, m.opt, 3,
                                             max_context, requests, kVocab);

  const auto& hit = faulted.outcomes[1].result;
  EXPECT_EQ(hit.stop_reason, et::nn::StopReason::kKernelFault);
  EXPECT_NE(hit.fault_kernel.find("incremental_otf_attention"),
            std::string::npos);
  // One tick completed before the fault: the surviving prefix.
  ASSERT_EQ(hit.tokens.size(), 1u);
  EXPECT_EQ(hit.tokens[0], sequential[1].result.tokens[0]);
  EXPECT_EQ(faulted.outcomes[1].hidden_hashes,
            std::vector<std::uint64_t>(sequential[1].hidden_hashes.begin(),
                                       sequential[1].hidden_hashes.begin() +
                                           1));

  // The other slots never notice.
  for (std::size_t i : {std::size_t{0}, std::size_t{2}}) {
    EXPECT_EQ(faulted.outcomes[i].result.tokens,
              sequential[i].result.tokens)
        << "request " << i;
    EXPECT_EQ(faulted.outcomes[i].hidden_hashes, sequential[i].hidden_hashes)
        << "request " << i;
    EXPECT_EQ(faulted.outcomes[i].result.stop_reason,
              et::nn::StopReason::kMaxTokens);
  }

  // The retirement is observable: a slot-attributed fallback event.
  bool saw_retire = false;
  for (const auto& fb : fault_dev.fallback_log()) {
    if (fb.to_impl == "retire_slot" && fb.slot == 1) saw_retire = true;
  }
  EXPECT_TRUE(saw_retire);
}

// ---------------------------------------------------------------------------
// Scheduler API contract.
// ---------------------------------------------------------------------------
TEST(BatchedGenerationApi, RejectsZeroMaxBatchButAcceptsPrecomputedVo) {
  const Model m = make_model(1, 32, 2, 8, 23, false);
  EXPECT_THROW(et::nn::BatchedGenerationScheduler(
                   et::nn::Model(&m.layers, m.opt, 8), 0),
               std::invalid_argument);

  Model pre = make_model(1, 32, 2, 8, 23, false);
  const auto& wv =
      std::get<et::sparse::DenseWeight>(pre.layers[0].attn.wv).matrix();
  const auto& wo =
      std::get<et::sparse::DenseWeight>(pre.layers[0].attn.wo).matrix();
  pre.layers[0].attn.vo =
      et::core::precompute_vo(wv, wo, pre.opt.attn.num_heads);
  // Regression for the OLD contract: pre-computed W_VO used to be
  // rejected at scheduler construction. The cached decode path now
  // consumes the fold (condensed V-plane, no output projection), so the
  // same weights must construct AND decode.
  const et::nn::Model handle(&pre.layers, pre.opt, 8);
  EXPECT_TRUE(handle.has_precomputed());
  et::nn::BatchedGenerationScheduler sched(handle, 2);
  et::nn::GenerationRequest req;
  req.max_new_tokens = 3;
  req.embed = et::diff::make_embed(32, 5);
  req.select = et::diff::make_select(kVocab);
  const std::size_t id = sched.submit(std::move(req));
  et::gpusim::Device dev;
  et::core::ExecContext ctx(dev);
  (void)sched.run(ctx);
  EXPECT_EQ(sched.result(id).stop_reason, et::nn::StopReason::kMaxTokens);
  EXPECT_EQ(sched.result(id).tokens.size(), 3u);
}

TEST(BatchedGenerationApi, ZeroTokenRequestCompletesWithoutASlot) {
  const Model m = make_model(1, 32, 2, 8, 27, false);
  et::nn::BatchedGenerationScheduler sched(et::nn::Model(&m.layers, m.opt, 8),
                                           2);
  et::nn::GenerationRequest req;
  req.max_new_tokens = 0;
  req.embed = et::diff::make_embed(32, 1);
  req.select = et::diff::make_select(kVocab);
  const std::size_t id = sched.submit(std::move(req));
  EXPECT_TRUE(sched.finished(id));
  EXPECT_TRUE(sched.idle());
  EXPECT_TRUE(sched.result(id).tokens.empty());
  EXPECT_EQ(sched.result(id).stop_reason, et::nn::StopReason::kMaxTokens);
}

TEST(BatchedGenerationApi, ResultThrowsUntilTheRequestFinishes) {
  const Model m = make_model(1, 32, 2, 8, 29, false);
  et::nn::BatchedGenerationScheduler sched(et::nn::Model(&m.layers, m.opt, 8),
                                           2);
  et::nn::GenerationRequest req;
  req.max_new_tokens = 2;
  req.embed = et::diff::make_embed(32, 2);
  req.select = et::diff::make_select(kVocab);
  const std::size_t id = sched.submit(std::move(req));
  EXPECT_FALSE(sched.finished(id));
  EXPECT_THROW((void)sched.result(id), std::logic_error);
  EXPECT_EQ(sched.pending(), 1u);

  et::gpusim::Device dev;
  et::core::ExecContext ctx(dev);
  (void)sched.run(ctx);
  EXPECT_TRUE(sched.finished(id));
  EXPECT_EQ(sched.result(id).tokens.size(), 2u);
}

TEST(BatchedGenerationApi, SingleActiveSlotTakesThePerSlotPath) {
  // A lone active slot gains nothing from the batched launch; the
  // scheduler must step per slot and count no batched ticks.
  const std::size_t max_context = 8;
  const Model m = make_model(1, 32, 2, max_context, 31, false);
  const std::vector<Request> requests = {{4, 3, et::nn::kNoEosToken, 41}};

  et::gpusim::Device seq_dev, batch_dev;
  const auto sequential = et::diff::run_sequential(
      seq_dev, m.layers, m.opt, max_context, requests, kVocab);
  const auto batched = et::diff::run_batched(batch_dev, m.layers, m.opt, 2,
                                             max_context, requests, kVocab);

  et::diff::expect_bit_identical(sequential, batched.outcomes);
  EXPECT_EQ(batched.batched_ticks, 0u);
  EXPECT_EQ(batched.ticks, 3u);
}

// ---------------------------------------------------------------------------
// Per-slot profiler attribution over a real batched run.
// ---------------------------------------------------------------------------
TEST(BatchedGeneration, ProfilerAttributesAttentionToSlots) {
  const std::size_t max_context = 8;
  const Model m = make_model(2, 32, 2, max_context, 37, false);
  const std::vector<Request> requests = {
      {1, 4, et::nn::kNoEosToken, 61}, {2, 4, et::nn::kNoEosToken, 62}};

  et::gpusim::Device dev;
  et::core::ExecContext ctx(dev);
  (void)et::diff::run_batched(dev, m.layers, m.opt, 2, max_context, requests,
                              kVocab);

  // Every slot did attention work; the shared batched kernels stay
  // unattributed.
  EXPECT_GT(dev.time_us_for_slot(0), 0.0);
  EXPECT_GT(dev.time_us_for_slot(1), 0.0);
  const auto report = et::gpusim::profile(dev);
  ASSERT_FALSE(report.slots.empty());
  bool saw_shared = false, saw_slot0 = false, saw_slot1 = false;
  for (const auto& s : report.slots) {
    if (s.slot == et::gpusim::kNoSlot) saw_shared = true;
    if (s.slot == 0) saw_slot0 = true;
    if (s.slot == 1) saw_slot1 = true;
  }
  EXPECT_TRUE(saw_shared);
  EXPECT_TRUE(saw_slot0);
  EXPECT_TRUE(saw_slot1);
}

}  // namespace
