// BatchedGenerationScheduler: slot-based batched decoding must be
// BIT-IDENTICAL to N independent nn::generate runs — across shapes,
// pruned formats, retirement causes (eos / max_tokens / kv_cache_full /
// kernel_fault) and injected faults mid-batch. See tests/differential.hpp
// for the harness and docs/serving.md for the methodology.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <optional>
#include <ostream>

#include "differential.hpp"
#include "gpusim/profiler.hpp"
#include "pruning/criteria.hpp"
#include "tensor/random.hpp"

namespace {

using et::diff::Outcome;
using et::diff::Request;
using et::tensor::MatrixF;

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
  // The full cross product of heads, tokens and the tile-pruned projection
  // path, each with more requests than slots (backfill).
  for (std::size_t heads : {1, 2, 4}) {
    for (std::size_t tokens : {1, 3, 5, 9}) {
      for (bool prune : {false, true}) {
        cases.push_back({heads, tokens, prune, 4, 3});
        cases.push_back({heads, tokens, prune, 5, 2});
      }
    }
  }
  // Batch shapes it leaves out: as many slots as requests, more slots
  // than requests (idle slots), the per-slot N=1 path, and three requests
  // over two slots.
  cases.push_back({1, 1, false, 3, 3});
  cases.push_back({2, 3, false, 2, 4});
  cases.push_back({2, 4, false, 1, 2});
  cases.push_back({4, 3, true, 3, 2});
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
  // A batched tick's attention launch is shared by every slot, so its
  // fault blames none: the tick degrades to per-slot stepping, where each
  // slot's attention launch carries its own id. Strike slot 1 in its
  // SECOND tick: before that tick, a name rule faults the shared attention
  // launch and an nth rule faults slot 1's own retry launch, located from
  // the history of a run faulted by the name rule alone. Only slot 1 may
  // stop (kernel_fault, tokens a strict prefix); slots 0 and 2 must still
  // be bit-identical to the sequential runs.
  const std::size_t max_context = 10;
  const Model m = make_model(2, 32, 2, max_context, 19, false);
  const std::vector<Request> requests = {
      {1, 6, et::nn::kNoEosToken, 51}, {2, 6, et::nn::kNoEosToken, 52},
      {3, 6, et::nn::kNoEosToken, 53}};

  et::gpusim::Device seq_dev, once_dev;
  const auto sequential = et::diff::run_sequential(
      seq_dev, m.layers, m.opt, max_context, requests, kVocab);
  const auto arm_shared = [](std::size_t ticks_run,
                             et::gpusim::Device& dev) {
    if (ticks_run == 1) {
      dev.fault_injector().arm_kernel("incremental_otf_attention", 1);
    }
  };
  const auto once = et::diff::run_batched(
      once_dev, m.layers, m.opt, 3, max_context, requests, kVocab, 1, {}, {},
      false, arm_shared);
  // The shared fault alone retires nobody and changes no transcript.
  et::diff::expect_bit_identical(sequential, once.outcomes);
  EXPECT_EQ(once.per_slot_fallback_ticks, 1u);

  // Only the degraded tick stamps slots. Faulted launches never reach the
  // history, so every launch after the one faulted attempt sits one
  // attempt index past its history index.
  std::vector<std::size_t> slot1_attention;
  const auto& history = once_dev.history();
  for (std::size_t i = 0; i < history.size(); ++i) {
    if (history[i].slot == 1 &&
        history[i].name == "incremental_otf_attention") {
      slot1_attention.push_back(i);
    }
  }
  ASSERT_EQ(slot1_attention.size(), m.layers.size());
  const std::size_t target = slot1_attention[0] + 1;

  et::gpusim::Device fault_dev;
  const auto arm_both = [&](std::size_t ticks_run, et::gpusim::Device& dev) {
    arm_shared(ticks_run, dev);
    if (ticks_run == 1) {
      dev.fault_injector().arm_nth_launch(
          target - dev.fault_injector().launches_seen());
    }
  };
  const auto faulted = et::diff::run_batched(
      fault_dev, m.layers, m.opt, 3, max_context, requests, kVocab, 1, {}, {},
      false, arm_both);

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

  // Both faults are observable, in order: the shared launch degrades the
  // tick (no slot), then slot 1's own launch retires it.
  EXPECT_EQ(fault_dev.fault_injector().faults_injected(), 2u);
  EXPECT_EQ(faulted.per_slot_fallback_ticks, 1u);
  const auto& fallbacks = fault_dev.fallback_log();
  ASSERT_EQ(fallbacks.size(), 2u);
  EXPECT_EQ(fallbacks[0].to_impl, "per_slot_decode");
  EXPECT_EQ(fallbacks[0].slot, et::gpusim::kNoSlot);
  EXPECT_EQ(fallbacks[1].to_impl, "retire_slot");
  EXPECT_EQ(fallbacks[1].slot, 1);
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
  const std::size_t slot = sched.admit(std::move(req));
  et::gpusim::Device dev;
  et::core::ExecContext ctx(dev);
  while (sched.active() > 0) sched.tick(ctx);
  const auto retired = sched.take_retired();
  ASSERT_EQ(retired.size(), 1u);
  EXPECT_EQ(retired[0].slot, slot);
  EXPECT_EQ(retired[0].result.stop_reason, et::nn::StopReason::kMaxTokens);
  EXPECT_EQ(retired[0].result.tokens.size(), 3u);
}

// The scheduler seats only what it can decode: a request with no tokens
// to decode and a request that finds every slot taken are refused, and
// neither takes a slot.
TEST(BatchedGenerationApi, AdmitRefusesZeroTokensAndAFullPool) {
  const Model m = make_model(1, 32, 2, 8, 27, false);
  et::nn::BatchedGenerationScheduler sched(et::nn::Model(&m.layers, m.opt, 8),
                                           1);
  const auto request = [](std::size_t tokens) {
    et::nn::GenerationRequest req;
    req.max_new_tokens = tokens;
    req.embed = et::diff::make_embed(32, 1);
    req.select = et::diff::make_select(kVocab);
    return req;
  };
  EXPECT_THROW((void)sched.admit(request(0)), std::invalid_argument);
  EXPECT_EQ(sched.active(), 0u);
  EXPECT_EQ(sched.admit(request(2)), 0u);
  EXPECT_THROW((void)sched.admit(request(2)), std::length_error);
  EXPECT_EQ(sched.active(), 1u);
  EXPECT_THROW((void)sched.cancel(1), std::invalid_argument);
  EXPECT_EQ(sched.cancel(0).stop_reason, et::nn::StopReason::kCancelled);
  EXPECT_EQ(sched.active(), 0u);
  EXPECT_TRUE(sched.take_retired().empty());  // a cancel hands back directly
}

// A seated request's transcript starts with its resume_tokens: the tick
// replays those positions without calling select(), the result carries
// them at its front, and a cancel mid-replay hands back the whole
// transcript rather than the replayed-so-far part.
TEST(BatchedGenerationApi, SeatedTranscriptStartsWithResumeTokens) {
  const std::size_t max_context = 8, tokens = 5, resumed = 3;
  const Model m = make_model(2, 32, 2, max_context, 33, false);
  const std::vector<Request> requests = {{4, tokens, et::nn::kNoEosToken, 45}};
  et::gpusim::Device seq_dev;
  const auto sequential = et::diff::run_sequential(
      seq_dev, m.layers, m.opt, max_context, requests, kVocab);
  const std::vector<std::int32_t>& reference = sequential[0].result.tokens;
  ASSERT_EQ(reference.size(), tokens);

  et::gpusim::Device dev;
  et::core::ExecContext ctx(dev);
  et::nn::BatchedGenerationScheduler sched(
      et::nn::Model(&m.layers, m.opt, max_context), 1);
  std::vector<std::uint64_t> hashes;
  const auto request = [&] {
    et::nn::GenerationRequest req;
    req.first_token = requests[0].first_token;
    req.max_new_tokens = tokens;
    req.embed = et::diff::make_embed(32, requests[0].seed);
    req.select = et::diff::make_select(kVocab, &hashes);
    req.resume_tokens.assign(reference.begin(), reference.begin() + resumed);
    return req;
  };

  std::size_t slot = sched.admit(request());
  sched.tick(ctx);  // replays position 0 of 3
  EXPECT_EQ(sched.tokens(slot), request().resume_tokens);
  const et::nn::GenerationResult cancelled = sched.cancel(slot);
  EXPECT_EQ(cancelled.stop_reason, et::nn::StopReason::kCancelled);
  EXPECT_EQ(cancelled.tokens, request().resume_tokens);
  EXPECT_TRUE(hashes.empty());

  slot = sched.admit(request());
  while (sched.active() > 0) sched.tick(ctx);
  const auto retired = sched.take_retired();
  ASSERT_EQ(retired.size(), 1u);
  EXPECT_EQ(retired[0].slot, slot);
  EXPECT_EQ(retired[0].result.stop_reason, et::nn::StopReason::kMaxTokens);
  EXPECT_EQ(retired[0].result.tokens, reference);
  // select() ran past the transcript's end only, on the same hidden
  // states the uninterrupted run saw there.
  EXPECT_EQ(hashes, std::vector<std::uint64_t>(
                        sequential[0].hidden_hashes.begin() + resumed,
                        sequential[0].hidden_hashes.end()));
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
  // A batched tick's attention launch is shared, so it carries kNoSlot; a
  // tick that steps slots one at a time (here the first, degraded by one
  // fault in the shared q/k/v GEMM) stamps each slot's own launch.
  const std::size_t max_context = 8;
  const std::size_t tokens = 4;
  const Model m = make_model(2, 32, 2, max_context, 37, false);
  const std::vector<Request> requests = {
      {1, tokens, et::nn::kNoEosToken, 61},
      {2, tokens, et::nn::kNoEosToken, 62}};

  et::gpusim::Device dev;
  dev.fault_injector().arm_kernel("gen_qkv_batched", 1);
  const auto run = et::diff::run_batched(dev, m.layers, m.opt, 2, max_context,
                                         requests, kVocab);
  ASSERT_EQ(run.per_slot_fallback_ticks, 1u);
  ASSERT_EQ(run.batched_ticks, tokens);

  const std::size_t heads = m.opt.attn.num_heads;
  std::size_t shared = 0, slot0 = 0, slot1 = 0;
  for (const auto& k : dev.history()) {
    if (k.name != "incremental_otf_attention") continue;
    if (k.slot == et::gpusim::kNoSlot) {
      ++shared;
      EXPECT_EQ(k.ctas, 2 * heads);  // one launch for both slots
    } else {
      EXPECT_EQ(k.ctas, heads);  // a slot's own launch
      (k.slot == 0 ? slot0 : slot1) += 1;
    }
  }
  // The degraded tick: each slot's layers; every other tick: one shared
  // launch per layer.
  EXPECT_EQ(slot0, m.layers.size());
  EXPECT_EQ(slot1, m.layers.size());
  EXPECT_EQ(shared, (tokens - 1) * m.layers.size());
  EXPECT_GT(dev.time_us_for_slot(0), 0.0);
  EXPECT_GT(dev.time_us_for_slot(1), 0.0);

  const auto report = et::gpusim::profile(dev);
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

// ---------------------------------------------------------------------------
// One attention launch per layer per tick.
// ---------------------------------------------------------------------------
/// Every field of a launch record but its slot.
void expect_same_record(const et::gpusim::KernelStats& a,
                        const et::gpusim::KernelStats& b) {
  EXPECT_EQ(a.name, b.name);
  EXPECT_EQ(a.ctas, b.ctas);
  EXPECT_EQ(a.shared_bytes_per_cta, b.shared_bytes_per_cta);
  EXPECT_EQ(a.pattern, b.pattern);
  EXPECT_EQ(a.global_load_bytes, b.global_load_bytes);
  EXPECT_EQ(a.global_store_bytes, b.global_store_bytes);
  EXPECT_EQ(a.score_bytes, b.score_bytes);
  EXPECT_EQ(a.fp_ops, b.fp_ops);
  EXPECT_EQ(a.tensor_ops, b.tensor_ops);
  EXPECT_EQ(a.time_us, b.time_us);
  EXPECT_EQ(a.sm_efficiency, b.sm_efficiency);
  EXPECT_EQ(a.ipc, b.ipc);
}

std::vector<et::gpusim::KernelStats> attention_records(
    const et::gpusim::Device& dev, std::size_t begin, std::size_t end) {
  std::vector<et::gpusim::KernelStats> out;
  for (std::size_t i = begin; i < end; ++i) {
    if (dev.history()[i].name == "incremental_otf_attention") {
      out.push_back(dev.history()[i]);
    }
  }
  return out;
}

TEST(BatchedGeneration, OneAttentionLaunchPerLayerPerTick) {
  // Request i joins before tick i and decodes `tokens` tokens, so ticks
  // 2..4 hold three slots with three different context lengths, ticks 1
  // and 5 two, and ticks 0 and 6 one. Each request is also decoded alone
  // (a batch of one) for its per-position attention records and its
  // transcript.
  const std::size_t max_context = 8, tokens = 5, num_requests = 3;
  const Model m = make_model(2, 32, 2, max_context, 43, false);
  const std::size_t layers = m.layers.size();
  const std::size_t heads = m.opt.attn.num_heads;
  std::vector<Request> requests(num_requests);
  for (std::size_t i = 0; i < num_requests; ++i) {
    requests[i].first_token = static_cast<std::int32_t>(i + 1);
    requests[i].max_new_tokens = tokens;
    requests[i].seed = 300 + i;
  }

  for (const auto kv_precision :
       {et::core::KvPrecision::kFp32, et::core::KvPrecision::kInt8}) {
    const bool int8 = kv_precision == et::core::KvPrecision::kInt8;
    SCOPED_TRACE(int8 ? "int8 KV pool" : "fp32 KV pool");
    const et::core::PagedKVOptions kv{.precision = kv_precision};

    // lone[i][pos * layers + l]: request i's attention record at context
    // position pos of layer l, decoded alone.
    std::vector<std::vector<et::gpusim::KernelStats>> lone;
    std::vector<et::diff::Outcome> lone_outcomes;
    for (const Request& r : requests) {
      et::gpusim::Device dev;
      const auto run = et::diff::run_batched(dev, m.layers, m.opt, 1,
                                             max_context, {r}, kVocab, 1, kv);
      lone.push_back(attention_records(dev, 0, dev.history().size()));
      ASSERT_EQ(lone.back().size(), tokens * layers);
      lone_outcomes.push_back(run.outcomes[0]);
      if (!int8) {
        // A one-slot tick records exactly GenerationSession's launch.
        et::gpusim::Device seq_dev;
        (void)et::diff::run_sequential(seq_dev, m.layers, m.opt, max_context,
                                       {r}, kVocab);
        const auto seq = attention_records(seq_dev, 0,
                                           seq_dev.history().size());
        ASSERT_EQ(seq.size(), lone.back().size());
        for (std::size_t j = 0; j < seq.size(); ++j) {
          expect_same_record(seq[j], lone.back()[j]);
          EXPECT_EQ(seq[j].slot, et::gpusim::kNoSlot);
          EXPECT_EQ(lone.back()[j].slot, 0);
        }
      }
    }

    for (const std::size_t threads : {1u, 2u, 8u}) {
      SCOPED_TRACE("threads=" + std::to_string(threads));
      et::gpusim::Device dev;
      et::core::ExecContext ctx(dev, threads);
      et::nn::BatchedGenerationScheduler sched(
          et::nn::Model(&m.layers, m.opt, max_context), num_requests, kv);
      std::vector<std::vector<std::uint64_t>> hashes(num_requests);
      std::vector<std::size_t> slots;
      std::vector<et::nn::GenerationResult> results(num_requests);
      std::vector<std::size_t> tick_begin;
      for (std::size_t t = 0; t < num_requests || sched.active() > 0; ++t) {
        if (t < num_requests) {
          et::nn::GenerationRequest req;
          req.first_token = requests[t].first_token;
          req.max_new_tokens = tokens;
          req.embed = et::diff::make_embed(m.opt.attn.d_model,
                                           requests[t].seed);
          req.select = et::diff::make_select(kVocab, &hashes[t]);
          slots.push_back(sched.admit(std::move(req)));
        }
        tick_begin.push_back(dev.history().size());
        sched.tick(ctx);
        for (auto& r : sched.take_retired()) {
          const auto i = std::find(slots.begin(), slots.end(), r.slot);
          results[static_cast<std::size_t>(i - slots.begin())] =
              std::move(r.result);
        }
      }
      tick_begin.push_back(dev.history().size());
      ASSERT_EQ(tick_begin.size(), num_requests + tokens);  // ticks 0..6

      // Batching changes no transcript.
      for (std::size_t i = 0; i < num_requests; ++i) {
        EXPECT_EQ(results[i].tokens, lone_outcomes[i].result.tokens);
        EXPECT_EQ(hashes[i], lone_outcomes[i].hidden_hashes);
      }

      for (std::size_t t = 0; t + 1 < tick_begin.size(); ++t) {
        SCOPED_TRACE("tick " + std::to_string(t));
        std::vector<std::size_t> live;  // requests decoding this tick
        for (std::size_t i = 0; i < num_requests; ++i) {
          if (i <= t && t < i + tokens) live.push_back(i);
        }
        const auto attn =
            attention_records(dev, tick_begin[t], tick_begin[t + 1]);
        ASSERT_EQ(attn.size(), layers);  // one launch per layer
        for (std::size_t l = 0; l < layers; ++l) {
          const auto& k = attn[l];
          // Request i sits at context position t - i.
          const auto one = [&](std::size_t i) -> const auto& {
            return lone[i][(t - i) * layers + l];
          };
          if (live.size() == 1) {
            expect_same_record(k, one(live[0]));
            EXPECT_GE(k.slot, 0);
            EXPECT_LT(k.slot, static_cast<int>(num_requests));
            continue;
          }
          EXPECT_EQ(k.slot, et::gpusim::kNoSlot);
          EXPECT_EQ(k.ctas, heads * live.size());
          // The longest context is the earliest request's.
          EXPECT_EQ(k.shared_bytes_per_cta, one(live[0]).shared_bytes_per_cta);
          std::uint64_t loads = 0, stores = 0, fp = 0, tensor = 0;
          double alone_us = 0.0;
          for (const std::size_t i : live) {
            loads += one(i).global_load_bytes;
            stores += one(i).global_store_bytes;
            fp += one(i).fp_ops;
            tensor += one(i).tensor_ops;
            alone_us += one(i).time_us;
          }
          EXPECT_EQ(k.global_load_bytes, loads);
          EXPECT_EQ(k.global_store_bytes, stores);
          EXPECT_EQ(k.fp_ops, fp);
          EXPECT_EQ(k.tensor_ops, tensor);
          EXPECT_LT(k.time_us, alone_us);  // the fixed cost is paid once
        }
      }
    }
  }
}

// A request whose embed() returns a row of the wrong width is refused,
// naming its slot, before the tick launches anything. The refused tick
// changes nothing the others see: once the slot is cancelled they finish
// with the transcripts of a run that never had it.
TEST(BatchedGenerationApi, WrongWidthEmbedThrowsBeforeAnyLaunch) {
  constexpr std::size_t kMaxContext = 8;
  const Model m = make_model(2, 32, 2, kMaxContext, 61, false);
  const std::vector<Request> good = {{1, 4, et::nn::kNoEosToken, 71},
                                     {2, 4, et::nn::kNoEosToken, 72},
                                     {3, 4, et::nn::kNoEosToken, 73}};
  et::gpusim::Device seq_dev;
  const auto sequential = et::diff::run_sequential(
      seq_dev, m.layers, m.opt, kMaxContext, good, kVocab);

  et::gpusim::Device dev;
  et::core::ExecContext ctx(dev);
  et::nn::BatchedGenerationScheduler sched(
      et::nn::Model(&m.layers, m.opt, kMaxContext), 4);
  std::vector<Outcome> outcomes(good.size());
  std::vector<std::size_t> slots;
  for (std::size_t i = 0; i < good.size(); ++i) {
    if (i == 1) {
      et::nn::GenerationRequest bad;
      bad.first_token = 9;
      bad.max_new_tokens = 4;
      bad.embed = [](std::int32_t, std::size_t) { return MatrixF(1, 8); };
      bad.select = et::diff::make_select(kVocab);
      EXPECT_EQ(sched.admit(std::move(bad)), 1u);
    }
    et::nn::GenerationRequest req;
    req.first_token = good[i].first_token;
    req.max_new_tokens = good[i].max_new_tokens;
    req.embed = et::diff::make_embed(32, good[i].seed);
    req.select = et::diff::make_select(kVocab, &outcomes[i].hidden_hashes);
    slots.push_back(sched.admit(std::move(req)));
  }

  try {
    sched.tick(ctx);
    ADD_FAILURE() << "a 1x8 embed row for d_model 32 was accepted";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("slot 1"), std::string::npos) << what;
    EXPECT_NE(what.find("1x8"), std::string::npos) << what;
  }
  EXPECT_EQ(dev.launch_count(), 0u);

  const et::nn::GenerationResult cancelled = sched.cancel(1);
  EXPECT_EQ(cancelled.stop_reason, et::nn::StopReason::kCancelled);
  EXPECT_TRUE(cancelled.tokens.empty());
  while (sched.active() > 0) sched.tick(ctx);
  for (auto& r : sched.take_retired()) {
    const auto i = std::find(slots.begin(), slots.end(), r.slot);
    ASSERT_NE(i, slots.end());
    outcomes[static_cast<std::size_t>(i - slots.begin())].result =
        std::move(r.result);
  }
  et::diff::expect_bit_identical(sequential, outcomes);
}

TEST(BatchedGenerationApi, SessionStepRefusesWrongWidthRow) {
  const Model m = make_model(1, 32, 2, 4, 62, false);
  et::gpusim::Device dev;
  et::core::ExecContext ctx(dev);
  et::nn::GenerationSession session(et::nn::Model(&m.layers, m.opt, 4));
  EXPECT_THROW((void)session.step(ctx, MatrixF(1, 8)), std::invalid_argument);
  EXPECT_THROW((void)session.step(ctx, MatrixF(2, 32)),
               std::invalid_argument);
  EXPECT_EQ(dev.launch_count(), 0u);
  EXPECT_EQ(session.context_length(), 0u);
}

// ---------------------------------------------------------------------------
// Traffic-only values: a traffic-only device computes nothing, and the
// matrices its kernels return hold unspecified values. What leaves the
// library must not depend on them: select() sees a fresh all-zero row,
// and every KV row a pool holds reads back as zeros (on an int8 pool,
// zero bytes with reconstruction scale 1).
// ---------------------------------------------------------------------------

/// A select that counts its calls and those whose hidden state is not an
/// all-(+0) 1 × d row.
et::nn::SelectFn zero_row_select(std::size_t d, std::size_t& calls,
                                 std::size_t& nonzero) {
  return [d, &calls, &nonzero](const MatrixF& hidden) {
    ++calls;
    bool zero = hidden.rows() == 1 && hidden.cols() == d;
    for (const float v : hidden.flat()) {
      zero = zero && std::bit_cast<std::uint32_t>(v) == 0;
    }
    if (!zero) ++nonzero;
    return static_cast<std::int32_t>(calls % 7);
  };
}

/// Every row below an in-use slot's cursor, in every layer, reads back as
/// +0 and carries reconstruction scale 1.
void expect_resident_kv_rows_zero(const et::core::PagedKVPool& pool) {
  const et::core::BlockAllocator& alloc = pool.allocator();
  const std::size_t bt = alloc.block_tokens();
  for (std::size_t s = 0; s < pool.num_slots(); ++s) {
    const et::core::PagedKVSlot& slot = pool.slot(s);
    if (!slot.in_use()) continue;
    for (std::size_t l = 0; l < alloc.num_layers(); ++l) {
      for (const MatrixF& rows : {slot.k_prefix(l), slot.v_prefix(l)}) {
        for (const float v : rows.flat()) {
          ASSERT_EQ(std::bit_cast<std::uint32_t>(v), 0u)
              << "slot " << s << " layer " << l;
        }
      }
      for (std::size_t r = 0; r < slot.used(l); ++r) {
        const et::core::BlockId b = slot.table()[r / bt];
        EXPECT_EQ(alloc.k_row_scale(l, b, r % bt), 1.0f);
        EXPECT_EQ(alloc.v_row_scale(l, b, r % bt), 1.0f);
      }
    }
  }
}

struct TrafficOnlyCase {
  et::core::KvPrecision kv;
  std::optional<et::nn::WeightFormat> format;
};

class TrafficOnlyValues : public ::testing::TestWithParam<TrafficOnlyCase> {};

TEST_P(TrafficOnlyValues, ServedSelectRowsAndKvRowsStayZero) {
  const Model m = make_model(2, 16, 2, 12, 63, /*prune_wq=*/true);
  et::gpusim::Device dev;
  dev.set_traffic_only(true);
  et::core::ExecContext ctx(dev);
  et::serving::ServerConfig cfg;
  cfg.max_batch = 3;
  cfg.kv.block_tokens = 2;
  cfg.kv.precision = GetParam().kv;
  et::serving::InferenceServer server(
      et::nn::Model(&m.layers, m.opt, 12, GetParam().format), cfg);
  std::size_t calls = 0, nonzero = 0;
  const auto submit = [&](std::vector<std::int32_t> prompt,
                          std::size_t tokens) {
    et::serving::Request req;
    req.prompt_tokens = std::move(prompt);
    req.prefix_group = 1;
    req.max_new_tokens = tokens;
    req.embed = et::diff::make_embed(16, 7);
    req.select = zero_row_select(16, calls, nonzero);
    (void)server.submit(req);
  };
  // Batched ticks, then the second request alone on the per-slot path
  // until it reaches the context limit. The request submitted at tick 5
  // shares the first one's whole prompt, so it skips the shared rows'
  // appends and a CoW split copies rows the first one wrote.
  submit({5, 6, 7, 8, 9}, 3);
  submit({3}, 20);
  while (!server.idle()) {
    if (server.now() == 5) submit({5, 6, 7, 8, 9, 1}, 2);
    server.tick(ctx);
    expect_resident_kv_rows_zero(server.scheduler().pool());
  }
  EXPECT_EQ(calls, 3u + 12u + 2u);
  EXPECT_EQ(nonzero, 0u);
  EXPECT_GT(server.scheduler().batched_ticks(), 0u);
  EXPECT_GT(server.scheduler().pool().stats().prefix_hits, 0u);
  EXPECT_GT(server.scheduler().pool().stats().cow_splits, 0u);
}

TEST_P(TrafficOnlyValues, GenerateSelectRowsStayZero) {
  const Model m = make_model(2, 16, 2, 12, 64, /*prune_wq=*/true);
  et::gpusim::Device dev;
  dev.set_traffic_only(true);
  et::core::ExecContext ctx(dev);
  et::nn::GenerationSession session(
      et::nn::Model(&m.layers, m.opt, 12, GetParam().format));
  std::size_t calls = 0, nonzero = 0;
  et::nn::DecodeParams params;
  params.prompt_tokens = {4, 2};
  params.max_new_tokens = 5;
  params.embed = et::diff::make_embed(16, 8);
  params.select = zero_row_select(16, calls, nonzero);
  const et::nn::GenerationResult r = et::nn::generate(ctx, session, params);
  EXPECT_EQ(r.tokens.size(), 5u);
  EXPECT_EQ(calls, 5u);
  EXPECT_EQ(nonzero, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    KvAndWeights, TrafficOnlyValues,
    ::testing::Values(
        TrafficOnlyCase{et::core::KvPrecision::kFp32, std::nullopt},
        TrafficOnlyCase{et::core::KvPrecision::kInt8,
                        et::nn::WeightFormat::kInt8}),
    [](const ::testing::TestParamInfo<TrafficOnlyCase>& c) {
      return c.param.kv == et::core::KvPrecision::kInt8 ? "Int8" : "Fp32";
    });

}  // namespace
