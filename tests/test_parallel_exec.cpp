// The threads axis of the differential spine: every workload must be
// BIT-IDENTICAL across ExecContext thread counts — outputs, token
// streams, hidden-state bit hashes, the device launch log, per-slot
// attribution, and injected-fault indices. threads=1 is the canonical
// serial semantics; threads∈{2,8} must reproduce it exactly
// (docs/threading.md). Runs under the `parallel` ctest label, including
// in the tsan preset.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/exec_context.hpp"
#include "differential.hpp"
#include "nn/encoder.hpp"
#include "tensor/matrix.hpp"
#include "tensor/random.hpp"

namespace {

constexpr std::int32_t kVocab = 29;

struct Model {
  std::vector<et::nn::EncoderWeights> layers;
  et::nn::EncoderOptions opt;
};

Model make_model(std::size_t num_layers, std::size_t d_model,
                 std::size_t num_heads, std::size_t seq_len,
                 std::uint64_t seed) {
  et::nn::ModelConfig cfg;
  cfg.num_layers = num_layers;
  cfg.d_model = d_model;
  cfg.num_heads = num_heads;
  cfg.d_ff = 2 * d_model;
  Model m;
  for (std::size_t l = 0; l < num_layers; ++l) {
    m.layers.push_back(et::nn::make_dense_encoder_weights(cfg, seed + l));
  }
  m.opt = et::nn::options_for(et::nn::Pipeline::kET, cfg, seq_len,
                              /*causal=*/true);
  return m;
}

/// Launch-log fingerprint: every field that the determinism contract
/// promises is thread-count-invariant.
std::vector<std::tuple<std::string, std::size_t, int, std::uint64_t, double>>
log_fingerprint(const et::gpusim::Device& dev) {
  std::vector<std::tuple<std::string, std::size_t, int, std::uint64_t, double>>
      out;
  for (const auto& k : dev.history()) {
    out.emplace_back(k.name, k.ctas, k.slot,
                     k.global_load_bytes + k.global_store_bytes + k.fp_ops +
                         k.tensor_ops,
                     k.time_us);
  }
  return out;
}

// -------------------------------------------------------------------------
// Differential sweep, threads axis: batched decode at threads∈{2,8} vs
// the serial sequential reference AND the serial batched run.
// -------------------------------------------------------------------------

class ThreadsSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ThreadsSweep, BatchedDecodeBitIdenticalToSerial) {
  const std::size_t threads = GetParam();
  const std::size_t max_new_tokens = 5;
  const std::size_t max_context = max_new_tokens + 2;
  const Model m = make_model(2, 32, 2, max_context, 11);

  std::vector<et::diff::Request> requests;
  for (std::size_t i = 0; i < 4; ++i) {
    requests.push_back({static_cast<std::int32_t>(i + 1), max_new_tokens,
                        et::nn::kNoEosToken, 70 + i});
  }

  et::gpusim::Device serial_dev, threaded_dev;
  const auto sequential = et::diff::run_sequential(
      serial_dev, m.layers, m.opt, max_context, requests, kVocab);
  const auto batched =
      et::diff::run_batched(threaded_dev, m.layers, m.opt, /*max_batch=*/3,
                            max_context, requests, kVocab, threads);
  et::diff::expect_bit_identical(sequential, batched.outcomes);
}

TEST_P(ThreadsSweep, DeviceLogBitIdenticalToSerialBatchedRun) {
  // Beyond the transcripts: the launch log itself (names, order, CTA
  // counts, slot attribution, modeled latency) must not depend on the
  // thread count — launches are recorded only on the calling thread, and
  // the pool runs nothing but the per-slot math.
  const std::size_t threads = GetParam();
  const std::size_t max_new_tokens = 4;
  const std::size_t max_context = max_new_tokens + 2;
  const Model m = make_model(2, 32, 2, max_context, 13);

  std::vector<et::diff::Request> requests;
  for (std::size_t i = 0; i < 5; ++i) {
    requests.push_back({static_cast<std::int32_t>(i + 1), max_new_tokens,
                        et::nn::kNoEosToken, 80 + i});
  }

  et::gpusim::Device serial_dev, threaded_dev;
  const auto serial = et::diff::run_batched(serial_dev, m.layers, m.opt, 4,
                                            max_context, requests, kVocab, 1);
  const auto threaded =
      et::diff::run_batched(threaded_dev, m.layers, m.opt, 4, max_context,
                            requests, kVocab, threads);

  et::diff::expect_bit_identical(serial.outcomes, threaded.outcomes);
  EXPECT_EQ(serial.ticks, threaded.ticks);
  EXPECT_EQ(serial.batched_ticks, threaded.batched_ticks);
  EXPECT_EQ(log_fingerprint(serial_dev), log_fingerprint(threaded_dev));
  EXPECT_EQ(serial_dev.total_time_us(), threaded_dev.total_time_us());
  for (int s = 0; s < 4; ++s) {
    EXPECT_EQ(serial_dev.time_us_for_slot(s),
              threaded_dev.time_us_for_slot(s))
        << "slot " << s;
  }
}

TEST_P(ThreadsSweep, SequentialGenerateBitIdenticalAcrossThreads) {
  // The non-batched path too: nn::generate through a threads=N context
  // (kernel math row-partitioned over the pool) equals the serial run.
  const std::size_t threads = GetParam();
  const std::size_t max_new_tokens = 6;
  const std::size_t max_context = max_new_tokens + 1;
  const Model m = make_model(2, 48, 3, max_context, 17);
  const std::vector<et::diff::Request> requests = {
      {3, max_new_tokens, et::nn::kNoEosToken, 55}};

  et::gpusim::Device serial_dev, threaded_dev;
  const auto serial = et::diff::run_sequential(serial_dev, m.layers, m.opt,
                                               max_context, requests, kVocab);
  const auto threaded =
      et::diff::run_sequential(threaded_dev, m.layers, m.opt, max_context,
                               requests, kVocab, threads);
  et::diff::expect_bit_identical(serial, threaded);
  EXPECT_EQ(log_fingerprint(serial_dev), log_fingerprint(threaded_dev));
}

TEST_P(ThreadsSweep, EncoderForwardBitIdenticalAcrossThreads) {
  // Dense + GEMM-heavy forward: the row-partitioned gemm math must not
  // reassociate any reduction.
  const std::size_t threads = GetParam();
  const Model m = make_model(2, 64, 4, 48, 23);
  et::tensor::MatrixF x(48, 64);
  et::tensor::fill_normal(x, 29);

  et::gpusim::Device serial_dev, threaded_dev;
  et::core::ExecContext serial_ctx(serial_dev);
  et::core::ExecContext threaded_ctx(threaded_dev, threads);
  const auto a =
      et::nn::encoder_stack_forward(serial_ctx, x, m.layers, m.opt);
  const auto b =
      et::nn::encoder_stack_forward(threaded_ctx, x, m.layers, m.opt);
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  for (std::size_t r = 0; r < a.rows(); ++r) {
    for (std::size_t c = 0; c < a.cols(); ++c) {
      EXPECT_EQ(a(r, c), b(r, c)) << "(" << r << "," << c << ")";
    }
  }
  EXPECT_EQ(log_fingerprint(serial_dev), log_fingerprint(threaded_dev));
}

TEST_P(ThreadsSweep, InjectedFaultFiresAtSameLaunchIndex) {
  // Launches are recorded only on the calling thread, so the nth-launch
  // rule kills the same logical launch — same faulted kernel, same
  // recovery — at every thread count, while the per-slot math still runs
  // on the pool.
  const std::size_t threads = GetParam();
  const std::size_t max_new_tokens = 4;
  const std::size_t max_context = max_new_tokens + 2;
  const Model m = make_model(2, 32, 2, max_context, 31);

  std::vector<et::diff::Request> requests;
  for (std::size_t i = 0; i < 3; ++i) {
    requests.push_back({static_cast<std::int32_t>(i + 1), max_new_tokens,
                        et::nn::kNoEosToken, 60 + i});
  }

  const auto run_with = [&](std::size_t t) {
    et::gpusim::Device dev;
    dev.fault_injector().arm_nth_launch(40);
    auto run = et::diff::run_batched(dev, m.layers, m.opt, 3, max_context,
                                     requests, kVocab, t);
    return std::make_tuple(std::move(run), dev.fault_injector().launches_seen(),
                           log_fingerprint(dev), dev.fallback_log().size());
  };

  const auto [serial_run, serial_seen, serial_log, serial_falls] = run_with(1);
  const auto [threaded_run, threaded_seen, threaded_log, threaded_falls] =
      run_with(threads);

  et::diff::expect_bit_identical(serial_run.outcomes, threaded_run.outcomes);
  EXPECT_EQ(serial_seen, threaded_seen);
  EXPECT_EQ(serial_log, threaded_log);
  EXPECT_EQ(serial_falls, threaded_falls);
  EXPECT_EQ(serial_run.per_slot_fallback_ticks,
            threaded_run.per_slot_fallback_ticks);
}

INSTANTIATE_TEST_SUITE_P(Threads, ThreadsSweep, ::testing::Values(1, 2, 8),
                         [](const auto& param_info) {
                           return "threads" + std::to_string(param_info.param);
                         });

}  // namespace
