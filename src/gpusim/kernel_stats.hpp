// Per-kernel-launch counters — the simulated analogue of one nvprof row.
#pragma once

#include <cstddef>
#include <cstdint>

#include "gpusim/device_spec.hpp"
#include "gpusim/kernel_name.hpp"

namespace et::gpusim {

/// Sentinel for KernelStats::slot — launch not attributed to any slot.
inline constexpr int kNoSlot = -1;

struct KernelStats {
  KernelName name;
  std::size_t ctas = 0;                  ///< grid size in CTAs
  std::size_t shared_bytes_per_cta = 0;  ///< shared-memory footprint
  AccessPattern pattern = AccessPattern::kStreaming;
  /// Serving-slot attribution (kNoSlot = whole-device / shared work).
  /// Stamped by Device::record from the active SlotScope so batched-decode
  /// profiles can be broken down per sequence.
  int slot = kNoSlot;

  std::uint64_t global_load_bytes = 0;
  std::uint64_t global_store_bytes = 0;
  /// Subset of the global traffic above attributable to the score matrix
  /// S = Q·Kᵀ (or per-row softmax statistics derived from it). Purely an
  /// attribution tag — always also counted in load/store bytes — so the
  /// FlashAttention O(N²) → O(N) score-traffic claim is measurable per
  /// operator without string-matching kernel names.
  std::uint64_t score_bytes = 0;
  std::uint64_t fp_ops = 0;      ///< general-core floating-point ops
  std::uint64_t tensor_ops = 0;  ///< tensor-core ops (1 FMA = 2 ops)

  /// Filled in by the latency model when the launch completes.
  double time_us = 0.0;
  /// Fraction of the kernel's lifetime SMs had resident work (proxy for
  /// nvprof sm_efficiency).
  double sm_efficiency = 0.0;
  /// Instructions-per-cycle proxy (ops per SM-cycle).
  double ipc = 0.0;

  [[nodiscard]] std::uint64_t gld_transactions(
      std::size_t txn_bytes = 32) const {
    return (global_load_bytes + txn_bytes - 1) / txn_bytes;
  }
  [[nodiscard]] std::uint64_t gst_transactions(
      std::size_t txn_bytes = 32) const {
    return (global_store_bytes + txn_bytes - 1) / txn_bytes;
  }
  [[nodiscard]] std::uint64_t total_bytes() const {
    return global_load_bytes + global_store_bytes;
  }
  [[nodiscard]] std::uint64_t total_ops() const { return fp_ops + tensor_ops; }

  /// FLOPs per byte of global traffic; the paper (§5.2.6, citing [36])
  /// calls an operator memory-bound when this is below 138 on V100S.
  [[nodiscard]] double arithmetic_intensity() const {
    const auto bytes = total_bytes();
    return bytes == 0 ? 0.0
                      : static_cast<double>(total_ops()) /
                            static_cast<double>(bytes);
  }

  /// Achieved global-memory throughput in GB/s.
  [[nodiscard]] double achieved_gbps() const {
    return time_us <= 0.0 ? 0.0
                          : static_cast<double>(total_bytes()) / 1e3 / time_us;
  }
};

}  // namespace et::gpusim
