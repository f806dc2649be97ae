// The simulated device: a log of kernel launches with enforced
// shared-memory budgets and a latency model applied to each launch.
//
// Kernels in src/kernels execute their real math on the CPU while calling
// into a Launch handle to record the global-memory traffic, FLOP counts
// and shared-memory footprint the equivalent CUDA kernel would incur.
// This gives us (a) checkable numerics and (b) nvprof-comparable counters
// to reproduce Figures 11 and 12 and the latency studies.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "gpusim/device_spec.hpp"
#include "gpusim/fault_injector.hpp"
#include "gpusim/kernel_stats.hpp"

namespace et::gpusim {

/// Thrown when a kernel requests more shared memory per CTA than the
/// device offers — the §3.2 capacity limit (Eq. 6) made tangible.
class SharedMemOverflow : public std::runtime_error {
 public:
  SharedMemOverflow(std::string_view kernel, std::size_t requested,
                    std::size_t capacity)
      : std::runtime_error("kernel '" + std::string(kernel) + "' requests " +
                           std::to_string(requested) +
                           " B of shared memory per CTA; device offers " +
                           std::to_string(capacity) + " B"),
        kernel_(kernel),
        requested_(requested),
        capacity_(capacity) {}

  [[nodiscard]] const std::string& kernel() const noexcept { return kernel_; }
  [[nodiscard]] std::size_t requested() const noexcept { return requested_; }
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }

 private:
  std::string kernel_;
  std::size_t requested_;
  std::size_t capacity_;
};

/// One recovery step taken by a resilient execution layer (e.g. the
/// core::adaptive_attention degradation chain): implementation `from`
/// failed in kernel `kernel` for `cause`, and `to` was tried instead.
struct FallbackEvent {
  std::string from_impl;
  std::string to_impl;
  std::string kernel;
  std::string cause;
  /// Serving slot the recovery applied to (kNoSlot = whole device, e.g.
  /// a batched tick degrading to per-slot stepping).
  int slot = kNoSlot;
};

struct LaunchConfig {
  /// Read during Device::launch only: the launch record holds an interned
  /// copy, so the string need not outlive the call.
  std::string_view name;
  std::size_t ctas = 1;
  std::size_t shared_bytes_per_cta = 0;
  AccessPattern pattern = AccessPattern::kStreaming;
};

class Device;

/// RAII handle for one simulated kernel launch. Counters accumulate while
/// the handle lives; `finish()` (or destruction) runs the latency model
/// and appends the record to the device log.
class Launch {
 public:
  Launch(Launch&& other) noexcept;
  Launch(const Launch&) = delete;
  Launch& operator=(const Launch&) = delete;
  Launch& operator=(Launch&&) = delete;
  ~Launch();

  void load_bytes(std::uint64_t b) noexcept { stats_.global_load_bytes += b; }
  void store_bytes(std::uint64_t b) noexcept {
    stats_.global_store_bytes += b;
  }
  /// Tag `b` of the bytes already (or about to be) counted above as
  /// score-matrix traffic (see KernelStats::score_bytes). Attribution
  /// only: call IN ADDITION to load_bytes/store_bytes, never instead.
  void score_bytes(std::uint64_t b) noexcept { stats_.score_bytes += b; }
  void fp_ops(std::uint64_t n) noexcept { stats_.fp_ops += n; }
  void tensor_ops(std::uint64_t n) noexcept { stats_.tensor_ops += n; }

  /// Record the launch; idempotent.
  void finish();

 private:
  friend class Device;
  Launch(Device& dev, const LaunchConfig& cfg);

  Device* dev_;
  KernelStats stats_;
  bool finished_ = false;
};

class Device {
 public:
  explicit Device(DeviceSpec spec = v100s()) : spec_(std::move(spec)) {}

  [[nodiscard]] const DeviceSpec& spec() const noexcept { return spec_; }

  /// Begin a kernel launch. Throws SharedMemOverflow if the requested
  /// per-CTA shared memory exceeds the device capacity, or KernelFault if
  /// an armed fault-injection rule trips.
  [[nodiscard]] Launch launch(LaunchConfig cfg);

  /// Deterministic fault source consulted on every launch attempt. Arm it
  /// to rehearse failure: `dev.fault_injector().arm_kernel("otf")`.
  [[nodiscard]] FaultInjector& fault_injector() noexcept { return injector_; }
  [[nodiscard]] const FaultInjector& fault_injector() const noexcept {
    return injector_;
  }

  /// Resilient layers report each degradation step here so recovery is
  /// observable in the profiler rather than silent.
  void note_fallback(FallbackEvent event) {
    fallbacks_.push_back(std::move(event));
  }
  [[nodiscard]] const std::vector<FallbackEvent>& fallback_log()
      const noexcept {
    return fallbacks_;
  }

  /// Would a kernel with this per-CTA footprint fit? launch() throws
  /// SharedMemOverflow exactly when it would not.
  [[nodiscard]] bool fits_shared(std::size_t bytes_per_cta) const noexcept {
    return bytes_per_cta <= spec_.shared_mem_per_cta_bytes;
  }

  [[nodiscard]] const std::vector<KernelStats>& history() const noexcept {
    return log_;
  }
  [[nodiscard]] std::size_t launch_count() const noexcept {
    return log_.size();
  }

  /// Totals over history(), kept as running sums: record() adds each
  /// launch in log order and reset() zeroes them, so every getter is O(1)
  /// and returns the same bits as a left-to-right sum over history().
  [[nodiscard]] double total_time_us() const noexcept {
    return totals_.time_us;
  }
  [[nodiscard]] std::uint64_t total_load_bytes() const noexcept {
    return totals_.load_bytes;
  }
  [[nodiscard]] std::uint64_t total_store_bytes() const noexcept {
    return totals_.store_bytes;
  }
  /// Global-memory bytes attributed to the score matrix across the log —
  /// the instrument behind the fig08 O(N²) vs O(N) score-traffic claim.
  [[nodiscard]] std::uint64_t total_score_bytes() const noexcept {
    return totals_.score_bytes;
  }
  [[nodiscard]] std::uint64_t total_ops() const noexcept {
    return totals_.ops;
  }

  /// Time spent in kernels whose name contains `substr`.
  [[nodiscard]] double time_us_matching(std::string_view substr) const;

  void reset() noexcept {
    log_.clear();
    fallbacks_.clear();
    totals_ = {};
  }

  /// When set, kernels record traffic/FLOP counters and modeled latency
  /// but skip the actual CPU arithmetic. Used by latency sweeps at the
  /// paper's full model sizes (e.g. BERT_BASE d=768, L=12), where the
  /// modeled time is the output and the numerics are already covered by
  /// the test suite at smaller sizes.
  void set_traffic_only(bool v) noexcept { traffic_only_ = v; }
  [[nodiscard]] bool traffic_only() const noexcept { return traffic_only_; }

  /// Serving slot stamped onto every launch recorded while set (kNoSlot =
  /// unattributed). Prefer the RAII SlotScope below.
  void set_current_slot(int slot) noexcept { current_slot_ = slot; }
  [[nodiscard]] int current_slot() const noexcept { return current_slot_; }

  /// Time spent in launches attributed to `slot` alone (see SlotScope):
  /// a launch shared by several slots carries kNoSlot.
  [[nodiscard]] double time_us_for_slot(int slot) const;

 private:
  friend class Launch;
  /// Stamp the current slot, run the latency model, and append the
  /// record to the log and the running totals.
  void record(KernelStats stats);

  struct Totals {
    double time_us = 0.0;
    std::uint64_t load_bytes = 0;
    std::uint64_t store_bytes = 0;
    std::uint64_t score_bytes = 0;
    std::uint64_t ops = 0;
  };

  DeviceSpec spec_;
  std::vector<KernelStats> log_;
  Totals totals_;
  std::vector<FallbackEvent> fallbacks_;
  FaultInjector injector_;
  bool traffic_only_ = false;
  int current_slot_ = kNoSlot;
};

/// RAII slot attribution: every launch recorded while the scope lives is
/// stamped with `slot`, so profiler reports can split one sequence's own
/// work (the attention launch of a decode tick that steps that slot
/// alone) from the launches a batch shares. Scopes restore the previous
/// slot on destruction, so nesting behaves.
class SlotScope {
 public:
  SlotScope(Device& dev, int slot) noexcept
      : dev_(&dev), previous_(dev.current_slot()) {
    dev_->set_current_slot(slot);
  }
  SlotScope(const SlotScope&) = delete;
  SlotScope& operator=(const SlotScope&) = delete;
  ~SlotScope() { dev_->set_current_slot(previous_); }

 private:
  Device* dev_;
  int previous_;
};

}  // namespace et::gpusim
