// Deterministic fault injection for the simulated device.
//
// Production inference stacks treat operator failure as routine: a kernel
// that aborts (illegal address, watchdog timeout, ECC error) is retried on
// a slower-but-safe implementation rather than taking the whole server
// down. To test that behaviour we need faults on demand — reproducibly.
// The injector is owned by Device and consulted on every launch attempt;
// an armed rule turns the launch into a typed KernelFault carrying the
// kernel name and the cause, which the resilient layers above
// (core::adaptive_attention's degradation chain, nn::generate's graceful
// stop) catch and recover from. See docs/robustness.md.
#pragma once

#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace et::gpusim {

/// Why an injected launch failed.
enum class FaultCause {
  kLaunchIndex,  ///< armed to fail the Nth launch attempt
  kKernelName,   ///< armed to fail launches matching a name substring
  kAllocation,   ///< shared-memory request above the armed threshold
  kRandom,       ///< seeded Bernoulli draw per launch
};

[[nodiscard]] constexpr std::string_view to_string(FaultCause c) noexcept {
  switch (c) {
    case FaultCause::kLaunchIndex: return "launch_index";
    case FaultCause::kKernelName: return "kernel_name";
    case FaultCause::kAllocation: return "allocation";
    case FaultCause::kRandom: return "random";
  }
  return "?";
}

/// Thrown by Device::launch when an armed fault rule trips. Carries the
/// kernel name and cause so recovery layers can log *what* failed and
/// *why* instead of parsing a message string.
class KernelFault : public std::runtime_error {
 public:
  KernelFault(std::string kernel, FaultCause cause)
      : std::runtime_error("injected fault in kernel '" + kernel +
                           "' (cause: " + std::string(to_string(cause)) +
                           ")"),
        kernel_(std::move(kernel)),
        cause_(cause) {}

  [[nodiscard]] const std::string& kernel() const noexcept { return kernel_; }
  [[nodiscard]] FaultCause cause() const noexcept { return cause_; }

 private:
  std::string kernel_;
  FaultCause cause_;
};

/// One injected fault, for post-mortem inspection in tests and the CLI.
struct FaultRecord {
  std::string kernel;
  FaultCause cause = FaultCause::kLaunchIndex;
  std::size_t launch_index = 0;  ///< 0-based launch-attempt counter
};

/// Armable, deterministic fault source. Rules stay armed until they are
/// spent or disarm() clears them; every launch attempt (faulted or not)
/// advances the internal counter, so a given arm configuration always
/// faults the same launches for the same workload — tests stay
/// reproducible.
class FaultInjector {
 public:
  static constexpr std::size_t kUnlimited =
      std::numeric_limits<std::size_t>::max();

  /// Fail the nth launch attempt from now (0-based: n = 0 fails the next
  /// launch). Cumulative: every armed index fires once, and an index
  /// armed twice still faults its launch once.
  void arm_nth_launch(std::size_t n);

  /// Fail launches whose kernel name contains `substring`, at most
  /// `max_faults` times. Cumulative: each armed substring is its own rule.
  void arm_kernel(std::string substring, std::size_t max_faults = kUnlimited);

  /// Fail launches requesting more than `bytes` of shared memory per CTA
  /// (models allocation failure under memory pressure). Replaces an
  /// earlier threshold.
  void arm_alloc_above(std::size_t bytes);

  /// Fail a seeded Bernoulli fraction of launches. Deterministic: the
  /// per-launch draw depends only on (seed, launch index). Replaces an
  /// earlier fraction and seed.
  void arm_random(double fraction, std::uint64_t seed);

  /// Clear every armed rule (the log and counters are kept).
  void disarm() noexcept;

  [[nodiscard]] bool armed() const noexcept;
  [[nodiscard]] std::size_t launches_seen() const noexcept {
    return launches_seen_;
  }
  [[nodiscard]] std::size_t faults_injected() const noexcept {
    return log_.size();
  }
  [[nodiscard]] const std::vector<FaultRecord>& fault_log() const noexcept {
    return log_;
  }

  /// Called by Device on every launch attempt; throws KernelFault when an
  /// armed rule trips (the attempt still counts toward the launch index).
  void on_launch(std::string_view kernel, std::size_t shared_bytes_per_cta);

 private:
  struct NameRule {
    std::string substring;
    std::size_t remaining = kUnlimited;
  };

  std::vector<std::size_t> nth_targets_;  ///< absolute launch indices
  std::vector<NameRule> name_rules_;
  bool alloc_armed_ = false;
  std::size_t alloc_threshold_ = 0;
  bool random_armed_ = false;
  double random_fraction_ = 0.0;
  std::uint64_t random_seed_ = 0;

  std::size_t launches_seen_ = 0;
  std::vector<FaultRecord> log_;
};

}  // namespace et::gpusim
