#include "gpusim/fault_injector.hpp"

namespace et::gpusim {

namespace {

/// splitmix64 — a stateless mix of (seed, index) so the per-launch random
/// draw never depends on how many rules were armed before it.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

}  // namespace

void FaultInjector::arm_nth_launch(std::size_t n) {
  nth_targets_.push_back(launches_seen_ + n);
}

void FaultInjector::arm_kernel(std::string substring, std::size_t max_faults) {
  name_rules_.push_back({std::move(substring), max_faults});
}

void FaultInjector::arm_alloc_above(std::size_t bytes) {
  alloc_armed_ = true;
  alloc_threshold_ = bytes;
}

void FaultInjector::arm_random(double fraction, std::uint64_t seed) {
  random_armed_ = true;
  random_fraction_ = fraction;
  random_seed_ = seed;
}

void FaultInjector::disarm() noexcept {
  nth_targets_.clear();
  name_rules_.clear();
  alloc_armed_ = false;
  random_armed_ = false;
}

bool FaultInjector::armed() const noexcept {
  return !nth_targets_.empty() || !name_rules_.empty() || alloc_armed_ ||
         random_armed_;
}

void FaultInjector::on_launch(std::string_view kernel,
                              std::size_t shared_bytes_per_cta) {
  const std::size_t index = launches_seen_++;
  const auto fault = [&](FaultCause cause) {
    log_.push_back({std::string(kernel), cause, index});
    throw KernelFault(std::string(kernel), cause);
  };

  if (std::erase(nth_targets_, index) > 0) fault(FaultCause::kLaunchIndex);
  for (auto& rule : name_rules_) {
    if (rule.remaining > 0 &&
        kernel.find(rule.substring) != std::string_view::npos) {
      if (rule.remaining != kUnlimited) --rule.remaining;
      fault(FaultCause::kKernelName);
    }
  }
  if (alloc_armed_ && shared_bytes_per_cta > alloc_threshold_) {
    fault(FaultCause::kAllocation);
  }
  if (random_armed_) {
    const std::uint64_t draw = mix64(random_seed_ ^ mix64(index));
    const double u = static_cast<double>(draw >> 11) * 0x1.0p-53;
    if (u < random_fraction_) fault(FaultCause::kRandom);
  }
}

}  // namespace et::gpusim
