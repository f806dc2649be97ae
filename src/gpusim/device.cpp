#include "gpusim/device.hpp"

#include <utility>

#include "gpusim/latency_model.hpp"

namespace et::gpusim {

Launch::Launch(Device& dev, const LaunchConfig& cfg) : dev_(&dev) {
  stats_.name = KernelName::intern(cfg.name);
  stats_.ctas = cfg.ctas;
  stats_.shared_bytes_per_cta = cfg.shared_bytes_per_cta;
  stats_.pattern = cfg.pattern;
}

Launch::Launch(Launch&& other) noexcept
    : dev_(other.dev_), stats_(std::move(other.stats_)),
      finished_(other.finished_) {
  other.finished_ = true;  // moved-from handle must not double-record
}

void Launch::finish() {
  if (finished_) return;
  finished_ = true;
  dev_->record(std::move(stats_));
}

Launch::~Launch() { finish(); }

Launch Device::launch(LaunchConfig cfg) {
  injector_.on_launch(cfg.name, cfg.shared_bytes_per_cta);
  if (cfg.shared_bytes_per_cta > spec_.shared_mem_per_cta_bytes) {
    throw SharedMemOverflow(cfg.name, cfg.shared_bytes_per_cta,
                            spec_.shared_mem_per_cta_bytes);
  }
  return Launch(*this, cfg);
}

void Device::record(KernelStats stats) {
  stats.slot = current_slot_;
  apply_latency_model(stats, spec_);
  totals_.time_us += stats.time_us;
  totals_.load_bytes += stats.global_load_bytes;
  totals_.store_bytes += stats.global_store_bytes;
  totals_.score_bytes += stats.score_bytes;
  totals_.ops += stats.total_ops();
  log_.push_back(std::move(stats));
}

double Device::time_us_for_slot(int slot) const {
  double t = 0.0;
  for (const auto& k : log_) {
    if (k.slot == slot) t += k.time_us;
  }
  return t;
}

double Device::time_us_matching(std::string_view substr) const {
  double t = 0.0;
  for (const auto& k : log_) {
    if (k.name.view().find(substr) != std::string_view::npos) t += k.time_us;
  }
  return t;
}

}  // namespace et::gpusim
