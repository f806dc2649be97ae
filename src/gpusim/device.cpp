#include "gpusim/device.hpp"

#include <utility>

#include "gpusim/latency_model.hpp"

namespace et::gpusim {

namespace {
/// The (device, sink) pair bound to this thread by a live SinkScope.
/// Keyed on the device pointer: a scratch Device used inside a chunk
/// (e.g. the operator chooser's pricing device) records normally.
thread_local Device* tl_sink_device = nullptr;
thread_local LaunchSink* tl_sink = nullptr;
}  // namespace

SinkScope::SinkScope(Device& dev, LaunchSink& sink) noexcept
    : prev_dev_(tl_sink_device), prev_sink_(tl_sink) {
  sink.slot = dev.current_slot();  // inherit the region's outer slot
  tl_sink_device = &dev;
  tl_sink = &sink;
}

SinkScope::~SinkScope() {
  tl_sink_device = prev_dev_;
  tl_sink = prev_sink_;
}

LaunchSink* Device::bound_sink() const noexcept {
  return tl_sink_device == this ? tl_sink : nullptr;
}

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
  if (LaunchSink* sink = bound_sink()) {
    // Inside a parallel-region chunk: attempts are counted in the sink
    // and folded into the injector's launch index at merge time. The
    // injector itself is never consulted here — ExecContext::parallel_for
    // serializes whenever rules are armed, precisely so fault indices
    // stay thread-count-independent (docs/threading.md).
    ++sink->launches_attempted;
    if (cfg.shared_bytes_per_cta > spec_.shared_mem_per_cta_bytes) {
      throw SharedMemOverflow(cfg.name, cfg.shared_bytes_per_cta,
                              spec_.shared_mem_per_cta_bytes);
    }
    return Launch(*this, cfg);
  }
  injector_.on_launch(cfg.name, cfg.shared_bytes_per_cta);
  if (cfg.shared_bytes_per_cta > spec_.shared_mem_per_cta_bytes) {
    throw SharedMemOverflow(cfg.name, cfg.shared_bytes_per_cta,
                            spec_.shared_mem_per_cta_bytes);
  }
  return Launch(*this, cfg);
}

void Device::record(KernelStats stats) {
  if (LaunchSink* sink = bound_sink()) {
    stats.slot = sink->slot;
    apply_latency_model(stats, spec_);  // pure function of (stats, spec)
    sink->log.push_back(std::move(stats));
    return;
  }
  stats.slot = current_slot_;
  apply_latency_model(stats, spec_);
  append(std::move(stats));
}

void Device::append(KernelStats&& stats) {
  totals_.time_us += stats.time_us;
  totals_.load_bytes += stats.global_load_bytes;
  totals_.store_bytes += stats.global_store_bytes;
  totals_.score_bytes += stats.score_bytes;
  totals_.ops += stats.total_ops();
  log_.push_back(std::move(stats));
}

void Device::note_fallback(FallbackEvent event) {
  if (LaunchSink* sink = bound_sink()) {
    sink->fallbacks.push_back(std::move(event));
    return;
  }
  fallbacks_.push_back(std::move(event));
}

void Device::set_current_slot(int slot) noexcept {
  if (LaunchSink* sink = bound_sink()) {
    sink->slot = slot;
    return;
  }
  current_slot_ = slot;
}

int Device::current_slot() const noexcept {
  if (const LaunchSink* sink = bound_sink()) return sink->slot;
  return current_slot_;
}

void Device::merge(LaunchSink&& sink) {
  injector_.advance(sink.launches_attempted);
  for (auto& stats : sink.log) append(std::move(stats));
  for (auto& event : sink.fallbacks) fallbacks_.push_back(std::move(event));
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
