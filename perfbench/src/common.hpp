// Shared pieces of the perfbench driver: the two clocks, the percentile
// rule, driver-side spans, op attribution of launch records, and the
// report that prints every metric by name and unit.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "gpusim/device.hpp"

namespace perfbench {

// ---------------------------------------------------------------- clocks

/// Host wall-clock in nanoseconds (steady_clock).
[[nodiscard]] inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

[[nodiscard]] inline double ns_to_ms(std::int64_t ns) {
  return static_cast<double>(ns) / 1e6;
}

/// Driver-side modeled device clock. advance() adds up only the launches
/// appended to Device::history() since the previous call, in log order,
/// so it costs O(new launches) and its running total is bit-identical to
/// Device::total_time_us() (same additions, same order). The driver never
/// calls total_time_us() itself.
class ModeledClock {
 public:
  explicit ModeledClock(const et::gpusim::Device& dev) : dev_(&dev) {}

  /// Fold in new launches; returns the modeled µs they add up to (summed
  /// on their own, so it does not depend on the running total).
  double advance() {
    const auto& log = dev_->history();
    double added = 0.0;
    for (; seen_ < log.size(); ++seen_) {
      now_us_ += log[seen_].time_us;
      added += log[seen_].time_us;
    }
    return added;
  }
  /// Forget the log (after Device::reset()); the running total stays.
  void rebase() { seen_ = dev_->history().size(); }

  [[nodiscard]] double now_us() const noexcept { return now_us_; }

 private:
  const et::gpusim::Device* dev_;
  std::size_t seen_ = 0;
  double now_us_ = 0.0;
};

// ------------------------------------------------------------ percentiles

/// A percentile as reported: the value, the quantile actually used and
/// the sample count.
struct Quantile {
  double value = 0.0;
  double q = 0.0;
  std::size_t n = 0;
};

/// Samples that must lie beyond a reported tail percentile.
inline constexpr std::size_t kMinBeyond = 10;

/// Nearest-rank percentile with the tail rule: a requested quantile whose
/// rank leaves fewer than kMinBeyond samples above it is lowered to the
/// highest rank that does (never below the median), and `q` reports the
/// quantile actually used.
[[nodiscard]] Quantile percentile(std::vector<double> samples, double q);

// ---------------------------------------------------------------- spans

/// One driver-side span: a timed call into a layer's public function.
struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;     ///< index of the enclosing span, -1 = root
  std::int64_t request = -1;    ///< request id, -1 = none
};

/// In-memory span recorder. Disabled recorders cost one branch per call.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  [[nodiscard]] bool enabled() const noexcept { return enabled_; }

  std::int32_t open(const char* name, std::int64_t request = -1) {
    if (!enabled_) return -1;
    const auto id = static_cast<std::int32_t>(spans_.size());
    spans_.push_back({name, now_ns(), 0,
                      stack_.empty() ? -1 : stack_.back(), request});
    stack_.push_back(id);
    return id;
  }
  void close(std::int32_t id) {
    if (!enabled_ || id < 0) return;
    spans_[static_cast<std::size_t>(id)].end_ns = now_ns();
    stack_.pop_back();
  }

  [[nodiscard]] const std::vector<Span>& spans() const noexcept {
    return spans_;
  }
  void clear() {
    spans_.clear();
    stack_.clear();
  }

  /// RAII span.
  class Scope {
   public:
    Scope(Tracer& t, const char* name, std::int64_t request = -1)
        : t_(t), id_(t.open(name, request)) {}
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    ~Scope() { t_.close(id_); }

   private:
    Tracer& t_;
    std::int32_t id_;
  };

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<std::int32_t> stack_;
};

/// Durations (ms) of every span named `name`.
[[nodiscard]] std::vector<double> span_ms(const std::vector<Span>& spans,
                                          std::string_view name);

/// Per span named `name`: its duration minus the time its direct
/// children cover (ms).
[[nodiscard]] std::vector<double> span_self_ms(
    const std::vector<Span>& spans, std::string_view name);

// ------------------------------------------------------- op attribution

/// Op families, grouped by kernel name until launches carry layer/op tags.
enum class Op { kQkv, kAttn, kOut, kFf1, kFf2, kNorm, kOther };
inline constexpr std::size_t kOps = 7;
inline constexpr const char* kOpNames[kOps] = {"qkv", "attn", "out", "ff1",
                                               "ff2", "norm", "other"};

/// Attention operator implementations, in AttentionImpl name order.
inline constexpr std::size_t kImpls = 5;
inline constexpr const char* kImplNames[kImpls] = {
    "flash", "otf", "partial_otf", "fused", "modular"};

[[nodiscard]] Op classify(std::string_view kernel);
/// Index into kImplNames of the operator whose signature launch this is
/// (one per operator call), or -1.
[[nodiscard]] int attention_impl(std::string_view kernel);

/// Modeled per-op totals over a range of launch records.
struct OpTotals {
  double us[kOps] = {};
  double bytes[kOps] = {};
  double launches[kOps] = {};
  double score_bytes = 0.0;
  double impl[kImpls] = {};

  void add(const et::gpusim::KernelStats& k);
  void add_range(const std::vector<et::gpusim::KernelStats>& log,
                 std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) add(log[i]);
  }
  void merge(const OpTotals& o);
};

// ---------------------------------------------------------------- report

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string note;  ///< free text for the human table (q, n, ...)
};

/// Outcome counters of one run.
struct Outcome {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;

  void fail(std::string why) {
    correct = false;
    if (errors.size() < 20) errors.push_back(std::move(why));
  }
};

class Report {
 public:
  void add(std::string name, double value, std::string unit,
           std::string note = "") {
    metrics_.push_back(
        {std::move(name), value, std::move(unit), std::move(note)});
  }
  /// Percentile metric; the note states the quantile used and n.
  void add(std::string name, const Quantile& q, double scale,
           std::string unit);

  /// Human-readable table, one metric per line.
  void print_table(const char* title) const;
  /// The machine-readable result line (must be the last line printed).
  void print_json(const Outcome& o) const;

 private:
  std::vector<Metric> metrics_;
};

/// Peak resident set size of this process (VmHWM), MB.
[[nodiscard]] double peak_rss_mb();

// -------------------------------------------------------------- options

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_dir;    ///< where the traced run writes its spans
};

/// Median of a (copied) sample vector; 0 when empty.
[[nodiscard]] double median(std::vector<double> v);

/// The quiet half of a run: indices of the ceil(n/2) episodes with the
/// lowest `pace` (a per-episode host time, such as its median ms per unit
/// of work), in episode order. On a shared machine the host's speed drifts by 20% and
/// more over seconds to minutes, and that only ever adds time; host
/// metrics computed over the quieter half of a run's episodes follow the
/// program's cost instead of the drift. Ranking by the median, not the
/// sum, leaves an episode's few slow samples out of the ranking, so a
/// tail the program causes still shows in the p99s.
[[nodiscard]] std::vector<std::size_t> quiet_half(
    const std::vector<double>& pace);

/// Set-up repetitions per run; setup_s and setup.* are their medians.
inline constexpr int kSetupReps = 5;

/// Every workload measures at one ExecContext thread: a pooled tick waits
/// for every vCPU, so host steal time turns into stalls (see README.md).
inline constexpr std::size_t kMeasureThreads = 1;

/// The determinism gate compares a 1-thread run with one at this many
/// threads (the host's core count).
inline constexpr std::size_t kGateThreads = 4;

int run_encoder(const Options& opt, Report& report, Outcome& outcome);
int run_serving(const Options& opt, Report& report, Outcome& outcome);

/// The benchmark's own self-tests; false with a reason on failure.
bool self_test(std::string& why);

}  // namespace perfbench
