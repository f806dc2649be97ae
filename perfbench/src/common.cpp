#include "common.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>

#include <sys/resource.h>

namespace perfbench {

Quantile percentile(std::vector<double> samples, double q) {
  Quantile out;
  out.n = samples.size();
  if (samples.empty()) return out;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  const std::size_t median_rank = (n + 1) / 2;
  // 1-based nearest rank; the epsilon keeps 0.99 * 1000 from rounding up.
  auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(n) - 1e-9));
  rank = std::clamp<std::size_t>(rank, 1, n);
  if (rank > median_rank && n - rank < kMinBeyond) {
    rank = n > kMinBeyond ? std::max(median_rank, n - kMinBeyond)
                          : median_rank;
  }
  out.value = samples[rank - 1];
  out.q = static_cast<double>(rank) / static_cast<double>(n);
  return out;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  return percentile(std::move(v), 0.5).value;
}

std::vector<std::size_t> quiet_half(const std::vector<double>& pace) {
  std::vector<std::size_t> idx(pace.size());
  for (std::size_t i = 0; i < idx.size(); ++i) idx[i] = i;
  // Stable, so ties keep episode order and the choice is deterministic.
  std::stable_sort(idx.begin(), idx.end(), [&pace](std::size_t a,
                                                   std::size_t b) {
    return pace[a] < pace[b];
  });
  idx.resize((idx.size() + 1) / 2);
  std::sort(idx.begin(), idx.end());
  return idx;
}

std::vector<double> span_ms(const std::vector<Span>& spans,
                            std::string_view name) {
  std::vector<double> out;
  for (const auto& s : spans) {
    if (name == s.name) out.push_back(ns_to_ms(s.end_ns - s.start_ns));
  }
  return out;
}

std::vector<double> span_self_ms(const std::vector<Span>& spans,
                                 std::string_view name) {
  std::vector<std::int64_t> child_ns(spans.size(), 0);
  for (const auto& s : spans) {
    if (s.parent >= 0) {
      child_ns[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
    }
  }
  std::vector<double> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (name == spans[i].name) {
      out.push_back(
          ns_to_ms(spans[i].end_ns - spans[i].start_ns - child_ns[i]));
    }
  }
  return out;
}

namespace {

bool has(std::string_view s, std::string_view part) {
  return s.find(part) != std::string_view::npos;
}

}  // namespace

Op classify(std::string_view k) {
  if (has(k, "layernorm")) return Op::kNorm;
  if (has(k, "ff1")) return Op::kFf1;
  if (has(k, "ff2")) return Op::kFf2;
  if (has(k, "out_linear") || has(k, "vo_linear") || has(k, "gen_out")) {
    return Op::kOut;
  }
  if (has(k, "qkv") || has(k, "q_linear") || has(k, "k_linear") ||
      has(k, "v_linear")) {
    return Op::kQkv;
  }
  if (has(k, "attention") || has(k, "partial_otf") || has(k, "bmm_") ||
      has(k, "trt_") || has(k, "softmax") || k == "scale" || k == "mask") {
    return Op::kAttn;
  }
  return Op::kOther;
}

int attention_impl(std::string_view k) {
  if (has(k, "flash_")) return 0;
  if (has(k, "partial_otf_qk")) return 2;
  if (has(k, "otf_") && !has(k, "partial_otf")) return 1;
  if (k == "trt_qk_scale") return 3;
  if (k == "bmm_qk") return 4;
  return -1;
}

void OpTotals::add(const et::gpusim::KernelStats& k) {
  const auto op = static_cast<std::size_t>(classify(k.name));
  us[op] += k.time_us;
  bytes[op] += static_cast<double>(k.total_bytes());
  launches[op] += 1.0;
  score_bytes += static_cast<double>(k.score_bytes);
  const int which = attention_impl(k.name);
  if (which >= 0) impl[which] += 1.0;
}

void OpTotals::merge(const OpTotals& o) {
  for (std::size_t op = 0; op < kOps; ++op) {
    us[op] += o.us[op];
    bytes[op] += o.bytes[op];
    launches[op] += o.launches[op];
  }
  score_bytes += o.score_bytes;
  for (std::size_t i = 0; i < kImpls; ++i) impl[i] += o.impl[i];
}

void Report::add(std::string name, const Quantile& q, double scale,
                 std::string unit) {
  char note[96];
  std::snprintf(note, sizeof note, "q=%.4f n=%zu", q.q, q.n);
  add(std::move(name), q.value * scale, std::move(unit), note);
}

void Report::print_table(const char* title) const {
  std::printf("%s\n", title);
  for (const auto& m : metrics_) {
    std::printf("  %-34s %16.6g %-6s %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.note.c_str());
  }
}

void Report::print_json(const Outcome& o) const {
  std::ostringstream js;
  js.precision(17);
  js << "{\"correct\": " << (o.correct ? "true" : "false")
     << ", \"attempted\": " << o.attempted << ", \"failed\": " << o.failed
     << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const auto& m = metrics_[i];
    const double v = std::isfinite(m.value) ? m.value : 0.0;
    js << (i == 0 ? "" : ", ") << '"' << m.name << "\": {\"value\": " << v
       << ", \"unit\": \"" << m.unit << "\"}";
  }
  js << "}}";
  std::printf("%s\n", js.str().c_str());
  std::fflush(stdout);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: kB -> MB
}

}  // namespace perfbench
