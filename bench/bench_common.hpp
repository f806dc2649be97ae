// Shared helpers for the paper-reproduction bench binaries: aligned table
// printing, optional CSV (--csv) or JSON (--json) output, env-var
// workload scaling, and the modeled time of one forced attention operator.
#pragma once

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "core/adaptive.hpp"
#include "gpusim/device.hpp"

namespace et::bench {

inline bool flag_set(int argc, char** argv, const char* flag) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], flag) == 0) return true;
  }
  return false;
}

inline bool csv_mode(int argc, char** argv) {
  return flag_set(argc, argv, "--csv");
}

/// The standard bench JSON shape: the table becomes an array of row
/// objects keyed by header, numeric cells emitted as JSON numbers —
/// machine-readable for ablation plots and CI trend tracking.
inline bool json_mode(int argc, char** argv) {
  return flag_set(argc, argv, "--json");
}

/// Scale factor for training-heavy benches: ET_EPOCH_SCALE=4 trains 4×
/// longer (closer to the paper's schedules), default 1 finishes in seconds.
inline double epoch_scale() {
  const char* v = std::getenv("ET_EPOCH_SCALE");
  return v != nullptr ? std::max(0.25, std::atof(v)) : 1.0;
}

class Table {
 public:
  explicit Table(std::vector<std::string> headers, bool csv = false,
                 bool json = false)
      : headers_(std::move(headers)), csv_(csv), json_(json) {}

  void add_row(std::vector<std::string> cells) {
    rows_.push_back(std::move(cells));
  }

  void print() const {
    if (json_) {
      print_json();
      return;
    }
    if (csv_) {
      print_delimited(",");
      return;
    }
    std::vector<std::size_t> width(headers_.size());
    for (std::size_t c = 0; c < headers_.size(); ++c) {
      width[c] = headers_[c].size();
    }
    for (const auto& row : rows_) {
      for (std::size_t c = 0; c < row.size() && c < width.size(); ++c) {
        width[c] = std::max(width[c], row[c].size());
      }
    }
    print_aligned(width, headers_);
    std::string rule;
    for (std::size_t c = 0; c < width.size(); ++c) {
      rule += std::string(width[c], '-');
      if (c + 1 < width.size()) rule += "  ";
    }
    std::printf("%s\n", rule.c_str());
    for (const auto& row : rows_) print_aligned(width, row);
  }

 private:
  void print_aligned(const std::vector<std::size_t>& width,
                     const std::vector<std::string>& row) const {
    for (std::size_t c = 0; c < row.size(); ++c) {
      std::printf("%-*s%s", static_cast<int>(width[c]), row[c].c_str(),
                  c + 1 < row.size() ? "  " : "");
    }
    std::printf("\n");
  }
  static bool is_number(const std::string& s) {
    if (s.empty()) return false;
    char* end = nullptr;
    (void)std::strtod(s.c_str(), &end);
    return end != nullptr && *end == '\0';
  }

  static void print_json_string(const std::string& s) {
    std::printf("\"");
    for (char ch : s) {
      if (ch == '"' || ch == '\\') std::printf("\\%c", ch);
      else if (ch == '\n') std::printf("\\n");
      else std::printf("%c", ch);
    }
    std::printf("\"");
  }

  void print_json() const {
    std::printf("[\n");
    for (std::size_t r = 0; r < rows_.size(); ++r) {
      std::printf("  {");
      const auto& row = rows_[r];
      for (std::size_t c = 0; c < row.size() && c < headers_.size(); ++c) {
        print_json_string(headers_[c]);
        std::printf(": ");
        if (is_number(row[c])) {
          std::printf("%s", row[c].c_str());
        } else {
          print_json_string(row[c]);
        }
        if (c + 1 < row.size() && c + 1 < headers_.size()) std::printf(", ");
      }
      std::printf("}%s\n", r + 1 < rows_.size() ? "," : "");
    }
    std::printf("]\n");
  }

  void print_delimited(const char* sep) const {
    const auto line = [&](const std::vector<std::string>& row) {
      for (std::size_t c = 0; c < row.size(); ++c) {
        std::printf("%s%s", row[c].c_str(), c + 1 < row.size() ? sep : "");
      }
      std::printf("\n");
    };
    line(headers_);
    for (const auto& row : rows_) line(row);
  }

  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
  bool csv_ = false;
  bool json_ = false;
};

inline std::string fmt(double v, int prec = 2) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", prec, v);
  return buf;
}

inline std::string fmt_ratio(double v) { return fmt(v, 2) + "x"; }

/// Modeled time of attention operator `impl` (forced through
/// core::adaptive_attention) on a fresh traffic-only device with `spec`,
/// projections and output linear included.
inline double attention_us(const gpusim::DeviceSpec& spec,
                           const core::AttentionWeights& w,
                           const core::AttentionConfig& cfg,
                           core::AttentionImpl impl) {
  gpusim::Device dev(spec);
  core::ExecContext ctx(dev);
  dev.set_traffic_only(true);
  const tensor::MatrixF x(cfg.seq_len, cfg.d_model);
  core::AdaptivePolicy policy;
  policy.forced = impl;
  (void)core::adaptive_attention(ctx, x, w, cfg, policy);
  return dev.total_time_us();
}

}  // namespace et::bench
