// Self-tests of the benchmark's own code, run before every measurement:
// seeded scripts repeat, the percentile helper keeps ten samples beyond a
// tail percentile, quiet_half keeps the lower half of the episodes, and
// the incremental modeled clock agrees with Device::total_time_us().
#include <string>

#include "common.hpp"
#include "workloads.hpp"

namespace perfbench {

bool clock_self_test(std::string& why);  // serve.cpp

namespace {

bool same(const Script& a, const Script& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].tick != b[i].tick || a[i].priority != b[i].priority ||
        a[i].prompt != b[i].prompt || a[i].group != b[i].group ||
        a[i].max_new_tokens != b[i].max_new_tokens ||
        a[i].outputs != b[i].outputs) {
      return false;
    }
  }
  return true;
}

bool scripts_repeat(std::string& why) {
  for (const auto make : {&heavy_tail_script, &decode_script}) {
    const Script a = make(11, 300), b = make(11, 300), c = make(12, 300);
    if (!same(a, b)) {
      why = "the same seed gave two different arrival scripts";
      return false;
    }
    if (same(a, c)) {
      why = "two seeds gave the same arrival script";
      return false;
    }
  }
  return true;
}

bool percentile_rule(std::string& why) {
  struct Case {
    std::size_t n;
    double q;
    std::size_t rank;  // expected 1-based nearest rank
  };
  // 1000 samples support p99 with exactly 10 beyond; 999 do not, so the
  // rank drops to 989; 100 samples cap the tail at rank 90; tiny samples
  // fall back to the median.
  const Case cases[] = {{1000, 0.99, 990}, {999, 0.99, 989}, {100, 0.99, 90},
                        {100, 0.5, 50},    {15, 0.99, 8},    {5, 0.99, 3},
                        {1, 0.99, 1},      {2000, 0.99, 1980}};
  for (const Case& c : cases) {
    std::vector<double> v(c.n);
    for (std::size_t i = 0; i < c.n; ++i) {
      v[i] = static_cast<double>(c.n - i);  // reversed: the helper sorts
    }
    const Quantile got = percentile(v, c.q);
    const bool ok = got.value == static_cast<double>(c.rank) &&
                    got.n == c.n &&
                    got.q == static_cast<double>(c.rank) /
                                 static_cast<double>(c.n);
    if (!ok) {
      why = "percentile(n=" + std::to_string(c.n) +
            ", q=" + std::to_string(c.q) + ") gave rank " +
            std::to_string(got.value) + ", expected " +
            std::to_string(c.rank);
      return false;
    }
  }
  return true;
}

bool quiet_half_rule(std::string& why) {
  using Idx = std::vector<std::size_t>;
  // ceil(n/2) lowest paces, returned in episode order; ties keep order.
  const bool ok = quiet_half({3, 1, 2, 5}) == Idx{1, 2} &&
                  quiet_half({5, 4, 9}) == Idx{0, 1} &&
                  quiet_half({2, 2, 2}) == Idx{0, 1} &&
                  quiet_half({7}) == Idx{0};
  if (!ok) why = "quiet_half did not keep the lower half of the episodes";
  return ok;
}

}  // namespace

bool self_test(std::string& why) {
  return scripts_repeat(why) && percentile_rule(why) &&
         quiet_half_rule(why) && clock_self_test(why);
}

}  // namespace perfbench
