// perfbench — the repository's benchmark driver.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--trace-dir DIR]
//
// Workloads: encoder_bert_base, serve_heavy_tail, decode_numerics (see
// perfbench/README.md). The self-tests run before every measurement.
// With --trace 0 it prints every end-to-end metric, with --trace 1 every
// per-layer metric; the last stdout line is one JSON object {"correct",
// "attempted", "failed", "metrics"}. Exit codes: 0 ran (output failures
// count in ok_frac and "failed"), 2 bad arguments, 3 determinism break,
// 4 self-test failure.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common.hpp"

namespace {

bool parse(int argc, char** argv, perfbench::Options& opt) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) {
      std::fprintf(stderr, "missing value for %s\n", a.c_str());
      return false;
    }
    const char* v = argv[++i];
    char* end = nullptr;
    if (a == "--workload") {
      opt.workload = v;
    } else if (a == "--seed") {
      opt.seed = std::strtoull(v, &end, 10);
    } else if (a == "--seconds") {
      opt.seconds = std::strtod(v, &end);
    } else if (a == "--trace") {
      opt.trace = std::strcmp(v, "1") == 0;
      if (!opt.trace && std::strcmp(v, "0") != 0) end = const_cast<char*>(v);
    } else if (a == "--trace-dir") {
      opt.trace_dir = v;
    } else {
      std::fprintf(stderr, "unknown argument %s\n", a.c_str());
      return false;
    }
    if (end != nullptr && *end != '\0') {
      std::fprintf(stderr, "bad value for %s: %s\n", a.c_str(), v);
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opt;
  if (!parse(argc, argv, opt)) return 2;

  std::string why;
  if (!perfbench::self_test(why)) {
    std::fprintf(stderr, "self-test failed: %s\n", why.c_str());
    return 4;
  }
  if (opt.seconds <= 0.0) {
    std::fprintf(stderr, "--seconds must be positive\n");
    return 2;
  }

  perfbench::Report report;
  perfbench::Outcome outcome;
  int rc = 0;
  if (opt.workload == "encoder_bert_base") {
    rc = perfbench::run_encoder(opt, report, outcome);
  } else if (opt.workload == "serve_heavy_tail" ||
             opt.workload == "decode_numerics") {
    rc = perfbench::run_serving(opt, report, outcome);
  } else {
    std::fprintf(stderr,
                 "unknown workload '%s' (encoder_bert_base, "
                 "serve_heavy_tail, decode_numerics)\n",
                 opt.workload.c_str());
    return 2;
  }
  if (rc != 0) return rc;

  for (const auto& e : outcome.errors) {
    std::fprintf(stderr, "check failed: %s\n", e.c_str());
  }
  const std::string title =
      "perfbench " + opt.workload + " seed=" + std::to_string(opt.seed) +
      (opt.trace ? " (traced: per-layer metrics)"
                 : " (untraced: end-to-end metrics)") +
      "; generator lateness 0 ticks (arrivals are due on the logical tick "
      "clock)";
  report.print_table(title.c_str());
  report.print_json(outcome);
  return 0;
}
