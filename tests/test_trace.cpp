// Chrome-trace export, and the byte-stability of what the launch log feeds
// (profiler report, trace, name matching).
#include <gtest/gtest.h>

#include <sstream>

#include "gpusim/device.hpp"
#include "gpusim/profiler.hpp"
#include "gpusim/trace_export.hpp"
#include "nn/encoder.hpp"

namespace {

/// One traffic-only ET encoder layer (d=32, 2 heads, d_ff=64, seq 16).
void run_small_encoder(et::core::ExecContext& ctx) {
  const auto model = [] {
    et::nn::ModelConfig cfg;
    cfg.d_model = 32;
    cfg.num_heads = 2;
    cfg.d_ff = 64;
    return cfg;
  }();
  const auto w = et::nn::make_dense_encoder_weights(model, 1);
  et::tensor::MatrixF x(16, 32);
  ctx.device().set_traffic_only(true);
  (void)et::nn::encoder_forward(
      ctx, x, w, et::nn::options_for(et::nn::Pipeline::kET, model, 16));
}

TEST(TraceExport, EmitsOneEventPerKernelPlusMetadata) {
  et::gpusim::Device dev;
  et::core::ExecContext ctx(dev);
  {
    auto l = dev.launch({.name = "alpha", .ctas = 4});
    l.load_bytes(1024);
  }
  {
    auto l = dev.launch({.name = "beta", .ctas = 8});
    l.store_bytes(2048);
  }
  std::stringstream ss;
  et::gpusim::write_chrome_trace(ss, dev, "unit-test");
  const std::string json = ss.str();

  EXPECT_EQ(json.front(), '[');
  EXPECT_NE(json.find("\"alpha\""), std::string::npos);
  EXPECT_NE(json.find("\"beta\""), std::string::npos);
  EXPECT_NE(json.find("\"unit-test\""), std::string::npos);
  EXPECT_NE(json.find("\"gld_transactions\":32"), std::string::npos);
  // 2 metadata + 2 kernel events.
  std::size_t events = 0;
  for (std::size_t pos = 0; (pos = json.find("\"ph\"", pos)) != std::string::npos;
       ++pos) {
    ++events;
  }
  EXPECT_EQ(events, 4u);
  // Braces/brackets balance (cheap well-formedness check).
  long depth = 0;
  for (const char c : json) {
    if (c == '{' || c == '[') ++depth;
    if (c == '}' || c == ']') --depth;
    ASSERT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
}

TEST(TraceExport, KernelsLaidOutBackToBack) {
  et::gpusim::Device dev;
  et::core::ExecContext ctx(dev);
  run_small_encoder(ctx);

  std::stringstream ss;
  et::gpusim::write_chrome_trace(ss, dev);
  const std::string json = ss.str();
  // Every launch appears, and the first event starts at ts 0.
  EXPECT_NE(json.find("\"ts\":0,"), std::string::npos);
  std::size_t count = 0;
  for (std::size_t pos = 0;
       (pos = json.find("\"cat\":\"kernel\"", pos)) != std::string::npos;
       ++pos) {
    ++count;
  }
  EXPECT_EQ(count, dev.launch_count());
}

TEST(TraceExport, EscapesSpecialCharacters) {
  et::gpusim::Device dev;
  et::core::ExecContext ctx(dev);
  { auto l = dev.launch({.name = "weird\"name\\here"}); }
  std::stringstream ss;
  et::gpusim::write_chrome_trace(ss, dev);
  EXPECT_NE(ss.str().find("weird\\\"name\\\\here"), std::string::npos);
}

// Golden output of the encoder layer above, captured when launch records
// still held their names as std::string: interning the names must not
// change a byte of what the log feeds.
constexpr const char* kGoldenReport =
R"(kernel                                   time_us     gld_txn     gst_txn      GB/s      AI  bound  sm_eff    ipc
qkv_linear[algo1_64x128]                    4.36         224          96       2.3     9.6    mem    0.03   0.22
otf_attention                               4.35          96          32       0.9     8.8    mem    0.07   0.09
out_linear.dense[algo0_64x64]               4.35          96          32       0.9     8.0    mem    0.03   0.08
residual_layernorm1                         3.68          68          32       0.9     1.9    mem    0.03   0.02
ff1.dense[algo0_64x64]                      4.35         160          64       1.6     9.1    mem    0.03   0.15
ff2.dense[algo0_64x64]                      4.35         192          32       1.6     9.1    mem    0.03   0.15
residual_layernorm2                         3.68          68          32       0.9     1.9    mem    0.03   0.02
TOTAL                                      29.13         904         320       1.6                   0.04   0.11
)";

constexpr const char* kGoldenTrace =
R"([
{"name":"process_name","ph":"M","pid":1,"args":{"name":"fixture"}},
{"name":"thread_name","ph":"M","pid":1,"tid":1,"args":{"name":"stream 0"}},
{"name":"qkv_linear[algo1_64x128]","cat":"kernel","ph":"X","pid":1,"tid":1,"ts":0,"dur":4.35903,"args":{"ctas":1,"shared_bytes":12288,"gld_transactions":224,"gst_transactions":96,"tensor_ops":98304,"fp_ops":0,"achieved_GBps":2.34915,"sm_efficiency":0.0327943}},
{"name":"otf_attention","cat":"kernel","ph":"X","pid":1,"tid":1,"ts":4.35903,"dur":4.3507,"args":{"ctas":2,"shared_bytes":2048,"gld_transactions":96,"gst_transactions":32,"tensor_ops":32768,"fp_ops":3328,"achieved_GBps":0.941459,"sm_efficiency":0.0655228}},
{"name":"out_linear.dense[algo0_64x64]","cat":"kernel","ph":"X","pid":1,"tid":1,"ts":8.70973,"dur":4.3507,"args":{"ctas":1,"shared_bytes":8192,"gld_transactions":96,"gst_transactions":32,"tensor_ops":32768,"fp_ops":0,"achieved_GBps":0.941459,"sm_efficiency":0.0327614}},
{"name":"residual_layernorm1","cat":"kernel","ph":"X","pid":1,"tid":1,"ts":13.0604,"dur":3.67901,"args":{"ctas":1,"shared_bytes":0,"gld_transactions":68,"gst_transactions":32,"tensor_ops":0,"fp_ops":6144,"achieved_GBps":0.869798,"sm_efficiency":0.0296141}},
{"name":"ff1.dense[algo0_64x64]","cat":"kernel","ph":"X","pid":1,"tid":1,"ts":16.7394,"dur":4.35486,"args":{"ctas":1,"shared_bytes":8192,"gld_transactions":160,"gst_transactions":64,"tensor_ops":65536,"fp_ops":0,"achieved_GBps":1.64598,"sm_efficiency":0.0327779}},
{"name":"ff2.dense[algo0_64x64]","cat":"kernel","ph":"X","pid":1,"tid":1,"ts":21.0943,"dur":4.35486,"args":{"ctas":1,"shared_bytes":8192,"gld_transactions":192,"gst_transactions":32,"tensor_ops":65536,"fp_ops":0,"achieved_GBps":1.64598,"sm_efficiency":0.0327779}},
{"name":"residual_layernorm2","cat":"kernel","ph":"X","pid":1,"tid":1,"ts":25.4492,"dur":3.67901,"args":{"ctas":1,"shared_bytes":0,"gld_transactions":68,"gst_transactions":32,"tensor_ops":0,"fp_ops":6144,"achieved_GBps":0.869798,"sm_efficiency":0.0296141}}
]
)";

TEST(TraceExport, ReportTraceAndNameMatchingAreByteStable) {
  et::gpusim::Device dev;
  et::core::ExecContext ctx(dev);
  run_small_encoder(ctx);

  std::ostringstream report;
  et::gpusim::print_report(report, et::gpusim::profile(dev));
  EXPECT_EQ(report.str(), kGoldenReport);

  std::ostringstream trace;
  et::gpusim::write_chrome_trace(trace, dev, "fixture");
  EXPECT_EQ(trace.str(), kGoldenTrace);

  EXPECT_EQ(dev.time_us_matching("linear"), 0x1.16b6160c0b6b6p+3);
  EXPECT_EQ(dev.time_us_matching("otf"), 0x1.1671cd833e9a5p+2);
  EXPECT_EQ(dev.time_us_matching("layernorm"), 0x1.d6e9f1ccf5528p+2);
  EXPECT_EQ(dev.time_us_matching("ff"), 0x1.16b6160c0b6b6p+3);
  EXPECT_EQ(dev.time_us_matching(""), 0x1.d20d05e018669p+4);
  EXPECT_EQ(dev.time_us_matching("nothing"), 0.0);
}

}  // namespace
