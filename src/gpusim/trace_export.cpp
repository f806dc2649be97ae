#include "gpusim/trace_export.hpp"

#include <fstream>
#include <ostream>
#include <stdexcept>
#include <string_view>

namespace et::gpusim {

namespace {
/// Minimal JSON string escaping (kernel names are ASCII identifiers, but
/// be safe about quotes/backslashes).
std::string escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) >= 0x20) out.push_back(c);
  }
  return out;
}
}  // namespace

void write_chrome_trace(std::ostream& os, const Device& dev,
                        const std::string& process_name) {
  os << "[\n";
  os << R"({"name":"process_name","ph":"M","pid":1,"args":{"name":")"
     << escape(process_name) << "\"}},\n";
  os << R"({"name":"thread_name","ph":"M","pid":1,"tid":1,)"
     << R"("args":{"name":"stream 0"}})";

  double t = 0.0;
  const std::size_t txn = dev.spec().transaction_bytes;
  for (const auto& k : dev.history()) {
    os << ",\n";
    os << R"({"name":")" << escape(k.name) << R"(","cat":"kernel","ph":"X",)"
       << R"("pid":1,"tid":1,"ts":)" << t << R"(,"dur":)" << k.time_us
       << R"(,"args":{)"
       << R"("ctas":)" << k.ctas << R"(,"shared_bytes":)"
       << k.shared_bytes_per_cta << R"(,"gld_transactions":)"
       << k.gld_transactions(txn) << R"(,"gst_transactions":)"
       << k.gst_transactions(txn) << R"(,"tensor_ops":)" << k.tensor_ops
       << R"(,"fp_ops":)" << k.fp_ops << R"(,"achieved_GBps":)"
       << k.achieved_gbps() << R"(,"sm_efficiency":)" << k.sm_efficiency
       << "}}";
    t += k.time_us;
  }
  os << "\n]\n";
}

void write_chrome_trace(const std::string& path, const Device& dev,
                        const std::string& process_name) {
  std::ofstream f(path);
  if (!f) throw std::runtime_error("cannot open trace file: " + path);
  write_chrome_trace(f, dev, process_name);
  if (!f) throw std::runtime_error("trace write failed: " + path);
}

}  // namespace et::gpusim
