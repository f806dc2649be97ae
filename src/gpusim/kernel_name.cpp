#include "gpusim/kernel_name.hpp"

#include <mutex>
#include <ostream>
#include <unordered_map>
#include <unordered_set>

namespace et::gpusim {

namespace {

/// The process-wide name table. Set nodes never move, so a pointer to an
/// element stays valid for as long as the table lives.
struct NameTable {
  std::mutex mu;
  std::unordered_set<std::string> names;  // guarded by mu
};

/// Allocated once and never destroyed: launch records held by objects
/// with static storage duration may outlive any destructor order.
NameTable& table() {
  static NameTable* const t = new NameTable;
  return *t;
}

}  // namespace

KernelName KernelName::intern(std::string_view name) {
  if (name.empty()) return {};
  // Keys view the interned strings themselves, never the caller's buffer.
  thread_local std::unordered_map<std::string_view, const std::string*> seen;
  if (const auto it = seen.find(name); it != seen.end()) {
    return KernelName(it->second);
  }
  NameTable& t = table();
  const std::string* entry = nullptr;
  {
    std::lock_guard<std::mutex> lock(t.mu);
    entry = &*t.names.emplace(name).first;
  }
  seen.emplace(*entry, entry);
  return KernelName(entry);
}

std::ostream& operator<<(std::ostream& os, KernelName name) {
  return os << name.view();
}

}  // namespace et::gpusim
