// Interned kernel names: one copy of each distinct launch name for the
// whole process, so a launch record carries a pointer instead of a string.
#pragma once

#include <iosfwd>
#include <string>
#include <string_view>

namespace et::gpusim {

/// Pointer-sized handle to a kernel name held in a process-wide intern
/// table. The table keeps each distinct name once and never frees one, and
/// KernelName::intern is the only way to make a non-empty handle, so a
/// handle can never dangle, whatever the lifetime of the string it was
/// interned from. Equal names intern to the same storage, so comparing two
/// handles is a pointer compare.
///
/// intern is thread-safe. Each thread keeps a cache in front of the shared
/// table, so a name the thread has seen before costs one hash lookup, no
/// lock and no allocation.
class KernelName {
 public:
  /// The empty name.
  constexpr KernelName() noexcept = default;

  [[nodiscard]] static KernelName intern(std::string_view name);

  [[nodiscard]] std::string_view view() const noexcept {
    return entry_ == nullptr ? std::string_view() : std::string_view(*entry_);
  }
  operator std::string_view() const noexcept { return view(); }

  friend bool operator==(KernelName a, KernelName b) noexcept {
    return a.entry_ == b.entry_;
  }
  friend bool operator==(KernelName a, std::string_view b) noexcept {
    return a.view() == b;
  }

 private:
  explicit KernelName(const std::string* entry) noexcept : entry_(entry) {}

  const std::string* entry_ = nullptr;  ///< nullptr = the empty name
};

static_assert(sizeof(KernelName) == sizeof(void*));

std::ostream& operator<<(std::ostream& os, KernelName name);

}  // namespace et::gpusim
