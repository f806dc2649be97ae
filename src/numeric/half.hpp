// IEEE-754 binary16 ("half") emulated in software, bit-accurate.
//
// The paper (§3.3, Fig. 4) shows that computing Q·K^T in *pure* FP16 on
// tensor cores overflows (|x| > 65504 -> ±inf) unless the 1/sqrt(d_k)
// scaling is reordered to happen before the multiplication. To reproduce
// that claim without tensor-core hardware we need a half type whose
// rounding and overflow semantics match the hardware exactly, plus a way
// to observe overflow events. Every float->half conversion that turns a
// finite value into ±inf bumps a process-wide counter readable through
// overflow_count().
#pragma once

#include <bit>
#include <cstdint>
#include <iosfwd>

namespace et::numeric {

/// Number of finite->inf overflow events since the last reset.
/// Counted across all threads (relaxed atomic).
std::uint64_t overflow_count() noexcept;

/// Reset the overflow counter to zero (e.g. at the start of a kernel).
void reset_overflow_count() noexcept;

namespace detail {
std::uint16_t f32_to_f16_bits(float f) noexcept;
float f16_bits_to_f32(std::uint16_t h) noexcept;

/// |x| bit patterns from 65520 up to (not including) inf round to ±inf:
/// 65520 is the tie between 65504 and 2^16, and the even side is 2^16.
inline constexpr std::uint32_t kF16OverflowBits = 0x477ff000u;
}  // namespace detail

/// IEEE-754 binary16. Arithmetic converts to float, operates, and rounds
/// back — which is exactly what "pure FP16" tensor-core accumulation does
/// per fused-multiply-add step at tile granularity.
class half {
 public:
  constexpr half() = default;
  explicit half(float f) : bits_(detail::f32_to_f16_bits(f)) {}
  explicit half(double d) : half(static_cast<float>(d)) {}
  explicit half(int i) : half(static_cast<float>(i)) {}

  static constexpr half from_bits(std::uint16_t b) noexcept {
    half h;
    h.bits_ = b;
    return h;
  }
  [[nodiscard]] constexpr std::uint16_t bits() const noexcept { return bits_; }

  /// Widening is exact, hence implicit.
  operator float() const noexcept { return detail::f16_bits_to_f32(bits_); }

  [[nodiscard]] constexpr bool is_inf() const noexcept {
    return (bits_ & 0x7fffu) == 0x7c00u;
  }
  [[nodiscard]] constexpr bool is_nan() const noexcept {
    return (bits_ & 0x7c00u) == 0x7c00u && (bits_ & 0x03ffu) != 0;
  }
  [[nodiscard]] constexpr bool is_finite() const noexcept {
    return (bits_ & 0x7c00u) != 0x7c00u;
  }
  [[nodiscard]] constexpr bool signbit() const noexcept {
    return (bits_ & 0x8000u) != 0;
  }

  /// Largest finite binary16 value (65504).
  static constexpr float max() noexcept { return 65504.0f; }
  /// Smallest positive normal (2^-14).
  static constexpr float min_normal() noexcept { return 6.103515625e-05f; }
  /// Machine epsilon (2^-10).
  static constexpr float epsilon() noexcept { return 9.765625e-04f; }

  friend half operator+(half a, half b) {
    return half(static_cast<float>(a) + static_cast<float>(b));
  }
  friend half operator-(half a, half b) {
    return half(static_cast<float>(a) - static_cast<float>(b));
  }
  friend half operator*(half a, half b) {
    return half(static_cast<float>(a) * static_cast<float>(b));
  }
  friend half operator/(half a, half b) {
    return half(static_cast<float>(a) / static_cast<float>(b));
  }
  friend half operator-(half a) { return from_bits(a.bits_ ^ 0x8000u); }
  half& operator+=(half b) { return *this = *this + b; }
  half& operator-=(half b) { return *this = *this - b; }
  half& operator*=(half b) { return *this = *this * b; }
  half& operator/=(half b) { return *this = *this / b; }

  friend bool operator==(half a, half b) {
    return static_cast<float>(a) == static_cast<float>(b);
  }
  friend bool operator!=(half a, half b) { return !(a == b); }
  friend bool operator<(half a, half b) {
    return static_cast<float>(a) < static_cast<float>(b);
  }
  friend bool operator>(half a, half b) { return b < a; }
  friend bool operator<=(half a, half b) { return !(b < a); }
  friend bool operator>=(half a, half b) { return !(a < b); }

 private:
  std::uint16_t bits_ = 0;
};

std::ostream& operator<<(std::ostream& os, half h);

static_assert(sizeof(half) == 2, "binary16 must occupy two bytes");

/// static_cast<float>(half(x)), overflow count included, without the
/// out-of-line round trip when the result is a normal binary16. For
/// 2^-14 <= |x| < 65520 rounding to nearest-even is an add-and-mask on
/// the float bits: add 0xfff plus the lowest kept mantissa bit, clear the
/// 13 dropped bits, and a carry out of the mantissa bumps the exponent
/// just as it should. Zero, subnormals, overflow, inf and NaN take the
/// exact conversion, which also records overflow events.
[[nodiscard]] inline float round_fp16(float x) noexcept {
  constexpr std::uint32_t kMinNormal = 0x38800000u;  // 2^-14
  const std::uint32_t u = std::bit_cast<std::uint32_t>(x);
  if ((u & 0x7fffffffu) - kMinNormal <
      detail::kF16OverflowBits - kMinNormal) [[likely]] {
    return std::bit_cast<float>((u + 0xfffu + ((u >> 13) & 1u)) & ~0x1fffu);
  }
  return detail::f16_bits_to_f32(detail::f32_to_f16_bits(x));
}

/// True for the finite x whose conversion to binary16 overflows to ±inf
/// (|x| >= 65520), i.e. whose conversion counts an overflow event.
[[nodiscard]] inline bool overflows_fp16(float x) noexcept {
  const std::uint32_t a = std::bit_cast<std::uint32_t>(x) & 0x7fffffffu;
  return a >= detail::kF16OverflowBits && a < 0x7f800000u;
}

}  // namespace et::numeric
