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
#include <cstddef>
#include <cstdint>
#include <cstring>
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

/// True for the finite x whose conversion to binary16 overflows to ±inf
/// (|x| >= 65520), i.e. whose conversion counts an overflow event.
[[nodiscard]] inline bool overflows_fp16(float x) noexcept {
  const std::uint32_t a = std::bit_cast<std::uint32_t>(x) & 0x7fffffffu;
  return a >= detail::kF16OverflowBits && a < 0x7f800000u;
}

/// Four float lanes and their bit patterns (and the eight 16-bit halves
/// of those): 16-byte GCC vectors, which compile to SSE2 on x86-64.
using f32x4 = float __attribute__((vector_size(16)));
using i32x4 = std::int32_t __attribute__((vector_size(16)));
using u32x4 = std::uint32_t __attribute__((vector_size(16)));
using i16x8 = std::int16_t __attribute__((vector_size(16)));

/// Binary16 rounding of four lanes, branch-free and counting nothing. For
/// finite |x| < 65520 (zero and subnormals included) let e be x's binary
/// exponent, raised to at least -14, and c = 2^(e+13): within x's binade
/// the float ulp of c equals binary16's ulp there, so (|x| + c) - c rounds
/// |x| to nearest-even on binary16's grid, and x's sign goes back on (a
/// tiny negative value becomes -0). Every lane holding |x| >= 65520, inf
/// or NaN is set in `flag` (all ones) and its result is unspecified: the
/// caller redoes that work with round_fp16, which also counts overflows.
[[nodiscard]] inline f32x4 round_fp16_lanes(f32x4 x, i32x4& flag) noexcept {
  const u32x4 u = std::bit_cast<u32x4>(x);
  const u32x4 mag = u & 0x7fffffffu;
  flag |= std::bit_cast<i32x4>(mag) >=
          static_cast<std::int32_t>(detail::kF16OverflowBits);
  // max(2^e, 2^-14) on the exponent fields. They fill the high halves of
  // the lanes, whose low halves are zero on both sides, so the 16-bit
  // signed max (one SSE2 instruction) is the 32-bit max.
  const i16x8 e = std::bit_cast<i16x8>(mag & 0x7f800000u);
  const i16x8 min_e = std::bit_cast<i16x8>(u32x4{} + 0x38800000u);
  const u32x4 binade = std::bit_cast<u32x4>(e > min_e ? e : min_e);
  const f32x4 c = std::bit_cast<f32x4>(binade + (13u << 23));
  const f32x4 r = (std::bit_cast<f32x4>(mag) + c) - c;
  return std::bit_cast<f32x4>(std::bit_cast<u32x4>(r) | (u ^ mag));
}

/// True when any lane of a round_fp16_lanes flag is set.
[[nodiscard]] inline bool any_lane(i32x4 flag) noexcept {
  return (flag[0] | flag[1] | flag[2] | flag[3]) != 0;
}

/// static_cast<float>(half(x)), overflow count included: the one-lane
/// case of round_fp16_lanes, with the exact out-of-line conversion (which
/// records overflow events) for |x| >= 65520, inf and NaN.
[[nodiscard]] inline float round_fp16(float x) noexcept {
  i32x4 flag{};
  const float r = round_fp16_lanes(f32x4{x}, flag)[0];
  if (flag[0] == 0) [[likely]] return r;
  return detail::f16_bits_to_f32(detail::f32_to_f16_bits(x));
}

/// Round x[0, n) to binary16 into out[0], out[stride], ... (which must
/// not overlap x) with round_fp16's values: four lanes at a time, and
/// element by element only when some lane was flagged. Returns false,
/// counting nothing and leaving out partly written, when a finite element
/// overflows on rounding; inf and NaN round as round_fp16 rounds them.
[[nodiscard]] inline bool round_fp16_into(const float* x, float* out,
                                          std::size_t n,
                                          std::size_t stride = 1) noexcept {
  i32x4 flag{};
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    f32x4 v;
    std::memcpy(&v, x + i, sizeof v);
    const f32x4 r = round_fp16_lanes(v, flag);
    if (stride == 1) {
      std::memcpy(out + i, &r, sizeof r);
    } else {
      for (std::size_t t = 0; t < 4; ++t) out[(i + t) * stride] = r[t];
    }
  }
  for (; i < n; ++i) out[i * stride] = round_fp16_lanes(f32x4{x[i]}, flag)[0];
  if (!any_lane(flag)) [[likely]] return true;
  for (i = 0; i < n; ++i) {
    if (overflows_fp16(x[i])) return false;
    out[i * stride] = round_fp16(x[i]);
  }
  return true;
}

}  // namespace et::numeric
