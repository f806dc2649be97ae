// net::TenantTable — per-tenant API keys, priority tiers, rate limits
// and quotas for the network front-end (docs/api.md "Auth and tenants").
//
// A tenant is an API key bound to a serving tier: the tier maps directly
// onto the serving runtime's priority classes (interactive / normal /
// bulk), so what a key is worth on the wire is exactly what it is worth
// in the admission queue. On top of the tier each tenant carries:
//
//   - a token-bucket rate limit on the server's logical tick clock:
//     `bucket_capacity` submissions of burst, refilled `refill_per_tick`
//     per drive tick — deterministic, like every other budget in the
//     serving stack (no wall-clock in the admission path);
//   - an in-flight quota (`max_inflight`): concurrent generations above
//     it are refused with NetStatus::kQuotaExceeded before touching the
//     inference queue.
//
// The table itself is immutable after construction; the mutable
// bucket/in-flight state lives in TenantState and is owned by the
// net::Gateway that enforces it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "serving/server.hpp"

namespace et::net {

/// "No limit" sentinel for bucket capacity / quota fields.
inline constexpr std::size_t kUnlimited = static_cast<std::size_t>(-1);

struct Tenant {
  std::string name;
  std::string api_key;
  serving::Priority tier = serving::Priority::kNormal;
  /// Token bucket: burst size. kUnlimited disables rate limiting.
  std::size_t bucket_capacity = kUnlimited;
  /// Tokens added back per drive tick (whole submissions).
  std::size_t refill_per_tick = 1;
  /// Max concurrent in-flight generations. kUnlimited disables the quota.
  std::size_t max_inflight = kUnlimited;
};

/// Mutable per-tenant serving state, owned by net::Gateway.
struct TenantState {
  std::size_t bucket = 0;    ///< tokens available now
  std::size_t inflight = 0;  ///< generations submitted and not yet done
};

class TenantTable {
 public:
  TenantTable() = default;
  /// Throws std::invalid_argument on an empty name/key or a duplicate
  /// key — an ambiguous key would make auth order-dependent.
  explicit TenantTable(std::vector<Tenant> tenants);

  /// Index of the tenant owning `api_key`, or npos. Safe to call from
  /// any thread (the table is immutable).
  [[nodiscard]] std::size_t find_by_key(std::string_view api_key) const;

  [[nodiscard]] const Tenant& tenant(std::size_t idx) const {
    return tenants_.at(idx);
  }
  [[nodiscard]] std::size_t size() const noexcept { return tenants_.size(); }

  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

  /// The three-tenant demo table et_cli --listen serves: keys
  /// "demo-interactive" / "demo-normal" / "demo-bulk", one per tier,
  /// generous buckets, documented in docs/api.md.
  [[nodiscard]] static TenantTable demo();

 private:
  std::vector<Tenant> tenants_;
};

/// Deterministic token-bucket step: refill then clamp to capacity.
/// (Free function so the arithmetic is unit-testable without a server.)
void refill_bucket(const Tenant& t, TenantState& s);

/// Consume one submission from the bucket; false when empty (rate
/// limited). An unlimited bucket always grants.
[[nodiscard]] bool try_consume(const Tenant& t, TenantState& s);

}  // namespace et::net
