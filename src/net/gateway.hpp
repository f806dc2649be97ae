// net::Gateway — the API server's protocol, tenancy and engine driving,
// with no sockets and no threads (docs/api.md).
//
// A connection is a number the gateway hands out in open(). Bytes the
// peer sent go in through receive(); the gateway parses them into frames
// (net/frame.hpp) and applies each one at once: auth, the tenant's quota
// and token bucket, then submit or cancel on the serving engine. Bytes
// for the peer come out of the connection's outbox, which the caller
// writes and trims. step() is one iteration of the drive loop: one
// bucket refill, one tick of every non-idle engine, then the done frames
// of whatever finished. Nothing depends on wall-clock or on which
// thread calls in, so a scripted sequence of calls is a reproducible
// transcript (tests/test_net.cpp drives it that way, byte for byte).
//
//   receive(conn, bytes) ──frames──▶ dispatch ──submit/cancel──▶ engines
//                                                                  │ step()
//   outbox(conn) ◀── hello_ok / reject / error / token / done ◀────┘
//
// Engines: one serving::InferenceServer per served model name, each
// holding a ModelPin on its weights. swap_model(name, v) moves the
// current engine onto a draining list, where it takes no new submissions
// but keeps ticking until its in-flight requests retire, and points new
// submissions at a fresh engine pinned to v. The old LoadedModel is
// destroyed when the drained engine releases its pin. Nothing is
// dropped, and streams admitted before the swap finish bit-identical to
// an undisturbed run on the old version.
//
// Tenancy: every connection authenticates with an API key (kHello); the
// tenant's tier is its serving priority class, and submissions pass a
// deterministic token-bucket rate limit and an in-flight quota before
// they reach the admission queue. Engine-level rejects (queue full,
// shed) surface as typed kReject frames reusing serving::RejectReason.
//
// Dropping a connection cancels its streams: on hang_up(), on a protocol
// error, and when its unsent output passes kMaxOutboxBytes (a peer that
// stopped reading). A dead client must not hold decode slots.
//
// Not thread-safe: one caller at a time (net::ApiServer holds a mutex).
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/exec_context.hpp"
#include "net/auth.hpp"
#include "net/frame.hpp"
#include "serving/registry.hpp"
#include "serving/server.hpp"

namespace et::net {

/// A connection whose unsent output grows past this many bytes has
/// stopped reading; it is dropped as if a send had failed.
inline constexpr std::size_t kMaxOutboxBytes = std::size_t{1} << 18;

/// What a drain did with the work that was still in flight.
struct DrainResult {
  std::size_t drain_ticks_used = 0;  ///< drive iterations spent draining
  std::size_t cancelled = 0;  ///< requests cancelled when the budget ran out
};

class Gateway {
 public:
  /// The registry must outlive the gateway (engines pin models from it).
  /// Registers the net_* metrics, the per-tenant counters, and — last,
  /// so existing snapshots stay a prefix — the registry gauges.
  /// `default_model` serves kSubmit frames with an empty model field;
  /// every engine, including post-swap ones, is built from `engine`.
  Gateway(TenantTable tenants, serving::ModelRegistry& registry,
          std::string default_model, serving::ServerConfig engine);
  ~Gateway();
  Gateway(const Gateway&) = delete;
  Gateway& operator=(const Gateway&) = delete;

  /// Create a serving engine for the newest loaded version of `name`.
  /// Throws std::invalid_argument when the registry has no such model or
  /// `name` is already served.
  void serve_model(const std::string& name);

  /// Hot swap: drain the current engine for `name` and point new
  /// submissions at `version`; like serve_model when `name` is not
  /// served yet. Throws std::invalid_argument when the registry has no
  /// (name, version).
  void swap_model(const std::string& name, std::uint64_t version);

  /// A new connection (counted in net_connections_accepted).
  [[nodiscard]] std::uint64_t open();
  /// Count a connection turned away at the caller's connection cap and
  /// return the kError frame to send it before closing.
  [[nodiscard]] std::string refuse();
  /// Bytes from the peer, in any chunking. Complete frames are applied
  /// in order; ignored once the connection is closing.
  void receive(std::uint64_t conn, std::string_view bytes);
  /// The peer is gone (EOF, reset, failed send): cancel its live streams
  /// and forget the connection. Unknown ids are ignored.
  void hang_up(std::uint64_t conn);

  /// Bytes owed to the peer. The caller writes from the front and erases
  /// what it wrote; everything else here only appends.
  [[nodiscard]] std::string& outbox(std::uint64_t conn);
  /// True when the gateway is done with `conn` — a protocol error, a bad
  /// key, an overflowed outbox, or a finished drain. Flush the outbox,
  /// then close and hang_up().
  [[nodiscard]] bool closing(std::uint64_t conn) const;

  /// One drive iteration: refill every tenant bucket, tick every non-idle
  /// engine once, send done frames, destroy drained swap engines. While
  /// draining, also spend one tick of the budget. Returns true while any
  /// engine still has work.
  bool step(core::ExecContext& ctx);

  /// Start a graceful drain: from now on submissions are rejected as
  /// draining, and once `budget` busy steps have passed whatever is
  /// still in flight is cancelled (its clients get kDone, cancelled).
  /// Later calls keep the first budget.
  void drain(std::size_t budget);
  [[nodiscard]] bool draining() const noexcept { return drain_requested_; }
  /// The drain finished: nothing in flight, every connection closing.
  [[nodiscard]] bool drained() const noexcept { return drained_; }
  [[nodiscard]] const DrainResult& drain_result() const noexcept {
    return drain_result_;
  }

  [[nodiscard]] const serving::MetricsRegistry& metrics() const noexcept {
    return metrics_;
  }

 private:
  struct Conn;
  struct EngineSlot;
  struct StreamRef;

  void dispatch(Conn& conn, const Frame& f);
  void handle_hello(Conn& conn, const Frame& f);
  void handle_submit(Conn& conn, const Frame& f);
  void handle_cancel(Conn& conn, const Frame& f);
  /// Fail the connection with a final frame: send it, then close.
  void fail(Conn& conn, const Frame& last);
  /// A rejected submission: counted, answered, connection kept.
  void reject(Conn& conn, std::uint64_t stream_id, NetStatus status,
              const std::string& detail);

  /// Append a frame to the connection's outbox unless it is closing.
  void send(Conn& conn, const Frame& f);
  void send(std::uint64_t conn, const Frame& f);
  /// Cancel every live stream whose connection is closing or gone
  /// (net_disconnect_cancels). Never called from inside a tick.
  void cancel_orphans();
  /// Retire finished streams: done frames, quota release.
  void harvest();

  [[nodiscard]] EngineSlot* find_engine(const std::string& name);
  [[nodiscard]] std::unique_ptr<EngineSlot> make_engine(
      const std::string& name, serving::ModelPin pin);

  TenantTable tenants_;
  serving::ModelRegistry& registry_;
  std::string default_model_;
  serving::ServerConfig engine_cfg_;

  serving::MetricsRegistry metrics_;
  serving::Counter* connections_accepted_ = nullptr;
  serving::Counter* connections_rejected_ = nullptr;
  serving::Counter* auth_failures_ = nullptr;
  serving::Counter* protocol_errors_ = nullptr;
  serving::Counter* submitted_ = nullptr;
  serving::Counter* completed_ = nullptr;
  serving::Counter* rejected_ = nullptr;
  serving::Counter* rate_limited_ = nullptr;
  serving::Counter* quota_rejected_ = nullptr;
  serving::Counter* cancelled_ = nullptr;
  serving::Counter* disconnect_cancels_ = nullptr;
  serving::Counter* tokens_streamed_ = nullptr;
  serving::Gauge* connections_open_ = nullptr;
  serving::Gauge* engines_active_ = nullptr;
  serving::Gauge* engines_draining_ = nullptr;
  serving::Gauge* streams_live_ = nullptr;
  struct TenantMetrics {
    serving::Counter* submitted = nullptr;
    serving::Counter* completed = nullptr;
    serving::Counter* rejected = nullptr;
    serving::Counter* tokens = nullptr;
  };
  std::vector<TenantMetrics> tenant_metrics_;  // index == tenant index
  std::vector<TenantState> tenant_state_;      // index == tenant index

  std::map<std::uint64_t, Conn> conns_;
  std::uint64_t next_conn_id_ = 1;
  std::vector<std::unique_ptr<EngineSlot>> engines_;   // currently served
  std::vector<std::unique_ptr<EngineSlot>> draining_;  // swap leftovers
  std::vector<StreamRef> live_;                        // in-flight streams

  bool drain_requested_ = false;
  bool drained_ = false;
  std::size_t drain_budget_ = 0;
  DrainResult drain_result_;
};

}  // namespace et::net
