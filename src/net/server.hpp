// net::ApiServer — the network front-end on serving::InferenceServer
// (docs/api.md).
//
// A TCP socket server on the loopback interface speaking the
// length-prefixed binary frame protocol (net/frame.hpp). Everything that
// is not a socket — parsing, auth, tenant quotas and buckets, engines,
// hot swap, harvest, drain, metrics — lives in net::Gateway
// (net/gateway.hpp). This class is the shell around it: one drive
// thread running one poll() loop over the listen socket and every
// connection.
//
//   listen socket ──accept──▶ Gateway::open()      (or refuse() at the cap)
//   readable conn ──recv────▶ Gateway::receive()   frames applied at once
//   drive thread  ──────────▶ Gateway::step()      one tick per iteration
//   writable conn ◀──send──── Gateway::outbox()    non-blocking
//
// Each iteration polls (1 ms when idle, 0 while any engine has work),
// accepts, reads and writes what the sockets allow, then steps the
// gateway once. Sends never block: a peer that stops reading only grows
// its own outbox, and is dropped at kMaxOutboxBytes with its streams
// cancelled. The engines and every other connection keep going.
//
// One mutex guards the gateway against the other threads that call in:
// swap_model, serve_model, the metrics accessors and shutdown. The drive
// thread holds it for everything but the poll() wait.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/exec_context.hpp"
#include "net/auth.hpp"
#include "net/gateway.hpp"
#include "serving/registry.hpp"
#include "serving/server.hpp"

namespace et::net {

struct ApiServerConfig {
  /// TCP port on 127.0.0.1; 0 binds an ephemeral port (see port()).
  std::uint16_t port = 0;
  /// Bounded accept pool: connections beyond this are sent a kError
  /// frame and closed.
  std::size_t max_connections = 16;
  /// Default model name for kSubmit frames with an empty model field.
  std::string default_model;
  /// Per-engine serving runtime shape (slots, queue, preemption, paged
  /// KV) — every engine, including post-swap ones, is built from this.
  serving::ServerConfig engine;
};

class ApiServer {
 public:
  /// The registry must outlive the server (engines pin models from it).
  /// Registers the server's metrics, the per-tenant counters, and — last,
  /// so existing snapshots stay a prefix — the registry gauges.
  ApiServer(ApiServerConfig cfg, TenantTable tenants,
            serving::ModelRegistry& registry);
  ~ApiServer();
  ApiServer(const ApiServer&) = delete;
  ApiServer& operator=(const ApiServer&) = delete;

  /// Create a serving engine for the newest loaded version of `name`.
  /// Throws std::invalid_argument when the registry has no such model.
  /// Callable before or after start().
  void serve_model(const std::string& name);

  /// Hot-swap: drain the current engine for `name` (in-flight requests
  /// finish on the old version) and point new submissions at `version`.
  /// If `name` is not currently served this behaves like serve_model.
  /// Applied between two drive iterations before this returns. Throws
  /// std::invalid_argument when the registry has no (name, version).
  void swap_model(const std::string& name, std::uint64_t version);

  /// Bind, listen, and spawn the drive thread. Throws std::runtime_error
  /// on socket failures.
  void start(core::ExecContext& ctx);

  /// Graceful stop: refuse new connections and submissions, keep ticking
  /// until every in-flight request retires or `drain_ticks` drive
  /// iterations elapse, cancel whatever remains (clients get kDone with
  /// stop_reason cancelled), flush what each client is owed, then close
  /// every socket and join the drive thread. Idempotent.
  DrainResult shutdown(std::size_t drain_ticks);

  /// The bound port (valid after start()).
  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }

  [[nodiscard]] bool running() const noexcept;

  /// Thread-safe metrics access (serialized against the drive loop).
  [[nodiscard]] std::string metrics_json(int indent = 2) const;
  [[nodiscard]] std::vector<serving::ScalarField> metrics_scalars() const;
  [[nodiscard]] double scalar_value(const std::string& name) const;

 private:
  struct Conn {
    std::uint64_t id = 0;  ///< the gateway's connection id
    int fd = -1;
  };

  void drive_loop(core::ExecContext& ctx);
  void accept_pending();
  /// Read and write what `conn`'s socket allows; false once it should
  /// close (EOF, a socket error, or the gateway is done with it).
  bool pump(const Conn& conn, short revents);

  ApiServerConfig cfg_;

  mutable std::mutex mu_;  // guards gateway_
  Gateway gateway_;

  std::vector<Conn> conns_;  // drive thread only
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  std::atomic<bool> started_{false};
  std::atomic<bool> stopped_{false};
  std::optional<std::thread> driver_;  ///< the drive thread, once started
};

}  // namespace et::net
