#include "net/server.hpp"

#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <stdexcept>
#include <string_view>
#include <utility>

namespace et::net {

namespace {

// After the drain, clients get this long to take the output they are
// owed; whatever a connection has not taken by then is dropped with it.
constexpr auto kFlushGrace = std::chrono::seconds(1);

}  // namespace

ApiServer::ApiServer(ApiServerConfig cfg, TenantTable tenants,
                     serving::ModelRegistry& registry)
    : cfg_(std::move(cfg)),
      gateway_(std::move(tenants), registry, cfg_.default_model,
               cfg_.engine) {}

ApiServer::~ApiServer() {
  if (started_.load() && !stopped_.load()) shutdown(0);
}

void ApiServer::serve_model(const std::string& name) {
  std::lock_guard<std::mutex> lk(mu_);
  gateway_.serve_model(name);
}

void ApiServer::swap_model(const std::string& name, std::uint64_t version) {
  std::lock_guard<std::mutex> lk(mu_);
  gateway_.swap_model(name, version);
}

void ApiServer::start(core::ExecContext& ctx) {
  if (started_.exchange(true)) {
    throw std::runtime_error("ApiServer::start called twice");
  }
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK, 0);
  if (listen_fd_ < 0) {
    throw std::runtime_error(std::string("socket(): ") + std::strerror(errno));
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(cfg_.port);
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof addr) != 0) {
    const int err = errno;
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw std::runtime_error(std::string("bind(127.0.0.1:") +
                             std::to_string(cfg_.port) +
                             "): " + std::strerror(err));
  }
  if (::listen(listen_fd_, 64) != 0) {
    const int err = errno;
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw std::runtime_error(std::string("listen(): ") + std::strerror(err));
  }
  sockaddr_in bound{};
  socklen_t blen = sizeof bound;
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &blen);
  port_ = ntohs(bound.sin_port);

  driver_.emplace([this, &ctx] { drive_loop(ctx); });
}

bool ApiServer::running() const noexcept {
  return started_.load() && !stopped_.load();
}

// ------------------------------------------------------------- the loop ----

void ApiServer::drive_loop(core::ExecContext& ctx) {
  std::vector<pollfd> fds;
  bool busy = false;
  std::chrono::steady_clock::time_point flush_deadline;
  for (;;) {
    {
      std::lock_guard<std::mutex> lk(mu_);
      if (gateway_.drained() &&
          (conns_.empty() ||
           std::chrono::steady_clock::now() >= flush_deadline)) {
        for (const Conn& c : conns_) {
          ::close(c.fd);
          gateway_.hang_up(c.id);
        }
        conns_.clear();
        return;
      }
      // Once draining, stop accepting: poll() skips a negative fd.
      fds.assign(1, pollfd{gateway_.draining() ? -1 : listen_fd_, POLLIN, 0});
      for (const Conn& c : conns_) {
        const bool owed = !gateway_.outbox(c.id).empty();
        fds.push_back(pollfd{
            c.fd, static_cast<short>(owed ? POLLIN | POLLOUT : POLLIN), 0});
      }
    }
    ::poll(fds.data(), fds.size(), busy ? 0 : 1);

    std::lock_guard<std::mutex> lk(mu_);
    if ((fds[0].revents & POLLIN) != 0) accept_pending();
    std::size_t kept = 0;
    for (std::size_t i = 0; i < conns_.size(); ++i) {
      // Connections accepted just now were not in this poll.
      const short revents = i + 1 < fds.size() ? fds[i + 1].revents : 0;
      if (pump(conns_[i], revents)) {
        conns_[kept++] = conns_[i];
        continue;
      }
      ::close(conns_[i].fd);
      gateway_.hang_up(conns_[i].id);
    }
    conns_.resize(kept);
    if (!gateway_.drained()) {
      busy = gateway_.step(ctx);
      if (gateway_.drained()) {
        flush_deadline = std::chrono::steady_clock::now() + kFlushGrace;
      }
    }
  }
}

void ApiServer::accept_pending() {
  for (;;) {
    const int fd = ::accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // nothing more pending
    }
    if (conns_.size() < cfg_.max_connections) {
      conns_.push_back(Conn{gateway_.open(), fd});
      continue;
    }
    // Bounded pool: over-capacity peers get a typed error, then the door.
    // One small frame always fits a fresh socket's send buffer.
    const std::string wire = gateway_.refuse();
    (void)::send(fd, wire.data(), wire.size(), MSG_NOSIGNAL);
    ::close(fd);
  }
}

bool ApiServer::pump(const Conn& conn, short revents) {
  if ((revents & (POLLIN | POLLHUP | POLLERR)) != 0) {
    char buf[16384];
    const ssize_t n = ::recv(conn.fd, buf, sizeof buf, 0);
    if (n > 0) {
      gateway_.receive(conn.id,
                       std::string_view(buf, static_cast<std::size_t>(n)));
    } else if (n == 0 ||
               (errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR)) {
      return false;  // EOF or reset
    }
  }
  std::string& out = gateway_.outbox(conn.id);
  std::size_t sent = 0;
  while (sent < out.size()) {
    // MSG_NOSIGNAL: a peer that vanished mid-stream must surface as an
    // error return, not a process-killing SIGPIPE.
    const ssize_t w =
        ::send(conn.fd, out.data() + sent, out.size() - sent, MSG_NOSIGNAL);
    if (w < 0 && errno == EINTR) continue;
    if (w < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    if (w <= 0) return false;  // a failed send drops the connection
    sent += static_cast<std::size_t>(w);
  }
  out.erase(0, sent);
  return !(gateway_.closing(conn.id) && out.empty());
}

// -------------------------------------------------------------- shutdown ----

DrainResult ApiServer::shutdown(std::size_t drain_ticks) {
  if (started_.load() && !stopped_.exchange(true)) {
    {
      std::lock_guard<std::mutex> lk(mu_);
      gateway_.drain(drain_ticks);
    }
    if (driver_) driver_->join();
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  std::lock_guard<std::mutex> lk(mu_);
  return gateway_.drain_result();
}

// --------------------------------------------------------------- metrics ----

std::string ApiServer::metrics_json(int indent) const {
  std::lock_guard<std::mutex> lk(mu_);
  return gateway_.metrics().json(indent);
}

std::vector<serving::ScalarField> ApiServer::metrics_scalars() const {
  std::lock_guard<std::mutex> lk(mu_);
  return gateway_.metrics().scalars();
}

double ApiServer::scalar_value(const std::string& name) const {
  std::lock_guard<std::mutex> lk(mu_);
  for (const auto& f : gateway_.metrics().scalars()) {
    if (f.name == name) return f.value;
  }
  throw std::invalid_argument("no metric named '" + name + "'");
}

}  // namespace et::net
