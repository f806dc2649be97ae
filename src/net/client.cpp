#include "net/client.hpp"

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <utility>

namespace et::net {

Client::~Client() { close(); }

Client::Client(Client&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)),
      reader_(std::move(other.reader_)),
      error_(std::move(other.error_)) {}

Client& Client::operator=(Client&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = std::exchange(other.fd_, -1);
    reader_ = std::move(other.reader_);
    error_ = std::move(other.error_);
  }
  return *this;
}

void Client::connect(std::uint16_t port) {
  close();
  reader_ = FrameReader();  // nothing carries over from a previous socket
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) {
    throw std::runtime_error(std::string("socket(): ") + std::strerror(errno));
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) !=
      0) {
    const int err = errno;
    ::close(fd_);
    fd_ = -1;
    throw std::runtime_error(std::string("connect(127.0.0.1:") +
                             std::to_string(port) +
                             "): " + std::strerror(err));
  }
}

void Client::send(const Frame& f) {
  if (fd_ < 0) throw std::runtime_error("Client::send: not connected");
  const std::string wire = encode_frame(f);
  std::size_t off = 0;
  while (off < wire.size()) {
    const ssize_t w =
        ::send(fd_, wire.data() + off, wire.size() - off, MSG_NOSIGNAL);
    if (w < 0) {
      if (errno == EINTR) continue;
      throw std::runtime_error(std::string("send(): ") + std::strerror(errno));
    }
    off += static_cast<std::size_t>(w);
  }
}

std::optional<Frame> Client::next() {
  if (fd_ < 0) return std::nullopt;
  char buf[4096];
  for (;;) {
    if (auto f = reader_.next()) return f;
    if (reader_.error()) {
      error_ = reader_.error_detail();
      close();
      return std::nullopt;
    }
    const ssize_t n = ::recv(fd_, buf, sizeof buf, 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      error_ = n == 0 ? "connection closed by server"
                      : std::string("recv(): ") + std::strerror(errno);
      close();
      return std::nullopt;
    }
    reader_.feed(buf, static_cast<std::size_t>(n));
  }
}

std::optional<Frame> Client::hello(std::string_view api_key) {
  send(make_hello(api_key));
  return next();
}

void Client::submit(std::uint64_t stream_id, std::string_view model,
                    std::vector<std::int32_t> prompt,
                    std::uint32_t max_new_tokens, std::int32_t eos_token) {
  send(make_submit(stream_id, model, std::move(prompt), max_new_tokens,
                   eos_token));
}

void Client::cancel(std::uint64_t stream_id) { send(make_cancel(stream_id)); }

void Client::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

}  // namespace et::net
