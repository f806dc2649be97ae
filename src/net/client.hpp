// net::Client — a small blocking client for the API server's frame
// protocol (docs/api.md), used by the loopback integration tests and the
// examples/et_client demo.
//
// Deliberately synchronous: connect, hello, submit, then pull frames one
// at a time with next(). One client drives one connection; concurrency in
// tests comes from multiple clients (or multiple streams multiplexed on
// one, since stream ids are client-chosen).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "net/frame.hpp"

namespace et::net {

class Client {
 public:
  Client() = default;
  ~Client();
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;
  Client(Client&& other) noexcept;
  Client& operator=(Client&& other) noexcept;

  /// Connect to 127.0.0.1:port. Throws std::runtime_error on failure.
  void connect(std::uint16_t port);
  [[nodiscard]] bool connected() const noexcept { return fd_ >= 0; }

  /// Send any frame. Throws std::runtime_error on a send failure.
  void send(const Frame& f);

  /// Block until the next complete frame (or EOF / protocol error →
  /// nullopt; error_detail() says which, and the socket is closed).
  [[nodiscard]] std::optional<Frame> next();

  /// hello + wait for the response frame (kHelloOk or kReject).
  /// nullopt when the server hung up first.
  std::optional<Frame> hello(std::string_view api_key);

  /// Convenience submit; the response stream is read via next().
  void submit(std::uint64_t stream_id, std::string_view model,
              std::vector<std::int32_t> prompt, std::uint32_t max_new_tokens,
              std::int32_t eos_token = nn::kNoEosToken);

  void cancel(std::uint64_t stream_id);

  /// Close the socket (abruptly, from the server's point of view — the
  /// disconnect-cancels path in the tests is exactly this).
  void close();

  [[nodiscard]] const std::string& error_detail() const noexcept {
    return error_;
  }

 private:
  int fd_ = -1;
  FrameReader reader_;
  std::string error_;
};

}  // namespace et::net
