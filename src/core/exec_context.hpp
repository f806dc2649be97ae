// core::ExecContext — the execution context every kernel and operator
// takes in place of a raw gpusim::Device&.
//
// It bundles the simulated device with an owned deterministic ThreadPool,
// replacing the old per-call parameter sprawl with one object that can
// grow further execution state (streams, sharding) without another API
// break. Launches are recorded only from the calling thread; the pool
// runs pure math that never touches the device, so the launch log,
// profiler totals, slot attribution and fault indices of a threads=N run
// are those of threads=1 by construction.
//
// Determinism contract (docs/threading.md):
//   - the chunk partition depends only on (n, grain), never thread count;
//   - numerics are untouched: each output element is computed by exactly
//     one iteration running the same serial inner loops;
//   - nested pool loops (an operator already running inside a chunk)
//     execute serially inline.
#pragma once

#include <cstddef>

#include "core/thread_pool.hpp"
#include "gpusim/device.hpp"

namespace et::core {

class ExecContext {
 public:
  /// `threads` sizes the owned pool (1 = fully serial, the drop-in
  /// equivalent of the old Device&-only API). The device is borrowed and
  /// must outlive the context.
  explicit ExecContext(gpusim::Device& dev, std::size_t threads = 1)
      : dev_(dev), pool_(threads) {}

  ExecContext(const ExecContext&) = delete;
  ExecContext& operator=(const ExecContext&) = delete;

  [[nodiscard]] gpusim::Device& device() noexcept { return dev_; }
  [[nodiscard]] const gpusim::Device& device() const noexcept { return dev_; }
  /// The pool for math loops. Their bodies must not record launches on
  /// device(): a Device is not thread-safe.
  [[nodiscard]] ThreadPool& pool() noexcept { return pool_; }
  [[nodiscard]] std::size_t threads() const noexcept {
    return pool_.threads();
  }

 private:
  gpusim::Device& dev_;
  ThreadPool pool_;
};

}  // namespace et::core
