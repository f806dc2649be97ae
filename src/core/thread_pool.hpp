// Deterministic thread pool for kernel math and parallel serving ticks.
//
// The pool's one loop primitive partitions an index range [0, n) into
// fixed chunks of `grain` iterations. The partition depends only on
// (n, grain) — NEVER on the thread count — and every chunk runs exactly
// once, so any per-chunk reduction merged in chunk order is bit-identical
// at 1, 2 or 64 threads. Which thread executes a chunk is the only
// scheduling freedom, which is why callers must keep chunks independent
// (each output element written by exactly one iteration). This is the
// work-partitioning half of FlashAttention-2's lesson applied to the
// simulated stack. Chunk bodies never record device launches, so the
// launch log and fault indices cannot depend on the thread count. See
// docs/threading.md.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace et::core {

class ThreadPool {
 public:
  /// `threads` counts the calling thread too: ThreadPool(1) spawns no
  /// workers and runs every chunk inline; ThreadPool(8) spawns 7.
  explicit ThreadPool(std::size_t threads = 1);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::size_t threads() const noexcept { return threads_; }

  /// fn(chunk_index, begin, end) over the fixed partition of [0, n).
  using ChunkFn =
      std::function<void(std::size_t chunk, std::size_t begin,
                         std::size_t end)>;

  struct ChunkError {
    std::size_t chunk = 0;
    std::exception_ptr error;
  };

  /// Run every chunk (all chunks execute even if some throw — execution
  /// is thread-count-independent, so a deterministic body that throws in
  /// chunk c throws in chunk c at every thread count). Returns the
  /// captured exceptions sorted by chunk index; empty means success.
  /// Nested calls from inside a chunk body run serially inline.
  [[nodiscard]] std::vector<ChunkError> run_chunked(std::size_t n,
                                                    std::size_t grain,
                                                    const ChunkFn& fn);

  /// run_chunked, rethrowing the lowest-chunk-index exception (the one a
  /// serial loop would have hit first).
  void for_chunks(std::size_t n, std::size_t grain, const ChunkFn& fn);

  /// Per-index loop over [0, n). grain = 0 picks grain_for(n): a fixed
  /// partition of at most kMaxAutoChunks chunks that depends only on n.
  template <typename Fn>
  void parallel_for(std::size_t n, Fn&& fn, std::size_t grain = 0) {
    if (n == 0) return;
    const std::size_t g = grain != 0 ? grain : grain_for(n);
    for_chunks(n, g,
               [&fn](std::size_t, std::size_t begin, std::size_t end) {
                 for (std::size_t i = begin; i < end; ++i) fn(i);
               });
  }

  /// True while the calling thread is executing a chunk body (on a worker
  /// OR on the submitting thread, which participates). Nested parallelism
  /// is guarded with this: a parallel_for issued from inside a chunk runs
  /// serially inline instead of deadlocking on the single in-flight job.
  [[nodiscard]] static bool in_parallel_region() noexcept;

  /// Auto-grain bound: at most this many chunks, so per-chunk dispatch
  /// overhead stays negligible next to the chunk bodies.
  static constexpr std::size_t kMaxAutoChunks = 64;

  [[nodiscard]] static std::size_t chunk_count(std::size_t n,
                                               std::size_t grain) noexcept {
    return grain == 0 ? 0 : (n + grain - 1) / grain;
  }

  /// Fixed grain for an n-iteration loop: ceil(n / kMaxAutoChunks).
  /// Depends only on n — a thread-count-independent partition.
  [[nodiscard]] static std::size_t grain_for(std::size_t n) noexcept {
    return (n + kMaxAutoChunks - 1) / kMaxAutoChunks;
  }

 private:
  struct Job {
    const ChunkFn* fn = nullptr;
    std::size_t n = 0;
    std::size_t grain = 0;
    std::size_t chunks = 0;
    std::atomic<std::size_t> next{0};
    std::atomic<std::size_t> done{0};
    std::mutex err_mutex;
    std::vector<ChunkError> errors;
  };

  void worker_loop();
  static void work_on(Job& job);

  std::size_t threads_;
  std::vector<std::thread> workers_;
  std::mutex mutex_;
  std::condition_variable wake_cv_;  // workers wait for a job / stop
  std::condition_variable done_cv_;  // submitter waits for completion
  Job* job_ = nullptr;               // guarded by mutex_
  std::uint64_t epoch_ = 0;          // bumped per job so workers join once
  std::size_t busy_workers_ = 0;     // workers inside work_on
  bool stop_ = false;
};

}  // namespace et::core
