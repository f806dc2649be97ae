#include "core/thread_pool.hpp"

#include <algorithm>

namespace et::core {

namespace {
/// Set while this thread executes a chunk body; the nested-parallelism
/// guard keys off it being per-thread.
thread_local bool tl_in_parallel_region = false;
}  // namespace

bool ThreadPool::in_parallel_region() noexcept {
  return tl_in_parallel_region;
}

ThreadPool::ThreadPool(std::size_t threads)
    : threads_(std::max<std::size_t>(1, threads)) {
  workers_.reserve(threads_ - 1);
  for (std::size_t i = 0; i + 1 < threads_; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  wake_cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::work_on(Job& job) {
  const bool prev = tl_in_parallel_region;
  tl_in_parallel_region = true;
  for (;;) {
    const std::size_t c = job.next.fetch_add(1, std::memory_order_relaxed);
    if (c >= job.chunks) break;
    const std::size_t begin = c * job.grain;
    const std::size_t end = std::min(job.n, begin + job.grain);
    try {
      (*job.fn)(c, begin, end);
    } catch (...) {
      std::lock_guard<std::mutex> lock(job.err_mutex);
      job.errors.push_back({c, std::current_exception()});
    }
    job.done.fetch_add(1, std::memory_order_release);
  }
  tl_in_parallel_region = prev;
}

void ThreadPool::worker_loop() {
  std::uint64_t seen_epoch = 0;
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    wake_cv_.wait(lock, [&] {
      return stop_ || (job_ != nullptr && epoch_ != seen_epoch);
    });
    if (stop_) return;
    seen_epoch = epoch_;
    Job* job = job_;
    ++busy_workers_;
    lock.unlock();
    work_on(*job);
    lock.lock();
    --busy_workers_;
    done_cv_.notify_one();
  }
}

std::vector<ThreadPool::ChunkError> ThreadPool::run_chunked(
    std::size_t n, std::size_t grain, const ChunkFn& fn) {
  std::vector<ChunkError> errors;
  if (n == 0) return errors;
  const std::size_t g = std::max<std::size_t>(1, grain);
  const std::size_t chunks = chunk_count(n, g);

  // Serial inline path: no workers, a single chunk, or a nested call from
  // inside a chunk body. Chunk order and per-chunk error capture are the
  // same as the parallel path, so behaviour stays thread-count-invariant.
  if (workers_.empty() || chunks <= 1 || tl_in_parallel_region) {
    const bool prev = tl_in_parallel_region;
    tl_in_parallel_region = true;
    for (std::size_t c = 0; c < chunks; ++c) {
      const std::size_t begin = c * g;
      const std::size_t end = std::min(n, begin + g);
      try {
        fn(c, begin, end);
      } catch (...) {
        errors.push_back({c, std::current_exception()});
      }
    }
    tl_in_parallel_region = prev;
    return errors;
  }

  Job job;
  job.fn = &fn;
  job.n = n;
  job.grain = g;
  job.chunks = chunks;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    job_ = &job;
    ++epoch_;
  }
  wake_cv_.notify_all();
  work_on(job);  // the submitting thread pulls chunks too
  {
    std::unique_lock<std::mutex> lock(mutex_);
    done_cv_.wait(lock, [&] {
      return busy_workers_ == 0 &&
             job.done.load(std::memory_order_acquire) == job.chunks;
    });
    job_ = nullptr;
  }

  std::sort(job.errors.begin(), job.errors.end(),
            [](const ChunkError& a, const ChunkError& b) {
              return a.chunk < b.chunk;
            });
  return job.errors;
}

void ThreadPool::for_chunks(std::size_t n, std::size_t grain,
                            const ChunkFn& fn) {
  const auto errors = run_chunked(n, grain, fn);
  if (!errors.empty()) std::rethrow_exception(errors.front().error);
}

}  // namespace et::core
