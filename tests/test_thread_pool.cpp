// core::ThreadPool unit tests: the deterministic-partition contract
// (docs/threading.md), exception propagation out of worker chunks, and
// the nested-parallelism guard. These are the pool-level halves of the
// guarantees the differential threads axis (test_parallel_exec.cpp)
// checks end to end.
#include <gtest/gtest.h>

#include <atomic>
#include <mutex>
#include <numeric>
#include <set>
#include <stdexcept>
#include <vector>

#include "core/thread_pool.hpp"

namespace {

using et::core::ThreadPool;

/// The chunk partition as a list of (chunk, begin, end) triples, in chunk
/// order (run_chunked may execute them in any order, so sort).
std::vector<std::array<std::size_t, 3>> partition_of(ThreadPool& pool,
                                                     std::size_t n,
                                                     std::size_t grain) {
  std::mutex mu;
  std::vector<std::array<std::size_t, 3>> chunks;
  const auto errors =
      pool.run_chunked(n, grain, [&](std::size_t c, std::size_t b,
                                     std::size_t e) {
        const std::lock_guard<std::mutex> lock(mu);
        chunks.push_back({c, b, e});
      });
  EXPECT_TRUE(errors.empty());
  std::sort(chunks.begin(), chunks.end());
  return chunks;
}

// -------------------------------------------------------------------------
// Deterministic partitioning.
// -------------------------------------------------------------------------

TEST(ThreadPool, PartitionDependsOnlyOnSizeAndGrain) {
  // The same (n, grain) must yield the same chunk list at every thread
  // count — the partition is the thread-count-independent half of the
  // determinism contract.
  for (const std::size_t n : {1u, 7u, 64u, 65u, 1000u}) {
    for (const std::size_t grain : {1u, 3u, 64u}) {
      ThreadPool serial(1);
      ThreadPool two(2);
      ThreadPool eight(8);
      const auto ref = partition_of(serial, n, grain);
      EXPECT_EQ(partition_of(two, n, grain), ref)
          << "n=" << n << " grain=" << grain;
      EXPECT_EQ(partition_of(eight, n, grain), ref)
          << "n=" << n << " grain=" << grain;
      // And the partition tiles [0, n) exactly: contiguous, disjoint.
      ASSERT_EQ(ref.size(), ThreadPool::chunk_count(n, grain));
      std::size_t expect_begin = 0;
      for (std::size_t c = 0; c < ref.size(); ++c) {
        EXPECT_EQ(ref[c][0], c);
        EXPECT_EQ(ref[c][1], expect_begin);
        expect_begin = ref[c][2];
      }
      EXPECT_EQ(expect_begin, n);
    }
  }
}

TEST(ThreadPool, ParallelForVisitsEveryIndexExactlyOnce) {
  constexpr std::size_t kN = 937;  // prime: uneven tail chunk
  for (const std::size_t threads : {1u, 2u, 8u}) {
    ThreadPool pool(threads);
    std::vector<std::atomic<int>> visits(kN);
    pool.parallel_for(kN, [&](std::size_t i) { ++visits[i]; });
    for (std::size_t i = 0; i < kN; ++i) {
      EXPECT_EQ(visits[i].load(), 1) << "index " << i;
    }
  }
}

TEST(ThreadPool, AutoGrainCapsChunkCount) {
  EXPECT_EQ(ThreadPool::grain_for(10), 1u);
  EXPECT_EQ(ThreadPool::grain_for(64), 1u);
  EXPECT_EQ(ThreadPool::grain_for(65), 2u);
  for (const std::size_t n : {1u, 63u, 64u, 65u, 129u, 100000u}) {
    const std::size_t g = ThreadPool::grain_for(n);
    EXPECT_LE(ThreadPool::chunk_count(n, g), ThreadPool::kMaxAutoChunks);
    EXPECT_GE(g * ThreadPool::chunk_count(n, g), n);
  }
}

TEST(ThreadPool, ChunkOrderedReductionIsThreadCountInvariant) {
  // Floating-point sums reassociated across chunks differ in the last
  // ulp; reduced IN CHUNK ORDER they cannot. Build per-chunk partial sums
  // and fold them in chunk index order at several thread counts.
  constexpr std::size_t kN = 512;
  std::vector<float> x(kN);
  for (std::size_t i = 0; i < kN; ++i) {
    x[i] = 1.0f / static_cast<float>(i + 1);
  }
  const auto sum_with = [&](std::size_t threads) {
    ThreadPool pool(threads);
    const std::size_t grain = 31;  // uneven on purpose
    std::vector<float> partial(ThreadPool::chunk_count(kN, grain), 0.0f);
    pool.for_chunks(kN, grain,
                    [&](std::size_t c, std::size_t b, std::size_t e) {
                      float s = 0.0f;
                      for (std::size_t i = b; i < e; ++i) s += x[i];
                      partial[c] = s;
                    });
    float total = 0.0f;
    for (const float s : partial) total += s;
    return total;
  };
  const float ref = sum_with(1);
  EXPECT_EQ(sum_with(2), ref);   // bitwise, not allclose
  EXPECT_EQ(sum_with(8), ref);
}

// -------------------------------------------------------------------------
// Exception propagation.
// -------------------------------------------------------------------------

TEST(ThreadPool, WorkerExceptionPropagatesToCaller) {
  for (const std::size_t threads : {1u, 2u, 8u}) {
    ThreadPool pool(threads);
    EXPECT_THROW(
        pool.parallel_for(100,
                          [](std::size_t i) {
                            if (i == 57) {
                              throw std::runtime_error("chunk body failed");
                            }
                          },
                          /*grain=*/10),
        std::runtime_error);
  }
}

TEST(ThreadPool, LowestChunkExceptionWinsAndAllChunksRun) {
  // Multiple failing chunks: for_chunks must rethrow the exception a
  // serial loop would have hit first, and every chunk still executes
  // (error behavior is thread-count-invariant, not first-failure-wins).
  for (const std::size_t threads : {1u, 2u, 8u}) {
    ThreadPool pool(threads);
    std::atomic<std::size_t> ran{0};
    const auto errors = pool.run_chunked(
        100, 10, [&](std::size_t chunk, std::size_t, std::size_t) {
          ++ran;
          if (chunk == 3) throw std::invalid_argument("chunk 3");
          if (chunk == 7) throw std::runtime_error("chunk 7");
        });
    EXPECT_EQ(ran.load(), 10u) << "threads=" << threads;
    ASSERT_EQ(errors.size(), 2u);
    EXPECT_EQ(errors[0].chunk, 3u);
    EXPECT_EQ(errors[1].chunk, 7u);
    try {
      std::rethrow_exception(errors[0].error);
      FAIL() << "expected invalid_argument";
    } catch (const std::invalid_argument& e) {
      EXPECT_STREQ(e.what(), "chunk 3");
    }
  }
}

// -------------------------------------------------------------------------
// Nested-parallelism guard.
// -------------------------------------------------------------------------

TEST(ThreadPool, InParallelRegionFlagTracksChunkBodies) {
  EXPECT_FALSE(ThreadPool::in_parallel_region());
  ThreadPool pool(2);
  std::atomic<int> inside{0};
  pool.parallel_for(8, [&](std::size_t) {
    if (ThreadPool::in_parallel_region()) ++inside;
  });
  EXPECT_EQ(inside.load(), 8);
  EXPECT_FALSE(ThreadPool::in_parallel_region());
}

TEST(ThreadPool, NestedParallelForRunsSeriallyInline) {
  // A parallel_for issued from inside a chunk body must run inline on the
  // issuing thread (no deadlock on the single in-flight job, no second
  // partition) and still visit every index exactly once.
  ThreadPool pool(4);
  constexpr std::size_t kOuter = 8;
  constexpr std::size_t kInner = 16;
  std::vector<std::atomic<int>> visits(kOuter * kInner);
  pool.parallel_for(kOuter, [&](std::size_t o) {
    const auto outer_thread = std::this_thread::get_id();
    pool.parallel_for(kInner, [&, o](std::size_t i) {
      EXPECT_EQ(std::this_thread::get_id(), outer_thread)
          << "nested chunk escaped the issuing thread";
      ++visits[o * kInner + i];
    });
  });
  for (std::size_t i = 0; i < visits.size(); ++i) {
    EXPECT_EQ(visits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPool, SingleThreadPoolSpawnsNoWorkersAndStillWorks) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.threads(), 1u);
  std::size_t sum = 0;  // no atomics needed: everything runs inline
  pool.parallel_for(100, [&](std::size_t i) { sum += i; });
  EXPECT_EQ(sum, 4950u);
}

}  // namespace
