// Simulated device: launch logging, shared-memory enforcement, running
// totals, interned kernel names, latency model shape, profiler aggregation.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "gpusim/device.hpp"
#include "gpusim/latency_model.hpp"
#include "gpusim/profiler.hpp"

namespace {

using et::gpusim::AccessPattern;
using et::gpusim::Device;
using et::gpusim::DeviceSpec;
using et::gpusim::KernelName;
using et::gpusim::KernelStats;

TEST(Device, RecordsLaunches) {
  Device dev;
  {
    auto l = dev.launch({.name = "k1", .ctas = 10});
    l.load_bytes(1024);
    l.store_bytes(512);
    l.fp_ops(2048);
  }
  ASSERT_EQ(dev.launch_count(), 1u);
  const auto& k = dev.history()[0];
  EXPECT_EQ(k.name, "k1");
  EXPECT_EQ(k.global_load_bytes, 1024u);
  EXPECT_EQ(k.global_store_bytes, 512u);
  EXPECT_EQ(k.fp_ops, 2048u);
  EXPECT_GT(k.time_us, 0.0);
}

TEST(Device, TransactionsAre32ByteSectors) {
  KernelStats k;
  k.global_load_bytes = 100;  // 4 sectors
  k.global_store_bytes = 32;  // 1 sector
  EXPECT_EQ(k.gld_transactions(), 4u);
  EXPECT_EQ(k.gst_transactions(), 1u);
}

TEST(Device, SharedMemOverflowThrows) {
  Device dev;
  const auto cap = dev.spec().shared_mem_per_cta_bytes;
  EXPECT_TRUE(dev.fits_shared(cap));
  EXPECT_FALSE(dev.fits_shared(cap + 1));
  EXPECT_THROW((void)dev.launch({.name = "too_big",
                                 .ctas = 1,
                                 .shared_bytes_per_cta = cap + 1}),
               et::gpusim::SharedMemOverflow);
}

TEST(Device, MoveLaunchDoesNotDoubleRecord) {
  Device dev;
  {
    auto l = dev.launch({.name = "k"});
    auto l2 = std::move(l);
    l2.load_bytes(64);
  }
  EXPECT_EQ(dev.launch_count(), 1u);
}

TEST(Device, ResetClearsLog) {
  Device dev;
  { auto l = dev.launch({.name = "k"}); }
  dev.reset();
  EXPECT_EQ(dev.launch_count(), 0u);
  EXPECT_EQ(dev.total_time_us(), 0.0);
}

TEST(Device, TimeMatchingFiltersByName) {
  Device dev;
  {
    auto l = dev.launch({.name = "gemm_a"});
    l.load_bytes(1 << 20);
  }
  {
    auto l = dev.launch({.name = "softmax"});
    l.load_bytes(1 << 20);
  }
  EXPECT_GT(dev.time_us_matching("gemm"), 0.0);
  EXPECT_LT(dev.time_us_matching("gemm"), dev.total_time_us());
  EXPECT_EQ(dev.time_us_matching("nothing"), 0.0);
}

// ----------------------------------------------------- running totals ----

/// Launch `n` kernels with counters that vary per launch, so the modeled
/// times differ and their sum rounds.
void launch_varied(Device& dev, std::size_t first, std::size_t n) {
  for (std::size_t i = first; i < first + n; ++i) {
    auto l = dev.launch({.name = i % 2 == 0 ? "even" : "odd",
                         .ctas = 1 + i % 97});
    l.load_bytes(1000 + 4099 * i);
    l.store_bytes(512 + 733 * (i % 13));
    l.score_bytes(64 * (i % 5));
    l.fp_ops(17 * i);
    l.tensor_ops(i % 3 == 0 ? 0 : 3331 * i);
  }
}

/// The five Device totals must equal a left-to-right sum over history(),
/// written here independently of the device, bit for bit.
void expect_totals_match_history(const Device& dev) {
  double time_us = 0.0;
  std::uint64_t load = 0, store = 0, score = 0, ops = 0;
  for (const KernelStats& k : dev.history()) {
    time_us += k.time_us;
    load += k.global_load_bytes;
    store += k.global_store_bytes;
    score += k.score_bytes;
    ops += k.fp_ops + k.tensor_ops;
  }
  EXPECT_EQ(dev.total_time_us(), time_us);
  EXPECT_EQ(dev.total_load_bytes(), load);
  EXPECT_EQ(dev.total_store_bytes(), store);
  EXPECT_EQ(dev.total_score_bytes(), score);
  EXPECT_EQ(dev.total_ops(), ops);
}

TEST(DeviceTotals, MatchAResumAfterSerialLaunches) {
  Device dev;
  expect_totals_match_history(dev);
  launch_varied(dev, 0, 1000);
  ASSERT_EQ(dev.launch_count(), 1000u);
  EXPECT_GT(dev.total_score_bytes(), 0u);
  expect_totals_match_history(dev);
}

TEST(DeviceTotals, ResetZeroesThemAndLaterLaunchesCountFromZero) {
  Device dev;
  launch_varied(dev, 0, 50);
  dev.reset();
  EXPECT_EQ(dev.total_time_us(), 0.0);
  EXPECT_EQ(dev.total_load_bytes(), 0u);
  EXPECT_EQ(dev.total_store_bytes(), 0u);
  EXPECT_EQ(dev.total_score_bytes(), 0u);
  EXPECT_EQ(dev.total_ops(), 0u);
  launch_varied(dev, 50, 50);
  expect_totals_match_history(dev);
}

TEST(DeviceTotals, AFailedLaunchRecordsNothingAndLeavesThemUnchanged) {
  Device dev;
  launch_varied(dev, 0, 20);
  const double time_us = dev.total_time_us();
  const std::uint64_t load = dev.total_load_bytes();
  const std::uint64_t ops = dev.total_ops();

  const auto cap = dev.spec().shared_mem_per_cta_bytes;
  EXPECT_THROW((void)dev.launch({.name = "too_big",
                                 .shared_bytes_per_cta = cap + 1}),
               et::gpusim::SharedMemOverflow);
  dev.fault_injector().arm_kernel("doomed");
  EXPECT_THROW((void)dev.launch({.name = "doomed"}),
               et::gpusim::KernelFault);

  EXPECT_EQ(dev.launch_count(), 20u);
  EXPECT_EQ(dev.total_time_us(), time_us);
  EXPECT_EQ(dev.total_load_bytes(), load);
  EXPECT_EQ(dev.total_ops(), ops);
  expect_totals_match_history(dev);
}

// ------------------------------------------------------ interned names ----

TEST(KernelNames, EqualNamesShareStorageOnOneDeviceAndAcrossDevices) {
  Device a, b;
  { auto l = a.launch({.name = "shared_kernel"}); }
  { auto l = a.launch({.name = "shared_kernel"}); }
  { auto l = a.launch({.name = "other_kernel"}); }
  { auto l = b.launch({.name = std::string("shared_") + "kernel"}); }
  const std::string_view first = a.history()[0].name;
  EXPECT_EQ(first, "shared_kernel");
  EXPECT_EQ(std::string_view(a.history()[1].name).data(), first.data());
  EXPECT_EQ(std::string_view(b.history()[0].name).data(), first.data());
  EXPECT_EQ(a.history()[0].name, b.history()[0].name);
  EXPECT_NE(a.history()[0].name, a.history()[2].name);
  EXPECT_EQ(KernelName::intern("shared_kernel"), a.history()[0].name);
}

TEST(KernelNames, ANameFromATemporaryStringOutlivesTheTemporary) {
  Device dev;
  // Longer than any small-string buffer, so the temporary's characters
  // live on the heap and a dangling view would read freed memory.
  { auto l = dev.launch({.name = std::string(40, 'x') + std::to_string(7)}); }
  std::string expected(40, 'x');
  expected += '7';
  EXPECT_EQ(dev.history()[0].name, expected);
  EXPECT_EQ(dev.history()[0].name.view().size(), 41u);
}

TEST(KernelNames, DefaultAndEmptyNamesAreTheSameEmptyName) {
  const KernelStats k;
  EXPECT_EQ(k.name, KernelName());
  EXPECT_EQ(k.name, KernelName::intern(""));
  EXPECT_EQ(k.name, "");
  EXPECT_TRUE(k.name.view().empty());
}

TEST(KernelNames, ThreadsInterningOverlappingNamesReadBackTheirOwn) {
  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kLaunches = 400;
  // Names shared by every thread, plus names private to each thread.
  const auto name_for = [](std::size_t t, std::size_t i) {
    return i % 2 == 0 ? "common_kernel_" + std::to_string(i % 16)
                      : "thread_" + std::to_string(t) + "_kernel_" +
                            std::to_string(i % 8);
  };
  std::vector<Device> devices(kThreads);
  {
    std::vector<std::thread> workers;
    for (std::size_t t = 0; t < kThreads; ++t) {
      workers.emplace_back([&, t] {
        for (std::size_t i = 0; i < kLaunches; ++i) {
          auto l = devices[t].launch({.name = name_for(t, i)});
        }
      });
    }
    for (auto& w : workers) w.join();
  }
  for (std::size_t t = 0; t < kThreads; ++t) {
    const auto& log = devices[t].history();
    ASSERT_EQ(log.size(), kLaunches);
    for (std::size_t i = 0; i < kLaunches; ++i) {
      ASSERT_EQ(log[i].name, name_for(t, i)) << "thread " << t << " #" << i;
    }
  }
  // One copy per distinct name, whichever thread interned it first.
  for (std::size_t t = 1; t < kThreads; ++t) {
    for (std::size_t i = 0; i < kLaunches; i += 2) {
      EXPECT_EQ(std::string_view(devices[t].history()[i].name).data(),
                std::string_view(devices[0].history()[i].name).data());
    }
  }
}

TEST(KernelNames, ALaunchRecordHoldsNoString) {
  if constexpr (sizeof(void*) == 8) {
    EXPECT_EQ(sizeof(KernelStats), 96u);
  }
}

TEST(LatencyModel, LaunchOverheadFloor) {
  const DeviceSpec spec;
  KernelStats k;
  k.ctas = 80;
  const auto b = estimate_latency(k, spec);
  EXPECT_GE(b.total_us, spec.kernel_launch_us);
}

TEST(LatencyModel, MoreBytesTakeLonger) {
  const DeviceSpec spec;
  KernelStats small, big;
  small.ctas = big.ctas = 80;
  small.global_load_bytes = 1 << 20;
  big.global_load_bytes = 64 << 20;
  EXPECT_LT(estimate_latency(small, spec).total_us,
            estimate_latency(big, spec).total_us);
}

TEST(LatencyModel, LargerTransfersAchieveHigherBandwidth) {
  const DeviceSpec spec;
  KernelStats small, big;
  small.ctas = big.ctas = 80;
  small.global_load_bytes = 256 << 10;
  big.global_load_bytes = 64 << 20;
  apply_latency_model(small, spec);
  apply_latency_model(big, spec);
  EXPECT_LT(small.achieved_gbps(), big.achieved_gbps())
      << "the bandwidth ramp is what penalizes tiny per-operator kernels";
}

TEST(LatencyModel, LowOccupancyHurts) {
  const DeviceSpec spec;
  KernelStats narrow, wide;
  narrow.ctas = 4;
  wide.ctas = 160;
  narrow.fp_ops = wide.fp_ops = 1ull << 30;
  EXPECT_GT(estimate_latency(narrow, spec).total_us,
            estimate_latency(wide, spec).total_us);
}

TEST(LatencyModel, TensorOpsFasterThanGeneralOps) {
  const DeviceSpec spec;
  KernelStats tensor, general;
  tensor.ctas = general.ctas = 80;
  tensor.tensor_ops = 1ull << 32;
  general.fp_ops = 1ull << 32;
  EXPECT_LT(estimate_latency(tensor, spec).total_us,
            estimate_latency(general, spec).total_us)
      << "tensor cores are ~8x the general-core rate (§2.2)";
}

TEST(LatencyModel, RandomPatternSlowerThanStreaming) {
  const DeviceSpec spec;
  KernelStats streaming, random;
  streaming.ctas = random.ctas = 80;
  streaming.global_load_bytes = random.global_load_bytes = 32 << 20;
  streaming.pattern = AccessPattern::kStreaming;
  random.pattern = AccessPattern::kRandom;
  EXPECT_LT(estimate_latency(streaming, spec).total_us,
            estimate_latency(random, spec).total_us);
}

TEST(Profiler, AggregatesTotalsAndAverages) {
  Device dev;
  {
    auto l = dev.launch({.name = "a", .ctas = 80});
    l.load_bytes(3200);
    l.fp_ops(100);
  }
  {
    auto l = dev.launch({.name = "b", .ctas = 80});
    l.store_bytes(6400);
  }
  const auto rep = et::gpusim::profile(dev);
  ASSERT_EQ(rep.kernels.size(), 2u);
  EXPECT_EQ(rep.gld_transactions, 100u);
  EXPECT_EQ(rep.gst_transactions, 200u);
  EXPECT_NEAR(rep.total_time_us, dev.total_time_us(), 1e-9);
  EXPECT_GT(rep.avg_sm_efficiency, 0.0);
  EXPECT_LE(rep.avg_sm_efficiency, 1.0);
}

TEST(Profiler, MemoryBoundClassification) {
  Device dev;
  {
    auto l = dev.launch({.name = "membound", .ctas = 80});
    l.load_bytes(1 << 20);
    l.fp_ops(1 << 20);  // AI = 1
  }
  {
    auto l = dev.launch({.name = "compbound", .ctas = 80});
    l.load_bytes(1 << 10);
    l.tensor_ops(1ull << 30);  // AI = 2^20
  }
  const auto rep = et::gpusim::profile(dev);
  EXPECT_TRUE(rep.kernels[0].memory_bound);
  EXPECT_FALSE(rep.kernels[1].memory_bound);
}

TEST(Device, TrafficOnlyFlagIsVisible) {
  Device dev;
  EXPECT_FALSE(dev.traffic_only());
  dev.set_traffic_only(true);
  EXPECT_TRUE(dev.traffic_only());
}

TEST(DeviceSpec, A100HasMoreOfEverything) {
  const auto v = et::gpusim::v100s();
  const auto a = et::gpusim::a100();
  EXPECT_GT(a.hbm_bw_gbps, v.hbm_bw_gbps);
  EXPECT_GT(a.fp16_tensor_tflops, v.fp16_tensor_tflops);
  EXPECT_GT(a.shared_mem_per_cta_bytes, v.shared_mem_per_cta_bytes);
}

}  // namespace
