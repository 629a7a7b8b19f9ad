// Thread pool, parallel_for/reduce, SPSC queue, and the device roofline.
#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <thread>
#include <vector>

#include "parallel/device.hpp"
#include "parallel/parallel_for.hpp"
#include "parallel/spsc_queue.hpp"
#include "parallel/thread_pool.hpp"
#include "util/require.hpp"

namespace riskan {
namespace {

TEST(ThreadPool, ExecutesAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.submit([&counter] { counter.fetch_add(1, std::memory_order_relaxed); });
  }
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, WaitIdleOnEmptyPoolReturns) {
  ThreadPool pool(2);
  pool.wait_idle();  // must not hang
  SUCCEED();
}

TEST(ThreadPool, DefaultSizeIsAtLeastOne) {
  ThreadPool pool;
  EXPECT_GE(pool.thread_count(), 1u);
}

TEST(ThreadPool, SharedPoolIsSingleton) {
  EXPECT_EQ(&ThreadPool::shared(), &ThreadPool::shared());
}

TEST(ThreadPool, TasksCanSubmitMoreTasks) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  pool.submit([&] {
    for (int i = 0; i < 10; ++i) {
      pool.submit([&counter] { counter.fetch_add(1); });
    }
  });
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 10);
}

TEST(ParallelFor, CoversRangeExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> touched(10'000);
  parallel_for(
      0, touched.size(),
      [&](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) {
          touched[i].fetch_add(1);
        }
      },
      ParallelConfig{&pool, 64});
  for (const auto& t : touched) {
    ASSERT_EQ(t.load(), 1);
  }
}

TEST(ParallelFor, EmptyRangeIsNoop) {
  int calls = 0;
  parallel_for(5, 5, [&](std::size_t, std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(ParallelFor, InvertedRangeRejected) {
  EXPECT_THROW(parallel_for(5, 4, [](std::size_t, std::size_t) {}), ContractViolation);
}

TEST(ParallelFor, ChunksRespectGrain) {
  ThreadPool pool(4);
  std::mutex m;
  std::vector<std::pair<std::size_t, std::size_t>> chunks;
  parallel_for(
      0, 1000,
      [&](std::size_t lo, std::size_t hi) {
        std::lock_guard lock(m);
        chunks.emplace_back(lo, hi);
      },
      ParallelConfig{&pool, 100});
  EXPECT_EQ(chunks.size(), 10u);
  for (const auto& [lo, hi] : chunks) {
    EXPECT_LE(hi - lo, 100u);
  }
}

TEST(ParallelReduce, SumsCorrectly) {
  ThreadPool pool(4);
  const double total = parallel_reduce<double>(
      1, 10'001, 0.0,
      [](std::size_t lo, std::size_t hi) {
        double s = 0.0;
        for (std::size_t i = lo; i < hi; ++i) {
          s += static_cast<double>(i);
        }
        return s;
      },
      [](double a, double b) { return a + b; }, ParallelConfig{&pool, 128});
  EXPECT_DOUBLE_EQ(total, 10'000.0 * 10'001.0 / 2.0);
}

TEST(ParallelReduce, DeterministicForFixedGrain) {
  ThreadPool pool(4);
  auto run = [&pool] {
    return parallel_reduce<double>(
        0, 100'000, 0.0,
        [](std::size_t lo, std::size_t hi) {
          double s = 0.0;
          for (std::size_t i = lo; i < hi; ++i) {
            s += 1.0 / (1.0 + static_cast<double>(i));
          }
          return s;
        },
        [](double a, double b) { return a + b; }, ParallelConfig{&pool, 1024});
  };
  const double a = run();
  const double b = run();
  EXPECT_EQ(a, b);  // bitwise: chunk combination order is fixed
}

TEST(SpscQueue, FifoOrder) {
  SpscQueue<int> queue(8);
  for (int i = 0; i < 8; ++i) {
    EXPECT_TRUE(queue.try_push(i));
  }
  EXPECT_FALSE(queue.try_push(99));  // full
  for (int i = 0; i < 8; ++i) {
    const auto v = queue.try_pop();
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, i);
  }
  EXPECT_FALSE(queue.try_pop().has_value());
}

TEST(SpscQueue, CapacityRoundsToPowerOfTwo) {
  SpscQueue<int> queue(5);
  EXPECT_EQ(queue.capacity(), 8u);
  EXPECT_THROW(SpscQueue<int>(1), ContractViolation);
}

TEST(SpscQueue, ConcurrentProducerConsumer) {
  SpscQueue<int> queue(64);
  constexpr int kCount = 100'000;
  std::thread producer([&] {
    for (int i = 0; i < kCount;) {
      if (queue.try_push(i)) {
        ++i;
      }
    }
  });
  long long sum = 0;
  int received = 0;
  while (received < kCount) {
    if (auto v = queue.try_pop()) {
      sum += *v;
      ++received;
    }
  }
  producer.join();
  EXPECT_EQ(sum, static_cast<long long>(kCount - 1) * kCount / 2);
}

// ---------------------------------------------------------------------------
// Device roofline (the performance model core/device_model applies per
// launch)
// ---------------------------------------------------------------------------

TEST(Device, ModelIsMonotoneInTraffic) {
  const DeviceSpec spec;
  DeviceCounters light;
  light.global_read_bytes = 1'000'000;
  DeviceCounters heavy = light;
  heavy.global_read_bytes = 1'000'000'000;
  EXPECT_LT(roofline_seconds(spec, light, 14, 128), roofline_seconds(spec, heavy, 14, 128));
}

TEST(Device, ModelPenalisesPartialWaves) {
  const DeviceSpec spec;  // 14 SMs by default
  DeviceCounters counters;
  counters.flops = 1'000'000'000;
  // 15 blocks on 14 SMs = 2 waves, second nearly idle.
  const double quantised = roofline_seconds(spec, counters, 15, 128);
  const double full = roofline_seconds(spec, counters, 14, 128);
  EXPECT_GT(quantised, full);
}

TEST(Device, ModelPenalisesNarrowBlocks) {
  const DeviceSpec spec;
  DeviceCounters counters;
  counters.flops = 1'000'000'000;
  // 8-thread blocks waste 24 of 32 warp lanes.
  EXPECT_GT(roofline_seconds(spec, counters, 14, 8), roofline_seconds(spec, counters, 14, 32));
}

TEST(Device, PeakFlopsMatchesSpec) {
  DeviceSpec spec;
  spec.sm_count = 2;
  spec.cores_per_sm = 10;
  spec.core_ghz = 1.0;
  spec.flops_per_core_per_cycle = 2.0;
  EXPECT_DOUBLE_EQ(spec.peak_flops(), 40e9);
}

}  // namespace
}  // namespace riskan
