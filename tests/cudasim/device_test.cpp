/// Device runtime tests: launch geometry, shared memory + phase barriers,
/// atomics, exception propagation, worker-pool equivalence.

#include "cudasim/device.hpp"

#include <gtest/gtest.h>

#include <numeric>
#include <stdexcept>
#include <vector>

#include "cudasim/atomics.hpp"
#include "cudasim/memory.hpp"

namespace cdd::sim {
namespace {

TEST(Device, ThreadIndexingCoversGridExactlyOnce) {
  Device gpu;
  const Dim3 grid{3, 2, 1};
  const Dim3 block{4, 2, 2};
  const std::size_t total = grid.count() * block.count();
  std::vector<int> hits(total, 0);
  int* data = hits.data();
  gpu.Launch(grid, block, [&, data](ThreadCtx& t) {
    data[t.global_thread()] += 1;
  });
  EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0),
            static_cast<int>(total));
  for (const int h : hits) EXPECT_EQ(h, 1);
}

TEST(Device, ThreadContextsFollowTheLinearDecomposition) {
  // A 3-D block on a 2-D grid: every context's indices must be the x-fastest
  // decomposition of its grid-global id.
  Device gpu;
  const Dim3 grid{3, 2};
  const Dim3 block{4, 3, 2};
  const std::size_t tpb = block.count();
  struct Seen {
    Dim3 thread_idx, block_idx;
    std::uint32_t linear_thread = 0;
    std::uint64_t global_thread = 0;
    int hits = 0;
  };
  std::vector<Seen> seen(grid.count() * tpb);
  Seen* data = seen.data();
  gpu.Launch(grid, block, [data, tpb](ThreadCtx& t) {
    Seen& s = data[t.linear_block() * tpb + t.linear_thread()];
    s.thread_idx = t.thread_idx;
    s.block_idx = t.block_idx;
    s.linear_thread = t.linear_thread();
    s.global_thread = t.global_thread();
    ++s.hits;
  });
  for (std::size_t gid = 0; gid < seen.size(); ++gid) {
    const std::size_t b = gid / tpb;
    const std::size_t lt = gid % tpb;
    const Seen& s = seen[gid];
    ASSERT_EQ(s.hits, 1) << gid;
    EXPECT_EQ(s.thread_idx, Dim3(lt % block.x, lt / block.x % block.y,
                                 lt / (block.x * block.y)))
        << gid;
    EXPECT_EQ(s.block_idx, Dim3(b % grid.x, b / grid.x, 0)) << gid;
    EXPECT_EQ(s.linear_thread, lt) << gid;
    EXPECT_EQ(s.global_thread, gid) << gid;
  }
}

TEST(Device, LaunchValidationRejectsBadGeometry) {
  Device gpu(GeForceGT560M());
  EXPECT_THROW(gpu.Launch({1}, {2048}, [](ThreadCtx&) {}), GpuError);
  EXPECT_THROW(gpu.Launch({0}, {32}, [](ThreadCtx&) {}), GpuError);
  LaunchOptions opts;
  opts.shared_bytes = 1 << 20;  // 1 MiB > 48 KiB limit
  EXPECT_THROW(gpu.Launch({1}, {32}, opts, [](ThreadCtx&) {}), GpuError);
  EXPECT_NO_THROW(gpu.Launch({1}, {1024}, [](ThreadCtx&) {}));
}

TEST(Device, SharedMemoryStagingWithBarrier) {
  // Block-wide pattern of the paper's fitness kernel: every thread stages
  // one element, the barrier ends the phase, then every thread reads an
  // element staged by a *different* thread.
  Device gpu;
  constexpr std::uint32_t kThreads = 64;
  std::vector<int> out(kThreads * 2, -1);
  int* results = out.data();

  LaunchOptions opts;
  opts.shared_bytes = kThreads * sizeof(int);
  const KernelFn phases[] = {
      [](ThreadCtx& t) {
        const std::uint32_t lt = t.linear_thread();
        t.shared_as<int>()[lt] = static_cast<int>(lt) * 10;
      },
      [results](ThreadCtx& t) {
        // Read the neighbour's value: impossible without the barrier.
        const std::uint32_t lt = t.linear_thread();
        results[t.global_thread()] = t.shared_as<int>()[(lt + 1) % kThreads];
      }};
  gpu.Launch({2}, {kThreads}, opts, phases);

  for (std::uint32_t b = 0; b < 2; ++b) {
    for (std::uint32_t i = 0; i < kThreads; ++i) {
      EXPECT_EQ(out[b * kThreads + i],
                static_cast<int>((i + 1) % kThreads) * 10);
    }
  }
}

TEST(Device, MultipleBarriersStayInLockstep) {
  Device gpu;
  constexpr std::uint32_t kThreads = 32;
  std::vector<int> counter(1, 0);
  std::vector<int> observed(kThreads, -1);
  int* cnt = counter.data();
  int* obs = observed.data();

  // Five rounds of (thread 0 bumps the counter | barrier | every thread
  // checks it | barrier): ten phases.
  std::vector<KernelFn> phases;
  for (int round = 0; round < 5; ++round) {
    phases.emplace_back([cnt](ThreadCtx& t) {
      if (t.linear_thread() == 0) *cnt += 1;
    });
    phases.emplace_back([cnt, obs, round](ThreadCtx& t) {
      // Every thread must observe the same round count.
      if (*cnt != round + 1) obs[t.linear_thread()] = round;
    });
  }
  gpu.Launch({1}, {kThreads}, LaunchOptions{}, phases);
  for (const int o : observed) EXPECT_EQ(o, -1);
  EXPECT_EQ(counter[0], 5);
}

TEST(Device, KernelExceptionPropagatesAndDeviceStaysUsable) {
  Device gpu;
  std::vector<int> first_phase(8, 0);
  int* ran = first_phase.data();
  const KernelFn failing[] = {
      [ran](ThreadCtx& t) { ran[t.linear_thread()] = 1; },
      [](ThreadCtx& t) {
        if (t.linear_thread() == 3) throw std::runtime_error("boom");
      }};
  EXPECT_THROW(gpu.Launch({1}, {8}, LaunchOptions{}, failing),
               std::runtime_error);
  // The barrier held: every thread finished the first phase before the
  // failure in the second.
  EXPECT_EQ(std::accumulate(first_phase.begin(), first_phase.end(), 0), 8);
  // The device must survive for the next launch.
  std::vector<int> ok(8, 0);
  int* data = ok.data();
  const KernelFn phases[] = {
      [data](ThreadCtx& t) { data[t.linear_thread()] = 1; },
      [](ThreadCtx&) {}};
  EXPECT_NO_THROW(gpu.Launch({1}, {8}, LaunchOptions{}, phases));
  EXPECT_EQ(std::accumulate(ok.begin(), ok.end(), 0), 8);
}

TEST(Device, AtomicsAreCorrectUnderContention) {
  Device gpu;
  gpu.set_worker_threads(4);  // exercise real host-thread contention
  std::int64_t sum = 0;
  std::int64_t mini = 1 << 30;
  std::int64_t maxi = -1;
  gpu.Launch({32}, {64}, [&](ThreadCtx& t) {
    const auto tid = static_cast<std::int64_t>(t.global_thread());
    AtomicAdd(&sum, tid);
    AtomicMin(&mini, tid);
    AtomicMax(&maxi, tid);
  });
  const std::int64_t n = 32 * 64;
  EXPECT_EQ(sum, n * (n - 1) / 2);
  EXPECT_EQ(mini, 0);
  EXPECT_EQ(maxi, n - 1);
}

TEST(Device, AtomicCasAndExchange) {
  std::int64_t word = 5;
  EXPECT_EQ(AtomicCas<std::int64_t>(&word, 5, 9), 5);  // succeeded: old
  EXPECT_EQ(word, 9);
  EXPECT_EQ(AtomicCas<std::int64_t>(&word, 5, 1), 9);  // failed: current
  EXPECT_EQ(word, 9);
  EXPECT_EQ(AtomicExch<std::int64_t>(&word, 2), 9);
  EXPECT_EQ(word, 2);
}

TEST(Device, WorkerCountDoesNotChangeResults) {
  // Same kernel, 1 vs 4 workers: identical output buffers (block-level
  // determinism — the algorithms only write thread-private rows).
  const auto run = [](unsigned workers) {
    Device gpu;
    gpu.set_worker_threads(workers);
    std::vector<std::uint64_t> out(16 * 32, 0);
    std::uint64_t* data = out.data();
    const KernelFn phases[] = {
        [data](ThreadCtx& t) {
          const std::uint64_t tid = t.global_thread();
          data[tid] = tid * 2654435761u;
        },
        [data](ThreadCtx& t) { data[t.global_thread()] ^= t.linear_block(); }};
    gpu.Launch({16}, {32}, LaunchOptions{}, phases);
    return out;
  };
  EXPECT_EQ(run(1), run(4));
}

TEST(Device, ChargeAccumulatesIntoProfiler) {
  Device gpu;
  LaunchOptions opts;
  opts.name = "charged_kernel";
  gpu.Launch({2}, {16}, opts, [](ThreadCtx& t) { t.charge(10); });
  const KernelRecord* rec = gpu.profiler().Find("charged_kernel");
  ASSERT_NE(rec, nullptr);
  EXPECT_EQ(rec->launches, 1u);
  EXPECT_EQ(rec->blocks, 2u);
  EXPECT_EQ(rec->threads, 32u);
  EXPECT_EQ(rec->work_units, 320u);
  EXPECT_GT(rec->sim_time_s, 0.0);
}

TEST(Device, SimulatedClockAdvancesWithWork) {
  Device gpu;
  const double t0 = gpu.sim_time_s();
  gpu.Launch({4}, {192}, [](ThreadCtx& t) { t.charge(1000); });
  const double t1 = gpu.sim_time_s();
  EXPECT_GT(t1, t0);
  gpu.Launch({4}, {192}, [](ThreadCtx& t) { t.charge(100000); });
  const double t2 = gpu.sim_time_s();
  EXPECT_GT(t2 - t1, t1 - t0);  // 100x work => more simulated time
}

}  // namespace
}  // namespace cdd::sim
