/// \file bench_micro_cudasim.cpp
/// \brief GPU-simulator microbenchmarks: host-side cost of kernel launch,
/// fiber barriers, and atomic reduction — the simulator's own overheads,
/// kept separate from the modeled device time.

#include <benchmark/benchmark.h>

#include "cudasim/atomics.hpp"
#include "cudasim/device.hpp"

namespace {

using cdd::sim::Device;
using cdd::sim::LaunchOptions;
using cdd::sim::ThreadCtx;

void BM_EmptyKernelLaunch(benchmark::State& state) {
  Device gpu;
  const auto blocks = static_cast<std::uint32_t>(state.range(0));
  for (auto _ : state) {
    gpu.Launch({blocks}, {64}, [](ThreadCtx&) {});
  }
  state.SetItemsProcessed(state.iterations() * blocks * 64);
}
BENCHMARK(BM_EmptyKernelLaunch)->Arg(1)->Arg(4)->Arg(16);

void BM_CooperativeBarrierKernel(benchmark::State& state) {
  Device gpu;
  const auto barriers = static_cast<int>(state.range(0));
  LaunchOptions opts;
  opts.cooperative = true;
  for (auto _ : state) {
    gpu.Launch({1}, {64}, opts, [barriers](ThreadCtx& t) {
      for (int i = 0; i < barriers; ++i) t.syncthreads();
    });
  }
  state.SetItemsProcessed(state.iterations() * 64 * barriers);
}
BENCHMARK(BM_CooperativeBarrierKernel)->Arg(1)->Arg(4)->Arg(16);

/// The paper's fitness-kernel geometry (Section VI-A): 4 blocks x 192
/// threads staging through shared memory behind one barrier.
void LaunchPaperGeometry(Device& gpu) {
  LaunchOptions opts;
  opts.cooperative = true;
  gpu.Launch({4}, {192}, opts, [](ThreadCtx& t) { t.syncthreads(); });
}

void BM_CooperativePaperGeometry(benchmark::State& state) {
  Device gpu;
  for (auto _ : state) {
    LaunchPaperGeometry(gpu);
  }
  benchmark::DoNotOptimize(gpu.sim_time_s());
  state.SetItemsProcessed(state.iterations() * 4 * 192);
}
BENCHMARK(BM_CooperativePaperGeometry);

void BM_CooperativePaperGeometryFreshDevice(benchmark::State& state) {
  // A serve worker builds a new Device per psa request, so this is the
  // per-request cost of the first launch.
  for (auto _ : state) {
    Device gpu;
    LaunchPaperGeometry(gpu);
    benchmark::DoNotOptimize(gpu.sim_time_s());
  }
  state.SetItemsProcessed(state.iterations() * 4 * 192);
}
BENCHMARK(BM_CooperativePaperGeometryFreshDevice);

void BM_AtomicMinReduction(benchmark::State& state) {
  Device gpu;
  std::int64_t best = 1 << 30;
  std::int64_t* ptr = &best;
  for (auto _ : state) {
    gpu.Launch({4}, {192}, [ptr](ThreadCtx& t) {
      cdd::sim::AtomicMin(
          ptr, static_cast<std::int64_t>(t.global_thread() * 1337 % 4096));
    });
  }
  state.SetItemsProcessed(state.iterations() * 4 * 192);
}
BENCHMARK(BM_AtomicMinReduction);

void BM_NonCooperativeThreadLoop(benchmark::State& state) {
  // Baseline for the fiber overhead: same geometry without barriers.
  Device gpu;
  for (auto _ : state) {
    gpu.Launch({1}, {64}, [](ThreadCtx& t) { t.charge(1); });
  }
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_NonCooperativeThreadLoop);

}  // namespace

BENCHMARK_MAIN();
