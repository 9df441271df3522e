/// \file bench_micro_cudasim.cpp
/// \brief GPU-simulator microbenchmarks: host-side cost of kernel launch,
/// phase barriers, and atomic reduction — the simulator's own overheads,
/// kept separate from the modeled device time.

#include <benchmark/benchmark.h>

#include <vector>

#include "cudasim/atomics.hpp"
#include "cudasim/device.hpp"

namespace {

using cdd::sim::Device;
using cdd::sim::KernelFn;
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

void BM_PhasedBarrierKernel(benchmark::State& state) {
  // {1}x{64} with state.range(0) barriers, i.e. one more phase than that.
  Device gpu;
  const auto barriers = static_cast<std::size_t>(state.range(0));
  const std::vector<KernelFn> phases(barriers + 1, [](ThreadCtx&) {});
  for (auto _ : state) {
    gpu.Launch({1}, {64}, LaunchOptions{}, phases);
  }
  state.SetItemsProcessed(state.iterations() * 64 *
                          static_cast<std::int64_t>(barriers));
}
BENCHMARK(BM_PhasedBarrierKernel)->Arg(1)->Arg(4)->Arg(16);

/// The paper's fitness-kernel geometry (Section VI-A): 4 blocks x 192
/// threads staging through shared memory, one barrier between two phases.
void LaunchPaperGeometry(Device& gpu) {
  const KernelFn phases[] = {[](ThreadCtx&) {}, [](ThreadCtx&) {}};
  gpu.Launch({4}, {192}, LaunchOptions{}, phases);
}

void BM_PhasedPaperGeometry(benchmark::State& state) {
  Device gpu;
  for (auto _ : state) {
    LaunchPaperGeometry(gpu);
  }
  benchmark::DoNotOptimize(gpu.sim_time_s());
  state.SetItemsProcessed(state.iterations() * 4 * 192);
}
BENCHMARK(BM_PhasedPaperGeometry);

void BM_PhasedPaperGeometryFreshDevice(benchmark::State& state) {
  // A serve worker builds a new Device per psa request, so this is the
  // per-request cost of the first launch.
  for (auto _ : state) {
    Device gpu;
    LaunchPaperGeometry(gpu);
    benchmark::DoNotOptimize(gpu.sim_time_s());
  }
  state.SetItemsProcessed(state.iterations() * 4 * 192);
}
BENCHMARK(BM_PhasedPaperGeometryFreshDevice);

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

void BM_OnePhaseThreadLoop(benchmark::State& state) {
  // Baseline for the barrier cost: {1}x{64} without barriers.
  Device gpu;
  for (auto _ : state) {
    gpu.Launch({1}, {64}, [](ThreadCtx& t) { t.charge(1); });
  }
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_OnePhaseThreadLoop);

}  // namespace

BENCHMARK_MAIN();
