/// \file bench_micro_rng.cpp
/// \brief RNG microbenchmarks: Philox4x32-10 (the cuRAND stand-in) vs
/// xoshiro256**, plus the paper's integer->[0,1] normalization, the
/// perturbation operator, the bulk Fill kernels behind BulkPhilox
/// (registered for each kernel the host CPU can run), the per-thread
/// stream openings of one device launch, and the DPSO's random-cut
/// crossovers and whole generation.

#include <benchmark/benchmark.h>

#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/cpu_features.hpp"
#include "core/sequence.hpp"
#include "meta/dpso.hpp"
#include "meta/objective.hpp"
#include "meta/ops.hpp"
#include "orlib/biskup_feldmann.hpp"
#include "rng/philox.hpp"

namespace {

void BM_Philox4x32(benchmark::State& state) {
  cdd::rng::Philox4x32 rng(42, 7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng());
  }
}
BENCHMARK(BM_Philox4x32);

void BM_PhiloxUniformFloat(benchmark::State& state) {
  cdd::rng::Philox4x32 rng(42, 7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.NextUniform());
  }
}
BENCHMARK(BM_PhiloxUniformFloat);

void BM_Xoshiro256(benchmark::State& state) {
  cdd::rng::Xoshiro256 rng(42);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng());
  }
}
BENCHMARK(BM_Xoshiro256);

void BM_PhiloxSeek(benchmark::State& state) {
  cdd::rng::Philox4x32 rng(42, 7);
  std::uint64_t pos = 0;
  for (auto _ : state) {
    rng.Seek(pos += 997);
    benchmark::DoNotOptimize(rng());
  }
}
BENCHMARK(BM_PhiloxSeek);

void BM_PartialFisherYates(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  cdd::rng::Philox4x32 rng(1, 2);
  cdd::Sequence seq = cdd::IdentitySequence(n);
  std::vector<std::uint32_t> positions(4);
  std::vector<cdd::JobId> values(4);
  for (auto _ : state) {
    cdd::PartialFisherYates(std::span<cdd::JobId>(seq), 4, rng,
                            std::span<std::uint32_t>(positions),
                            std::span<cdd::JobId>(values));
    benchmark::DoNotOptimize(seq.data());
  }
}
BENCHMARK(BM_PartialFisherYates)->Arg(50)->Arg(1000);

void BM_FullFisherYates(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  cdd::rng::Philox4x32 rng(1, 2);
  cdd::Sequence seq = cdd::IdentitySequence(n);
  for (auto _ : state) {
    cdd::FisherYates(std::span<cdd::JobId>(seq), rng);
    benchmark::DoNotOptimize(seq.data());
  }
}
BENCHMARK(BM_FullFisherYates)->Arg(50)->Arg(100)->Arg(1000);

/// One whole-block Fill kernel over a 256-word buffer (the BulkPhilox
/// refill size); the `per_output` counter is the time per 32-bit output.
using FillKernel = decltype(&cdd::rng::detail::PhiloxBlocksPortable);

void BM_PhiloxFill(benchmark::State& state, FillKernel kernel) {
  std::array<std::uint32_t, 256> buffer{};
  std::array<std::uint32_t, 4> counter{0, 0, 7, 0};
  for (auto _ : state) {
    kernel(counter, {42, 0}, buffer);
    counter[0] += buffer.size() / 4;
    benchmark::DoNotOptimize(buffer.data());
    benchmark::ClobberMemory();
  }
  state.counters["per_output"] = benchmark::Counter(
      static_cast<double>(buffer.size()),
      benchmark::Counter::kIsIterationInvariantRate |
          benchmark::Counter::kInvert);
}

/// One launch's worth of per-thread stream openings, as the device
/// kernels need them: every thread's first output of its (generation,
/// phase) stream.  BM_MakeStreamFirstBlock opens each stream on its own
/// (one scalar block per thread); BM_StreamHeads draws all block 0 heads
/// in one rng::StreamHeads pass and opens each stream from its head.
/// The `per_thread` counter is the time per simulated thread.
constexpr std::uint32_t kHeadStreamHi = 4 * 1000 + 2;  // (g=1000, accept)

void SetPerThread(benchmark::State& state, std::uint32_t threads) {
  state.counters["per_thread"] = benchmark::Counter(
      threads, benchmark::Counter::kIsIterationInvariantRate |
                   benchmark::Counter::kInvert);
}

void BM_MakeStreamFirstBlock(benchmark::State& state) {
  const auto threads = static_cast<std::uint32_t>(state.range(0));
  for (auto _ : state) {
    for (std::uint32_t t = 0; t < threads; ++t) {
      cdd::rng::Philox4x32 rng(42, (std::uint64_t{kHeadStreamHi} << 32) | t);
      benchmark::DoNotOptimize(rng());
    }
  }
  SetPerThread(state, threads);
}
BENCHMARK(BM_MakeStreamFirstBlock)->Arg(768);

void BM_StreamHeads(benchmark::State& state) {
  const auto threads = static_cast<std::uint32_t>(state.range(0));
  std::vector<std::uint32_t> heads(4 * std::size_t{threads});
  const std::span<const std::uint32_t> words(heads);
  for (auto _ : state) {
    cdd::rng::StreamHeads(42, kHeadStreamHi, 0, heads);
    for (std::uint32_t t = 0; t < threads; ++t) {
      cdd::rng::Philox4x32 rng(42, (std::uint64_t{kHeadStreamHi} << 32) | t,
                               words.subspan(4 * std::size_t{t}).first<4>());
      benchmark::DoNotOptimize(rng());
    }
  }
  SetPerThread(state, threads);
}
BENCHMARK(BM_StreamHeads)->Arg(768);

/// The Salamon T0 sampling's shuffle: BulkPhilox::Shuffle, which takes a
/// pass's outputs from the buffered bulk stream at once, maps them to
/// indices in one pass and then only swaps.
void BM_BulkFisherYates(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  cdd::rng::BulkPhilox rng(1, 2);
  cdd::Sequence seq = cdd::IdentitySequence(n);
  for (auto _ : state) {
    rng.Shuffle(seq);
    benchmark::DoNotOptimize(seq.data());
  }
}
BENCHMARK(BM_BulkFisherYates)->Arg(50)->Arg(100);

/// The DPSO's F2 and F3 on two fixed random parents, cut points drawn per
/// call, writing into the caller-owned child and job marks the engines
/// reuse.
void BM_OnePointCrossover(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  cdd::rng::Philox4x32 rng(3, 4);
  const cdd::Sequence p1 = cdd::RandomSequence(n, rng);
  const cdd::Sequence p2 = cdd::RandomSequence(n, rng);
  cdd::Sequence child(n);
  std::vector<std::uint8_t> used(n);
  for (auto _ : state) {
    cdd::meta::OnePointCrossover(p1, p2, rng, child, used);
    benchmark::DoNotOptimize(child.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_OnePointCrossover)->Arg(100);

void BM_TwoPointCrossover(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  cdd::rng::Philox4x32 rng(3, 4);
  const cdd::Sequence p1 = cdd::RandomSequence(n, rng);
  const cdd::Sequence p2 = cdd::RandomSequence(n, rng);
  cdd::Sequence child(n);
  std::vector<std::uint8_t> used(n);
  for (auto _ : state) {
    cdd::meta::TwoPointCrossover(p1, p2, rng, child, used);
    benchmark::DoNotOptimize(child.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_TwoPointCrossover)->Arg(100);

/// One generation of the serial DPSO (64 particles, default w/c1/c2) on
/// Biskup–Feldmann CDD instance (n, 0) at h = 0.6: the operators, the
/// batch evaluation and the best updates, without swarm initialization.
void BM_DpsoGeneration(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  const cdd::Instance instance =
      cdd::orlib::BiskupFeldmannGenerator().Cdd(n, 0, 0.6);
  const auto objective = cdd::meta::SequenceObjective::ForInstance(instance);
  cdd::meta::DpsoParams params;
  params.iterations = std::uint64_t{1} << 40;
  params.swarm = 64;
  const std::unique_ptr<cdd::meta::Engine> engine =
      cdd::meta::MakeDpsoEngine(objective, params);
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine->Step(1));
  }
}
BENCHMARK(BM_DpsoGeneration)->Arg(100)->Unit(benchmark::kMicrosecond);

}  // namespace

int main(int argc, char** argv) {
  benchmark::RegisterBenchmark("BM_PhiloxFill/portable", BM_PhiloxFill,
                               &cdd::rng::detail::PhiloxBlocksPortable);
  if (cdd::core::HostCpuFeatures().avx2) {
    benchmark::RegisterBenchmark("BM_PhiloxFill/avx2", BM_PhiloxFill,
                                 &cdd::rng::detail::PhiloxBlocksAvx2);
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
