/// \file bench_micro_eval.cpp
/// \brief Experiment E11 — Section IV's motivation: "LP solvers are quite
/// slow when run iteratively on some general heuristic algorithm".
/// google-benchmark comparison of per-sequence latency:
///   O(n) evaluators  <<  O(n^2) reference oracles  <<  two-phase simplex.
/// Also times a one-row batch through the backend dispatch against the
/// fused evaluator it should reduce to.

#include <benchmark/benchmark.h>

#include "common/test_instances.hpp"
#include "core/eval_cdd.hpp"
#include "core/eval_simd.hpp"
#include "core/eval_ucddcp.hpp"
#include "core/reference_eval.hpp"
#include "lp/models.hpp"

namespace {

using cdd::testing::RandomCdd;
using cdd::testing::RandomSeq;
using cdd::testing::RandomUcddcp;

void BM_EvalCddLinear(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  const cdd::Instance instance = RandomCdd(n, 0.6, n);
  const cdd::CddEvaluator eval(instance);
  const cdd::Sequence seq = RandomSeq(n, n * 3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(eval.Evaluate(seq));
  }
  state.SetComplexityN(n);
}
BENCHMARK(BM_EvalCddLinear)->RangeMultiplier(4)->Range(8, 2048)->Complexity();

void BM_EvalUcddcpLinear(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  const cdd::Instance instance = RandomUcddcp(n, 1.1, n);
  const cdd::UcddcpEvaluator eval(instance);
  const cdd::Sequence seq = RandomSeq(n, n * 5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(eval.Evaluate(seq));
  }
  state.SetComplexityN(n);
}
BENCHMARK(BM_EvalUcddcpLinear)
    ->RangeMultiplier(4)
    ->Range(8, 2048)
    ->Complexity();

/// A one-row batch, as the annealing chain evaluates on every iteration:
/// through the backend dispatch (SIMD by default) and through the fused
/// scalar evaluator directly.  The two should read the same, because a
/// batch smaller than one AVX2 lane group builds no packed columns.
void BM_EvalCddOneRowDispatch(benchmark::State& state) {
  const auto len = static_cast<std::uint32_t>(state.range(0));
  const auto n = static_cast<std::int32_t>(len);
  const cdd::Instance instance = RandomCdd(len, 0.6, len);
  const cdd::CddEvaluator eval(instance);
  const cdd::Sequence seq = RandomSeq(len, len * 3);
  cdd::Cost cost = 0;
  for (auto _ : state) {
    cdd::raw::EvalCddBatchDispatch(n, eval.due_date(), seq.data(), n, 1,
                                   eval.proc_data(), eval.alpha_data(),
                                   eval.beta_data(), &cost);
    benchmark::DoNotOptimize(cost);
  }
}
BENCHMARK(BM_EvalCddOneRowDispatch)->Arg(50)->Arg(100);

void BM_EvalCddOneRowFused(benchmark::State& state) {
  const auto len = static_cast<std::uint32_t>(state.range(0));
  const auto n = static_cast<std::int32_t>(len);
  const cdd::Instance instance = RandomCdd(len, 0.6, len);
  const cdd::CddEvaluator eval(instance);
  const cdd::Sequence seq = RandomSeq(len, len * 3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        cdd::raw::EvalCddFused(n, eval.due_date(), seq.data(),
                               eval.proc_data(), eval.alpha_data(),
                               eval.beta_data()));
  }
}
BENCHMARK(BM_EvalCddOneRowFused)->Arg(50)->Arg(100);

void BM_EvalCddReferenceOracle(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  const cdd::Instance instance = RandomCdd(n, 0.6, n);
  const cdd::Sequence seq = RandomSeq(n, n * 7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(cdd::ReferenceCddCost(instance, seq));
  }
  state.SetComplexityN(n);
}
BENCHMARK(BM_EvalCddReferenceOracle)
    ->RangeMultiplier(4)
    ->Range(8, 512)
    ->Complexity();

void BM_EvalCddSimplexLp(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  const cdd::Instance instance = RandomCdd(n, 0.6, n);
  const cdd::Sequence seq = RandomSeq(n, n * 9);
  for (auto _ : state) {
    benchmark::DoNotOptimize(cdd::lp::SolveSequenceLp(instance, seq));
  }
}
BENCHMARK(BM_EvalCddSimplexLp)->Arg(8)->Arg(16)->Arg(32);

void BM_EvalUcddcpSimplexLp(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  const cdd::Instance instance = RandomUcddcp(n, 1.1, n);
  const cdd::Sequence seq = RandomSeq(n, n * 11);
  for (auto _ : state) {
    benchmark::DoNotOptimize(cdd::lp::SolveSequenceLp(instance, seq));
  }
}
BENCHMARK(BM_EvalUcddcpSimplexLp)->Arg(8)->Arg(16)->Arg(32);

}  // namespace

BENCHMARK_MAIN();
