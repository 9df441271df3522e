/// \file bench_eval_batch.cpp
/// \brief Experiment E12 — the batched-evaluation refactor, measured.
///
/// Before the refactor every engine scored candidates one at a time through
/// a type-erased std::function objective; after it, a generation lands in a
/// CandidatePool and one EvalCddBatch call scores all rows.  This bench
/// pits the two hot paths against each other on identical pools and checks
/// that the costs are bit-identical — the refactor's core promise.
///
/// On top of that it times the two builds of the batch walk itself: the
/// portable scalar loop (raw::EvalCddBatch) against the lane-per-candidate
/// SIMD transposition (raw::EvalCddBatchSimd, AVX2 / NEON — see
/// core/eval_simd.hpp), again pinning bit-identity.  The header line names
/// the backend the dispatching call sites resolved to on this host.
///
///   bench_eval_batch [--sizes 50,200,500] [--batch 768] [--seed 1]
///                    [--smoke]
///
/// --smoke runs a fast verification-only pass (tiny rep counts) — the CI
/// hook, run once per CDD_EVAL_BACKEND value.  The full run prints
/// evals/sec for all four paths per size; results/exp_eval_simd.txt
/// captures the table.  Both exit 1 unless every path is bit-identical.

#include <chrono>
#include <cstdint>
#include <functional>
#include <iostream>
#include <span>
#include <vector>

#include "benchutil/cli.hpp"
#include "benchutil/table.hpp"
#include "common/test_instances.hpp"
#include "core/candidate_pool.hpp"
#include "core/cpu_features.hpp"
#include "core/pool_allocator.hpp"
#include "core/eval_cdd.hpp"
#include "core/eval_raw.hpp"
#include "core/eval_simd.hpp"
#include "core/sequence.hpp"
#include "cudasim/exec/backend.hpp"

namespace {

using Clock = std::chrono::steady_clock;

double Seconds(Clock::time_point t0, Clock::time_point t1) {
  return std::chrono::duration<double>(t1 - t0).count();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace cdd;
  const benchutil::Args args(argc, argv);
  if (args.GetBool("help")) {
    std::cout << "Batched vs per-candidate std::function evaluation, plus\n"
                 "scalar-batch vs SIMD-batch (lane-per-candidate) builds.\n"
                 "Flags: --sizes list --batch B --seed S --smoke\n";
    return 0;
  }
  const bool smoke = args.GetBool("smoke");
  const std::vector<std::uint32_t> sizes =
      args.GetUintList("sizes", {50, 200, 500});
  const auto batch = static_cast<std::uint32_t>(args.GetInt("batch", 768));
  const auto seed = static_cast<std::uint64_t>(args.GetInt("seed", 1));

  const std::string_view backend = core::ToString(core::ActiveEvalBackend());
  const std::string_view pool_backend =
      core::ToString(core::ActivePoolBackend());
  const char* isa = raw::SimdBatchIsa();
  const std::string_view exec_backend =
      sim::exec::ToString(sim::exec::ActiveExecBackend());
  const unsigned exec_workers = sim::exec::ActiveExecWorkers();
  std::cout << "=== Batched SoA evaluation vs std::function dispatch "
            << "(B=" << batch << (smoke ? ", smoke" : "") << ") ===\n"
            << "dispatch backend: " << backend << " (simd isa: " << isa
            << ", available: " << (raw::SimdBatchAvailable() ? "yes" : "no")
            << "), pool backend: " << pool_backend << ", exec backend: "
            << exec_backend << " (" << exec_workers << " workers)\n";
  benchutil::TextTable table({"n", "fn evals/s", "batch evals/s", "speedup",
                              "scalar evals/s", "simd evals/s",
                              "simd speedup", "bit-identical"});
  bool all_identical = true;

  for (const std::uint32_t n : sizes) {
    const Instance instance = testing::RandomCdd(n, 0.6, seed + n);
    const CddEvaluator eval(instance);
    CandidatePool pool(n, batch);
    for (std::uint32_t b = 0; b < batch; ++b) {
      pool.Append(testing::RandomSeq(n, seed * 10'000 + b));
    }
    const CandidatePoolView view = pool.view();
    const auto nn = static_cast<std::int32_t>(n);
    const auto bb = static_cast<std::int32_t>(batch);

    // The pre-refactor hot path: one type-erased call per candidate.
    const std::function<Cost(std::span<const JobId>)> objective =
        [&eval](std::span<const JobId> seq) { return eval.Evaluate(seq); };
    std::vector<Cost> fn_costs(batch, 0);
    std::vector<Cost> scalar_costs(batch, 0);
    std::vector<Cost> simd_costs(batch, 0);

    // Size the rep counts so each timed section does comparable work
    // regardless of n (~50M job-steps for the full run).
    const std::uint64_t reps =
        smoke ? 2
              : std::max<std::uint64_t>(
                    3, 50'000'000 /
                           (static_cast<std::uint64_t>(n) * batch));

    // Warm all paths once (also produces the comparison data).
    for (std::uint32_t b = 0; b < batch; ++b) {
      fn_costs[b] = objective(pool.row(b));
    }
    eval.EvaluateBatch(pool);
    raw::EvalCddBatch(nn, eval.due_date(), view.seqs, view.stride, bb,
                      eval.proc_data(), eval.alpha_data(), eval.beta_data(),
                      scalar_costs.data());
    raw::EvalCddBatchSimd(nn, eval.due_date(), view.seqs, view.stride, bb,
                          eval.proc_data(), eval.alpha_data(),
                          eval.beta_data(), simd_costs.data());

    const Clock::time_point t0 = Clock::now();
    for (std::uint64_t r = 0; r < reps; ++r) {
      for (std::uint32_t b = 0; b < batch; ++b) {
        fn_costs[b] = objective(pool.row(b));
      }
    }
    const Clock::time_point t1 = Clock::now();
    for (std::uint64_t r = 0; r < reps; ++r) {
      eval.EvaluateBatch(pool);
    }
    const Clock::time_point t2 = Clock::now();
    for (std::uint64_t r = 0; r < reps; ++r) {
      raw::EvalCddBatch(nn, eval.due_date(), view.seqs, view.stride, bb,
                        eval.proc_data(), eval.alpha_data(),
                        eval.beta_data(), scalar_costs.data());
    }
    const Clock::time_point t3 = Clock::now();
    for (std::uint64_t r = 0; r < reps; ++r) {
      raw::EvalCddBatchSimd(nn, eval.due_date(), view.seqs, view.stride, bb,
                            eval.proc_data(), eval.alpha_data(),
                            eval.beta_data(), simd_costs.data());
    }
    const Clock::time_point t4 = Clock::now();

    bool identical = true;
    bool simd_identical = true;
    for (std::uint32_t b = 0; b < batch; ++b) {
      identical = identical && pool.costs()[b] == fn_costs[b];
      simd_identical = simd_identical && simd_costs[b] == scalar_costs[b] &&
                       simd_costs[b] == fn_costs[b];
    }
    all_identical = all_identical && identical && simd_identical;

    const double evals = static_cast<double>(reps) * batch;
    const double fn_rate = evals / Seconds(t0, t1);
    const double batch_rate = evals / Seconds(t1, t2);
    const double scalar_rate = evals / Seconds(t2, t3);
    const double simd_rate = evals / Seconds(t3, t4);
    table.AddRow({std::to_string(n), benchutil::FmtDouble(fn_rate, 0),
                  benchutil::FmtDouble(batch_rate, 0),
                  benchutil::FmtDouble(batch_rate / fn_rate, 2),
                  benchutil::FmtDouble(scalar_rate, 0),
                  benchutil::FmtDouble(simd_rate, 0),
                  benchutil::FmtDouble(simd_rate / scalar_rate, 2),
                  identical && simd_identical ? "yes" : "NO"});
  }
  std::cout << table.ToString();

  if (!all_identical) {
    std::cerr << "FAIL: evaluation paths disagree (function vs batch vs "
                 "scalar vs simd)\n";
    return 1;
  }
  if (smoke) {
    std::cout << "\nsmoke: function, batch, scalar-batch and simd-batch "
                 "evaluation all bit-identical on all sizes\n";
  }
  return 0;
}
