/// Semantic cost consistency of the engines, end to end.
///
/// Seeded random instances of every single-objective variant (CDD m=1,
/// UCDDCP, CDD m=3) are solved by sa, ta, dpso and psa through the engine
/// registry, exactly as the CLI and the service run them.  Each reported
/// result must be a valid candidate whose `best_cost` is non-negative and
/// equals what the reference evaluators of eval_raw.hpp compute for the
/// returned sequence (and splits); on single-machine instances of at
/// most 10 jobs the exact bnb tier must be at or below every heuristic.
///
/// Three field ranges are drawn.  Small fields (P_i <= 20, penalties
/// <= 15) let the batch evaluations of T0 sampling and of the DPSO swarm
/// take the AVX2 pack path.  Wide fields have every P_i >= 2^16, which
/// forces the scalar path, and penalties scaled to one of two limits:
///  * kWide: n * max(alpha, beta, gamma) * (d + sum P_i) lands just below
///    kCostMagnitudeLimit, the top of what Instance::Validate admits.  The
///    device engines reject such instances up front, because their
///    reduction packs (cost, thread) into one 64-bit key
///    (par::raw::kMaxPackableCost); the support check must say so and psa
///    must throw std::invalid_argument.
///  * kWideDevice: the device engines' cost bound stays below
///    par::raw::kMaxPackableCost, so psa runs on wide fields too.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/eval_raw.hpp"
#include "core/instance.hpp"
#include "core/sequence.hpp"
#include "parallel/kernels_raw.hpp"
#include "rng/philox.hpp"
#include "serve/engine_registry.hpp"

namespace cdd {
namespace {

enum class Variant { kCdd, kUcddcp, kCddThreeMachines };
enum class Fields { kSmall, kWide, kWideDevice };

const char* Name(Variant variant) {
  switch (variant) {
    case Variant::kCdd: return "CDD m=1";
    case Variant::kUcddcp: return "UCDDCP";
    case Variant::kCddThreeMachines: return "CDD m=3";
  }
  return "?";
}

/// Uniform draw from [lo, hi] (inclusive); the modulo bias is irrelevant
/// for test data.
std::int64_t Between(rng::Xoshiro256& rng, std::int64_t lo, std::int64_t hi) {
  const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
  return lo + static_cast<std::int64_t>(rng() % span);
}

Instance DrawInstance(Variant variant, Fields fields, std::uint32_t n,
                      rng::Xoshiro256& rng) {
  const bool wide = fields != Fields::kSmall;
  std::vector<Job> jobs(n);
  Time total = 0;
  for (Job& job : jobs) {
    job.proc = wide ? Between(rng, Time{1} << 16, Time{1} << 20)
                    : Between(rng, 1, 20);
    total += job.proc;
  }
  // CDD due dates span restrictive to unrestricted; UCDDCP needs
  // d >= sum P_i.
  const Time d = variant == Variant::kUcddcp
                     ? total + Between(rng, 0, total / 2)
                     : Between(rng, total / 5, total);
  // The largest penalty the chosen limit admits.  The device bound is
  // sum_j max(alpha_j, beta_j) * (max(d, sum P) + sum P)
  //     + gamma_j * (P_j - M_j);
  // padding the horizon by 2^20 >= P_j - M_j covers the compression term.
  const auto jobs_n = static_cast<Cost>(n);
  Cost top = 15;
  if (fields == Fields::kWide) {
    top = (kCostMagnitudeLimit - 1) / (jobs_n * (d + total));
  } else if (fields == Fields::kWideDevice) {
    top = (par::raw::kMaxPackableCost - 1) /
          (jobs_n * (std::max(d, total) + total + (Time{1} << 20)));
  }
  for (Job& job : jobs) {
    job.early = Between(rng, 0, top);
    job.tardy = Between(rng, 0, top);
    if (variant == Variant::kUcddcp) {
      job.min_proc = Between(rng, 1, job.proc);
      job.compress = Between(rng, 0, top);
    } else {
      job.min_proc = job.proc;
    }
  }
  // One penalty at the cap, so wide instances sit just below the bound.
  jobs.front().tardy = top;
  const Problem problem =
      variant == Variant::kUcddcp ? Problem::kUcddcp : Problem::kCdd;
  Instance instance(problem, d, std::move(jobs));
  if (variant == Variant::kCddThreeMachines) {
    instance = instance.with_machines(3);
  }
  instance.Validate();
  return instance;
}

/// The cost the reference evaluators give the engine's answer, after
/// checking that the answer is a valid candidate.
Cost ReferenceCost(const Instance& instance, const meta::RunResult& result) {
  const auto n = static_cast<std::int32_t>(instance.size());
  ValidateSequence(result.best, instance.size());
  std::vector<Time> proc, minproc;
  std::vector<Cost> alpha, beta, gamma;
  for (const Job& job : instance.jobs()) {
    proc.push_back(job.proc);
    minproc.push_back(job.min_proc);
    alpha.push_back(job.early);
    beta.push_back(job.tardy);
    gamma.push_back(job.compress);
  }
  const JobId* seq = result.best.data();
  if (instance.machines() > 1) {
    const auto& splits = result.best_splits;
    EXPECT_EQ(splits.size(), static_cast<std::size_t>(instance.machines() - 1));
    EXPECT_TRUE(std::is_sorted(splits.begin(), splits.end()));
    EXPECT_TRUE(std::all_of(splits.begin(), splits.end(),
                            [n](std::int32_t s) { return s >= 0 && s <= n; }));
    return raw::EvalCddMachines(n, instance.machines(), instance.due_date(),
                                seq, splits.data(), proc.data(),
                                alpha.data(), beta.data())
        .cost;
  }
  if (instance.problem() == Problem::kUcddcp) {
    return raw::EvalUcddcp(n, instance.due_date(), seq, proc.data(),
                           minproc.data(), alpha.data(), beta.data(),
                           gamma.data())
        .cost;
  }
  return raw::EvalCdd(n, instance.due_date(), seq, proc.data(),
                      alpha.data(), beta.data())
      .cost;
}

serve::EngineOptions OptionsFor(const std::string& engine,
                                std::uint64_t seed) {
  serve::EngineOptions options;
  options.seed = seed;
  options.threads = 1;
  if (engine == "psa") {
    options.ensemble = 64;
    options.block = 32;
    options.generations = 30;
  } else if (engine == "dpso") {
    options.generations = 60;
  } else {
    options.generations = 3000;
  }
  return options;
}

void CheckVariant(Variant variant, Fields fields, std::uint64_t seed) {
  const serve::EngineRegistry& registry = serve::EngineRegistry::Default();
  rng::Xoshiro256 rng(seed);
  for (const std::uint32_t n : {5u, 8u, 10u, 24u, 40u}) {
    const Instance instance = DrawInstance(variant, fields, n, rng);
    SCOPED_TRACE(std::string(Name(variant)) + " " + instance.Summary());
    std::vector<Cost> heuristic_costs;
    for (const std::string engine : {"sa", "ta", "dpso", "psa"}) {
      SCOPED_TRACE(engine);
      const serve::EngineFn& solve = *registry.Find(engine);
      const serve::EngineOptions options = OptionsFor(engine, seed + n);
      if (engine == "psa" && fields == Fields::kWide) {
        EXPECT_FALSE(serve::EngineSupportsInstance(engine, instance));
        EXPECT_THROW(solve(instance, options), std::invalid_argument);
        continue;
      }
      if (!serve::EngineSupportsInstance(engine, instance)) continue;
      const serve::EngineRun run = solve(instance, options);
      EXPECT_GE(run.result.best_cost, 0);
      EXPECT_EQ(run.result.best_cost, ReferenceCost(instance, run.result));
      heuristic_costs.push_back(run.result.best_cost);
    }
    ASSERT_FALSE(heuristic_costs.empty());
    if (n <= 10 && serve::EngineSupportsInstance("bnb", instance)) {
      const serve::EngineRun exact =
          (*registry.Find("bnb"))(instance, OptionsFor("bnb", seed));
      EXPECT_EQ(exact.result.best_cost, ReferenceCost(instance, exact.result));
      EXPECT_LE(exact.result.best_cost,
                *std::min_element(heuristic_costs.begin(),
                                  heuristic_costs.end()));
    }
  }
}

TEST(EngineCostConsistency, CddSmallFields) {
  CheckVariant(Variant::kCdd, Fields::kSmall, 101);
}

TEST(EngineCostConsistency, CddWideFields) {
  CheckVariant(Variant::kCdd, Fields::kWide, 102);
}

TEST(EngineCostConsistency, UcddcpSmallFields) {
  CheckVariant(Variant::kUcddcp, Fields::kSmall, 103);
}

TEST(EngineCostConsistency, UcddcpWideFields) {
  CheckVariant(Variant::kUcddcp, Fields::kWide, 104);
}

TEST(EngineCostConsistency, CddWideFieldsInTheDeviceRange) {
  CheckVariant(Variant::kCdd, Fields::kWideDevice, 107);
}

TEST(EngineCostConsistency, UcddcpWideFieldsInTheDeviceRange) {
  CheckVariant(Variant::kUcddcp, Fields::kWideDevice, 108);
}

TEST(EngineCostConsistency, CddThreeMachinesSmallFields) {
  CheckVariant(Variant::kCddThreeMachines, Fields::kSmall, 105);
}

TEST(EngineCostConsistency, CddThreeMachinesWideFields) {
  CheckVariant(Variant::kCddThreeMachines, Fields::kWide, 106);
}

}  // namespace
}  // namespace cdd
