#include "parallel/device_problem.hpp"

#include <algorithm>
#include <limits>
#include <optional>
#include <vector>

#include "parallel/kernels_raw.hpp"

namespace cdd::par {

Cost CostUpperBound(const Instance& instance) {
  constexpr Cost kSaturated = std::numeric_limits<Cost>::max();
  const std::optional<Time> total = CheckedProcessingSum(instance.jobs());
  Time horizon = 0;
  if (!total || __builtin_add_overflow(std::max(instance.due_date(), *total),
                                       *total, &horizon)) {
    return kSaturated;
  }
  Cost bound = 0;
  for (const Job& j : instance.jobs()) {
    Cost late = 0;
    Cost compress = 0;
    if (__builtin_mul_overflow(std::max(j.early, j.tardy), horizon, &late) ||
        __builtin_mul_overflow(j.compress, j.proc - j.min_proc, &compress) ||
        __builtin_add_overflow(bound, late, &bound) ||
        __builtin_add_overflow(bound, compress, &bound)) {
      return kSaturated;
    }
  }
  return bound;
}

std::string PackedKeyDiagnostic(const Instance& instance) {
  const Cost bound = CostUpperBound(instance);
  if (bound < raw::kMaxPackableCost) return {};
  return "instance costs exceed the packed reduction key range (cost bound " +
         std::to_string(bound) + " >= 2^42)";
}

DeviceProblem::DeviceProblem(sim::Device& device, const Instance& instance)
    : n_(static_cast<std::int32_t>(instance.size())),
      controllable_(instance.problem() == Problem::kUcddcp),
      cost_bound_(0),
      proc_(device, instance.size()),
      min_proc_(device, instance.size()),
      alpha_(device, instance.size()),
      beta_(device, instance.size()),
      gamma_(device, instance.size()),
      d_(device, 1),
      n_const_(device, 1) {
  if (instance.problem() == Problem::kCddcp) {
    throw std::invalid_argument(
        "DeviceProblem: the fitness kernels implement the O(n) algorithms, "
        "which do not cover the restricted controllable problem; use the "
        "serial metaheuristics with lp::MakeLpObjective instead");
  }
  instance.Validate();

  std::vector<Time> proc;
  std::vector<Time> min_proc;
  std::vector<Cost> alpha;
  std::vector<Cost> beta;
  std::vector<Cost> gamma;
  proc.reserve(instance.size());
  for (const Job& j : instance.jobs()) {
    proc.push_back(j.proc);
    min_proc.push_back(j.min_proc);
    alpha.push_back(j.early);
    beta.push_back(j.tardy);
    gamma.push_back(j.compress);
  }

  proc_.CopyFromHost(proc);
  min_proc_.CopyFromHost(min_proc);
  alpha_.CopyFromHost(alpha);
  beta_.CopyFromHost(beta);
  if (controllable_) {
    gamma_.CopyFromHost(gamma);
  } else {
    gamma_.Fill(0);
  }
  d_.Set(instance.due_date());
  n_const_.Set(n_);
  cost_bound_ = CostUpperBound(instance);
}

}  // namespace cdd::par
