#include "core/instance.hpp"

#include <algorithm>
#include <numeric>
#include <sstream>

namespace cdd {

Instance::Instance(Problem problem, Time due_date, std::vector<Time> proc,
                   std::vector<Cost> early, std::vector<Cost> tardy,
                   std::vector<Time> min_proc, std::vector<Cost> compress)
    : problem_(problem), due_date_(due_date) {
  const std::size_t n = proc.size();
  if (early.size() != n || tardy.size() != n ||
      (!min_proc.empty() && min_proc.size() != n) ||
      (!compress.empty() && compress.size() != n)) {
    throw std::invalid_argument("Instance: parallel arrays differ in length");
  }
  jobs_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    jobs_[i].proc = proc[i];
    jobs_[i].min_proc = min_proc.empty() ? proc[i] : min_proc[i];
    jobs_[i].early = early[i];
    jobs_[i].tardy = tardy[i];
    jobs_[i].compress = compress.empty() ? Cost{0} : compress[i];
  }
}

Instance::Instance(Problem problem, Time due_date, std::vector<Job> jobs)
    : problem_(problem), due_date_(due_date), jobs_(std::move(jobs)) {}

Time Instance::total_processing_time() const {
  return std::accumulate(jobs_.begin(), jobs_.end(), Time{0},
                         [](Time acc, const Job& j) { return acc + j.proc; });
}

Time Instance::total_min_processing_time() const {
  return std::accumulate(
      jobs_.begin(), jobs_.end(), Time{0},
      [](Time acc, const Job& j) { return acc + j.min_proc; });
}

bool Instance::is_unrestricted() const {
  return due_date_ >= total_processing_time();
}

double Instance::restrictiveness() const {
  const Time total = total_processing_time();
  return total == 0 ? 0.0
                    : static_cast<double>(due_date_) /
                          static_cast<double>(total);
}

Instance Instance::with_due_date(Time d) const {
  Instance copy = *this;
  copy.due_date_ = d;
  return copy;
}

Instance Instance::with_machines(std::int32_t m) const {
  Instance copy = *this;
  copy.machines_ = m;
  return copy;
}

Instance Instance::with_objective(ScheduleObjective objective) const {
  Instance copy = *this;
  copy.objective_ = objective;
  return copy;
}

Instance Instance::as_cdd() const {
  Instance copy = *this;
  copy.problem_ = Problem::kCdd;
  for (Job& j : copy.jobs_) {
    j.min_proc = j.proc;
    j.compress = 0;
  }
  return copy;
}

std::optional<Time> CheckedProcessingSum(std::span<const Job> jobs,
                                         Time start) {
  Time sum = start;
  for (const Job& j : jobs) {
    if (__builtin_add_overflow(sum, j.proc, &sum)) return std::nullopt;
  }
  return sum;
}

void Instance::Validate() const {
  if (jobs_.empty()) {
    throw std::invalid_argument("Instance: no jobs");
  }
  if (due_date_ < 0) {
    throw std::invalid_argument("Instance: negative due date");
  }
  for (std::size_t i = 0; i < jobs_.size(); ++i) {
    const Job& j = jobs_[i];
    const auto at = [i] { return " (job " + std::to_string(i) + ")"; };
    if (j.proc < 1) {
      throw std::invalid_argument("Instance: processing time < 1" + at());
    }
    if (j.min_proc < 0 || j.min_proc > j.proc) {
      throw std::invalid_argument(
          "Instance: minimum processing time outside [0, P_i]" + at());
    }
    if (j.early < 0 || j.tardy < 0 || j.compress < 0) {
      throw std::invalid_argument("Instance: negative penalty" + at());
    }
  }
  // Cost range.  With w = max(1, alpha, beta, gamma), every job's penalty
  // is at most w * (d + sum P_i), so n * w * (d + sum P_i) < 2^62 keeps
  // every cost, every difference of two costs and every partial sum of the
  // evaluators, the annealing rules and bnb inside a Cost.  sum P_i itself
  // can overflow, so each step is checked.
  Cost weight = 1;
  for (const Job& j : jobs_) {
    weight = std::max({weight, j.early, j.tardy, j.compress});
  }
  const std::optional<Time> horizon = CheckedProcessingSum(jobs_, due_date_);
  Cost magnitude = 0;
  const bool overflow =
      !horizon ||
      __builtin_mul_overflow(static_cast<Cost>(jobs_.size()), weight,
                             &magnitude) ||
      __builtin_mul_overflow(magnitude, *horizon, &magnitude);
  if (overflow || magnitude >= kCostMagnitudeLimit) {
    throw std::invalid_argument(
        "Instance: costs could overflow; n * max(1, alpha, beta, gamma) * "
        "(d + sum(P_i)) must stay below 2^62");
  }
  if (problem_ == Problem::kUcddcp && !is_unrestricted()) {
    throw std::invalid_argument(
        "Instance: restricted UCDDCP instance: d = " +
        std::to_string(due_date_) + " < sum(P_i) = " +
        std::to_string(total_processing_time()) +
        "; the O(n) algorithm of Awasthi et al. requires the unrestricted "
        "case (d >= sum P_i); use Problem::kCddcp for the restricted "
        "controllable problem");
  }
  if (machines_ < 1) {
    throw std::invalid_argument("Instance: machines must be >= 1");
  }
  if (machines_ > 1) {
    if (problem_ != Problem::kCdd) {
      throw std::invalid_argument(
          "Instance: parallel machines are defined for the CDD problem "
          "only (controllable processing times stay single-machine)");
    }
    if (static_cast<std::size_t>(machines_) > jobs_.size()) {
      throw std::invalid_argument(
          "Instance: more machines than jobs (m must be <= n)");
    }
  }
  if (objective_ == ScheduleObjective::kEarlyWork &&
      problem_ != Problem::kCdd) {
    throw std::invalid_argument(
        "Instance: the early-work objective is defined for CDD job data "
        "only (compression has no early-work semantics)");
  }
}

std::string Instance::Summary() const {
  std::ostringstream os;
  const char* name = "CDD";
  if (problem_ == Problem::kUcddcp) name = "UCDDCP";
  if (problem_ == Problem::kCddcp) name = "CDDCP";
  os << name << " n=" << size()
     << " d=" << due_date_;
  if (machines_ > 1) os << " m=" << machines_;
  os << " h=";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.2f", restrictiveness());
  os << buf;
  if (objective_ == ScheduleObjective::kEarlyWork) os << " obj=early-work";
  return os.str();
}

}  // namespace cdd
