#pragma once
/// \file instance.hpp
/// \brief Problem instances for the CDD and UCDDCP scheduling problems.
///
/// An Instance bundles the per-job data of Section II of the paper:
///   P_i     processing time of job i
///   M_i     minimum (fully compressed) processing time of job i   (UCDDCP)
///   alpha_i earliness penalty per time unit
///   beta_i  tardiness penalty per time unit
///   gamma_i compression penalty per time unit                     (UCDDCP)
/// together with the common due date d.
///
/// The same struct serves both problems: a CDD instance simply ignores
/// M and gamma (conventionally M_i = P_i, gamma_i = 0).

#include <cstddef>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/types.hpp"

namespace cdd {

/// Per-job data of a single job.
struct Job {
  Time proc = 0;      ///< P_i  — nominal processing time.
  Time min_proc = 0;  ///< M_i  — minimum processing time (== proc for CDD).
  Cost early = 0;     ///< alpha_i — earliness penalty per time unit.
  Cost tardy = 0;     ///< beta_i  — tardiness penalty per time unit.
  Cost compress = 0;  ///< gamma_i — compression penalty per time unit.

  friend bool operator==(const Job&, const Job&) = default;
};

/// Which problem variant an instance describes.
enum class Problem {
  kCdd,     ///< Common Due-Date problem, objective (1).
  kUcddcp,  ///< Unrestricted CDD with Controllable Processing Times, obj (2).
  /// The *restricted* controllable case (d may be < sum P_i) the paper's
  /// introduction motivates; outside the O(n) algorithm's scope, solvable
  /// through lp::LpSequenceEvaluator (the generic layer (ii)).
  kCddcp,
};

/// Which objective the solvers minimize over an instance's schedules.
enum class ScheduleObjective {
  /// Weighted earliness/tardiness (+ compression) penalties — objective
  /// (1)/(2) of the source paper.  The default everywhere.
  kTotalPenalty,
  /// Late-work minimization, the complement of early-work maximization on
  /// identical parallel machines with a common due date (Györgyi & Kis;
  /// arXiv:2007.12388): cost = sum over machines of max(0, L_k - d) where
  /// L_k is machine k's load.  Maximizing total early work
  /// sum_k min(L_k, d) is equivalent since sum_k L_k is constant.
  /// Per-job penalties are ignored; only P_i and d matter.
  kEarlyWork,
};

/// \p start + sum of the jobs' processing times, or std::nullopt when a
/// partial sum overflows Time.  Instance::Validate() and the sch loader
/// share it, so no input can reach a plain signed sum.
std::optional<Time> CheckedProcessingSum(std::span<const Job> jobs,
                                         Time start = 0);

/// Exclusive upper limit on n * max(1, alpha, beta, gamma) * (d + sum P_i)
/// that Instance::Validate() accepts; below it no cost can overflow.
inline constexpr Cost kCostMagnitudeLimit = Cost{1} << 62;

/// \brief A complete problem instance.
///
/// Invariants (checked by Validate()):
///  * n >= 1, d >= 0
///  * P_i >= 1, 0 <= M_i <= P_i
///  * alpha_i, beta_i >= 0, gamma_i >= 0
///  * n * max(1, alpha, beta, gamma) * (d + sum P_i) < kCostMagnitudeLimit
///  * for Problem::kUcddcp additionally d >= sum(P_i) ("unrestricted").
class Instance {
 public:
  Instance() = default;

  /// Builds an instance from parallel arrays.  \p min_proc and \p compress
  /// may be empty, in which case M_i = P_i and gamma_i = 0 (pure CDD data).
  Instance(Problem problem, Time due_date, std::vector<Time> proc,
           std::vector<Cost> early, std::vector<Cost> tardy,
           std::vector<Time> min_proc = {}, std::vector<Cost> compress = {});

  /// Builds an instance from a job list.
  Instance(Problem problem, Time due_date, std::vector<Job> jobs);

  Problem problem() const { return problem_; }
  Time due_date() const { return due_date_; }
  /// Number of identical parallel machines (1 = the source paper's
  /// single-machine setting; >1 follows arXiv:1405.1234 / 2007.12388).
  std::int32_t machines() const { return machines_; }
  /// Objective minimized over this instance's schedules.
  ScheduleObjective objective() const { return objective_; }
  std::size_t size() const { return jobs_.size(); }
  const Job& job(std::size_t i) const { return jobs_[i]; }
  const std::vector<Job>& jobs() const { return jobs_; }

  /// Sum of the nominal processing times of all jobs.
  Time total_processing_time() const;

  /// Sum of the minimum processing times of all jobs.
  Time total_min_processing_time() const;

  /// True when the due date cannot constrain the schedule from the left,
  /// i.e. d >= sum(P_i).  This is the precondition of the UCDDCP O(n)
  /// algorithm (Section IV-B of the paper).
  bool is_unrestricted() const;

  /// Restrictiveness factor h = d / sum(P_i) used by the OR-library
  /// benchmark generator (h in {0.2, 0.4, 0.6, 0.8}).
  double restrictiveness() const;

  /// Returns a copy with the due date replaced (used by the benchmark
  /// harness to sweep h on a fixed job set).
  Instance with_due_date(Time d) const;

  /// Returns a copy spread over \p m identical parallel machines.
  /// Validate() then requires m >= 1, a kCdd problem, and m <= n.
  Instance with_machines(std::int32_t m) const;

  /// Returns a copy minimizing \p objective.  kEarlyWork requires a kCdd
  /// problem (compression has no early-work semantics).
  Instance with_objective(ScheduleObjective objective) const;

  /// Returns a CDD view of this instance (drops compressibility).
  Instance as_cdd() const;

  /// \brief Checks all invariants; throws std::invalid_argument on the first
  /// violation with a message naming the offending job.
  void Validate() const;

  /// Human-readable one-line summary ("CDD n=50 d=241 h=0.4").
  std::string Summary() const;

  friend bool operator==(const Instance&, const Instance&) = default;

 private:
  Problem problem_ = Problem::kCdd;
  Time due_date_ = 0;
  std::int32_t machines_ = 1;
  ScheduleObjective objective_ = ScheduleObjective::kTotalPenalty;
  std::vector<Job> jobs_;
};

}  // namespace cdd
