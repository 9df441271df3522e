#pragma once
/// \file device_problem.hpp
/// \brief Device-resident problem data (the H2D uploads of Figure 9).
///
/// The instance is flattened to structure-of-arrays and copied to device
/// global memory once per solver run: processing times, earliness/tardiness
/// penalties, and for UCDDCP additionally the minimum processing times and
/// compression penalties.  The due date and job count travel through
/// constant memory "to benefit from its broadcast mechanism" (Section VI).

#include <cstdint>
#include <string>

#include "core/instance.hpp"
#include "cudasim/memory.hpp"

namespace cdd::par {

/// Upper bound on any sequence cost of \p instance: every job maximally
/// early (horizon d) or maximally tardy (horizon sum P), plus its full
/// compression penalty.  Saturates at the largest Cost instead of
/// overflowing.
Cost CostUpperBound(const Instance& instance);

/// Empty when the device engines can solve \p instance, otherwise why
/// not: their reduction packs (cost, thread) into one 64-bit key, so
/// CostUpperBound must stay below raw::kMaxPackableCost.  The engines'
/// construction and the serve layer's admission check share it.
std::string PackedKeyDiagnostic(const Instance& instance);

/// Instance data living on a simulated device.
class DeviceProblem {
 public:
  DeviceProblem(sim::Device& device, const Instance& instance);

  std::int32_t n() const { return n_; }
  Time due_date() const { return d_.value(); }
  bool controllable() const { return controllable_; }

  const Time* proc() const { return proc_.data(); }
  const Time* min_proc() const { return min_proc_.data(); }
  const Cost* alpha() const { return alpha_.data(); }
  const Cost* beta() const { return beta_.data(); }
  const Cost* gamma() const { return gamma_.data(); }

  /// Bytes needed to stage alpha and beta into block shared memory (the
  /// fitness kernel's layout: alpha[0..n) then beta[0..n)).
  std::size_t shared_bytes() const {
    return 2 * static_cast<std::size_t>(n_) * sizeof(Cost);
  }

  /// Upper bound on any sequence cost of this instance; used to seed
  /// reduction buffers and to verify that packed (cost, thread) reduction
  /// keys cannot overflow.
  Cost cost_upper_bound() const { return cost_bound_; }

 private:
  std::int32_t n_;
  bool controllable_;
  Cost cost_bound_;
  sim::DeviceBuffer<Time> proc_;
  sim::DeviceBuffer<Time> min_proc_;
  sim::DeviceBuffer<Cost> alpha_;
  sim::DeviceBuffer<Cost> beta_;
  sim::DeviceBuffer<Cost> gamma_;
  sim::ConstantBuffer<Time> d_;
  sim::ConstantBuffer<std::int32_t> n_const_;
};

}  // namespace cdd::par
