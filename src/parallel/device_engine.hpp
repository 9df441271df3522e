#pragma once
/// \file device_engine.hpp
/// \brief The resumable-engine skeleton shared by the simulated-device
/// engines (psa, psa-sync, pdpso).  Not part of the public API.
///
/// The skeleton owns everything the three engines have in common:
///   * the device reference and the modeled-clock bookkeeping
///     (device_seconds = device clock now - clock at construction, rebased
///     on Restore so discarded speculative work is not billed),
///   * the launch-geometry and packed (cost, thread) key range checks, the
///     device-resident problem upload and the ensemble-best key buffer,
///   * the Step loop over native units (generations or temperature levels)
///     with its per-unit stop check, Remaining(), status and wall clock,
///   * trajectory sampling from the packed best after each unit,
///   * the checkpoint envelope (foreign checkpoints — another engine type
///     or another ensemble shape — are rejected), and
///   * the memoized FinishGpu and its GpuRunResult -> EngineOutput form.
///
/// An engine derives from DeviceEngine and allocates its buffers as
/// members (allocation charges no modeled time).  Its constructor
/// validates its own parameters, calls Upload(), seeds the ensemble,
/// declares which buffers survive a checkpoint (KeepAcrossCheckpoints)
/// and where its best row lives (SetBestRows), launches its init kernels
/// and ends with InitDone().  Its only virtual hook is RunUnit — the
/// kernels of one Step unit — called once per unit.

#include <chrono>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <optional>
#include <vector>

#include "core/instance.hpp"
#include "core/stop_token.hpp"
#include "cudasim/device.hpp"
#include "cudasim/memory.hpp"
#include "meta/engine.hpp"
#include "parallel/detail.hpp"
#include "parallel/device_problem.hpp"
#include "parallel/kernels_raw.hpp"
#include "parallel/launch_config.hpp"
#include "parallel/result.hpp"

namespace cdd::par::detail {

/// Identity and Step-loop parameters of one device engine run.
struct DeviceRunSpec {
  const char* name;   ///< diagnostics prefix, e.g. "RunParallelSa"
  const char* span;   ///< trace span around each Step slice
  std::uint64_t units;  ///< Step-unit budget
  StopToken stop;
  std::uint32_t trajectory_stride = 0;
  const char* counter = nullptr;  ///< trace counter of trajectory samples
};

/// Device buffers (plus at most one host accumulator) that carry an
/// engine's state across units; every other buffer is per-unit scratch.
struct ResumableState {
  std::vector<sim::DeviceBuffer<JobId>*> seqs;
  std::vector<sim::DeviceBuffer<Cost>*> costs;
  double* host = nullptr;
};

class DeviceEngine : public meta::Engine {
 public:
  DeviceEngine(const DeviceEngine&) = delete;
  DeviceEngine& operator=(const DeviceEngine&) = delete;

  meta::StepStatus Step(std::uint64_t units) final;
  std::uint64_t Remaining() const final;
  /// The ensemble best the reduction keeps in the packed key buffer.
  Cost BestCost() const override;
  std::unique_ptr<meta::EngineCheckpoint> Checkpoint() const final;
  void Restore(const meta::EngineCheckpoint& checkpoint) final;
  meta::EngineOutput Finish() final;

  /// Full GPU result including the modeled clock.  With best rows set,
  /// downloads the winner — Figure 9's single D2H.  Memoized until the
  /// next Step/Restore so repeated Finish calls stay idempotent (a second
  /// call must not charge a second modeled transfer).
  GpuRunResult FinishGpu();

  /// Step(kStepAll) then FinishGpu(): what the RunParallel* entry points
  /// return.
  GpuRunResult RunToCompletion();

 protected:
  using Clock = std::chrono::steady_clock;

  /// Records the device clock and validates the launch geometry,
  /// including the packed key's thread capacity — before any allocation.
  DeviceEngine(sim::Device& device, const Instance& instance,
               const LaunchConfig& config, DeviceRunSpec spec);

  /// Uploads the instance (Figure 9's H2D), checks that its costs fit the
  /// packed reduction key and seeds the packed best with the cost bound.
  void Upload(const Instance& instance);
  /// Uploads the initial ensemble into every buffer in \p targets: uniform
  /// permutations, or V-shape-seeded ones when \p vshape is set.
  void SeedEnsemble(const Instance& instance, std::uint64_t seed, bool vshape,
                    std::initializer_list<sim::DeviceBuffer<JobId>*> targets);
  /// Declares what Checkpoint copies out and Restore copies back.
  void KeepAcrossCheckpoints(ResumableState state) { state_ = state; }
  /// Row-major buffer holding each thread's best row; FinishGpu downloads
  /// the packed winner's row from it.  Unset: result_.best is host-tracked.
  void SetBestRows(const sim::DeviceBuffer<JobId>* rows) { best_rows_ = rows; }
  /// Accounts the construction's wall time; the last line of every engine
  /// constructor.
  void InitDone(Clock::time_point t_start);

  /// Fitness kernel over the dense rows \p seqs into \p costs, counted as
  /// one ensemble's worth of evaluations.
  void Fitness(JobId* seqs, Cost* costs, const char* kernel_name,
               PenaltyMemory memory = PenaltyMemory::kShared);
  /// Launches \p kernel over the engine's grid.
  void Launch(const char* kernel_name, const sim::KernelFn& kernel);
  /// Draws block 0 of every thread's (seed, g, phase) stream into the
  /// engine's host-side head buffer in one rng::StreamHeads pass and
  /// returns the launch's view of it.  Valid until the next call: fill it
  /// right before the launch that reads it (launches run synchronously).
  /// Host bookkeeping — no device buffer, transfer or modeled time.
  raw::ThreadStreams Streams(std::uint64_t seed, std::uint64_t g,
                             raw::RngPhase phase);

  /// The kernels of Step unit \p unit (0-based).
  virtual void RunUnit(std::uint64_t unit) = 0;

  std::int32_t n() const { return n_; }
  std::uint32_t ensemble() const { return config_.ensemble(); }
  /// Elements of one row-major ensemble buffer (ensemble x n).
  std::size_t cells() const {
    return static_cast<std::size_t>(ensemble()) * static_cast<std::size_t>(n_);
  }

  sim::Device& device_;
  const LaunchConfig config_;
  const std::int32_t n_;
  std::unique_ptr<DeviceProblem> problem_;
  std::unique_ptr<sim::DeviceBuffer<std::int64_t>> packed_best_;
  GpuRunResult result_;

 private:
  DeviceRunSpec spec_;
  double clock_at_start_;
  ResumableState state_;
  const sim::DeviceBuffer<JobId>* best_rows_ = nullptr;
  std::uint64_t next_unit_ = 0;
  meta::StepStatus status_ = meta::StepStatus::kRunning;
  double elapsed_ = 0.0;
  std::optional<GpuRunResult> finish_cache_;
  std::vector<std::uint32_t> heads_;  ///< four words per thread; Streams
};

}  // namespace cdd::par::detail
