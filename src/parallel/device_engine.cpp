#include "parallel/device_engine.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <typeindex>
#include <typeinfo>
#include <utility>

#include "core/vshape.hpp"
#include "parallel/kernels_raw.hpp"
#include "trace/tracer.hpp"

namespace cdd::par::detail {
namespace {

/// Host snapshot of a device engine at a unit boundary.  Device "memory"
/// is simulated host memory, so the snapshot is a plain copy that charges
/// no modeled transfer time: a checkpoint is host bookkeeping, not part of
/// the modeled run.  Per-unit Philox streams are derived statelessly from
/// (seed, generation, phase, thread), so no RNG state is captured.
struct DeviceCheckpoint final : meta::EngineCheckpoint {
  std::type_index engine = typeid(void);
  std::size_t cells = 0;
  std::vector<std::vector<JobId>> seqs;
  std::vector<std::vector<Cost>> costs;
  double host = 0.0;
  std::int64_t packed_best = 0;
  std::uint64_t next_unit = 0;
  GpuRunResult result;
  meta::StepStatus status = meta::StepStatus::kRunning;
  double elapsed = 0.0;
  double consumed_device = 0.0;
};

std::invalid_argument Error(const char* name, const char* what) {
  return std::invalid_argument(std::string(name) + ": " + what);
}

}  // namespace

DeviceEngine::DeviceEngine(sim::Device& device, const Instance& instance,
                           const LaunchConfig& config, DeviceRunSpec spec)
    : device_(device),
      config_(config),
      n_(static_cast<std::int32_t>(instance.size())),
      spec_(spec),
      clock_at_start_(device.sim_time_s()) {
  config_.Validate(device_);
  if (config_.ensemble() > (1u << raw::kThreadBits)) {
    throw Error(spec_.name, "ensemble exceeds packed-key thread capacity");
  }
  if (spec_.units == 0) status_ = meta::StepStatus::kDone;
}

void DeviceEngine::Upload(const Instance& instance) {
  problem_ = std::make_unique<DeviceProblem>(device_, instance);
  packed_best_ = std::make_unique<sim::DeviceBuffer<std::int64_t>>(device_, 1);
  if (const std::string diagnostic = PackedKeyDiagnostic(instance);
      !diagnostic.empty()) {
    throw Error(spec_.name, diagnostic.c_str());
  }
  packed_best_->Fill(raw::PackCostThread(problem_->cost_upper_bound(), 0));
}

void DeviceEngine::SeedEnsemble(
    const Instance& instance, std::uint64_t seed, bool vshape,
    std::initializer_list<sim::DeviceBuffer<JobId>*> targets) {
  Sequence vseed;
  if (vshape) vseed = VShapeSeed(instance);
  const std::vector<JobId> init = MakeInitialSequences(
      ensemble(), n_, seed, vshape ? &vseed : nullptr);
  for (sim::DeviceBuffer<JobId>* target : targets) target->CopyFromHost(init);
}

void DeviceEngine::InitDone(Clock::time_point t_start) {
  elapsed_ += std::chrono::duration<double>(Clock::now() - t_start).count();
}

void DeviceEngine::Fitness(JobId* seqs, Cost* costs, const char* kernel_name,
                           PenaltyMemory memory) {
  // Pool view over the device buffers: the same row geometry the host
  // engines evaluate through (stride == n — rows are dense on device).
  // kDevice-tagged, so the launch consumes it without staging.
  LaunchFitness(device_, *problem_, config_,
                DeviceView(seqs, costs, n_, ensemble()), kernel_name, memory);
  result_.evaluations += ensemble();
}

void DeviceEngine::Launch(const char* kernel_name,
                          const sim::KernelFn& kernel) {
  sim::LaunchOptions opts;
  opts.name = kernel_name;
  device_.Launch(config_.grid(), config_.block(), opts, kernel);
}

raw::ThreadStreams DeviceEngine::Streams(std::uint64_t seed,
                                         std::uint64_t g,
                                         raw::RngPhase phase) {
  heads_.resize(4 * std::size_t{ensemble()});
  const std::uint32_t stream_hi = raw::StreamHi(g, phase);
  rng::StreamHeads(seed, stream_hi, 0, heads_);
  return {seed, stream_hi, heads_.data()};
}

meta::StepStatus DeviceEngine::Step(std::uint64_t units) {
  if (status_ != meta::StepStatus::kRunning || units == 0) return status_;
  finish_cache_.reset();
  CDD_TRACE_SPAN(spec_.span);
  const auto t_start = Clock::now();
  const std::uint64_t end =
      next_unit_ + std::min<std::uint64_t>(units, spec_.units - next_unit_);
  for (; next_unit_ < end; ++next_unit_) {
    if (spec_.stop.stop_requested()) {
      result_.stopped = true;
      status_ = meta::StepStatus::kStopped;
      break;
    }
    RunUnit(next_unit_);
    if (spec_.trajectory_stride > 0 &&
        next_unit_ % spec_.trajectory_stride == 0) {
      std::int64_t packed = 0;
      packed_best_->CopyToHost(std::span<std::int64_t>(&packed, 1));
      result_.trajectory.push_back(raw::UnpackCost(packed));
      CDD_TRACE_COUNTER(spec_.counter, result_.trajectory.back());
    }
  }
  if (status_ == meta::StepStatus::kRunning && next_unit_ == spec_.units) {
    status_ = meta::StepStatus::kDone;
  }
  elapsed_ += std::chrono::duration<double>(Clock::now() - t_start).count();
  return status_;
}

std::uint64_t DeviceEngine::Remaining() const {
  return status_ == meta::StepStatus::kRunning ? spec_.units - next_unit_
                                               : 0;
}

Cost DeviceEngine::BestCost() const {
  // The reduction keeps the packed key current every unit; reading it is
  // host bookkeeping.
  return raw::UnpackCost(*packed_best_->data());
}

std::unique_ptr<meta::EngineCheckpoint> DeviceEngine::Checkpoint() const {
  auto cp = std::make_unique<DeviceCheckpoint>();
  cp->engine = typeid(*this);
  cp->cells = cells();
  for (const auto* b : state_.seqs) {
    cp->seqs.emplace_back(b->data(), b->data() + b->size());
  }
  for (const auto* b : state_.costs) {
    cp->costs.emplace_back(b->data(), b->data() + b->size());
  }
  if (state_.host != nullptr) cp->host = *state_.host;
  cp->packed_best = *packed_best_->data();
  cp->next_unit = next_unit_;
  cp->result = result_;
  cp->status = status_;
  cp->elapsed = elapsed_;
  cp->consumed_device = device_.sim_time_s() - clock_at_start_;
  return cp;
}

void DeviceEngine::Restore(const meta::EngineCheckpoint& checkpoint) {
  const auto* cp = dynamic_cast<const DeviceCheckpoint*>(&checkpoint);
  if (cp == nullptr || cp->engine != typeid(*this) || cp->cells != cells()) {
    throw Error(spec_.name, "foreign checkpoint");
  }
  for (std::size_t i = 0; i < state_.seqs.size(); ++i) {
    std::copy(cp->seqs[i].begin(), cp->seqs[i].end(), state_.seqs[i]->data());
  }
  for (std::size_t i = 0; i < state_.costs.size(); ++i) {
    std::copy(cp->costs[i].begin(), cp->costs[i].end(),
              state_.costs[i]->data());
  }
  if (state_.host != nullptr) *state_.host = cp->host;
  *packed_best_->data() = cp->packed_best;
  next_unit_ = cp->next_unit;
  result_ = cp->result;
  status_ = cp->status;
  elapsed_ = cp->elapsed;
  // Device time consumed after the checkpoint was speculative work that
  // the restore discards; rebase the start mark so Finish reports the
  // checkpoint's consumption plus whatever runs from here on.
  clock_at_start_ = device_.sim_time_s() - cp->consumed_device;
  finish_cache_.reset();
}

GpuRunResult DeviceEngine::FinishGpu() {
  if (finish_cache_) return *finish_cache_;
  const auto t_start = Clock::now();
  GpuRunResult result = result_;
  if (best_rows_ != nullptr) {
    std::int64_t packed = 0;
    packed_best_->CopyToHost(std::span<std::int64_t>(&packed, 1));
    result.best_cost = raw::UnpackCost(packed);
    result.best = DownloadRow(*best_rows_, n_, raw::UnpackThread(packed));
  }
  result.device_seconds = device_.sim_time_s() - clock_at_start_;
  result.wall_seconds =
      elapsed_ + std::chrono::duration<double>(Clock::now() - t_start).count();
  finish_cache_ = result;
  return result;
}

meta::EngineOutput DeviceEngine::Finish() {
  const GpuRunResult gpu = FinishGpu();
  meta::EngineOutput out;
  out.result.best = gpu.best;
  out.result.best_cost = gpu.best_cost;
  out.result.evaluations = gpu.evaluations;
  out.result.wall_seconds = gpu.wall_seconds;
  out.result.stopped = gpu.stopped;
  out.result.trajectory = gpu.trajectory;
  out.device_seconds = gpu.device_seconds;
  return out;
}

GpuRunResult DeviceEngine::RunToCompletion() {
  Step(meta::kStepAll);
  return FinishGpu();
}

}  // namespace cdd::par::detail
