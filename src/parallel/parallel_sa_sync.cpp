#include "parallel/parallel_sa_sync.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "cudasim/atomics.hpp"
#include "cudasim/memory.hpp"
#include "meta/objective.hpp"
#include "meta/temperature.hpp"
#include "parallel/detail.hpp"
#include "parallel/device_engine.hpp"
#include "parallel/kernels_raw.hpp"

namespace cdd::par {

namespace {

/// The synchronous SA on the device-engine skeleton.  Step units are
/// temperature levels.  Every level ends with the broadcast that
/// overwrites all current states, so curr/curr_cost (plus the host-tracked
/// best in the result and the packed best-ever key) are the whole ensemble
/// state; cand and the per-level buffers are scratch.  The temperature is
/// a pure function of the level index — no accumulator.
class ParallelSaSyncEngine final : public detail::DeviceEngine {
 public:
  ParallelSaSyncEngine(sim::Device& device, const Instance& instance,
                       const ParallelSaSyncParams& params)
      : DeviceEngine(device, instance, params.config,
                     {"RunParallelSaSync", "par.sa_sync",
                      params.temperature_levels, params.stop}),
        params_(params),
        curr_(device, cells()),
        cand_(device, cells()),
        broadcast_(device, static_cast<std::size_t>(n())),
        curr_cost_(device, ensemble()),
        cand_cost_(device, ensemble()),
        packed_level_(device, 1),
        distance_sum_(device, 1) {
    if (params_.pert > detail::kMaxPert) {
      throw std::invalid_argument(
          "RunParallelSaSync: pert exceeds the kernel's scratch capacity "
          "(32)");
    }
    t0_ = meta::ResolveInitialTemperature(
        params_.initial_temperature,
        meta::SequenceObjective::ForInstance(instance), params_.temp_samples,
        params_.seed);
    const auto t_start = Clock::now();
    Upload(instance);
    SeedEnsemble(instance, params_.seed, /*vshape=*/false, {&curr_});
    KeepAcrossCheckpoints({{&curr_}, {&curr_cost_}});
    Fitness(curr_.data(), curr_cost_.data(), "sync_fitness");
    InitDone(t_start);
  }

  /// The best broadcast state seen so far (tracked on the host).
  Cost BestCost() const override { return result_.best_cost; }

 private:
  void RunUnit(std::uint64_t unit) override {
    const auto level = static_cast<std::uint32_t>(unit);
    const std::uint32_t ensemble = this->ensemble();
    const std::int32_t n = this->n();
    const std::uint64_t seed = params_.seed;
    JobId* d_curr = curr_.data();
    JobId* d_cand = cand_.data();
    JobId* d_bcast = broadcast_.data();
    Cost* d_curr_cost = curr_cost_.data();
    Cost* d_cand_cost = cand_cost_.data();
    std::int64_t* d_packed_level = packed_level_.data();
    std::int64_t* d_packed_best = packed_best_->data();
    std::int64_t* d_distance = distance_sum_.data();
    const double temp = std::max(
        t0_ * std::pow(params_.mu, static_cast<double>(level)), 1e-300);

    // --- constant-temperature Markov chain of length M --------------------
    for (std::uint32_t m = 0; m < params_.chain_length; ++m) {
      const std::uint64_t g =
          static_cast<std::uint64_t>(level) * params_.chain_length + m + 1;
      detail::LaunchPerturbation(device_, config_, d_curr, d_cand, n,
                                 Streams(seed, g, raw::RngPhase::kPerturb), g,
                                 params_.pert, params_.neighborhood,
                                 params_.shuffle_period, "sync_perturbation");
      Fitness(d_cand, d_cand_cost, "sync_fitness");
      detail::LaunchAcceptance(device_, config_, d_curr, d_curr_cost, d_cand,
                               d_cand_cost, /*best=*/nullptr,
                               /*best_cost=*/nullptr, n, temp,
                               Streams(seed, g, raw::RngPhase::kAccept),
                               "sync_acceptance");
      device_.Synchronize();
    }

    // --- reduce the level's best current state ----------------------------
    packed_level_.Fill(raw::PackCostThread(problem_->cost_upper_bound(), 0));
    detail::LaunchReduction(device_, config_, d_curr_cost, d_packed_level,
                            "sync_reduction");
    // The winning thread publishes its state for the broadcast.
    Launch("sync_select", [=](sim::ThreadCtx& t) {
      const std::uint64_t tid = t.global_thread();
      if (tid >= ensemble) return;
      const std::int64_t packed = *d_packed_level;
      if (raw::UnpackThread(packed) != tid) return;
      const JobId* src = d_curr + tid * n;
      for (std::int32_t i = 0; i < n; ++i) d_bcast[i] = src[i];
      sim::AtomicMin(d_packed_best, packed);
      t.charge(static_cast<std::uint64_t>(n));
    });

    // --- optional diversity metric (before states are overwritten) --------
    if (params_.record_diversity) {
      distance_sum_.Fill(0);
      Launch("sync_diversity", [=](sim::ThreadCtx& t) {
        const std::uint64_t tid = t.global_thread();
        if (tid >= ensemble) return;
        const JobId* mine = d_curr + tid * n;
        std::int64_t dist = 0;
        for (std::int32_t i = 0; i < n; ++i) {
          dist += (mine[i] != d_bcast[i]) ? 1 : 0;
        }
        sim::AtomicAdd(d_distance, dist);
        t.charge(static_cast<std::uint64_t>(n));
      });
      std::int64_t total = 0;
      distance_sum_.CopyToHost(std::span<std::int64_t>(&total, 1));
      result_.diversity.push_back(static_cast<double>(total) /
                                  static_cast<double>(ensemble));
    }

    // --- broadcast s_min to every thread (Fig 8's state exchange) ---------
    Launch("sync_broadcast", [=](sim::ThreadCtx& t) {
      const std::uint64_t tid = t.global_thread();
      if (tid >= ensemble) return;
      const Cost best = raw::UnpackCost(*d_packed_level);
      JobId* cur = d_curr + tid * n;
      for (std::int32_t i = 0; i < n; ++i) cur[i] = d_bcast[i];
      d_curr_cost[tid] = best;
      t.charge(static_cast<std::uint64_t>(n));
    });
    device_.Synchronize();

    // Track the best-ever broadcast state on the host: later levels can
    // regress (metropolis accepts uphill moves), so the final broadcast is
    // not necessarily the best one seen.
    std::int64_t level_packed = 0;
    packed_level_.CopyToHost(std::span<std::int64_t>(&level_packed, 1));
    const Cost level_cost = raw::UnpackCost(level_packed);
    if (level_cost < result_.best_cost) {
      result_.best_cost = level_cost;
      Sequence state(static_cast<std::size_t>(n));
      broadcast_.CopyToHost(std::span<JobId>(state));
      result_.best = std::move(state);
    }
  }

  ParallelSaSyncParams params_;
  sim::DeviceBuffer<JobId> curr_;
  sim::DeviceBuffer<JobId> cand_;
  sim::DeviceBuffer<JobId> broadcast_;
  sim::DeviceBuffer<Cost> curr_cost_;
  sim::DeviceBuffer<Cost> cand_cost_;
  sim::DeviceBuffer<std::int64_t> packed_level_;
  sim::DeviceBuffer<std::int64_t> distance_sum_;
  double t0_ = 0.0;
};

}  // namespace

std::unique_ptr<meta::Engine> MakeParallelSaSyncEngine(
    sim::Device& device, const Instance& instance,
    const ParallelSaSyncParams& params) {
  return std::make_unique<ParallelSaSyncEngine>(device, instance, params);
}

GpuRunResult RunParallelSaSync(sim::Device& device, const Instance& instance,
                               const ParallelSaSyncParams& params) {
  return ParallelSaSyncEngine(device, instance, params).RunToCompletion();
}

}  // namespace cdd::par
