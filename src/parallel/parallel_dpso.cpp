#include "parallel/parallel_dpso.hpp"

#include <algorithm>
#include <chrono>
#include <span>

#include "cudasim/memory.hpp"
#include "meta/ops.hpp"
#include "parallel/detail.hpp"
#include "parallel/device_engine.hpp"
#include "parallel/kernels_raw.hpp"

namespace cdd::par {
namespace {

/// The parallel DPSO on the device-engine skeleton.  Step units are
/// generations (unit u runs generation u + 1).  The resumable state is the
/// positions, particle bests and swarm best; child/used are per-thread
/// crossover scratch ("local memory", rewritten before read).
class ParallelDpsoEngine final : public detail::DeviceEngine {
 public:
  ParallelDpsoEngine(sim::Device& device, const Instance& instance,
                     const ParallelDpsoParams& params)
      : DeviceEngine(device, instance, params.config,
                     {"RunParallelDpso", "par.dpso", params.generations,
                      params.stop, params.trajectory_stride,
                      "pdpso.best_cost"}),
        params_(params),
        pos_(device, cells()),
        pbest_(device, cells()),
        child_(device, cells()),
        used_(device, cells()),
        gbest_(device, static_cast<std::size_t>(n())),
        pos_cost_(device, ensemble()),
        pbest_cost_(device, ensemble()) {
    const auto t_start = Clock::now();
    Upload(instance);
    SeedEnsemble(instance, params_.seed, params_.vshape_init,
                 {&pos_, &pbest_});
    KeepAcrossCheckpoints(
        {{&pos_, &pbest_, &gbest_}, {&pos_cost_, &pbest_cost_}});
    SetBestRows(&pbest_);

    // Initial fitness, particle bests and swarm best.
    Fitness(pos_.data(), pos_cost_.data(), "dpso_fitness");
    const std::uint32_t ensemble = this->ensemble();
    Cost* d_pos_cost = pos_cost_.data();
    Cost* d_pbest_cost = pbest_cost_.data();
    Launch("dpso_pbest_update", [=](sim::ThreadCtx& t) {
      const std::uint64_t tid = t.global_thread();
      if (tid >= ensemble) return;
      d_pbest_cost[tid] = d_pos_cost[tid];
      t.charge(1);
    });
    PublishSwarmBest();
    InitDone(t_start);
  }

 private:
  void RunUnit(std::uint64_t unit) override {
    const std::uint64_t g = unit + 1;
    const std::uint32_t ensemble = this->ensemble();
    const std::int32_t n = this->n();
    const double w = params_.w;
    const double c1 = params_.c1;
    const double c2 = params_.c2;
    JobId* d_pos = pos_.data();
    JobId* d_pbest = pbest_.data();
    JobId* d_child = child_.data();
    std::uint8_t* d_used = used_.data();
    JobId* d_gbest = gbest_.data();
    Cost* d_pos_cost = pos_cost_.data();
    Cost* d_pbest_cost = pbest_cost_.data();

    // --- position update: Eq. (3) ----------------------------------------
    const raw::ThreadStreams streams =
        Streams(params_.seed, g, raw::RngPhase::kDpsoUpdate);
    Launch("dpso_update", [=](sim::ThreadCtx& t) {
      const std::uint64_t tid = t.global_thread();
      if (tid >= ensemble) return;
      const auto cells = static_cast<std::size_t>(n);
      const std::span<JobId> mine(d_pos + tid * n, cells);
      const std::span<JobId> child(d_child + tid * n, cells);
      const std::span<std::uint8_t> marks(d_used + tid * n, cells);
      rng::Philox4x32 rng = streams.Open(static_cast<std::uint32_t>(tid));
      // w (+) F1: swap velocity.
      if (rng.NextUniform() < w) {
        RandomSwap(mine, rng);
        t.charge(2);
      }
      // c1 (+) F2: one-point crossover with the particle best.
      if (rng.NextUniform() < c1) {
        const std::span<const JobId> pbest(d_pbest + tid * n, cells);
        meta::OnePointCrossover(mine, pbest, rng, child, marks);
        std::copy(child.begin(), child.end(), mine.begin());
        t.charge(3 * static_cast<std::uint64_t>(n));
      }
      // c2 (+) F3: two-point crossover with the swarm best.
      if (rng.NextUniform() < c2) {
        const std::span<const JobId> gbest(d_gbest, cells);
        meta::TwoPointCrossover(mine, gbest, rng, child, marks);
        std::copy(child.begin(), child.end(), mine.begin());
        t.charge(3 * static_cast<std::uint64_t>(n));
      }
      t.charge(4);
    });

    // --- fitness ----------------------------------------------------------
    Fitness(d_pos, d_pos_cost, "dpso_fitness");

    // --- particle bests ---------------------------------------------------
    Launch("dpso_pbest_update", [=](sim::ThreadCtx& t) {
      const std::uint64_t tid = t.global_thread();
      if (tid >= ensemble) return;
      if (d_pos_cost[tid] < d_pbest_cost[tid]) {
        d_pbest_cost[tid] = d_pos_cost[tid];
        const JobId* src = d_pos + tid * n;
        JobId* dst = d_pbest + tid * n;
        for (std::int32_t i = 0; i < n; ++i) dst[i] = src[i];
        t.charge(static_cast<std::uint64_t>(n));
      }
      t.charge(2);
    });
    PublishSwarmBest();
  }

  /// Reduces the particle bests into the packed key, copies the winning
  /// particle best into gbest, and fences.
  void PublishSwarmBest() {
    const std::uint32_t ensemble = this->ensemble();
    const std::int32_t n = this->n();
    JobId* d_pbest = pbest_.data();
    JobId* d_gbest = gbest_.data();
    Cost* d_pbest_cost = pbest_cost_.data();
    std::int64_t* d_packed = packed_best_->data();
    detail::LaunchReduction(device_, config_, d_pbest_cost, d_packed,
                            "dpso_reduction");
    Launch("dpso_gbest_publish", [=](sim::ThreadCtx& t) {
      const std::uint64_t tid = t.global_thread();
      if (tid >= ensemble) return;
      // Exactly one thread matches the packed key's id.
      const std::int64_t packed = *d_packed;
      if (raw::UnpackThread(packed) != tid) return;
      if (d_pbest_cost[tid] != raw::UnpackCost(packed)) return;
      const JobId* src = d_pbest + tid * n;
      for (std::int32_t i = 0; i < n; ++i) d_gbest[i] = src[i];
      t.charge(static_cast<std::uint64_t>(n));
    });
    device_.Synchronize();
  }

  ParallelDpsoParams params_;
  sim::DeviceBuffer<JobId> pos_;
  sim::DeviceBuffer<JobId> pbest_;
  sim::DeviceBuffer<JobId> child_;
  sim::DeviceBuffer<std::uint8_t> used_;
  sim::DeviceBuffer<JobId> gbest_;
  sim::DeviceBuffer<Cost> pos_cost_;
  sim::DeviceBuffer<Cost> pbest_cost_;
};

}  // namespace

std::unique_ptr<meta::Engine> MakeParallelDpsoEngine(
    sim::Device& device, const Instance& instance,
    const ParallelDpsoParams& params) {
  return std::make_unique<ParallelDpsoEngine>(device, instance, params);
}

GpuRunResult RunParallelDpso(sim::Device& device, const Instance& instance,
                             const ParallelDpsoParams& params) {
  return ParallelDpsoEngine(device, instance, params).RunToCompletion();
}

}  // namespace cdd::par
