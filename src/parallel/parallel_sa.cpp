#include "parallel/parallel_sa.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>

#include "cudasim/memory.hpp"
#include "meta/objective.hpp"
#include "meta/temperature.hpp"
#include "parallel/detail.hpp"
#include "parallel/device_engine.hpp"
#include "parallel/kernels_raw.hpp"

namespace cdd::par {

namespace {

/// The asynchronous SA on the device-engine skeleton.  Step units are
/// generations (1-based in Figure 7: unit u runs generation u + 1).  The
/// resumable state is the current and personal-best ensembles plus the
/// host temperature accumulator; cand/cand_cost are per-generation scratch.
class ParallelSaEngine final : public detail::DeviceEngine {
 public:
  ParallelSaEngine(sim::Device& device, const Instance& instance,
                   const ParallelSaParams& params)
      : DeviceEngine(device, instance, params.config,
                     {"RunParallelSa", "par.sa", params.generations,
                      params.stop, params.trajectory_stride,
                      "psa.best_cost"}),
        params_(params),
        curr_(device, cells()),
        cand_(device, cells()),
        best_seq_(device, cells()),
        curr_cost_(device, ensemble()),
        cand_cost_(device, ensemble()),
        best_cost_(device, ensemble()) {
    if (params_.pert > detail::kMaxPert) {
      throw std::invalid_argument(
          "RunParallelSa: pert exceeds the kernel's scratch capacity (32)");
    }
    // The Salamon rule (Section VI) runs on the host before any upload.
    temperature_ = meta::ResolveInitialTemperature(
        params_.initial_temperature,
        meta::SequenceObjective::ForInstance(instance), params_.temp_samples,
        params_.seed);
    const auto t_start = Clock::now();
    Upload(instance);
    SeedEnsemble(instance, params_.seed, params_.vshape_init,
                 {&curr_, &best_seq_});
    KeepAcrossCheckpoints(
        {{&curr_, &best_seq_}, {&curr_cost_, &best_cost_}, &temperature_});
    SetBestRows(&best_seq_);

    // Initial fitness of the uploaded ensemble, then seed the per-thread
    // bests from the initial states.
    Fitness(curr_.data(), curr_cost_.data(), "sa_fitness",
            params_.penalty_memory);
    const std::uint32_t ensemble = this->ensemble();
    Cost* d_curr_cost = curr_cost_.data();
    Cost* d_best_cost = best_cost_.data();
    Launch("sa_seed_best", [=](sim::ThreadCtx& t) {
      const std::uint64_t tid = t.global_thread();
      if (tid >= ensemble) return;
      d_best_cost[tid] = d_curr_cost[tid];
      t.charge(1);
    });
    InitDone(t_start);
  }

 private:
  void RunUnit(std::uint64_t unit) override {
    const std::uint64_t g = unit + 1;
    const std::int32_t n = this->n();
    const std::uint64_t seed = params_.seed;
    JobId* d_curr = curr_.data();
    JobId* d_cand = cand_.data();
    JobId* d_best = best_seq_.data();
    Cost* d_curr_cost = curr_cost_.data();
    Cost* d_cand_cost = cand_cost_.data();
    Cost* d_best_cost = best_cost_.data();

    // --- kernel 1: perturbation (Section VI-B) ---------------------------
    detail::LaunchPerturbation(device_, config_, d_curr, d_cand, n,
                               Streams(seed, g, raw::RngPhase::kPerturb), g,
                               params_.pert, params_.neighborhood,
                               params_.shuffle_period, "sa_perturbation");

    // --- kernel 2: fitness (Section VI-A) --------------------------------
    Fitness(d_cand, d_cand_cost, "sa_fitness", params_.penalty_memory);

    // --- kernel 3: acceptance (Section VI-C) -----------------------------
    detail::LaunchAcceptance(device_, config_, d_curr, d_curr_cost, d_cand,
                             d_cand_cost, d_best, d_best_cost, n,
                             std::max(temperature_, 1e-300),
                             Streams(seed, g, raw::RngPhase::kAccept),
                             "sa_acceptance");

    // --- kernel 4: reduction (Section VI-D) ------------------------------
    detail::LaunchReduction(device_, config_, d_best_cost,
                            packed_best_->data(), "sa_reduction",
                            params_.reduction);

    // All four launches are queued; the host fences once per generation.
    device_.Synchronize();
    temperature_ *= params_.mu;
  }

  ParallelSaParams params_;
  sim::DeviceBuffer<JobId> curr_;
  sim::DeviceBuffer<JobId> cand_;
  sim::DeviceBuffer<JobId> best_seq_;
  sim::DeviceBuffer<Cost> curr_cost_;
  sim::DeviceBuffer<Cost> cand_cost_;
  sim::DeviceBuffer<Cost> best_cost_;
  double temperature_ = 0.0;
};

}  // namespace

std::unique_ptr<meta::Engine> MakeParallelSaEngine(
    sim::Device& device, const Instance& instance,
    const ParallelSaParams& params) {
  return std::make_unique<ParallelSaEngine>(device, instance, params);
}

GpuRunResult RunParallelSa(sim::Device& device, const Instance& instance,
                           const ParallelSaParams& params) {
  return ParallelSaEngine(device, instance, params).RunToCompletion();
}

}  // namespace cdd::par
