#include "meta/dpso.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <utility>

#include "core/candidate_pool.hpp"
#include "meta/ops.hpp"
#include "rng/philox.hpp"
#include "trace/tracer.hpp"

namespace cdd::meta {
namespace {

using Clock = std::chrono::steady_clock;

struct Particle {
  Sequence position;
  Cost cost;
  Sequence best;
  Cost best_cost;
};

/// Whole-swarm state at a generation boundary: positions, personal bests
/// and the published swarm best (inside result) plus the RNG position.
struct DpsoCheckpoint final : EngineCheckpoint {
  rng::Philox4x32 rng;
  std::vector<Particle> swarm;
  std::uint64_t generation;
  RunResult result;
  StepStatus status;
  double elapsed;

  DpsoCheckpoint(const rng::Philox4x32& rng_in, std::vector<Particle> swarm_in,
                 std::uint64_t generation_in, RunResult result_in,
                 StepStatus status_in, double elapsed_in)
      : rng(rng_in),
        swarm(std::move(swarm_in)),
        generation(generation_in),
        result(std::move(result_in)),
        status(status_in),
        elapsed(elapsed_in) {}
};

class DpsoEngine final : public Engine {
 public:
  DpsoEngine(const SequenceObjective& objective, const DpsoParams& params)
      : objective_(objective),
        params_(params),
        rng_(params.seed, /*stream=*/0xd9500ULL),
        lease_(params.pool, objective.size(), params.swarm),
        child_(objective.size()),
        used_(objective.size()) {
    const auto t_start = Clock::now();
    const std::size_t n = objective_.size();

    // Whole-swarm SoA pool: every generation stages the updated positions
    // into the pool's stride-aligned rows and issues one EvaluateBatch
    // call.  The evaluators consume no rng, so splitting "perturb all"
    // from "evaluate all" leaves the Philox stream order — and therefore
    // every result — bit-identical to the interleaved loop.
    CandidatePool& pool = *lease_;
    swarm_.resize(params_.swarm);
    for (Particle& p : swarm_) {
      p.position = RandomSequence(n, rng_);
      pool.Append(p.position);
    }
    objective_.EvaluateBatch(pool);
    for (std::size_t b = 0; b < swarm_.size(); ++b) {
      Particle& p = swarm_[b];
      p.cost = pool.costs()[b];
      ++result_.evaluations;
      p.best = p.position;
      p.best_cost = p.cost;
      if (p.best_cost < result_.best_cost) {
        result_.best_cost = p.best_cost;
        result_.best = p.best;
      }
    }
    if (params_.iterations == 0) status_ = StepStatus::kDone;
    elapsed_ += std::chrono::duration<double>(Clock::now() - t_start).count();
  }

  StepStatus Step(std::uint64_t units) override {
    if (status_ != StepStatus::kRunning || units == 0) return status_;
    CDD_TRACE_SPAN("meta.dpso");
    const auto t_start = Clock::now();
    CandidatePool& pool = *lease_;
    const std::uint64_t end =
        generation_ +
        std::min<std::uint64_t>(units, params_.iterations - generation_);
    for (; generation_ < end; ++generation_) {
      const std::uint64_t it = generation_;
      // One DPSO generation evaluates the whole swarm, so the token is
      // polled every generation rather than every kStopCheckStride.
      if (params_.stop.stop_requested()) {
        result_.stopped = true;
        status_ = StepStatus::kStopped;
        break;
      }
      pool.Clear();
      for (Particle& p : swarm_) {
        // w (+) F1: swap velocity.
        if (rng_.NextUniform() < params_.w) {
          RandomSwap(std::span<JobId>(p.position), rng_);
        }
        // c1 (+) F2: one-point crossover with the particle best.
        if (rng_.NextUniform() < params_.c1) {
          OnePointCrossover(p.position, p.best, rng_, child_, used_);
          p.position.swap(child_);
        }
        // c2 (+) F3: two-point crossover with the swarm best.  p.best and
        // result.best are read-only within a generation (personal bests
        // and g(t) update below), so staging the evaluation is order-safe.
        if (rng_.NextUniform() < params_.c2) {
          TwoPointCrossover(p.position, result_.best, rng_, child_, used_);
          p.position.swap(child_);
        }
        pool.Append(p.position);
      }
      objective_.EvaluateBatch(pool);
      for (std::size_t b = 0; b < swarm_.size(); ++b) {
        Particle& p = swarm_[b];
        p.cost = pool.costs()[b];
        ++result_.evaluations;
        if (p.cost < p.best_cost) {
          p.best_cost = p.cost;
          p.best = p.position;
        }
      }
      // Swarm best is updated once per generation (Algorithm 2 line 5), so
      // every particle of a generation sees the same g(t).
      for (const Particle& p : swarm_) {
        if (p.best_cost < result_.best_cost) {
          result_.best_cost = p.best_cost;
          result_.best = p.best;
        }
      }
      if (params_.trajectory_stride > 0 &&
          it % params_.trajectory_stride == 0) {
        result_.trajectory.push_back(result_.best_cost);
        CDD_TRACE_COUNTER("dpso.best_cost", result_.best_cost);
      }
    }
    if (status_ == StepStatus::kRunning &&
        generation_ == params_.iterations) {
      status_ = StepStatus::kDone;
    }
    elapsed_ += std::chrono::duration<double>(Clock::now() - t_start).count();
    return status_;
  }

  std::uint64_t Remaining() const override {
    return status_ == StepStatus::kRunning
               ? params_.iterations - generation_
               : 0;
  }

  Cost BestCost() const override { return result_.best_cost; }

  std::unique_ptr<EngineCheckpoint> Checkpoint() const override {
    return std::make_unique<DpsoCheckpoint>(rng_, swarm_, generation_,
                                            result_, status_, elapsed_);
  }

  void Restore(const EngineCheckpoint& checkpoint) override {
    const auto* cp = dynamic_cast<const DpsoCheckpoint*>(&checkpoint);
    if (cp == nullptr) {
      throw std::invalid_argument("DpsoEngine: foreign checkpoint");
    }
    rng_ = cp->rng;
    swarm_ = cp->swarm;
    generation_ = cp->generation;
    result_ = cp->result;
    status_ = cp->status;
    elapsed_ = cp->elapsed;
  }

  EngineOutput Finish() override {
    EngineOutput out;
    out.result = result_;
    out.result.wall_seconds = elapsed_;
    return out;
  }

 private:
  SequenceObjective objective_;
  DpsoParams params_;
  rng::Philox4x32 rng_;
  PoolLease lease_;
  // Crossover scratch, sized once: the child swaps with a particle's
  // position, so every Sequence keeps its n slots across Steps.
  Sequence child_;
  std::vector<std::uint8_t> used_;
  std::vector<Particle> swarm_;
  std::uint64_t generation_ = 0;
  RunResult result_;
  StepStatus status_ = StepStatus::kRunning;
  double elapsed_ = 0.0;
};

}  // namespace

std::unique_ptr<Engine> MakeDpsoEngine(const SequenceObjective& objective,
                                       const DpsoParams& params) {
  return std::make_unique<DpsoEngine>(objective, params);
}

RunResult RunSerialDpso(const SequenceObjective& objective,
                        const DpsoParams& params) {
  DpsoEngine engine(objective, params);
  return RunToCompletion(engine).result;
}

}  // namespace cdd::meta
