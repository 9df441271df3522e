/// \file anneal.cpp
/// \brief The single-chain annealing engine behind serial SA (sa.hpp) and
/// Threshold Accepting (threshold.hpp).
///
/// Both are one Markov chain over (permutation, splits) candidates staged
/// in a one-row lent-or-owned pool: seed, propose, evaluate, accept,
/// track the best.  They differ only in the acceptance rule, selected at
/// compile time:
///
///   * Metropolis (SA, Algorithm 1): accept with probability
///     exp((E - E_new) / T_i) against a uniform drawn every iteration, T_i
///     from the stateless CoolingSchedule; a swap most iterations and the
///     Pert-sized shuffle every `shuffle_period`-th (NeighborhoodMode).
///   * Threshold (TA): accept iff E_new - E <= threshold, no acceptance
///     draw; the threshold starts at half the Salamon estimate and decays
///     by a running `threshold *= decay` product (part of the checkpoint:
///     a pow() would change bits); the Pert-sized shuffle every iteration.
///
/// Each rule keeps its own Philox stream, so both replay their historical
/// RNG schedules bit for bit.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <stdexcept>
#include <type_traits>
#include <utility>

#include "core/candidate_pool.hpp"
#include "meta/sa.hpp"
#include "meta/splits.hpp"
#include "meta/temperature.hpp"
#include "meta/threshold.hpp"
#include "rng/philox.hpp"
#include "trace/tracer.hpp"

namespace cdd::meta {
namespace {

using Clock = std::chrono::steady_clock;

enum class Acceptance { kMetropolis, kThreshold };

/// Probability of proposing a machine-reassignment (split-shift) move
/// instead of a sequence move on multi-machine instances.  The selection
/// uniform is drawn only when machines > 1, so single-machine runs keep
/// their exact RNG schedule.
constexpr float kReassignProb = 0.25f;

/// Full chain state at a Step boundary: the Philox value copy carries the
/// exact stream position, so resuming replays the same random draws.
/// `level` is the Metropolis T0 (constant) or the decayed threshold.
struct ChainState {
  rng::Philox4x32 rng{0};
  Sequence current;
  std::vector<std::int32_t> splits;
  Cost energy = 0;
  double level = 0.0;
  std::uint64_t iteration = 0;
  RunResult result;
  StepStatus status = StepStatus::kRunning;
  double elapsed = 0.0;
};

/// The rule is a template parameter, so an SA checkpoint is a different
/// type from a TA one and Restore rejects it.
template <Acceptance kRule>
struct ChainCheckpoint final : EngineCheckpoint {
  explicit ChainCheckpoint(ChainState s) : state(std::move(s)) {}
  ChainState state;
};

template <Acceptance kRule>
class AnnealChain final : public Engine {
  static constexpr bool kMetropolis = kRule == Acceptance::kMetropolis;
  using Params = std::conditional_t<kMetropolis, SaParams, TaParams>;
  using Checkpointed = ChainCheckpoint<kRule>;

 public:
  AnnealChain(const SequenceObjective& objective, const Params& params,
              const std::optional<Sequence>& initial)
      : objective_(objective),
        params_(params),
        machines_(objective.machines()),
        lease_(params.pool, objective.size(), /*capacity=*/1,
               static_cast<std::size_t>(objective.machines())),
        positions_(params.pert),
        values_(params.pert) {
    const auto t_start = Clock::now();
    const std::size_t n = objective_.size();
    c_.rng = rng::Philox4x32(params_.seed,
                             kMetropolis ? 0x5a5a5a5aULL : 0x7aULL);
    c_.current = initial.has_value() ? *initial : RandomSequence(n, c_.rng);
    if (machines_ > 1) {
      // Deterministic even initial assignment — no RNG draws consumed.
      c_.splits.resize(static_cast<std::size_t>(machines_ - 1));
      EvenSplits(c_.splits, n);
      c_.energy = objective_.Evaluate(c_.current, c_.splits);
    } else {
      c_.energy = objective_(c_.current);
    }
    c_.result.evaluations = 1;
    c_.result.best = c_.current;
    c_.result.best_cost = c_.energy;
    c_.result.best_splits = c_.splits;
    if constexpr (kMetropolis) {
      c_.level = ResolveInitialTemperature(params_.initial_temperature,
                                           objective_, params_.temp_samples,
                                           params_.seed);
    } else {
      c_.level = ResolveInitialTemperature(params_.initial_threshold,
                                           objective_, params_.temp_samples,
                                           params_.seed, /*scale=*/0.5);
    }
    (*lease_).AppendUninitialized();
    if (params_.iterations == 0) c_.status = StepStatus::kDone;
    c_.elapsed +=
        std::chrono::duration<double>(Clock::now() - t_start).count();
  }

  StepStatus Step(std::uint64_t units) override {
    if (c_.status != StepStatus::kRunning || units == 0) return c_.status;
    CDD_TRACE_SPAN(kMetropolis ? "meta.sa" : "meta.ta");
    const auto t_start = Clock::now();
    CandidatePool& pool = *lease_;
    const std::span<JobId> candidate = pool.row(0);
    const std::uint64_t end =
        c_.iteration +
        std::min<std::uint64_t>(units, params_.iterations - c_.iteration);
    for (; c_.iteration < end; ++c_.iteration) {
      const std::uint64_t i = c_.iteration;
      if (i % kStopCheckStride == 0 && params_.stop.stop_requested()) {
        c_.result.stopped = true;
        c_.status = StepStatus::kStopped;
        break;
      }
      Propose(pool, candidate, i);
      objective_.EvaluateBatch(pool);
      const Cost new_energy = pool.costs()[0];
      ++c_.result.evaluations;
      if (Accept(new_energy, i)) {
        c_.current.assign(candidate.begin(), candidate.end());
        if (machines_ > 1) {
          const auto splits = pool.splits_row(0);
          c_.splits.assign(splits.begin(), splits.end());
        }
        c_.energy = new_energy;
        if (c_.energy < c_.result.best_cost) {
          c_.result.best_cost = c_.energy;
          c_.result.best = c_.current;
          c_.result.best_splits = c_.splits;
        }
      }
      if constexpr (!kMetropolis) c_.level *= params_.decay;
      if (params_.trajectory_stride > 0 &&
          i % params_.trajectory_stride == 0) {
        c_.result.trajectory.push_back(c_.result.best_cost);
        // Convergence telemetry rides the existing sampling points, so the
        // trace adds no work on unsampled iterations and never touches rng.
        CDD_TRACE_COUNTER(kMetropolis ? "sa.best_cost" : "ta.best_cost",
                          c_.result.best_cost);
      }
    }
    if (c_.status == StepStatus::kRunning &&
        c_.iteration == params_.iterations) {
      c_.status = StepStatus::kDone;
    }
    c_.elapsed +=
        std::chrono::duration<double>(Clock::now() - t_start).count();
    return c_.status;
  }

  std::uint64_t Remaining() const override {
    return c_.status == StepStatus::kRunning
               ? params_.iterations - c_.iteration
               : 0;
  }

  Cost BestCost() const override { return c_.result.best_cost; }

  std::unique_ptr<EngineCheckpoint> Checkpoint() const override {
    return std::make_unique<Checkpointed>(c_);
  }

  void Restore(const EngineCheckpoint& checkpoint) override {
    const auto* cp = dynamic_cast<const Checkpointed*>(&checkpoint);
    if (cp == nullptr) {
      throw std::invalid_argument(kMetropolis
                                      ? "SaEngine: foreign checkpoint"
                                      : "TaEngine: foreign checkpoint");
    }
    c_ = cp->state;
  }

  EngineOutput Finish() override {
    EngineOutput out;
    out.result = c_.result;
    out.result.wall_seconds = c_.elapsed;
    return out;
  }

 private:
  /// Stages c_.current (and its splits) in pool row 0 and applies one move.
  void Propose(CandidatePool& pool, std::span<JobId> candidate,
               std::uint64_t i) {
    std::copy(c_.current.begin(), c_.current.end(), candidate.begin());
    if (machines_ > 1) {
      std::copy(c_.splits.begin(), c_.splits.end(),
                pool.splits_row(0).begin());
      if (c_.rng.NextUniform() <= kReassignProb) {
        SplitShift(pool.splits_row(0),
                   static_cast<std::int32_t>(c_.current.size()), c_.rng);
        return;
      }
    }
    bool shuffle = true;
    if constexpr (kMetropolis) {
      shuffle = params_.neighborhood ==
                    NeighborhoodMode::kShuffleEveryIteration ||
                i % std::max(params_.shuffle_period, 1u) == 0;
    }
    if (shuffle) {
      PartialFisherYates(candidate, params_.pert, c_.rng,
                         std::span<std::uint32_t>(positions_),
                         std::span<JobId>(values_));
    } else {
      RandomSwap(candidate, c_.rng);
    }
  }

  bool Accept(Cost new_energy, std::uint64_t i) {
    if constexpr (kMetropolis) {
      // Always accept improvements; accept uphill moves with probability
      // exp((E - E_new)/T)  (Algorithm 1, line 7).
      const CoolingSchedule schedule(params_.cooling, c_.level, params_.mu,
                                     params_.iterations);
      const double u = c_.rng.NextUniform();
      return std::exp(static_cast<double>(c_.energy - new_energy) /
                      std::max(schedule(i), 1e-300)) >= u;
    } else {
      return static_cast<double>(new_energy - c_.energy) <= c_.level;
    }
  }

  SequenceObjective objective_;
  Params params_;
  std::int32_t machines_ = 1;
  PoolLease lease_;
  std::vector<std::uint32_t> positions_;
  std::vector<JobId> values_;
  ChainState c_;
};

using SaChain = AnnealChain<Acceptance::kMetropolis>;
using TaChain = AnnealChain<Acceptance::kThreshold>;

}  // namespace

std::unique_ptr<Engine> MakeSaEngine(const SequenceObjective& objective,
                                     const SaParams& params,
                                     const std::optional<Sequence>& initial) {
  return std::make_unique<SaChain>(objective, params, initial);
}

RunResult RunSerialSa(const SequenceObjective& objective,
                      const SaParams& params,
                      const std::optional<Sequence>& initial) {
  SaChain engine(objective, params, initial);
  return RunToCompletion(engine).result;
}

std::unique_ptr<Engine> MakeTaEngine(const SequenceObjective& objective,
                                     const TaParams& params,
                                     const std::optional<Sequence>& initial) {
  return std::make_unique<TaChain>(objective, params, initial);
}

RunResult RunThresholdAccepting(const SequenceObjective& objective,
                                const TaParams& params,
                                const std::optional<Sequence>& initial) {
  TaChain engine(objective, params, initial);
  return RunToCompletion(engine).result;
}

}  // namespace cdd::meta
