#pragma once
/// \file ops.hpp
/// \brief Permutation crossover operators of the DPSO (Pan et al. [15]).
///
/// The DPSO position update (Section VII, Eq. 3) composes three operators:
///   F1 — random swap ("velocity"), provided by RandomSwap() in core,
///   F2 — one-point crossover with the particle's best position,
///   F3 — two-point crossover with the swarm's best position.
/// Both crossovers preserve permutation validity: positions taken from the
/// first parent keep their place, every remaining job enters in the order it
/// appears in the second parent.
///
/// This is the only implementation: the serial DpsoEngine and the parallel
/// DPSO's update kernel both call it.  Neither allocates; the caller owns
/// the child (n slots, not aliasing a parent) and \p used, n bytes of
/// job-mark scratch whose contents on entry do not matter.

#include <cstdint>
#include <random>
#include <span>

#include "core/sequence.hpp"

namespace cdd::meta {

/// One-point crossover: child = p1[0..cut) ++ (jobs missing, in p2 order).
/// \p cut must be in [0, n].
void OnePointCrossover(std::span<const JobId> p1, std::span<const JobId> p2,
                       std::size_t cut, std::span<JobId> child,
                       std::span<std::uint8_t> used);

/// Two-point crossover: child keeps p1[a..b) in place; positions [0, a)
/// then [b, n) are filled with the remaining jobs in p2 order.
/// Requires 0 <= a <= b <= n.
void TwoPointCrossover(std::span<const JobId> p1, std::span<const JobId> p2,
                       std::size_t a, std::size_t b, std::span<JobId> child,
                       std::span<std::uint8_t> used);

/// Randomized forms drawing the cut points uniformly from [0, n].
template <std::uniform_random_bit_generator Rng>
void OnePointCrossover(std::span<const JobId> p1, std::span<const JobId> p2,
                       Rng& rng, std::span<JobId> child,
                       std::span<std::uint8_t> used) {
  const auto n = static_cast<std::uint32_t>(p1.size());
  OnePointCrossover(p1, p2, UniformBelow(rng, n + 1), child, used);
}

template <std::uniform_random_bit_generator Rng>
void TwoPointCrossover(std::span<const JobId> p1, std::span<const JobId> p2,
                       Rng& rng, std::span<JobId> child,
                       std::span<std::uint8_t> used) {
  const auto n = static_cast<std::uint32_t>(p1.size());
  std::uint32_t a = UniformBelow(rng, n + 1);
  std::uint32_t b = UniformBelow(rng, n + 1);
  if (a > b) std::swap(a, b);
  TwoPointCrossover(p1, p2, a, b, child, used);
}

}  // namespace cdd::meta
