#pragma once
/// \file temperature.hpp
/// \brief Initial-temperature selection for Simulated Annealing.
///
/// The paper takes T_0 as the standard deviation of the fitness of 5000
/// random job sequences, following Salamon, Sibani & Frost [13]
/// (Section VI).  The same procedure seeds both the serial and the
/// GPU-parallel SA so their temperature ladders are comparable.

#include <cstdint>

#include "meta/objective.hpp"

namespace cdd::meta {

/// Standard deviation of the objective over \p samples uniformly random
/// sequences, drawn with a Philox stream derived from \p seed.
/// Returns at least 1.0 so the metropolis rule never divides by zero on
/// degenerate instances (e.g. all penalties equal).
double InitialTemperature(const SequenceObjective& objective,
                          std::uint64_t samples = 5000,
                          std::uint64_t seed = 0x5eed);

/// The starting temperature (or threshold) of the SA-family engines:
/// \p given when positive, otherwise \p scale times the Salamon estimate
/// InitialTemperature(objective, samples, seed).  TA starts from half the
/// estimate (scale 0.5); every SA variant uses it as is.
double ResolveInitialTemperature(double given,
                                 const SequenceObjective& objective,
                                 std::uint64_t samples, std::uint64_t seed,
                                 double scale = 1.0);

}  // namespace cdd::meta
