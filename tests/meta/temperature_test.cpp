/// Oracle test for the Salamon initial-temperature estimate: the bulk-drawn
/// InitialTemperature must return the bit-identical double that drawing one
/// Philox output at a time gives, for every objective kind.

#include "meta/temperature.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/test_instances.hpp"
#include "core/candidate_pool.hpp"
#include "meta/splits.hpp"
#include "rng/philox.hpp"

namespace cdd::meta {
namespace {

/// The estimate as it stood before bulk Philox: the same loop, drawing
/// through Philox4x32::operator() one output at a time.
double OneDrawAtATimeTemperature(const SequenceObjective& objective,
                                 std::uint64_t samples, std::uint64_t seed) {
  rng::Philox4x32 rng(seed, /*stream=*/0x70DEADBEEFULL);
  Sequence seq = IdentitySequence(objective.size());
  // Sampling runs in pool-sized chunks: each chunk reshuffles `seq`
  // cumulatively (identical Philox consumption to the one-by-one loop) and
  // costs the whole chunk with one EvaluateBatch.  Welford's online update
  // then consumes the costs in their original sample order, so the
  // resulting temperature is bit-identical.
  constexpr std::uint64_t kChunk = 256;
  const auto machines = static_cast<std::size_t>(objective.machines());
  CandidatePool pool(objective.size(),
                     static_cast<std::size_t>(std::min(
                         std::max<std::uint64_t>(samples, 1), kChunk)),
                     machines);
  double mean = 0.0;
  double m2 = 0.0;
  std::uint64_t k = 0;
  while (k < samples) {
    pool.Clear();
    const std::uint64_t batch = std::min<std::uint64_t>(samples - k, kChunk);
    for (std::uint64_t b = 0; b < batch; ++b) {
      FisherYates(std::span<JobId>(seq), rng);
      const std::size_t row = pool.Append(seq);
      if (machines > 1) {
        // Sample the temperature over even machine assignments: the split
        // layout is deterministic, so multi-machine sampling consumes the
        // same Philox outputs as single-machine sampling.
        EvenSplits(pool.splits_row(row), objective.size());
      }
    }
    objective.EvaluateBatch(pool);
    for (std::uint64_t b = 0; b < batch; ++b) {
      ++k;
      const double value = static_cast<double>(pool.costs()[b]);
      const double delta = value - mean;
      mean += delta / static_cast<double>(k);
      m2 += delta * (value - mean);
    }
  }
  const double variance =
      samples > 1 ? m2 / static_cast<double>(samples - 1) : 0.0;
  return std::max(1.0, std::sqrt(variance));
}

enum class Variant { kCdd, kCddThreeMachines, kUcddcp, kEarlyWork };

const char* Name(Variant variant) {
  switch (variant) {
    case Variant::kCdd: return "CDD m=1";
    case Variant::kCddThreeMachines: return "CDD m=3";
    case Variant::kUcddcp: return "UCDDCP";
    case Variant::kEarlyWork: return "early-work";
  }
  return "?";
}

Instance MakeInstance(Variant variant, std::uint32_t n) {
  switch (variant) {
    case Variant::kCdd:
      return cdd::testing::RandomCdd(n, 0.4, 100 + n);
    case Variant::kCddThreeMachines:
      return cdd::testing::RandomCdd(n, 0.4, 200 + n).with_machines(3);
    case Variant::kUcddcp:
      return cdd::testing::RandomUcddcp(n, 1.2, 300 + n);
    case Variant::kEarlyWork:
      return cdd::testing::RandomCdd(n, 0.6, 400 + n)
          .with_objective(ScheduleObjective::kEarlyWork);
  }
  return cdd::testing::RandomCdd(n, 0.4, n);
}

TEST(InitialTemperatureOracle, BitIdenticalToOneDrawAtATime) {
  constexpr std::uint32_t kSizes[] = {1, 2, 3, 17, 50, 100};
  constexpr std::uint64_t kSamples[] = {0, 1, 255, 256, 257, 5000};
  constexpr std::uint64_t kSeeds[] = {0, 0x5eed, ~std::uint64_t{0}};
  for (const Variant variant :
       {Variant::kCdd, Variant::kCddThreeMachines, Variant::kUcddcp,
        Variant::kEarlyWork}) {
    for (const std::uint32_t n : kSizes) {
      // Three machines need at least three jobs.
      if (variant == Variant::kCddThreeMachines && n < 3) continue;
      const SequenceObjective objective =
          SequenceObjective::ForInstance(MakeInstance(variant, n));
      for (const std::uint64_t samples : kSamples) {
        for (const std::uint64_t seed : kSeeds) {
          const double expected =
              OneDrawAtATimeTemperature(objective, samples, seed);
          const double actual = InitialTemperature(objective, samples, seed);
          EXPECT_EQ(std::memcmp(&expected, &actual, sizeof(double)), 0)
              << Name(variant) << " n=" << n << " samples=" << samples
              << " seed=" << seed << ": " << expected << " vs " << actual;
        }
      }
    }
  }
}

}  // namespace
}  // namespace cdd::meta
