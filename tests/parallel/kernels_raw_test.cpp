/// Raw device-function helper tests: the perturbation and the DPSO
/// crossovers on per-thread raw buffers, RNG stream layout, packed
/// reduction keys.

#include "parallel/kernels_raw.hpp"

#include <gtest/gtest.h>

#include <set>
#include <span>
#include <vector>

#include "core/sequence.hpp"
#include "meta/ops.hpp"
#include "parallel/launch_config.hpp"

namespace cdd::par::raw {
namespace {

// The perturbation kernel calls core's allocation-free partial
// Fisher–Yates on a raw device row with stack scratch, as below.

TEST(PerturbRaw, ProducesPermutationsAndBoundedChanges) {
  rng::Philox4x32 rng(1, 2);
  std::uint32_t positions[8];
  JobId values[8];
  for (int trial = 0; trial < 200; ++trial) {
    Sequence seq = IdentitySequence(25);
    JobId* row = seq.data();
    PartialFisherYates(std::span<JobId>(row, 25), 4, rng, positions, values);
    ASSERT_TRUE(IsPermutation(seq));
    std::size_t changed = 0;
    for (std::size_t i = 0; i < seq.size(); ++i) {
      if (seq[i] != static_cast<JobId>(i)) ++changed;
    }
    EXPECT_LE(changed, 4u);
  }
}

TEST(PerturbRaw, ClampsPertAndHandlesTinySequences) {
  rng::Philox4x32 rng(3, 4);
  std::uint32_t positions[8];
  JobId values[8];
  Sequence one = IdentitySequence(1);
  PartialFisherYates(std::span<JobId>(one.data(), 1), 4, rng, positions,
                     values);
  EXPECT_EQ(one, IdentitySequence(1));
  Sequence three = IdentitySequence(3);
  PartialFisherYates(std::span<JobId>(three.data(), 3), 8, rng, positions,
                     values);
  EXPECT_TRUE(IsPermutation(three));
}

// The pdpso update kernel calls meta's crossovers on raw per-thread
// buffers: the child row and n bytes of job marks, as below.

TEST(CrossoverRaw, OnePointMatchesSpecification) {
  const Sequence p1{0, 1, 2, 3, 4};
  const Sequence p2{4, 3, 2, 1, 0};
  Sequence child(5);
  std::uint8_t used[5];
  meta::OnePointCrossover(p1, p2, 2, child, used);
  EXPECT_EQ(child, (Sequence{0, 1, 4, 3, 2}));
  meta::OnePointCrossover(p1, p2, 0, child, used);
  EXPECT_EQ(child, p2);
  meta::OnePointCrossover(p1, p2, 5, child, used);
  EXPECT_EQ(child, p1);
}

TEST(CrossoverRaw, TwoPointMatchesSpecification) {
  const Sequence p1{0, 1, 2, 3, 4};
  const Sequence p2{4, 3, 2, 1, 0};
  Sequence child(5);
  std::uint8_t used[5];
  meta::TwoPointCrossover(p1, p2, 1, 3, child, used);
  EXPECT_EQ(child, (Sequence{4, 1, 2, 3, 0}));
  meta::TwoPointCrossover(p1, p2, 0, 0, child, used);
  EXPECT_EQ(child, p2);
  meta::TwoPointCrossover(p1, p2, 0, 5, child, used);
  EXPECT_EQ(child, p1);
}

TEST(CrossoverRaw, AlwaysPermutationsUnderRandomCuts) {
  rng::Philox4x32 rng(7, 8);
  for (const std::int32_t n : {2, 5, 17, 60}) {
    Sequence p1 = RandomSequence(static_cast<std::size_t>(n), rng);
    Sequence p2 = RandomSequence(static_cast<std::size_t>(n), rng);
    Sequence child(static_cast<std::size_t>(n));
    std::vector<std::uint8_t> used(static_cast<std::size_t>(n));
    for (int trial = 0; trial < 50; ++trial) {
      const std::uint32_t cut =
          UniformBelow(rng, static_cast<std::uint32_t>(n) + 1);
      meta::OnePointCrossover(p1, p2, cut, child, used);
      ASSERT_TRUE(IsPermutation(child)) << "1pt n=" << n;
      std::uint32_t a = UniformBelow(rng, static_cast<std::uint32_t>(n) + 1);
      std::uint32_t b = UniformBelow(rng, static_cast<std::uint32_t>(n) + 1);
      if (a > b) std::swap(a, b);
      meta::TwoPointCrossover(p1, p2, a, b, child, used);
      ASSERT_TRUE(IsPermutation(child)) << "2pt n=" << n;
    }
  }
}

TEST(RngStreams, DisjointAcrossGenerationPhaseThread) {
  // Distinct (generation, phase, thread) triples yield distinct first
  // outputs with overwhelming probability.
  std::set<std::uint32_t> seen;
  int count = 0;
  for (std::uint64_t g = 0; g < 4; ++g) {
    for (const RngPhase phase : {RngPhase::kInit, RngPhase::kPerturb,
                                 RngPhase::kAccept, RngPhase::kDpsoUpdate}) {
      for (std::uint32_t t = 0; t < 16; ++t) {
        rng::Philox4x32 rng = MakeStream(42, g, phase, t);
        seen.insert(rng());
        ++count;
      }
    }
  }
  EXPECT_EQ(static_cast<int>(seen.size()), count);
}

TEST(RngStreams, ThreadStreamIndependentOfEnsembleSize) {
  // The inclusion property's foundation: stream of thread t is a function
  // of (seed, generation, phase, t) only.
  rng::Philox4x32 a = MakeStream(9, 5, RngPhase::kPerturb, 3);
  rng::Philox4x32 b = MakeStream(9, 5, RngPhase::kPerturb, 3);
  for (int i = 0; i < 64; ++i) EXPECT_EQ(a(), b());
}

TEST(RngStreams, ThreadStreamsOpenTheMakeStreamStreams) {
  // The kernels open their streams from bulk-drawn heads; each must be
  // MakeStream's stream, also where generation * kRngPhases + phase no
  // longer fits the stream id's high word.
  for (const std::uint64_t g : {std::uint64_t{1}, std::uint64_t{1} << 31}) {
    for (const RngPhase phase : {RngPhase::kPerturb, RngPhase::kAccept,
                                 RngPhase::kDpsoUpdate}) {
      std::vector<std::uint32_t> heads(4 * 40);
      rng::StreamHeads(77, StreamHi(g, phase), 0, heads);
      const ThreadStreams streams{77, StreamHi(g, phase), heads.data()};
      for (std::uint32_t t = 0; t < 40; ++t) {
        rng::Philox4x32 opened = streams.Open(t);
        rng::Philox4x32 made = MakeStream(77, g, phase, t);
        for (int draw = 0; draw < 9; ++draw) {
          ASSERT_EQ(opened(), made()) << "g " << g << " t " << t;
        }
      }
    }
  }
}

TEST(PackedKeys, RoundTripAndOrdering) {
  const std::int64_t k1 = PackCostThread(100, 7);
  EXPECT_EQ(UnpackCost(k1), 100);
  EXPECT_EQ(UnpackThread(k1), 7u);
  // Lower cost always wins regardless of thread id.
  EXPECT_LT(PackCostThread(99, 1 << 19), PackCostThread(100, 0));
  // Equal costs: lower thread id wins (deterministic tie-break).
  EXPECT_LT(PackCostThread(100, 3), PackCostThread(100, 9));
  // Boundary cost still round-trips.
  const Cost big = kMaxPackableCost - 1;
  EXPECT_EQ(UnpackCost(PackCostThread(big, 0)), big);
}

TEST(LaunchConfig, ForEnsembleRoundsUpToWholeBlocks) {
  const LaunchConfig c1 = LaunchConfig::ForEnsemble(768, 192);
  EXPECT_EQ(c1.blocks, 4u);
  EXPECT_EQ(c1.ensemble(), 768u);
  const LaunchConfig c2 = LaunchConfig::ForEnsemble(100, 64);
  EXPECT_EQ(c2.blocks, 2u);
  EXPECT_EQ(c2.ensemble(), 128u);  // rounded up
  const LaunchConfig c3 = LaunchConfig::ForEnsemble(0, 0);
  EXPECT_GE(c3.ensemble(), 1u);
}

}  // namespace
}  // namespace cdd::par::raw
