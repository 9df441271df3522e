/// Oracle test for the DPSO crossovers (Pan et al. F2/F3): every child must
/// be byte-identical to the original std::vector<bool> implementation,
/// copied verbatim below, for every cut at small n and random cuts above.

#include "meta/ops.hpp"

#include <gtest/gtest.h>

#include <cassert>
#include <cstring>
#include <vector>

#include "rng/philox.hpp"

namespace cdd::meta {
namespace {

// --- verbatim copy of the original crossovers -----------------------------
namespace oracle {

void FillFromDonor(std::span<const JobId> donor, Sequence& child,
                   std::vector<bool>& used_job,
                   std::vector<bool>& used_pos) {
  std::size_t write = 0;
  for (const JobId job : donor) {
    if (used_job[static_cast<std::size_t>(job)]) continue;
    while (write < child.size() && used_pos[write]) ++write;
    assert(write < child.size());
    child[write] = job;
    used_pos[write] = true;
    used_job[static_cast<std::size_t>(job)] = true;
  }
}

void OnePointCrossover(std::span<const JobId> p1, std::span<const JobId> p2,
                       std::size_t cut, Sequence& child) {
  const std::size_t n = p1.size();
  assert(p2.size() == n && cut <= n);
  child.resize(n);
  std::vector<bool> used_job(n, false);
  std::vector<bool> used_pos(n, false);
  for (std::size_t k = 0; k < cut; ++k) {
    child[k] = p1[k];
    used_pos[k] = true;
    used_job[static_cast<std::size_t>(p1[k])] = true;
  }
  FillFromDonor(p2, child, used_job, used_pos);
}

void TwoPointCrossover(std::span<const JobId> p1, std::span<const JobId> p2,
                       std::size_t a, std::size_t b, Sequence& child) {
  const std::size_t n = p1.size();
  assert(p2.size() == n && a <= b && b <= n);
  child.resize(n);
  std::vector<bool> used_job(n, false);
  std::vector<bool> used_pos(n, false);
  for (std::size_t k = a; k < b; ++k) {
    child[k] = p1[k];
    used_pos[k] = true;
    used_job[static_cast<std::size_t>(p1[k])] = true;
  }
  FillFromDonor(p2, child, used_job, used_pos);
}

}  // namespace oracle
// ---------------------------------------------------------------------------

constexpr std::size_t kSizes[] = {1, 2, 3, 17, 100, 257};
constexpr std::size_t kMaxExhaustiveTwoPoint = 17;
constexpr int kParentPairs = 3;
constexpr int kRandomTwoPointCuts = 2000;

bool SameBytes(const Sequence& a, const Sequence& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(JobId)) == 0;
}

/// The caller-owned child and job marks, reused across calls as the DPSO
/// engine and the update kernel reuse theirs.  Both start out dirty: the
/// crossovers must not depend on what the buffers held on entry.
struct Scratch {
  explicit Scratch(std::size_t n) : child(n, -1), marks(n, 0xA5) {}
  Sequence child;
  std::vector<std::uint8_t> marks;
};

void CheckOnePoint(const Sequence& p1, const Sequence& p2, std::size_t cut,
                   Scratch& scratch) {
  Sequence want;
  oracle::OnePointCrossover(p1, p2, cut, want);
  OnePointCrossover(p1, p2, cut, scratch.child, scratch.marks);
  ASSERT_TRUE(SameBytes(scratch.child, want))
      << "n=" << p1.size() << " cut=" << cut;
}

void CheckTwoPoint(const Sequence& p1, const Sequence& p2, std::size_t a,
                   std::size_t b, Scratch& scratch) {
  Sequence want;
  oracle::TwoPointCrossover(p1, p2, a, b, want);
  TwoPointCrossover(p1, p2, a, b, scratch.child, scratch.marks);
  ASSERT_TRUE(SameBytes(scratch.child, want))
      << "n=" << p1.size() << " a=" << a << " b=" << b;
}

TEST(CrossoverOracle, OnePointEveryCut) {
  rng::Philox4x32 rng(11, 1);
  for (const std::size_t n : kSizes) {
    Scratch scratch(n);
    for (int pair = 0; pair < kParentPairs; ++pair) {
      const Sequence p1 = RandomSequence(n, rng);
      const Sequence p2 = RandomSequence(n, rng);
      for (std::size_t cut = 0; cut <= n; ++cut) {
        CheckOnePoint(p1, p2, cut, scratch);
        CheckOnePoint(p1, p1, cut, scratch);
      }
    }
  }
}

TEST(CrossoverOracle, TwoPointEveryPairUpToSeventeenJobs) {
  rng::Philox4x32 rng(12, 2);
  for (const std::size_t n : kSizes) {
    if (n > kMaxExhaustiveTwoPoint) continue;
    Scratch scratch(n);
    for (int pair = 0; pair < kParentPairs; ++pair) {
      const Sequence p1 = RandomSequence(n, rng);
      const Sequence p2 = RandomSequence(n, rng);
      for (std::size_t a = 0; a <= n; ++a) {
        for (std::size_t b = a; b <= n; ++b) {
          CheckTwoPoint(p1, p2, a, b, scratch);
          CheckTwoPoint(p1, p1, a, b, scratch);
        }
      }
    }
  }
}

TEST(CrossoverOracle, TwoPointRandomCutsAboveSeventeenJobs) {
  rng::Philox4x32 rng(13, 3);
  for (const std::size_t n : kSizes) {
    if (n <= kMaxExhaustiveTwoPoint) continue;
    Scratch scratch(n);
    const auto bound = static_cast<std::uint32_t>(n) + 1;
    for (int pair = 0; pair < kParentPairs; ++pair) {
      const Sequence p1 = RandomSequence(n, rng);
      const Sequence p2 = RandomSequence(n, rng);
      CheckTwoPoint(p1, p2, 0, 0, scratch);
      CheckTwoPoint(p1, p2, 0, n, scratch);
      CheckTwoPoint(p1, p2, n, n, scratch);
      for (int trial = 0; trial < kRandomTwoPointCuts; ++trial) {
        std::size_t a = UniformBelow(rng, bound);
        std::size_t b = UniformBelow(rng, bound);
        if (a > b) std::swap(a, b);
        CheckTwoPoint(p1, p2, a, b, scratch);
      }
    }
  }
}

}  // namespace
}  // namespace cdd::meta
