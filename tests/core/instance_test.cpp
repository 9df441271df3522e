/// Instance construction and validation tests.

#include "core/instance.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <string>
#include <vector>

#include "common/test_instances.hpp"
#include "core/eval_cdd.hpp"
#include "core/eval_ucddcp.hpp"
#include "core/reference_eval.hpp"
#include "core/sequence.hpp"

namespace cdd {
namespace {

TEST(Instance, ParallelArrayConstructionFillsDefaults) {
  const Instance inst(Problem::kCdd, 10, {3, 4}, {1, 2}, {5, 6});
  EXPECT_EQ(inst.size(), 2u);
  EXPECT_EQ(inst.job(0).proc, 3);
  EXPECT_EQ(inst.job(0).min_proc, 3);  // defaults to P_i
  EXPECT_EQ(inst.job(0).compress, 0);
  EXPECT_EQ(inst.job(1).early, 2);
  EXPECT_EQ(inst.job(1).tardy, 6);
}

TEST(Instance, MismatchedArrayLengthsThrow) {
  EXPECT_THROW(Instance(Problem::kCdd, 10, {3, 4}, {1}, {5, 6}),
               std::invalid_argument);
  EXPECT_THROW(
      Instance(Problem::kCdd, 10, {3, 4}, {1, 2}, {5, 6}, {3}),
      std::invalid_argument);
}

TEST(Instance, TotalsAndRestrictiveness) {
  const Instance inst = cdd::testing::PaperExampleCdd();
  EXPECT_EQ(inst.total_processing_time(), 21);
  EXPECT_FALSE(inst.is_unrestricted());  // d = 16 < 21
  EXPECT_NEAR(inst.restrictiveness(), 16.0 / 21.0, 1e-12);

  const Instance ucddcp = cdd::testing::PaperExampleUcddcp();
  EXPECT_TRUE(ucddcp.is_unrestricted());  // d = 22 >= 21
  EXPECT_EQ(ucddcp.total_min_processing_time(), 18);
}

TEST(Instance, ValidateAcceptsPaperExamples) {
  EXPECT_NO_THROW(cdd::testing::PaperExampleCdd().Validate());
  EXPECT_NO_THROW(cdd::testing::PaperExampleUcddcp().Validate());
}

TEST(Instance, ValidateRejectsBadData) {
  // Processing time < 1.
  EXPECT_THROW(Instance(Problem::kCdd, 5, {0}, {1}, {1}).Validate(),
               std::invalid_argument);
  // min_proc > proc.
  EXPECT_THROW(
      Instance(Problem::kUcddcp, 50, {4}, {1}, {1}, {5}, {1}).Validate(),
      std::invalid_argument);
  // Negative penalty.
  EXPECT_THROW(Instance(Problem::kCdd, 5, {4}, {-1}, {1}).Validate(),
               std::invalid_argument);
  // Negative due date.
  EXPECT_THROW(Instance(Problem::kCdd, -1, {4}, {1}, {1}).Validate(),
               std::invalid_argument);
  // Empty instance.
  EXPECT_THROW(Instance(Problem::kCdd, 5, {}, {}, {}).Validate(),
               std::invalid_argument);
  // Restricted UCDDCP.
  EXPECT_THROW(
      Instance(Problem::kUcddcp, 3, {4}, {1}, {1}, {2}, {1}).Validate(),
      std::invalid_argument);
}

// 2^62 - 1 = 3 * 715827883 * (2^31 - 1): three jobs whose largest penalty
// is 715827883 and whose d + sum(P_i) is 2^31 - 1 sit exactly on the
// largest n * max(1, alpha, beta, gamma) * (d + sum P_i) Validate accepts.
constexpr Cost kLimitWeight = 715827883;
constexpr Time kLimitHorizon = (Time{1} << 31) - 1;
static_assert(3 * kLimitWeight * kLimitHorizon == kCostMagnitudeLimit - 1);

Instance AtTheCostLimit(Problem problem, Time extra_due = 0) {
  const std::vector<Time> proc{5, 3, 4};
  return Instance(problem, kLimitHorizon - 12 + extra_due, proc,
                  {kLimitWeight, 1, 2}, {7, kLimitWeight, 1},
                  /*min_proc=*/{2, 3, 1}, /*compress=*/{1, 2, kLimitWeight});
}

TEST(InstanceCostBound, AcceptsAnInstanceExactlyAtTheBound) {
  for (const Problem problem : {Problem::kCdd, Problem::kUcddcp}) {
    const Instance at = AtTheCostLimit(problem);
    EXPECT_NO_THROW(at.Validate());
    EXPECT_THROW(AtTheCostLimit(problem, 1).Validate(),
                 std::invalid_argument);
    // Every schedule cost of the accepted instance is exact: the O(n)
    // evaluators agree with the reference on all permutations.
    Sequence seq = IdentitySequence(3);
    do {
      const Cost cost = problem == Problem::kCdd
                            ? CddEvaluator(at).Evaluate(seq)
                            : UcddcpEvaluator(at).Evaluate(seq);
      const Cost reference = problem == Problem::kCdd
                                 ? ReferenceCddCost(at, seq)
                                 : ReferenceUcddcpCost(at, seq);
      EXPECT_GE(cost, 0);
      EXPECT_EQ(cost, reference);
    } while (std::next_permutation(seq.begin(), seq.end()));
  }
}

TEST(InstanceCostBound, RejectsTheOverflowingWireRequest) {
  // proc = [4e18, 3e18, 5], early = tardy = 9, d = 1e12: sum(P_i)
  // itself overflows a Time.
  const Instance overflowing(Problem::kCdd, 1'000'000'000'000,
                             {4'000'000'000'000'000'000,
                              3'000'000'000'000'000'000, 5},
                             {9, 9, 9}, {9, 9, 9});
  try {
    overflowing.Validate();
    FAIL() << "an instance whose costs overflow passed Validate";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("2^62"), std::string::npos)
        << e.what();
  }
}

TEST(InstanceCostBound, RejectsEveryOverflowingFactor) {
  const Cost big = Cost{1} << 61;
  // n * w overflows.
  EXPECT_THROW(Instance(Problem::kCdd, 0, {1, 1, 1, 1, 1}, {big, 0, 0, 0, 0},
                        {0, 0, 0, 0, 0})
                   .Validate(),
               std::invalid_argument);
  // (n * w) * (d + sum P) overflows.
  EXPECT_THROW(Instance(Problem::kCdd, Time{1} << 40, {1}, {1 << 23}, {1})
                   .Validate(),
               std::invalid_argument);
  // d + sum P overflows on the due date alone.
  EXPECT_THROW(Instance(Problem::kCdd, std::numeric_limits<Time>::max(), {1},
                        {0}, {0})
                   .Validate(),
               std::invalid_argument);
  // Zero penalties still bound the times: w is at least 1.
  EXPECT_THROW(Instance(Problem::kCdd, big, {big}, {0}, {0}).Validate(),
               std::invalid_argument);
  EXPECT_NO_THROW(
      Instance(Problem::kCdd, big - 1, {big}, {0}, {0}).Validate());
}

TEST(Instance, WithDueDateAndAsCdd) {
  const Instance ucddcp = cdd::testing::PaperExampleUcddcp();
  const Instance shifted = ucddcp.with_due_date(30);
  EXPECT_EQ(shifted.due_date(), 30);
  EXPECT_EQ(shifted.job(0), ucddcp.job(0));

  const Instance rigid = ucddcp.as_cdd();
  EXPECT_EQ(rigid.problem(), Problem::kCdd);
  for (std::size_t i = 0; i < rigid.size(); ++i) {
    EXPECT_EQ(rigid.job(i).min_proc, rigid.job(i).proc);
    EXPECT_EQ(rigid.job(i).compress, 0);
  }
}

TEST(Instance, SummaryMentionsProblemAndSize) {
  const std::string s = cdd::testing::PaperExampleCdd().Summary();
  EXPECT_NE(s.find("CDD"), std::string::npos);
  EXPECT_NE(s.find("n=5"), std::string::npos);
  EXPECT_NE(s.find("d=16"), std::string::npos);
}

}  // namespace
}  // namespace cdd
