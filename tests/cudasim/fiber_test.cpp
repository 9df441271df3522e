/// Fiber substrate tests: resume/yield lifecycle, exceptions, pooling, and
/// the state a context switch must carry (stack alignment, floating-point
/// control words, host-thread migration).

#include "cudasim/fiber.hpp"

#include <gtest/gtest.h>

#include <cfenv>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/test_instances.hpp"
#include "core/candidate_pool.hpp"
#include "core/eval_cdd.hpp"
#include "core/eval_raw.hpp"
#include "core/eval_simd.hpp"

namespace cdd::sim {
namespace {

TEST(Fiber, RunsToCompletionWithoutYield) {
  Fiber fiber;
  int counter = 0;
  fiber.Reset([&]() { counter = 42; });
  EXPECT_FALSE(fiber.done());
  EXPECT_FALSE(fiber.Resume());  // returns false: body finished
  EXPECT_TRUE(fiber.done());
  EXPECT_EQ(counter, 42);
}

TEST(Fiber, YieldSuspendsAndResumes) {
  Fiber fiber;
  std::vector<int> trace;
  fiber.Reset([&]() {
    trace.push_back(1);
    fiber.Yield();
    trace.push_back(2);
    fiber.Yield();
    trace.push_back(3);
  });
  EXPECT_TRUE(fiber.Resume());
  EXPECT_EQ(trace, (std::vector<int>{1}));
  EXPECT_TRUE(fiber.Resume());
  EXPECT_EQ(trace, (std::vector<int>{1, 2}));
  EXPECT_FALSE(fiber.Resume());
  EXPECT_EQ(trace, (std::vector<int>{1, 2, 3}));
}

TEST(Fiber, InterleavesTwoFibers) {
  Fiber a;
  Fiber b;
  std::vector<char> trace;
  a.Reset([&]() {
    trace.push_back('a');
    a.Yield();
    trace.push_back('A');
  });
  b.Reset([&]() {
    trace.push_back('b');
    b.Yield();
    trace.push_back('B');
  });
  a.Resume();
  b.Resume();
  a.Resume();
  b.Resume();
  EXPECT_EQ(trace, (std::vector<char>{'a', 'b', 'A', 'B'}));
}

TEST(Fiber, ExceptionsAreCapturedAndRethrown) {
  Fiber fiber;
  fiber.Reset([]() { throw std::runtime_error("kernel exploded"); });
  EXPECT_FALSE(fiber.Resume());  // body "finished" (by throwing)
  EXPECT_THROW(fiber.RethrowIfFailed(), std::runtime_error);
  // A second rethrow is a no-op (error consumed).
  EXPECT_NO_THROW(fiber.RethrowIfFailed());
}

TEST(Fiber, IsReusableAfterCompletion) {
  Fiber fiber;
  int total = 0;
  for (int round = 0; round < 10; ++round) {
    fiber.Reset([&]() { total += round; });
    fiber.Resume();
    ASSERT_TRUE(fiber.done());
  }
  EXPECT_EQ(total, 45);
}

TEST(Fiber, ResetWhileRunningThrows) {
  Fiber fiber;
  fiber.Reset([&]() { fiber.Yield(); });
  fiber.Resume();  // suspended at the yield
  EXPECT_THROW(fiber.Reset([]() {}), std::logic_error);
}

TEST(Fiber, ResumeAfterDoneThrows) {
  Fiber fiber;
  fiber.Reset([]() {});
  fiber.Resume();
  EXPECT_THROW(fiber.Resume(), std::logic_error);
}

TEST(FiberPool, GrowsAndReuses) {
  FiberPool pool;
  auto& first = pool.Acquire(4);
  EXPECT_GE(first.size(), 4u);
  Fiber* addr = &first[0];
  auto& second = pool.Acquire(2);  // no shrink
  EXPECT_GE(second.size(), 4u);
  EXPECT_EQ(&second[0], addr);  // same fibers, reused
  auto& third = pool.Acquire(8);
  EXPECT_GE(third.size(), 8u);
}

TEST(FiberPool, ClearDropsFibers) {
  FiberPool pool;
  pool.Acquire(4);
  pool.Clear();
  auto& fresh = pool.Acquire(1);
  EXPECT_GE(fresh.size(), 1u);
}

TEST(Fiber, DeepStackUsageSurvives) {
  // Exercise a few KB of stack inside the fiber (the O(n) evaluators use
  // far less).
  Fiber fiber(128 * 1024);
  long long sum = 0;
  fiber.Reset([&]() {
    volatile char buffer[32 * 1024];
    for (std::size_t i = 0; i < sizeof buffer; ++i) {
      buffer[i] = static_cast<char>(i);
    }
    for (std::size_t i = 0; i < sizeof buffer; i += 1024) {
      sum += buffer[i];
    }
  });
  fiber.Resume();
  EXPECT_TRUE(fiber.done());
}

TEST(Fiber, BodyStackIsSixteenByteAligned) {
  Fiber fiber;
  std::uintptr_t before_yield = 1;
  std::uintptr_t after_yield = 1;
  fiber.Reset([&]() {
    alignas(16) volatile char local[16] = {};
    before_yield = reinterpret_cast<std::uintptr_t>(&local[0]) % 16;
    fiber.Yield();
    after_yield = reinterpret_cast<std::uintptr_t>(&local[0]) % 16;
  });
  fiber.Resume();
  fiber.Resume();
  EXPECT_EQ(before_yield, 0u);
  EXPECT_EQ(after_yield, 0u);
}

TEST(Fiber, BatchEvaluatorRunsOnFiberStack) {
  // Thread 0 of the fitness kernel runs the (AVX2, when the host has it)
  // batch evaluator on a fiber stack; it must agree with the scalar batch
  // run on the host stack.
  const Instance instance = testing::RandomCdd(50, 0.4, 3);
  const CddEvaluator eval(instance);
  const auto n = static_cast<std::int32_t>(instance.size());
  CandidatePool pool(instance.size(), 12);
  for (std::uint64_t b = 0; b < 12; ++b) {
    pool.Append(testing::RandomSeq(static_cast<std::uint32_t>(n), 40 + b));
  }
  const CandidatePoolView v = pool.view();
  const auto count = static_cast<std::int32_t>(v.count);
  std::vector<Cost> on_fiber(v.count, -1);
  std::vector<Cost> on_host(v.count, -2);
  Fiber fiber;
  fiber.Reset([&]() {
    raw::EvalCddBatchDispatch(n, eval.due_date(), v.seqs, v.stride, count,
                              eval.proc_data(), eval.alpha_data(),
                              eval.beta_data(), on_fiber.data());
  });
  EXPECT_FALSE(fiber.Resume());
  fiber.RethrowIfFailed();
  raw::EvalCddBatch(n, eval.due_date(), v.seqs, v.stride, count,
                    eval.proc_data(), eval.alpha_data(), eval.beta_data(),
                    on_host.data());
  EXPECT_EQ(on_fiber, on_host);
}

/// 1/3 under the current SSE rounding mode (volatile keeps it at run time).
double OneThird() {
  volatile double one = 1.0;
  volatile double three = 3.0;
  return one / three;
}

TEST(Fiber, FloatingPointControlWordsAreSwitchedPerContext) {
  const int host_mode = std::fegetround();
  const double host_third = OneThird();
  Fiber fiber;
  int fiber_mode_after_yield = -1;
  double fiber_third_up = 0.0;
  double fiber_third_after_yield = 0.0;
  fiber.Reset([&]() {
    std::fesetround(FE_UPWARD);
    fiber_third_up = OneThird();
    fiber.Yield();
    fiber_mode_after_yield = std::fegetround();
    fiber_third_after_yield = OneThird();
    std::fesetround(host_mode);
  });
  ASSERT_TRUE(fiber.Resume());
  EXPECT_EQ(std::fegetround(), host_mode);
  EXPECT_EQ(OneThird(), host_third);
  EXPECT_NE(fiber_third_up, host_third);

  // The caller's own change does not leak into the suspended fiber.
  std::fesetround(FE_DOWNWARD);
  EXPECT_FALSE(fiber.Resume());
  EXPECT_EQ(std::fegetround(), FE_DOWNWARD);
  std::fesetround(host_mode);
  EXPECT_EQ(fiber_mode_after_yield, FE_UPWARD);
  EXPECT_EQ(fiber_third_after_yield, fiber_third_up);
}

std::thread::id CurrentThreadId() { return std::this_thread::get_id(); }

TEST(Fiber, SuspendedFiberResumesOnAnotherThread) {
  // pthread_self is declared const, so a body may not re-read the thread
  // id across a yield directly: the compiler would reuse the first value.
  // An opaque call forces a fresh read.
  std::thread::id (*volatile thread_id)() = &CurrentThreadId;
  Fiber fiber;
  std::thread::id first;
  std::thread::id second;
  fiber.Reset([&]() {
    first = thread_id();
    fiber.Yield();
    second = thread_id();
  });
  ASSERT_TRUE(fiber.Resume());
  bool more = true;
  std::thread other([&]() { more = fiber.Resume(); });
  other.join();
  EXPECT_FALSE(more);
  EXPECT_TRUE(fiber.done());
  EXPECT_EQ(first, std::this_thread::get_id());
  EXPECT_NE(second, first);
}

TEST(Fiber, ExceptionAfterYieldIsRethrown) {
  Fiber fiber;
  fiber.Reset([&]() {
    fiber.Yield();
    throw std::runtime_error("after the barrier");
  });
  EXPECT_TRUE(fiber.Resume());
  EXPECT_FALSE(fiber.Resume());
  try {
    fiber.RethrowIfFailed();
    ADD_FAILURE() << "expected the body's exception";
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(std::string(e.what()), "after the barrier");
  }
  // The fiber is reusable after a failed body.
  int ran = 0;
  fiber.Reset([&]() { ran = 1; });
  EXPECT_FALSE(fiber.Resume());
  EXPECT_EQ(ran, 1);
}

TEST(Fiber, TenThousandResetResumeCycles) {
  Fiber fiber;
  long long steps = 0;
  for (int round = 0; round < 10000; ++round) {
    fiber.Reset([&]() {
      ++steps;
      fiber.Yield();
      ++steps;
    });
    ASSERT_TRUE(fiber.Resume());
    ASSERT_FALSE(fiber.Resume());
  }
  EXPECT_EQ(steps, 20000);
}

}  // namespace
}  // namespace cdd::sim
