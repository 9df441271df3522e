/// EngineRegistry: one name per engine, uniform adapters, stop tokens.

#include "serve/engine_registry.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <string>

#include "common/fn_engine.hpp"
#include "common/test_instances.hpp"
#include "core/sequence.hpp"

namespace cdd::serve {
namespace {

using cdd::testing::FnFactory;

TEST(EngineRegistry, DefaultHasAllTenEngines) {
  const std::vector<std::string> names =
      EngineRegistry::Default().Names();
  const std::vector<std::string> expected = {
      "bnb",      "dpso", "es", "host", "pdpso",
      "psa", "psa-sync", "race", "sa",  "ta"};
  EXPECT_EQ(names, expected);  // Names() is sorted
}

TEST(EngineRegistry, UnknownNameReturnsNull) {
  const EngineRegistry& registry = EngineRegistry::Default();
  EXPECT_EQ(registry.Find("SA"), nullptr);  // names are case-sensitive
  EXPECT_EQ(registry.Find("gpu"), nullptr);
  EXPECT_EQ(registry.Find(""), nullptr);
}

TEST(EngineRegistry, RegisterReplacesAndFinds) {
  EngineRegistry registry;
  int calls = 0;
  registry.RegisterFactory(
      "x", FnFactory([&calls](const Instance&, const EngineOptions&) {
        ++calls;
        return EngineRun{};
      }));
  const EngineFn* fn = registry.Find("x");
  ASSERT_NE(fn, nullptr);
  (*fn)(cdd::testing::PaperExampleCdd(), EngineOptions{});
  EXPECT_EQ(calls, 1);

  registry.RegisterFactory(
      "x", FnFactory([](const Instance&, const EngineOptions&) {
        return EngineRun{};
      }));
  (*registry.Find("x"))(cdd::testing::PaperExampleCdd(), EngineOptions{});
  EXPECT_EQ(calls, 1);  // replaced, old adapter not called again
}

TEST(EngineRegistry, EveryEngineSolvesASmallInstance) {
  const Instance instance = cdd::testing::RandomCdd(10, 0.6, 17);
  const EngineRegistry& registry = EngineRegistry::Default();

  EngineOptions options;
  options.generations = 50;
  options.seed = 5;
  options.ensemble = 32;  // keep the simulated-GPU engines cheap
  options.block = 16;
  options.chains = 4;
  options.threads = 1;

  for (const std::string& name : registry.Names()) {
    const EngineFn* engine = registry.Find(name);
    ASSERT_NE(engine, nullptr) << name;
    const EngineRun run = (*engine)(instance, options);
    EXPECT_NO_THROW(ValidateSequence(run.result.best, 10)) << name;
    EXPECT_GE(run.result.best_cost, 0) << name;
    EXPECT_GT(run.result.evaluations, 0u) << name;
    EXPECT_FALSE(run.result.stopped) << name;
    // Simulated-GPU engines report modeled device time, host engines 0.
    const bool gpu =
        name == "psa" || name == "pdpso" || name == "psa-sync";
    if (gpu) {
      EXPECT_GT(run.device_seconds, 0.0) << name;
    } else {
      EXPECT_DOUBLE_EQ(run.device_seconds, 0.0) << name;
    }
  }
}

TEST(EngineRegistry, DeviceEnginesRejectCostsBeyondThePackedKeyRange) {
  // Validate-accepted (n * w * (d + sum P) = 2^62 - 1), but its cost bound
  // is far past par::raw::kMaxPackableCost = 2^42.
  const Instance wide(Problem::kCdd, /*d=*/(Time{1} << 31) - 13, {5, 3, 4},
                      {715827883, 1, 2}, {7, 715827883, 1});
  ASSERT_NO_THROW(wide.Validate());
  const Instance small = cdd::testing::RandomCdd(12, 0.6, 5);
  for (const char* engine : {"psa", "pdpso", "psa-sync"}) {
    SCOPED_TRACE(engine);
    EXPECT_FALSE(EngineSupportsInstance(engine, wide));
    EXPECT_TRUE(EngineSupportsInstance(engine, small));
    try {
      RequireEngineSupports(engine, wide);
      ADD_FAILURE() << "no rejection";
    } catch (const std::invalid_argument& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("engine '" + std::string(engine) + "'"),
                std::string::npos)
          << what;
      EXPECT_NE(what.find("packed reduction key range"), std::string::npos)
          << what;
    }
    // The engine's own construction shares the check.
    EngineOptions options;
    options.generations = 1;
    EXPECT_THROW((*EngineRegistry::Default().Find(engine))(wide, options),
                 std::invalid_argument);
  }
  for (const char* engine : {"sa", "ta", "dpso", "es", "host", "bnb"}) {
    EXPECT_NO_THROW(RequireEngineSupports(engine, wide)) << engine;
  }

  // A race is judged by its pinned contenders; unpinned, the bandit prior
  // ranks serial engines only.
  EngineOptions race;
  EXPECT_NO_THROW(RequireEngineSupports("race", wide, race));
  race.portfolio = "sa,ta";
  EXPECT_NO_THROW(RequireEngineSupports("race", wide, race));
  race.portfolio = "sa,pdpso";
  EXPECT_FALSE(EngineSupportsInstance("race", wide, race));
  EXPECT_NE(EngineSupportDiagnostic("race", wide, race)
                .find("race contender engine 'pdpso'"),
            std::string::npos);
  EXPECT_THROW(RequireEngineSupports("race", wide, race),
               std::invalid_argument);
  EXPECT_TRUE(EngineSupportsInstance("race", small, race));
}

TEST(EngineRegistry, AdapterIsDeterministicPerSeed) {
  const Instance instance = cdd::testing::RandomCdd(12, 0.4, 23);
  const EngineFn* sa = EngineRegistry::Default().Find("sa");
  ASSERT_NE(sa, nullptr);
  EngineOptions options;
  options.generations = 200;
  options.seed = 9;
  const EngineRun a = (*sa)(instance, options);
  const EngineRun b = (*sa)(instance, options);
  EXPECT_EQ(a.result.best, b.result.best);
  EXPECT_EQ(a.result.best_cost, b.result.best_cost);
}

TEST(EngineRegistry, StopTokenTruncatesARun) {
  // A pre-stopped token must end the run far short of its budget while
  // still returning a valid best-so-far sequence.
  const Instance instance = cdd::testing::RandomCdd(30, 0.6, 31);
  StopSource source;
  source.RequestStop();

  EngineOptions options;
  options.generations = 2'000'000;  // would take far too long if honored
  options.stop = source.token();

  for (const std::string& name : {std::string("sa"), std::string("ta"),
                                  std::string("dpso"), std::string("es")}) {
    const EngineFn* engine = EngineRegistry::Default().Find(name);
    ASSERT_NE(engine, nullptr) << name;
    const EngineRun run = (*engine)(instance, options);
    EXPECT_TRUE(run.result.stopped) << name;
    EXPECT_NO_THROW(ValidateSequence(run.result.best, 30)) << name;
    EXPECT_LT(run.result.evaluations, options.generations) << name;
  }
}

}  // namespace
}  // namespace cdd::serve
