/// \file bench_race.cpp
/// \brief Experiment: time-to-target of the racing portfolio vs its solo
/// contenders on the Biskup–Feldmann sweep.
///
/// For every sweep instance the bench first runs each contender to its
/// full generation budget to establish the best-known cost, sets the
/// target at a small tolerance above it, then measures — for every solo
/// engine and for `race` over the same pinned portfolio — the wall-clock
/// time until the best-so-far cost first reaches the target.  Engines are
/// driven through the resumable Step interface, so the best-so-far poll
/// costs nothing beyond the slice granularity.
///
///   bench_race [--sizes 20,40,60,100] [--indices 2] [--gens 1500]
///              [--seed 1] [--h 0.6] [--portfolio sa,ta,dpso]
///              [--race-slice 16] [--slice 16] [--tol-pct 2]
///              [--save PATH] [--smoke]
///
/// The interesting comparison is race vs the *median* solo engine: a
/// portfolio cannot beat an oracle that always picks the winner, but it
/// must beat the engine you'd pick by luck.  The bench exits nonzero when
/// race loses to the median on more than half the instances.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "benchutil/cli.hpp"
#include "benchutil/table.hpp"
#include "meta/engine.hpp"
#include "orlib/biskup_feldmann.hpp"
#include "serve/engine_registry.hpp"

namespace {

using namespace cdd;

std::vector<std::string> SplitNames(const std::string& csv) {
  std::vector<std::string> names;
  std::istringstream in(csv);
  std::string item;
  while (std::getline(in, item, ',')) {
    if (!item.empty()) names.push_back(item);
  }
  return names;
}

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Steps a fresh engine until its best-so-far reaches \p target or the
/// budget runs out; returns seconds to target, or +inf when unreached.
double TimeToTarget(const serve::EngineFactory& factory,
                    const Instance& instance,
                    const serve::EngineOptions& options, Cost target,
                    std::uint64_t slice) {
  const std::unique_ptr<meta::Engine> engine = factory(instance, options);
  const double t0 = Now();
  for (;;) {
    if (engine->BestCost() <= target) return Now() - t0;
    if (engine->Step(slice) != meta::StepStatus::kRunning) break;
  }
  return engine->BestCost() <= target
             ? Now() - t0
             : std::numeric_limits<double>::infinity();
}

std::string FmtMs(double seconds) {
  if (seconds == std::numeric_limits<double>::infinity()) return "-";
  return benchutil::FmtDouble(seconds * 1e3, 2);
}

}  // namespace

int main(int argc, char** argv) {
  const benchutil::Args args(argc, argv);
  if (args.GetBool("help")) {
    std::cout << "Time-to-target: race vs solo contenders on the "
                 "Biskup-Feldmann sweep.\n"
                 "Flags: --sizes list --indices K --gens G --seed S --h H "
                 "--portfolio A,B,C --race-slice N --slice N --tol-pct P "
                 "--save PATH --smoke\n";
    return 0;
  }
  const bool smoke = args.GetBool("smoke");
  const std::vector<std::uint32_t> sizes = args.GetUintList(
      "sizes", smoke ? std::vector<std::uint32_t>{20, 40}
                     : std::vector<std::uint32_t>{20, 40, 60, 100});
  const auto indices = static_cast<std::uint32_t>(
      args.GetInt("indices", smoke ? 1 : 2));
  const auto gens = static_cast<std::uint64_t>(
      args.GetInt("gens", smoke ? 400 : 1500));
  const auto seed = static_cast<std::uint64_t>(args.GetInt("seed", 1));
  const double h = args.GetDouble("h", 0.6);
  const std::string portfolio =
      args.GetString("portfolio", "sa,ta,dpso");
  const auto race_slice =
      static_cast<std::uint64_t>(args.GetInt("race-slice", 16));
  const auto slice = static_cast<std::uint64_t>(args.GetInt("slice", 16));
  const auto tol_pct = args.GetInt("tol-pct", 2);
  const std::string save_path = args.GetString("save", "");

  const std::vector<std::string> solos = SplitNames(portfolio);
  if (solos.size() < 2) {
    std::cerr << "error: --portfolio needs at least two contenders\n";
    return 1;
  }
  const serve::EngineRegistry& registry = serve::EngineRegistry::Default();
  std::vector<const serve::EngineFactory*> solo_factories;
  for (const std::string& name : solos) {
    const serve::EngineFactory* factory = registry.FindFactory(name);
    if (factory == nullptr) {
      std::cerr << "error: unknown contender '" << name << "'\n";
      return 1;
    }
    solo_factories.push_back(factory);
  }
  const serve::EngineFactory* race_factory = registry.FindFactory("race");

  std::ostringstream report;
  report << "=== Time-to-target: race(" << portfolio
         << ") vs solo contenders (gens=" << gens << ", target=best-known"
         << "+" << tol_pct << "%" << (smoke ? ", smoke" : "") << ") ===\n";
  std::vector<std::string> header{"instance", "best", "target"};
  for (const std::string& name : solos) header.push_back(name + " [ms]");
  header.insert(header.end(),
                {"median [ms]", "race [ms]", "race<=median"});
  benchutil::TextTable table(header);

  std::size_t instances = 0;
  std::size_t race_wins = 0;
  const orlib::BiskupFeldmannGenerator gen(seed);
  for (const std::uint32_t n : sizes) {
    for (std::uint32_t index = 0; index < indices; ++index) {
      const Instance instance = gen.Cdd(n, index, h);

      serve::EngineOptions options;
      options.generations = gens;
      options.seed = seed;

      // Best-known within budget: the cheapest cost any contender finds
      // when allowed to run out its full generation budget.
      Cost best_known = std::numeric_limits<Cost>::max();
      for (const serve::EngineFactory* factory : solo_factories) {
        std::unique_ptr<meta::Engine> engine =
            (*factory)(instance, options);
        best_known = std::min(
            best_known, meta::RunToCompletion(*engine).result.best_cost);
      }
      const Cost target =
          best_known + (best_known * static_cast<Cost>(tol_pct)) / 100;

      std::vector<double> solo_seconds;
      for (const serve::EngineFactory* factory : solo_factories) {
        solo_seconds.push_back(
            TimeToTarget(*factory, instance, options, target, slice));
      }
      std::vector<double> sorted = solo_seconds;
      std::sort(sorted.begin(), sorted.end());
      const double median = sorted[sorted.size() / 2];

      serve::EngineOptions race_options = options;
      race_options.portfolio = portfolio;
      race_options.race_slice = race_slice;
      // The race's Step unit is one scheduling round; one round per poll.
      const double race_seconds = TimeToTarget(
          *race_factory, instance, race_options, target, 1);

      const bool win = race_seconds <= median;
      race_wins += win ? 1 : 0;
      ++instances;

      std::ostringstream label;
      label << "n" << n << "-k" << index;
      std::vector<std::string> row{label.str(), std::to_string(best_known),
                                   std::to_string(target)};
      for (const double s : solo_seconds) row.push_back(FmtMs(s));
      row.insert(row.end(),
                 {FmtMs(median), FmtMs(race_seconds), win ? "yes" : "NO"});
      table.AddRow(row);
    }
  }

  report << table.ToString() << "\nrace reached the target no later than "
         << "the median solo contender on " << race_wins << "/" << instances
         << " instances ('-' marks a contender that never reached it).\n";
  std::cout << report.str();

  if (!save_path.empty()) {
    std::ofstream out(save_path);
    if (!out) {
      std::cerr << "error: cannot write " << save_path << "\n";
      return 1;
    }
    out << report.str();
    std::cout << "wrote " << save_path << "\n";
  }

  if (race_wins * 2 < instances) {
    std::cerr << "FAIL: race lost to the median solo contender on more "
                 "than half the instances\n";
    return 1;
  }
  return 0;
}
