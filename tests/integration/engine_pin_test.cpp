/// Bit-identity pins for the single-chain host engines (sa, ta) and the
/// three simulated-device engines (psa, psa-sync, pdpso).
///
/// Every case runs one engine on a seeded Biskup–Feldmann instance and
/// renders everything the run is contractually fixed on — best cost,
/// best sequence and splits, evaluation count, trajectory, diversity
/// series, the exact bit pattern of the modeled device time, and the
/// per-kernel launch counts, work units and modeled times the profiler
/// saw — into one canonical text.  The expected texts below were captured
/// from the engines as they stood before their shared lifecycles were
/// factored out; a refactor of those engines must reproduce them exactly.
/// A mismatch prints the observed text in full after the diff.

#include <bit>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/instance.hpp"
#include "cudasim/device.hpp"
#include "meta/engine.hpp"
#include "meta/objective.hpp"
#include "meta/sa.hpp"
#include "meta/threshold.hpp"
#include "orlib/biskup_feldmann.hpp"
#include "parallel/parallel_dpso.hpp"
#include "parallel/parallel_sa.hpp"
#include "parallel/parallel_sa_sync.hpp"

namespace cdd {
namespace {

std::string Bits(double v) {
  char buf[32];
  std::snprintf(
      buf, sizeof(buf), "0x%016llx",
      static_cast<unsigned long long>(std::bit_cast<std::uint64_t>(v)));
  return buf;
}

template <typename Range>
std::string Join(const Range& values) {
  std::ostringstream os;
  bool first = true;
  for (const auto& v : values) {
    if (!first) os << ' ';
    os << v;
    first = false;
  }
  return os.str();
}

std::string Fingerprint(const meta::RunResult& r) {
  std::ostringstream os;
  os << "best_cost " << r.best_cost << '\n'
     << "best " << Join(r.best) << '\n'
     << "splits " << Join(r.best_splits) << '\n'
     << "evaluations " << r.evaluations << '\n'
     << "trajectory " << Join(r.trajectory) << '\n';
  return os.str();
}

std::string Fingerprint(const par::GpuRunResult& r,
                        const sim::Device& device) {
  std::vector<std::string> diversity;
  for (const double d : r.diversity) diversity.push_back(Bits(d));
  std::ostringstream os;
  os << "best_cost " << r.best_cost << '\n'
     << "best " << Join(r.best) << '\n'
     << "evaluations " << r.evaluations << '\n'
     << "trajectory " << Join(r.trajectory) << '\n'
     << "diversity " << Join(diversity) << '\n'
     << "device_seconds " << Bits(r.device_seconds) << '\n';
  for (const auto& [name, k] : device.profiler().kernels()) {
    os << "kernel " << name << " launches " << k.launches << " work "
       << k.work_units << " time " << Bits(k.sim_time_s) << '\n';
  }
  const sim::Profiler& prof = device.profiler();
  os << "h2d " << prof.h2d().count << ' ' << prof.h2d().bytes << ' '
     << Bits(prof.h2d().sim_time_s) << '\n'
     << "d2h " << prof.d2h().count << ' ' << prof.d2h().bytes << ' '
     << Bits(prof.d2h().sim_time_s) << '\n';
  return os.str();
}

/// The two pinned instances: a restricted CDD instance and an UCDDCP
/// instance (whose CDD view carries the m = 3 cases).
Instance PinInstance(char which) {
  const orlib::BiskupFeldmannGenerator gen;
  return which == 'A' ? gen.Cdd(20, 4, 0.4) : gen.Ucddcp(20, 7);
}

Instance MachinesView(char which) {
  return PinInstance(which).as_cdd().with_machines(3);
}

const std::map<std::string, std::string>& Pins();

void ExpectPinned(const std::string& key, const std::string& observed) {
  const auto it = Pins().find(key);
  const std::string expected = it == Pins().end() ? "" : it->second;
  EXPECT_EQ(observed, expected) << "observed pin for " << key << ":\n"
                                << observed;
}

meta::SaParams SaPins(std::uint64_t seed) {
  meta::SaParams p;
  p.iterations = 3000;
  p.temp_samples = 300;
  p.seed = seed;
  p.trajectory_stride = 150;
  return p;
}

meta::TaParams TaPins(std::uint64_t seed) {
  meta::TaParams p;
  p.iterations = 3000;
  p.temp_samples = 300;
  p.seed = seed;
  p.trajectory_stride = 150;
  return p;
}

TEST(EnginePin, SerialSa) {
  for (const char which : {'A', 'B'}) {
    const std::string tag(1, which);
    {
      const auto objective =
          meta::SequenceObjective::ForInstance(PinInstance(which));
      ExpectPinned("sa/" + tag,
                   Fingerprint(meta::RunSerialSa(objective, SaPins(11))));
    }
    {
      const auto objective =
          meta::SequenceObjective::ForInstance(MachinesView(which));
      ExpectPinned("sa-m3/" + tag,
                   Fingerprint(meta::RunSerialSa(objective, SaPins(12))));
    }
    {
      // Given T0, linear cooling, Pert-sized shuffle every iteration.
      meta::SaParams p = SaPins(13);
      p.initial_temperature = 40.0;
      p.cooling = meta::CoolingKind::kLinear;
      p.neighborhood = meta::NeighborhoodMode::kShuffleEveryIteration;
      const auto objective =
          meta::SequenceObjective::ForInstance(PinInstance(which));
      ExpectPinned("sa-linear/" + tag,
                   Fingerprint(meta::RunSerialSa(objective, p)));
    }
  }
}

TEST(EnginePin, ThresholdAccepting) {
  for (const char which : {'A', 'B'}) {
    const std::string tag(1, which);
    {
      const auto objective =
          meta::SequenceObjective::ForInstance(PinInstance(which));
      ExpectPinned("ta/" + tag, Fingerprint(meta::RunThresholdAccepting(
                                    objective, TaPins(21))));
    }
    {
      const auto objective =
          meta::SequenceObjective::ForInstance(MachinesView(which));
      ExpectPinned("ta-m3/" + tag, Fingerprint(meta::RunThresholdAccepting(
                                       objective, TaPins(22))));
    }
    {
      meta::TaParams p = TaPins(23);
      p.initial_threshold = 25.0;
      p.decay = 0.999;
      const auto objective =
          meta::SequenceObjective::ForInstance(PinInstance(which));
      ExpectPinned("ta-given/" + tag,
                   Fingerprint(meta::RunThresholdAccepting(objective, p)));
    }
  }
}

par::ParallelSaParams PsaPins() {
  par::ParallelSaParams p;
  p.config = par::LaunchConfig::ForEnsemble(64, 32);
  p.generations = 60;
  p.temp_samples = 300;
  p.seed = 31;
  p.trajectory_stride = 4;
  return p;
}

TEST(EnginePin, ParallelSa) {
  for (const char which : {'A', 'B'}) {
    const std::string tag(1, which);
    {
      sim::Device gpu;
      const par::GpuRunResult r =
          par::RunParallelSa(gpu, PinInstance(which), PsaPins());
      ExpectPinned("psa/" + tag, Fingerprint(r, gpu));
    }
    {
      // The alternative memory/reduction/seeding/neighbourhood paths.
      par::ParallelSaParams p = PsaPins();
      p.seed = 32;
      p.vshape_init = true;
      p.penalty_memory = par::detail::PenaltyMemory::kTexture;
      p.reduction = par::detail::ReductionKind::kTree;
      p.neighborhood = meta::NeighborhoodMode::kShuffleEveryIteration;
      p.initial_temperature = 60.0;
      sim::Device gpu;
      const par::GpuRunResult r =
          par::RunParallelSa(gpu, PinInstance(which), p);
      ExpectPinned("psa-variant/" + tag, Fingerprint(r, gpu));
    }
  }
}

par::ParallelSaSyncParams SyncPins() {
  par::ParallelSaSyncParams p;
  p.config = par::LaunchConfig::ForEnsemble(64, 32);
  p.temperature_levels = 12;
  p.chain_length = 4;
  p.temp_samples = 300;
  p.seed = 41;
  p.record_diversity = true;
  return p;
}

par::ParallelDpsoParams DpsoPins(bool vshape) {
  par::ParallelDpsoParams p;
  p.config = par::LaunchConfig::ForEnsemble(64, 32);
  p.generations = 60;
  p.seed = vshape ? 52 : 51;
  p.vshape_init = vshape;
  p.trajectory_stride = 4;
  return p;
}

TEST(EnginePin, ParallelSaSync) {
  for (const char which : {'A', 'B'}) {
    sim::Device gpu;
    const par::GpuRunResult r =
        par::RunParallelSaSync(gpu, PinInstance(which), SyncPins());
    ExpectPinned("psa-sync/" + std::string(1, which), Fingerprint(r, gpu));
  }
}

TEST(EnginePin, ParallelDpso) {
  for (const char which : {'A', 'B'}) {
    for (const bool vshape : {false, true}) {
      sim::Device gpu;
      const par::GpuRunResult r =
          par::RunParallelDpso(gpu, PinInstance(which), DpsoPins(vshape));
      ExpectPinned(std::string(vshape ? "pdpso-vshape/" : "pdpso/") + which,
                   Fingerprint(r, gpu));
    }
  }
}

/// Drives \p engine through the resumable lifecycle — two uneven Step
/// slices, then Finish — the path the serve layer and the racing
/// portfolio take.
meta::EngineOutput SplitRun(meta::Engine& engine) {
  engine.Step(5);
  engine.Step(meta::kStepAll);
  engine.Finish();
  return engine.Finish();
}

/// Drops the "diversity" line: EngineOutput carries no diversity series.
std::string WithoutDiversity(std::string text) {
  const std::size_t at = text.find("diversity ");
  if (at != std::string::npos) text.erase(at, text.find('\n', at) + 1 - at);
  return text;
}

TEST(EnginePin, HostEngineSplitRunsMatchPins) {
  const auto single =
      meta::SequenceObjective::ForInstance(PinInstance('A'));
  const auto machines =
      meta::SequenceObjective::ForInstance(MachinesView('A'));
  const auto run = [](std::unique_ptr<meta::Engine> engine) {
    return Fingerprint(SplitRun(*engine).result);
  };
  ExpectPinned("sa/A", run(meta::MakeSaEngine(single, SaPins(11))));
  ExpectPinned("sa-m3/A", run(meta::MakeSaEngine(machines, SaPins(12))));
  ExpectPinned("ta/A", run(meta::MakeTaEngine(single, TaPins(21))));
  ExpectPinned("ta-m3/A", run(meta::MakeTaEngine(machines, TaPins(22))));
}

TEST(EnginePin, DeviceEngineSplitRunsMatchPins) {
  const Instance instance = PinInstance('A');
  const auto check = [](const std::string& key, sim::Device& gpu,
                        std::unique_ptr<meta::Engine> engine) {
    const meta::EngineOutput out = SplitRun(*engine);
    par::GpuRunResult r;
    r.best = out.result.best;
    r.best_cost = out.result.best_cost;
    r.evaluations = out.result.evaluations;
    r.trajectory = out.result.trajectory;
    r.device_seconds = out.device_seconds;
    const auto it = Pins().find(key);
    ASSERT_NE(it, Pins().end());
    EXPECT_EQ(WithoutDiversity(Fingerprint(r, gpu)),
              WithoutDiversity(it->second));
  };
  {
    sim::Device gpu;
    check("psa/A", gpu, par::MakeParallelSaEngine(gpu, instance, PsaPins()));
  }
  {
    sim::Device gpu;
    check("psa-sync/A", gpu,
          par::MakeParallelSaSyncEngine(gpu, instance, SyncPins()));
  }
  {
    sim::Device gpu;
    check("pdpso/A", gpu,
          par::MakeParallelDpsoEngine(gpu, instance, DpsoPins(false)));
  }
}

const std::map<std::string, std::string>& Pins() {
  static const std::map<std::string, std::string> pins = {
      {"pdpso-vshape/A",
       "best_cost 3116\n"
       "best 8 14 19 4 18 10 2 1 16 6 0 7 3 13 12 11 9 17 15 5\n"
       "evaluations 3904\n"
       "trajectory 4487 3891 3551 3386 3379 3227 3227 3215 3156 3140 3131 "
       "3131 3131 3119 3119\n"
       "diversity \n"
       "device_seconds 0x3f738cfe5e00f7bf\n"
       "kernel dpso_fitness launches 61 work 167872 time "
       "0x3f4b4b94a09ee0cf\n"
       "kernel dpso_gbest_publish launches 61 work 1220 time "
       "0x3f420a8d13e142a4\n"
       "kernel dpso_pbest_update launches 61 work 25244 time "
       "0x3f42b5181ceab6bb\n"
       "kernel dpso_reduction launches 61 work 8357 time "
       "0x3f3cd7143f2e1fab\n"
       "kernel dpso_update launches 60 work 388206 time 0x3f5dd8fe5d07952d\n"
       "h2d 8 10892 0x3f157288b9524c59\n"
       "d2h 17 208 0x3f26496aaa400221\n"},
      {"pdpso-vshape/B",
       "best_cost 1739\n"
       "best 12 4 10 11 18 1 5 14 13 7 17 9 8 16 15 0 3 2 19 6\n"
       "evaluations 3904\n"
       "trajectory 1869 1834 1806 1783 1761 1750 1742 1742 1742 1742 1742 "
       "1742 1742 1742 1739\n"
       "diversity \n"
       "device_seconds 0x3f7556f8d072628f\n"
       "kernel dpso_fitness launches 61 work 324032 time "
       "0x3f55b1d0e0f45309\n"
       "kernel dpso_gbest_publish launches 61 work 1220 time "
       "0x3f420a8d13e142a4\n"
       "kernel dpso_pbest_update launches 61 work 19604 time "
       "0x3f4098c274e109ff\n"
       "kernel dpso_reduction launches 61 work 8357 time "
       "0x3f3cd7143f2e1fab\n"
       "kernel dpso_update launches 60 work 388206 time 0x3f5dd8fe5d07952d\n"
       "h2d 9 11052 0x3f1813698bac3d83\n"
       "d2h 17 208 0x3f26496aaa400221\n"},
      {"pdpso/A",
       "best_cost 3097\n"
       "best 14 12 19 4 18 10 2 1 6 16 0 7 3 13 11 8 9 15 17 5\n"
       "evaluations 3904\n"
       "trajectory 4359 3921 3609 3283 3205 3172 3157 3150 3150 3116 3116 "
       "3116 3099 3097 3097\n"
       "diversity \n"
       "device_seconds 0x3f738cfe5e00f7bf\n"
       "kernel dpso_fitness launches 61 work 167872 time "
       "0x3f4b4b94a09ee0cf\n"
       "kernel dpso_gbest_publish launches 61 work 1220 time "
       "0x3f420a8d13e142a4\n"
       "kernel dpso_pbest_update launches 61 work 28004 time "
       "0x3f42b5181ceab6bb\n"
       "kernel dpso_reduction launches 61 work 8357 time "
       "0x3f3cd7143f2e1fab\n"
       "kernel dpso_update launches 60 work 388530 time 0x3f5dd8fe5d07952d\n"
       "h2d 8 10892 0x3f157288b9524c59\n"
       "d2h 17 208 0x3f26496aaa400221\n"},
      {"pdpso/B",
       "best_cost 1704\n"
       "best 12 4 10 11 18 5 14 13 7 9 16 17 8 15 0 3 19 2 1 6\n"
       "evaluations 3904\n"
       "trajectory 2864 2498 2111 1966 1806 1784 1774 1774 1764 1736 1735 "
       "1719 1719 1719 1704\n"
       "diversity \n"
       "device_seconds 0x3f759a838573982d\n"
       "kernel dpso_fitness launches 61 work 324032 time "
       "0x3f55b1d0e0f45309\n"
       "kernel dpso_gbest_publish launches 61 work 1220 time "
       "0x3f420a8d13e142a4\n"
       "kernel dpso_pbest_update launches 61 work 29064 time "
       "0x3f42b5181ceab6bb\n"
       "kernel dpso_reduction launches 61 work 8357 time "
       "0x3f3cd7143f2e1fab\n"
       "kernel dpso_update launches 60 work 388530 time 0x3f5dd8fe5d07952d\n"
       "h2d 9 11052 0x3f1813698bac3d83\n"
       "d2h 17 208 0x3f26496aaa400221\n"},
      {"psa-sync/A",
       "best_cost 3165\n"
       "best 14 12 19 18 4 2 1 3 16 6 7 0 10 13 11 8 9 5 15 17\n"
       "evaluations 3136\n"
       "trajectory \n"
       "diversity 0x4032cc0000000000 0x401db00000000000 0x4020980000000000 "
       "0x401ef00000000000 0x4023080000000000 0x401c700000000000 "
       "0x4021480000000000 0x401bb00000000000 0x4014e00000000000 "
       "0x401b200000000000 0x4013400000000000 0x4015a00000000000\n"
       "device_seconds 0x3f66a9978db35949\n"
       "kernel sync_acceptance launches 48 work 49548 time "
       "0x3f3eecf0e089d0e3\n"
       "kernel sync_broadcast launches 12 work 15360 time "
       "0x3f1c648a16e49b34\n"
       "kernel sync_diversity launches 12 work 15360 time "
       "0x3f1c648a16e49b34\n"
       "kernel sync_fitness launches 49 work 134848 time "
       "0x3f45ecf97cd38ed3\n"
       "kernel sync_perturbation launches 48 work 77184 time "
       "0x3f3fa34dc9404804\n"
       "kernel sync_reduction launches 12 work 1644 time "
       "0x3f16b1a2d130e264\n"
       "kernel sync_select launches 12 work 240 time 0x3f1c648a16e49b34\n"
       "h2d 7 5772 0x3f129a2de0855dc5\n"
       "d2h 36 1152 0x3f379b04dc3b5d54\n"},
      {"psa-sync/B",
       "best_cost 1785\n"
       "best 4 10 12 11 1 5 18 14 8 7 9 15 17 16 13 2 0 3 19 6\n"
       "evaluations 3136\n"
       "trajectory \n"
       "diversity 0x4032bc0000000000 0x4025f80000000000 0x4022d00000000000 "
       "0x4024880000000000 0x4016600000000000 0x401d100000000000 "
       "0x4015400000000000 0x401b300000000000 0x4018300000000000 "
       "0x4014300000000000 0x4012c00000000000 0x4013200000000000\n"
       "device_seconds 0x3f69fa01bd94f94f\n"
       "kernel sync_acceptance launches 48 work 48048 time "
       "0x3f3eecf0e089d0e3\n"
       "kernel sync_broadcast launches 12 work 15360 time "
       "0x3f1c648a16e49b34\n"
       "kernel sync_diversity launches 12 work 15360 time "
       "0x3f1c648a16e49b34\n"
       "kernel sync_fitness launches 49 work 260288 time "
       "0x3f516d4311076875\n"
       "kernel sync_perturbation launches 48 work 77184 time "
       "0x3f3fa34dc9404804\n"
       "kernel sync_reduction launches 12 work 1644 time "
       "0x3f16b1a2d130e264\n"
       "kernel sync_select launches 12 work 240 time 0x3f1c648a16e49b34\n"
       "h2d 8 5932 0x3f153b0eb2df4eef\n"
       "d2h 36 1152 0x3f379b04dc3b5d54\n"},
      {"psa-variant/A",
       "best_cost 3410\n"
       "best 12 10 14 18 4 1 19 3 7 0 6 16 2 8 11 13 17 9 15 5\n"
       "evaluations 3904\n"
       "trajectory 4648 4337 4296 4160 4023 3884 3791 3791 3540 3522 3522 "
       "3522 3522 3522 3410\n"
       "diversity \n"
       "device_seconds 0x3f6d8ddbaa0204f2\n"
       "kernel sa_acceptance launches 60 work 44060 time "
       "0x3f4b3e57c27a6a5d\n"
       "kernel sa_fitness launches 61 work 191296 time 0x3f4db59698d057fd\n"
       "kernel sa_perturbation launches 60 work 199680 time "
       "0x3f4e68d83e88ed90\n"
       "kernel sa_reduction launches 60 work 19440 time 0x3f39338b096e97db\n"
       "kernel sa_seed_best launches 1 work 64 time 0x3ed5d0d7cc1a7ad7\n"
       "h2d 8 10892 0x3f157288b9524c59\n"
       "d2h 17 208 0x3f26496aaa400221\n"},
      {"psa-variant/B",
       "best_cost 1778\n"
       "best 12 4 10 8 18 11 14 5 7 13 16 9 15 17 0 2 3 1 19 6\n"
       "evaluations 3904\n"
       "trajectory 1884 1862 1859 1820 1820 1820 1820 1820 1820 1778 1778 "
       "1778 1778 1778 1778\n"
       "diversity \n"
       "device_seconds 0x3f70cc01a5d37c33\n"
       "kernel sa_acceptance launches 60 work 29880 time "
       "0x3f4afacd0d7934c5\n"
       "kernel sa_fitness launches 61 work 347456 time 0x3f56e6d1dd0d0e9b\n"
       "kernel sa_perturbation launches 60 work 199680 time "
       "0x3f4e68d83e88ed90\n"
       "kernel sa_reduction launches 60 work 19440 time 0x3f39338b096e97db\n"
       "kernel sa_seed_best launches 1 work 64 time 0x3ed5d0d7cc1a7ad7\n"
       "h2d 9 11052 0x3f1813698bac3d83\n"
       "d2h 17 208 0x3f26496aaa400221\n"},
      {"psa/A",
       "best_cost 3667\n"
       "best 4 14 18 3 7 12 1 19 16 2 6 13 0 8 10 11 9 5 15 17\n"
       "evaluations 3904\n"
       "trajectory 5463 4978 4945 4906 4906 4906 4906 4559 4329 3806 3806 "
       "3806 3806 3667 3667\n"
       "diversity \n"
       "device_seconds 0x3f6aacced2cb38e5\n"
       "kernel sa_acceptance launches 60 work 69020 time "
       "0x3f4b3e57c27a6a5d\n"
       "kernel sa_fitness launches 61 work 167872 time 0x3f4b4b94a09ee0cf\n"
       "kernel sa_perturbation launches 60 work 96000 time "
       "0x3f43b9669bd7f2f1\n"
       "kernel sa_reduction launches 60 work 8220 time 0x3f3c5e0b857d1af4\n"
       "kernel sa_seed_best launches 1 work 64 time 0x3ed5d0d7cc1a7ad7\n"
       "h2d 8 10892 0x3f157288b9524c59\n"
       "d2h 17 208 0x3f26496aaa400221\n"},
      {"psa/B",
       "best_cost 1924\n"
       "best 10 4 8 18 1 5 11 14 17 7 16 9 13 15 3 12 0 2 6 19\n"
       "evaluations 3904\n"
       "trajectory 3095 2972 2911 2692 2692 2274 2274 2274 2039 2039 1980 "
       "1980 1980 1980 1924\n"
       "diversity \n"
       "device_seconds 0x3f6ec7d921b079b5\n"
       "kernel sa_acceptance launches 60 work 66820 time "
       "0x3f4b3e57c27a6a5d\n"
       "kernel sa_fitness launches 61 work 324032 time 0x3f55b1d0e0f45309\n"
       "kernel sa_perturbation launches 60 work 96000 time "
       "0x3f43b9669bd7f2f1\n"
       "kernel sa_reduction launches 60 work 8220 time 0x3f3c5e0b857d1af4\n"
       "kernel sa_seed_best launches 1 work 64 time 0x3ed5d0d7cc1a7ad7\n"
       "h2d 9 11052 0x3f1813698bac3d83\n"
       "d2h 17 208 0x3f26496aaa400221\n"},
      {"sa-linear/A",
       "best_cost 3105\n"
       "best 4 14 12 19 18 10 2 1 6 16 0 7 3 13 11 8 9 17 15 5\n"
       "splits \n"
       "evaluations 3001\n"
       "trajectory 6981 4085 3623 3450 3316 3230 3230 3208 3208 3208 3208 "
       "3165 3147 3141 3141 3141 3141 3141 3135 3118\n"},
      {"sa-linear/B",
       "best_cost 1759\n"
       "best 12 4 10 11 18 1 5 14 7 8 15 9 17 16 13 3 0 19 2 6\n"
       "splits \n"
       "evaluations 3001\n"
       "trajectory 4867 2082 2082 1987 1987 1987 1852 1842 1842 1842 1842 "
       "1842 1817 1816 1816 1816 1804 1804 1804 1760\n"},
      {"sa-m3/A",
       "best_cost 823\n"
       "best 14 19 4 18 3 9 8 11 2 16 6 7 13 17 12 10 0 1 15 5\n"
       "splits 6 14\n"
       "evaluations 3001\n"
       "trajectory 2429 942 906 870 862 862 862 836 833 833 833 833 833 "
       "833 833 833 833 833 833 823\n"},
      {"sa-m3/B",
       "best_cost 735\n"
       "best 8 11 7 9 17 3 6 10 18 5 13 15 1 4 0 14 16 2 19 12\n"
       "splits 7 13\n"
       "evaluations 3001\n"
       "trajectory 1729 910 867 790 787 744 735 735 735 735 735 735 735 "
       "735 735 735 735 735 735 735\n"},
      {"sa/A",
       "best_cost 3097\n"
       "best 14 12 19 4 18 10 2 1 6 16 0 7 3 13 11 8 9 15 17 5\n"
       "splits \n"
       "evaluations 3001\n"
       "trajectory 4823 3427 3232 3164 3142 3133 3133 3113 3113 3113 3097 "
       "3097 3097 3097 3097 3097 3097 3097 3097 3097\n"},
      {"sa/B",
       "best_cost 1700\n"
       "best 12 4 10 11 18 5 14 13 7 8 9 17 16 15 0 3 2 19 1 6\n"
       "splits \n"
       "evaluations 3001\n"
       "trajectory 3919 1909 1834 1724 1719 1701 1700 1700 1700 1700 1700 "
       "1700 1700 1700 1700 1700 1700 1700 1700 1700\n"},
      {"ta-given/A",
       "best_cost 3101\n"
       "best 14 12 4 19 18 10 2 1 16 6 0 7 3 13 11 8 9 15 17 5\n"
       "splits \n"
       "evaluations 3001\n"
       "trajectory 6978 3420 3288 3234 3168 3168 3168 3168 3168 3153 3153 "
       "3142 3130 3123 3123 3123 3114 3111 3103 3101\n"},
      {"ta-given/B",
       "best_cost 1724\n"
       "best 12 4 10 18 11 5 14 0 7 9 8 16 17 15 13 3 2 19 1 6\n"
       "splits \n"
       "evaluations 3001\n"
       "trajectory 4593 1971 1819 1725 1724 1724 1724 1724 1724 1724 1724 "
       "1724 1724 1724 1724 1724 1724 1724 1724 1724\n"},
      {"ta-m3/A",
       "best_cost 815\n"
       "best 14 4 10 3 1 9 5 12 11 0 16 7 17 8 19 18 2 6 13 15\n"
       "splits 7 13\n"
       "evaluations 3001\n"
       "trajectory 1954 1064 1004 916 910 870 851 844 819 819 819 817 815 "
       "815 815 815 815 815 815 815\n"},
      {"ta-m3/B",
       "best_cost 738\n"
       "best 10 18 7 16 17 19 6 4 8 5 13 15 3 12 11 0 14 9 2 1\n"
       "splits 7 13\n"
       "evaluations 3001\n"
       "trajectory 1729 839 797 797 781 775 775 775 775 775 764 754 749 "
       "746 744 744 744 744 744 743\n"},
      {"ta/A",
       "best_cost 3097\n"
       "best 14 12 4 19 18 10 2 1 6 16 0 7 3 13 11 8 9 15 17 5\n"
       "splits \n"
       "evaluations 3001\n"
       "trajectory 9513 3772 3298 3148 3145 3125 3125 3125 3125 3125 3116 "
       "3116 3110 3106 3106 3106 3106 3106 3097 3097\n"},
      {"ta/B",
       "best_cost 1756\n"
       "best 4 10 11 18 5 14 0 13 7 9 17 8 16 15 3 2 19 1 12 6\n"
       "splits \n"
       "evaluations 3001\n"
       "trajectory 4091 2050 1891 1786 1768 1768 1765 1765 1765 1764 1763 "
       "1758 1758 1758 1758 1758 1758 1758 1756 1756\n"},
  };
  return pins;
}

}  // namespace
}  // namespace cdd
