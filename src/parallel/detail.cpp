#include "parallel/detail.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <span>
#include <vector>

#include "core/eval_raw.hpp"
#include "core/eval_simd.hpp"
#include "cudasim/atomics.hpp"
#include "parallel/kernels_raw.hpp"

namespace cdd::par::detail {

std::vector<JobId> MakeInitialSequences(std::uint32_t ensemble,
                                        std::int32_t n, std::uint64_t seed,
                                        const Sequence* base) {
  std::vector<JobId> host(static_cast<std::size_t>(ensemble) * n);
  for (std::uint32_t t = 0; t < ensemble; ++t) {
    JobId* row = host.data() + static_cast<std::size_t>(t) * n;
    rng::Philox4x32 rng =
        raw::MakeStream(seed, /*generation=*/0, raw::RngPhase::kInit, t);
    if (base == nullptr) {
      for (std::int32_t i = 0; i < n; ++i) row[i] = i;
      FisherYates(std::span<JobId>(row, static_cast<std::size_t>(n)), rng);
    } else {
      for (std::int32_t i = 0; i < n; ++i) row[i] = (*base)[i];
      if (t > 0) {
        std::uint32_t positions[4];
        JobId values[4];
        PartialFisherYates(std::span<JobId>(row, static_cast<std::size_t>(n)),
                           4, rng, positions, values);
      }
    }
  }
  return host;
}

void LaunchFitness(sim::Device& device, const DeviceProblem& problem,
                   const LaunchConfig& config, const CandidatePoolView& pool,
                   const char* kernel_name, PenaltyMemory memory) {
  const std::int32_t n = problem.n();
  const Time d = problem.due_date();
  const bool controllable = problem.controllable();
  const Time* proc = problem.proc();
  const Time* min_proc = problem.min_proc();
  const Cost* g_alpha = problem.alpha();
  const Cost* g_beta = problem.beta();
  const Cost* gamma = problem.gamma();

  const std::size_t shared_bytes = problem.shared_bytes();
  const bool use_shared =
      memory == PenaltyMemory::kShared &&
      shared_bytes <= device.properties().shared_mem_per_block;

  sim::LaunchOptions opts;
  opts.name = kernel_name;
  opts.shared_bytes = use_shared ? shared_bytes : 0;

  // Each block evaluates its own slice of the ensemble through the
  // dispatched batch evaluator (SIMD when the host supports it) straight
  // into the device-resident costs/pinned columns: thread 0 of the block
  // runs the batch kernel over the block's rows (SIMD within the block,
  // blocks across host workers under the host-parallel exec backend).
  // The kernel threads below charge exactly the memory traffic a
  // per-thread fused evaluation performs — the modeled device timing is
  // unchanged, and the results are bit-identical regardless of slicing
  // or exec backend because every evaluator computes exact integers
  // row-independently.
  assert(pool.current() &&
         "LaunchFitness: stale CandidatePoolView (pool swapped buffers)");

  // Staging model: pageable host pools (kHost/kNuma) bounce their rows to
  // the device before the kernel and their results back after it; pinned
  // host pools are DMA-able in place and device-resident pools are
  // already there, so neither fires a transfer.  The copies are modeled
  // (the simulator shares one address space); what matters is that the
  // H2D/D2H events and their modeled time land on the device ledger
  // exactly when a real GPU would pay them.
  const core::PoolTransferCost transfer = pool.transfer_cost();
  if (transfer.device_staging) {
    device.RecordH2D(static_cast<std::size_t>(pool.count) * pool.stride *
                     sizeof(JobId));
  }
  const sim::KernelFn phases[] = {
      [=](sim::ThreadCtx& t) {
        if (t.linear_thread() == 0) {
          // Block-sliced evaluation: rows are disjoint per block, so
          // concurrent blocks never touch the same costs/pinned entries.
          const std::uint64_t first =
              static_cast<std::uint64_t>(t.linear_block()) *
              t.block_dim.count();
          if (first < pool.count) {
            const auto slice = static_cast<std::int32_t>(
                std::min<std::uint64_t>(t.block_dim.count(),
                                        pool.count - first));
            const JobId* rows =
                pool.seqs + first * static_cast<std::uint64_t>(pool.stride);
            std::int32_t* pin =
                pool.pinned == nullptr ? nullptr : pool.pinned + first;
            if (controllable) {
              cdd::raw::EvalUcddcpBatchDispatch(
                  n, d, rows, pool.stride, slice, proc, min_proc, g_alpha,
                  g_beta, gamma, pool.costs + first, pin);
            } else {
              cdd::raw::EvalCddBatchDispatch(n, d, rows, pool.stride,
                                             slice, proc, g_alpha, g_beta,
                                             pool.costs + first, pin);
            }
          }
        }
        if (use_shared) {
          // Block-wide staging: linear block => disjoint strided writes;
          // the phase boundary is the barrier before anyone reads them
          // (Section VI-A).
          Cost* s_alpha = t.shared_as<Cost>();
          Cost* s_beta = s_alpha + n;
          const auto tpb = static_cast<std::int32_t>(t.block_dim.count());
          for (std::int32_t i =
                   static_cast<std::int32_t>(t.linear_thread());
               i < n; i += tpb) {
            s_alpha[i] = g_alpha[i];
            s_beta[i] = g_beta[i];
          }
        }
      },
      [=](sim::ThreadCtx& t) {
        if (use_shared) {
          t.charge(static_cast<std::uint64_t>(n) / t.block_dim.count() +
                   1);
        }
        const std::uint64_t tid = t.global_thread();
        if (tid >= pool.count) return;
        // Charge split: sequence/processing-time traffic is always global;
        // the two penalty streams go through the selected memory path.
        std::uint64_t other_units;
        std::uint64_t penalty_units;
        if (controllable) {
          other_units = 3 * static_cast<std::uint64_t>(n);
          penalty_units = 2 * static_cast<std::uint64_t>(n);
        } else {
          other_units = static_cast<std::uint64_t>(n);
          penalty_units = 2 * static_cast<std::uint64_t>(n);
        }
        t.charge(other_units);
        switch (memory) {
          case PenaltyMemory::kShared:
            if (use_shared) {
              t.charge_shared(penalty_units);
            } else {
              t.charge(penalty_units);  // fell back to global
            }
            break;
          case PenaltyMemory::kTexture:
            t.charge_texture(penalty_units);
            break;
          case PenaltyMemory::kGlobal:
            t.charge(penalty_units);
            break;
        }
        // costs/pinned were written by thread 0's slice evaluation in the
        // first phase.
      }};
  device.Launch(config.grid(), config.block(), opts, phases);

  if (transfer.device_staging) {
    std::size_t result_bytes = pool.count * sizeof(Cost);
    if (pool.pinned != nullptr) {
      result_bytes += pool.count * sizeof(std::int32_t);
    }
    device.RecordD2H(result_bytes);
  }
}

void LaunchReduction(sim::Device& device, const LaunchConfig& config,
                     const Cost* costs, std::int64_t* packed_best,
                     const char* kernel_name, ReductionKind kind) {
  const std::uint32_t ensemble = config.ensemble();

  if (kind == ReductionKind::kAtomic) {
    // The paper's variant: every thread fires one atomicMin; contention is
    // serialized in L2 (modeled as per-thread work).
    sim::LaunchOptions opts;
    opts.name = kernel_name;
    device.Launch(config.grid(), config.block(), opts,
                  [=](sim::ThreadCtx& t) {
                    const std::uint64_t tid = t.global_thread();
                    if (tid >= ensemble) return;
                    sim::AtomicMin(
                        packed_best,
                        raw::PackCostThread(
                            costs[tid], static_cast<std::uint32_t>(tid)));
                    t.charge(2);
                    // Same-address atomics serialize in L2 ("the full
                    // process results in a sequential execution order",
                    // Section VI-D).  Thread 0 carries the queue's
                    // critical path so the latency bound of the timing
                    // model sees the serialization (~1/8 work unit per
                    // queued atomic).
                    if (tid == 0) t.charge(ensemble / 8 + 1);
                  });
    return;
  }

  // Tree variant: stage keys in shared memory, then fold pairwise, one
  // round per phase (the phase boundaries are the barriers), and fire one
  // atomic per *block* after the last round.  The fold stride is rounded
  // up to a power of two so odd block sizes fold correctly (reads beyond
  // tpb are guarded).
  const std::uint32_t tpb = config.block_size;
  std::uint32_t rounds = 0;
  while ((1u << rounds) < tpb) ++rounds;
  sim::LaunchOptions opts;
  opts.name = kernel_name;
  opts.shared_bytes = tpb * sizeof(std::int64_t);
  std::vector<sim::KernelFn> phases;
  phases.reserve(rounds + 1);
  for (std::uint32_t phase = 0; phase <= rounds; ++phase) {
    phases.emplace_back([=](sim::ThreadCtx& t) {
      std::int64_t* keys = t.shared_as<std::int64_t>();
      const std::uint32_t lt = t.linear_thread();
      if (phase == 0) {
        const std::uint64_t tid = t.global_thread();
        keys[lt] = tid < ensemble
                       ? raw::PackCostThread(
                             costs[tid], static_cast<std::uint32_t>(tid))
                       : std::numeric_limits<std::int64_t>::max();
      } else {
        const std::uint32_t stride = 1u << (rounds - phase);
        if (lt < stride && lt + stride < tpb) {
          keys[lt] = std::min(keys[lt], keys[lt + stride]);
        }
        t.charge_shared(1);
      }
      if (phase == rounds && lt == 0) {
        sim::AtomicMin(packed_best, keys[0]);
        t.charge(2);
      }
    });
  }
  device.Launch(config.grid(), config.block(), opts, phases);
}

void LaunchPerturbation(sim::Device& device, const LaunchConfig& config,
                        const JobId* curr, JobId* cand, std::int32_t n,
                        const raw::ThreadStreams& streams, std::uint64_t g,
                        std::uint32_t pert,
                        meta::NeighborhoodMode neighborhood,
                        std::uint32_t shuffle_period, const char* kernel_name) {
  const std::uint32_t ensemble = config.ensemble();
  const bool shuffle_now =
      neighborhood == meta::NeighborhoodMode::kShuffleEveryIteration ||
      (g - 1) % std::max(shuffle_period, 1u) == 0;
  sim::LaunchOptions opts;
  opts.name = kernel_name;
  device.Launch(config.grid(), config.block(), opts, [=](sim::ThreadCtx& t) {
    const std::uint64_t tid = t.global_thread();
    if (tid >= ensemble) return;
    const JobId* src = curr + tid * n;
    JobId* dst = cand + tid * n;
    for (std::int32_t i = 0; i < n; ++i) dst[i] = src[i];
    rng::Philox4x32 rng = streams.Open(static_cast<std::uint32_t>(tid));
    if (shuffle_now) {
      std::uint32_t positions[kMaxPert];
      JobId values[kMaxPert];
      PartialFisherYates(std::span<JobId>(dst, static_cast<std::size_t>(n)),
                         pert, rng, positions, values);
      t.charge(static_cast<std::uint64_t>(n) + 8 * pert);
    } else {
      RandomSwap(std::span<JobId>(dst, static_cast<std::size_t>(n)), rng);
      t.charge(static_cast<std::uint64_t>(n) + 2);
    }
  });
}

void LaunchAcceptance(sim::Device& device, const LaunchConfig& config,
                      JobId* curr, Cost* curr_cost, const JobId* cand,
                      const Cost* cand_cost, JobId* best, Cost* best_cost,
                      std::int32_t n, double temp,
                      const raw::ThreadStreams& streams,
                      const char* kernel_name) {
  const std::uint32_t ensemble = config.ensemble();
  sim::LaunchOptions opts;
  opts.name = kernel_name;
  device.Launch(config.grid(), config.block(), opts, [=](sim::ThreadCtx& t) {
    const std::uint64_t tid = t.global_thread();
    if (tid >= ensemble) return;
    const Cost e = curr_cost[tid];
    const Cost e_new = cand_cost[tid];
    if (e_new <= e ||
        std::exp(static_cast<double>(e - e_new) / temp) >=
            static_cast<double>(
                streams.Open(static_cast<std::uint32_t>(tid)).NextUniform())) {
      JobId* cur = curr + tid * n;
      const JobId* cnd = cand + tid * n;
      for (std::int32_t i = 0; i < n; ++i) cur[i] = cnd[i];
      curr_cost[tid] = e_new;
      if (best != nullptr && e_new < best_cost[tid]) {
        best_cost[tid] = e_new;
        JobId* bst = best + tid * n;
        for (std::int32_t i = 0; i < n; ++i) bst[i] = cnd[i];
        t.charge(static_cast<std::uint64_t>(n));
      }
      t.charge(static_cast<std::uint64_t>(n));
    }
    t.charge(4);
  });
}

Sequence DownloadRow(const sim::DeviceBuffer<JobId>& seqs, std::int32_t n,
                     std::uint32_t thread) {
  Sequence row(static_cast<std::size_t>(n));
  seqs.CopyToHost(std::span<JobId>(row),
                  static_cast<std::size_t>(thread) * n);
  return row;
}

}  // namespace cdd::par::detail
