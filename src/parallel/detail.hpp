#pragma once
/// \file detail.hpp
/// \brief Internals shared by the parallel solvers (fitness kernel,
/// ensemble initialization, reduction helpers).  Not part of the public API.

#include <cstdint>
#include <vector>

#include "core/candidate_pool.hpp"
#include "core/sequence.hpp"
#include "cudasim/device.hpp"
#include "cudasim/memory.hpp"
#include "meta/sa.hpp"  // NeighborhoodMode
#include "parallel/device_problem.hpp"
#include "parallel/kernels_raw.hpp"
#include "parallel/launch_config.hpp"

namespace cdd::par::detail {

/// Fills \p host with `ensemble` initial sequences of length n, one per
/// thread, drawn from the thread's private init stream.  The layout is
/// row-major: thread t owns host[t*n .. t*n + n).
///
/// Without \p base every row is an independent uniform permutation (the
/// paper's default).  With \p base (e.g. the V-shape constructive seed),
/// thread 0 keeps it verbatim and every other thread gets it diversified
/// by a small Fisher-Yates shuffle from its own stream — "the initial
/// configuration ... can be the same or different for all chains"
/// (Section V-A).
std::vector<JobId> MakeInitialSequences(std::uint32_t ensemble,
                                        std::int32_t n, std::uint64_t seed,
                                        const Sequence* base = nullptr);

/// Builds a kDevice-tagged CandidatePoolView over raw device buffers
/// (dense rows, stride == n) — the geometry LaunchFitness consumes.  The
/// tag keeps device views exempt from the host pools' buffer-generation
/// staleness check and tells the transfer-cost model no H2D staging is
/// needed (the rows are already resident).
inline CandidatePoolView DeviceView(JobId* seqs, Cost* costs,
                                    std::int32_t n, std::uint32_t count) {
  CandidatePoolView view;
  view.seqs = seqs;
  view.costs = costs;
  view.n = n;
  view.stride = n;
  view.count = count;
  view.backend = core::PoolBackend::kDevice;
  return view;
}

/// Where the fitness kernel reads the per-unit penalties from.
/// kShared is the paper's choice (Section VI-A); kTexture is its stated
/// future work (Section IX); kGlobal is the unoptimized baseline.
enum class PenaltyMemory { kShared, kGlobal, kTexture };

/// Launches the fitness kernel of Section VI-A over the rows of \p pool —
/// the same CandidatePoolView geometry the host engines batch through,
/// normally built over device buffers via DeviceView (thread t evaluates
/// pool.row(t) into pool.costs[t]; pool.pinned may be null).  Penalty
/// reads go through block-wide shared-memory staging (where they fit),
/// read-only texture fetches, or direct global loads, per \p memory.
///
/// Transfer accounting: the view's backend tag decides whether the launch
/// models staging copies.  kDevice and kPinned views are consumed in
/// place (zero-copy — resident or DMA-able); pageable host views (kHost,
/// kNuma) charge one H2D for the rows before the kernel and one D2H for
/// the results after it, metered on \p device like every other transfer.
void LaunchFitness(sim::Device& device, const DeviceProblem& problem,
                   const LaunchConfig& config, const CandidatePoolView& pool,
                   const char* kernel_name,
                   PenaltyMemory memory = PenaltyMemory::kShared);

/// Largest perturbation size the perturbation kernel's per-thread scratch
/// holds.
inline constexpr std::uint32_t kMaxPert = 32;

/// Launches the SA perturbation kernel of Section VI-B, shared by the
/// asynchronous and the synchronous SA: thread t copies row t of \p curr
/// into \p cand and perturbs it from its (seed, g, kPerturb, t) Philox
/// stream in \p streams — the Pert-sized partial Fisher-Yates shuffle on
/// shuffle generations (every generation under kShuffleEveryIteration,
/// else every \p shuffle_period-th; \p g is 1-based), a cheap swap
/// otherwise.
void LaunchPerturbation(sim::Device& device, const LaunchConfig& config,
                        const JobId* curr, JobId* cand, std::int32_t n,
                        const raw::ThreadStreams& streams, std::uint64_t g,
                        std::uint32_t pert,
                        meta::NeighborhoodMode neighborhood,
                        std::uint32_t shuffle_period, const char* kernel_name);

/// Launches the Metropolis acceptance kernel of Section VI-C, shared by
/// the asynchronous and the synchronous SA: thread t takes candidate row
/// t of \p cand (cost \p cand_cost[t]) into \p curr / \p curr_cost when
/// it does not worsen the current cost or when exp((e - e_new) / temp) is
/// at least a uniform draw from its (seed, g, kAccept, t) stream in
/// \p streams.  An improving or equal move is taken without the draw:
/// exp(x) >= 1 for x >= 0 and the draw is at most 1, and the stream is
/// used for nothing else.  With \p best (and \p best_cost) set, an
/// accepted row that beats the thread's best also replaces it there.
void LaunchAcceptance(sim::Device& device, const LaunchConfig& config,
                      JobId* curr, Cost* curr_cost, const JobId* cand,
                      const Cost* cand_cost, JobId* best, Cost* best_cost,
                      std::int32_t n, double temp,
                      const raw::ThreadStreams& streams,
                      const char* kernel_name);

/// How the best-of-ensemble reduction is implemented.
/// kAtomic is the paper's choice: "an atomic minimization function ...
/// inside the L2-Cache, which provides a good performance although the
/// full process results in a sequential execution order" (Section VI-D).
/// kTree is the canonical CUDA alternative: a shared-memory tree reduction
/// per block behind barriers, then one atomic per block.
enum class ReductionKind { kAtomic, kTree };

/// Launches the reduction kernel of Section VI-D: folds the packed
/// (costs[t], t) keys of all threads into *packed_best.
void LaunchReduction(sim::Device& device, const LaunchConfig& config,
                     const Cost* costs, std::int64_t* packed_best,
                     const char* kernel_name,
                     ReductionKind kind = ReductionKind::kAtomic);

/// Downloads the winning thread's row from a row-major sequence buffer.
Sequence DownloadRow(const sim::DeviceBuffer<JobId>& seqs, std::int32_t n,
                     std::uint32_t thread);

}  // namespace cdd::par::detail
