#pragma once
/// \file kernels_raw.hpp
/// \brief Allocation-free "device function" helpers shared by the parallel
/// kernels: per-thread RNG streams and the packed keys of the atomic-min
/// reduction.  The sequence operators are not here: the kernels call the
/// one perturbation and swap (core/sequence.hpp) and crossover
/// (meta/ops.hpp) implementation the serial engines use.

#include <cstddef>
#include <cstdint>
#include <span>

#include "core/types.hpp"
#include "rng/philox.hpp"

namespace cdd::par::raw {

/// Number of reserved RNG phases per generation (perturbation, acceptance,
/// dpso-update).  Stream ids are ((generation * kRngPhases + phase) << 32)
/// | thread, so every (generation, phase, thread) triple owns a private
/// Philox stream: consumption never overlaps and a thread's stream sequence
/// is independent of the ensemble size (the inclusion property tested in
/// tests/parallel).
inline constexpr std::uint64_t kRngPhases = 4;

enum class RngPhase : std::uint64_t {
  kInit = 0,
  kPerturb = 1,
  kAccept = 2,
  kDpsoUpdate = 3,
};

/// The high 32 bits of every (generation, phase) stream id.
inline std::uint32_t StreamHi(std::uint64_t generation, RngPhase phase) {
  return static_cast<std::uint32_t>(generation * kRngPhases +
                                    static_cast<std::uint64_t>(phase));
}

/// Philox stream for (seed, generation, phase, thread).
inline rng::Philox4x32 MakeStream(std::uint64_t seed,
                                  std::uint64_t generation, RngPhase phase,
                                  std::uint32_t thread) {
  return rng::Philox4x32(
      seed, (std::uint64_t{StreamHi(generation, phase)} << 32) | thread);
}

/// Every thread's stream of one (seed, generation, phase), opened from
/// block 0 heads drawn for the whole launch in one rng::StreamHeads pass
/// before it (see DeviceEngine::Streams).  Open(t) yields exactly
/// MakeStream(seed, generation, phase, t).  The heads are host memory the
/// launch only reads.
struct ThreadStreams {
  std::uint64_t seed = 0;
  std::uint32_t stream_hi = 0;
  const std::uint32_t* heads = nullptr;  ///< four words per thread

  rng::Philox4x32 Open(std::uint32_t thread) const {
    return rng::Philox4x32(seed, (std::uint64_t{stream_hi} << 32) | thread,
                           std::span<const std::uint32_t, 4>(
                               heads + 4 * std::size_t{thread}, 4));
  }
};

// --- packed (cost, thread) reduction keys --------------------------------
// The reduction kernel performs one atomicMin per thread on a 64-bit key
// (cost in the high bits, thread id in the low 20), mirroring the paper's
// single atomic minimization in L2 (Section VI-D).  The cost must fit in
// 43 bits; DeviceProblem::cost_upper_bound() is checked against this at
// solver construction.

inline constexpr int kThreadBits = 20;
inline constexpr std::uint64_t kThreadMask = (1ull << kThreadBits) - 1;
inline constexpr Cost kMaxPackableCost = Cost{1} << 42;

inline std::int64_t PackCostThread(Cost cost, std::uint32_t thread) {
  return static_cast<std::int64_t>(
      (static_cast<std::uint64_t>(cost) << kThreadBits) |
      (thread & kThreadMask));
}
inline Cost UnpackCost(std::int64_t packed) {
  return static_cast<Cost>(static_cast<std::uint64_t>(packed) >>
                           kThreadBits);
}
inline std::uint32_t UnpackThread(std::int64_t packed) {
  return static_cast<std::uint32_t>(static_cast<std::uint64_t>(packed) &
                                    kThreadMask);
}

}  // namespace cdd::par::raw
