#pragma once
/// \file philox.hpp
/// \brief Philox4x32-10 counter-based random number generator.
///
/// Philox (Salmon et al., SC'11) is the algorithm behind cuRAND's default
/// XORWOW alternative `CURAND_RNG_PSEUDO_PHILOX4_32_10` and the natural
/// choice for a CUDA-style runtime: a generator is just a (key, counter)
/// pair, so every simulated GPU thread owns an independent stream derived
/// from (seed, thread id) with zero shared state — exactly how the paper's
/// kernels consume cuRAND sequences (Sections VI-B, VI-C).
///
/// Being counter-based also makes runs bit-for-bit reproducible regardless
/// of how the simulator schedules blocks, which the determinism tests rely
/// on.
///
/// Host loops that draw many outputs at once go through
/// Philox4x32::Fill or the buffered BulkPhilox adaptor, which encrypt
/// whole blocks several at a time and yield exactly the same stream.
/// Launches that open one short stream per simulated thread draw every
/// thread's first block at once through StreamHeads.

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "core/types.hpp"

namespace cdd::rng {

/// SplitMix64 — tiny mixing generator used to expand seeds (Vigna).
/// Satisfies std::uniform_random_bit_generator.
class SplitMix64 {
 public:
  using result_type = std::uint64_t;
  explicit constexpr SplitMix64(std::uint64_t seed) : state_(seed) {}

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() {
    return std::numeric_limits<result_type>::max();
  }

  constexpr result_type operator()() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

/// xoshiro256** — fast general-purpose host-side generator (Blackman &
/// Vigna).  Used by the serial CPU baselines where stream independence per
/// thread is not needed.  Satisfies std::uniform_random_bit_generator.
class Xoshiro256 {
 public:
  using result_type = std::uint64_t;

  explicit Xoshiro256(std::uint64_t seed) {
    SplitMix64 mix(seed);
    for (auto& s : state_) s = mix();
  }

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() {
    return std::numeric_limits<result_type>::max();
  }

  result_type operator()() {
    const std::uint64_t result = Rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = Rotl(state_[3], 45);
    return result;
  }

  /// Equivalent to 2^128 calls; used to give worker threads disjoint
  /// subsequences.
  void LongJump();

 private:
  static constexpr std::uint64_t Rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }
  std::array<std::uint64_t, 4> state_{};
};

/// Philox4x32-10 block function: encrypts a 128-bit counter under a 64-bit
/// key producing four 32-bit outputs.  Exposed for the test vectors.
std::array<std::uint32_t, 4> Philox4x32Block(
    std::array<std::uint32_t, 4> counter, std::array<std::uint32_t, 2> key);

namespace detail {

/// The whole-block kernels behind Philox4x32::Fill, exposed so the tests
/// can compare them directly.  Each writes Philox4x32Block of the counters
/// (counter[0] + b, counter[1], counter[2], counter[3]) to
/// out[4b .. 4b+3] for every b < out.size() / 4; out.size() must be a
/// multiple of 4 and counter[0] + out.size() / 4 must not exceed
/// 0xffffffff, so word 0 never carries.  The portable kernel runs 8
/// interleaved blocks per pass; the AVX2 kernel runs 16 and may only be
/// called when core::HostCpuFeatures().avx2 holds (on builds for other
/// architectures it forwards to the portable kernel).
void PhiloxBlocksPortable(std::array<std::uint32_t, 4> counter,
                          std::array<std::uint32_t, 2> key,
                          std::span<std::uint32_t> out);
void PhiloxBlocksAvx2(std::array<std::uint32_t, 4> counter,
                      std::array<std::uint32_t, 2> key,
                      std::span<std::uint32_t> out);

/// The index kernels behind BulkPhilox::Shuffle, exposed for the same
/// reason.  Each maps words[k] in place to (words[k] * (top - k)) >> 32,
/// the index UniformBelow(rng, top - k) gives for that output, so the
/// words of one Fisher–Yates pass become its swap partners.
/// words.size() must not exceed top.  The portable kernel maps one word
/// at a time; the AVX2 kernel maps eight per vpmuludq pair, under the same
/// call rule as PhiloxBlocksAvx2.
void MapBelowPortable(std::uint32_t top, std::span<std::uint32_t> words);
void MapBelowAvx2(std::uint32_t top, std::span<std::uint32_t> words);

/// The stream-head kernels behind StreamHeads, exposed for the same
/// reason.  Each writes Philox4x32Block({0, 0, first + i, stream_hi}, key)
/// to heads[4i .. 4i+3] for every i < heads.size() / 4; heads.size() must
/// be a multiple of 4 and first + heads.size() / 4 must not exceed 2^32.
/// They run the passes of PhiloxBlocksPortable and PhiloxBlocksAvx2 with
/// counter word 2 counting up instead of word 0, under the same call
/// rule.
void StreamHeadsPortable(std::array<std::uint32_t, 2> key,
                         std::uint32_t stream_hi, std::uint32_t first,
                         std::span<std::uint32_t> heads);
void StreamHeadsAvx2(std::array<std::uint32_t, 2> key,
                     std::uint32_t stream_hi, std::uint32_t first,
                     std::span<std::uint32_t> heads);

}  // namespace detail

/// Block 0 of the streams (stream_hi << 32) | (first + i) of \p seed, for
/// i < heads.size() / 4, to heads[4i .. 4i+3]: the block
/// Philox4x32(seed, stream) encrypts for its first four outputs, drawn for
/// many consecutive streams in one bulk pass (AVX2 when the host has it).
/// Philox4x32(seed, stream, heads.subspan(4 * i).first<4>()) then opens
/// stream i without running the cipher.
void StreamHeads(std::uint64_t seed, std::uint32_t stream_hi,
                 std::uint32_t first, std::span<std::uint32_t> heads);

/// \brief Philox4x32-10 stream generator.
///
/// Constructed from (seed, stream): the seed keys the cipher, the stream id
/// (e.g. the simulated GPU thread index) is baked into the high counter
/// words, so all streams of one seed are provably disjoint.  Satisfies
/// std::uniform_random_bit_generator with 32-bit output.
class Philox4x32 {
 public:
  using result_type = std::uint32_t;

  explicit Philox4x32(std::uint64_t seed, std::uint64_t stream = 0)
      : key_{static_cast<std::uint32_t>(seed),
             static_cast<std::uint32_t>(seed >> 32)},
        counter_{0, 0, static_cast<std::uint32_t>(stream),
                 static_cast<std::uint32_t>(stream >> 32)} {}

  /// Philox4x32(seed, stream) with its block 0 already encrypted as
  /// \p head (StreamHeads' output for this stream): the same outputs and,
  /// after the first draw, the same state.  A stream that draws more than
  /// four outputs encrypts block 1 on as usual.
  Philox4x32(std::uint64_t seed, std::uint64_t stream,
             std::span<const std::uint32_t, 4> head)
      : Philox4x32(seed, stream) {
    std::copy(head.begin(), head.end(), block_.begin());
    counter_[0] = 1;
    index_ = 0;
  }

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() {
    return std::numeric_limits<result_type>::max();
  }

  result_type operator()() {
    if (index_ == 4) {
      block_ = Philox4x32Block(counter_, key_);
      AdvanceCounter();
      index_ = 0;
    }
    return block_[index_++];
  }

  /// Writes the next out.size() outputs, exactly the values that many
  /// operator() calls would return, and leaves the generator in the state
  /// those calls would leave.  Whole blocks are encrypted in bulk, through
  /// the AVX2 kernel when the host has it; both kernels yield the same
  /// integers.
  void Fill(std::span<std::uint32_t> out);

  /// Jumps to absolute position \p n in the stream (counts 32-bit outputs).
  /// O(1): counter-based generators are randomly addressable.
  void Seek(std::uint64_t n) {
    counter_[0] = static_cast<std::uint32_t>(n / 4);
    counter_[1] = static_cast<std::uint32_t>((n / 4) >> 32);
    block_ = Philox4x32Block(counter_, key_);
    AdvanceCounter();
    index_ = static_cast<unsigned>(n % 4);
  }

  /// cuRAND-style conversion: 32-bit integer to float in (0, 1].
  /// The paper normalizes cuRAND integers into [0,1] for the metropolis
  /// test; this matches curand_uniform's convention of excluding 0 so that
  /// log()/division by the result stay safe.
  static float ToUniformFloat(std::uint32_t v) {
    return (static_cast<float>(v) + 1.0f) * (1.0f / 4294967296.0f);
  }

  /// Next uniform float in (0, 1].
  float NextUniform() { return ToUniformFloat((*this)()); }

  friend bool operator==(const Philox4x32&, const Philox4x32&) = default;

 private:
  void AdvanceCounter() {
    if (++counter_[0] == 0 && ++counter_[1] == 0 && ++counter_[2] == 0) {
      ++counter_[3];
    }
  }

  std::array<std::uint32_t, 2> key_;
  std::array<std::uint32_t, 4> counter_;
  std::array<std::uint32_t, 4> block_{};
  unsigned index_ = 4;
};

/// \brief Buffered Philox4x32 stream for host loops that draw many outputs.
///
/// Yields exactly the outputs of Philox4x32(seed, stream), refilling a
/// 256-word buffer through Philox4x32::Fill.  Satisfies
/// std::uniform_random_bit_generator, so FisherYates and the other
/// sequence operators consume it unchanged.  Whole shuffles go through
/// Shuffle, which draws a pass's words with one Take and maps them to
/// indices in bulk.  Philox4x32 itself stays small: cudasim builds one per
/// simulated thread and the annealing checkpoints copy it.
class BulkPhilox {
 public:
  using result_type = std::uint32_t;

  explicit BulkPhilox(std::uint64_t seed, std::uint64_t stream = 0)
      : rng_(seed, stream) {}

  static constexpr result_type min() { return Philox4x32::min(); }
  static constexpr result_type max() { return Philox4x32::max(); }

  result_type operator()() {
    if (next_ == buffer_.size()) {
      rng_.Fill(buffer_);
      next_ = 0;
    }
    return buffer_[next_++];
  }

  /// Writes the next out.size() outputs, exactly the values that many
  /// operator() calls would return, refilling the buffer as often as
  /// needed.
  void Take(std::span<std::uint32_t> out);

  /// Shuffles \p seq exactly as FisherYates(seq, *this) would: the same
  /// swaps, from the same seq.size() - 1 outputs, leaving the stream
  /// where those draws would.  UniformBelow never rejects, so the outputs
  /// are taken with one Take, mapped to their indices in one
  /// detail::MapBelow pass (AVX2 when the host has it), and the loop
  /// after that only swaps.
  void Shuffle(std::span<JobId> seq);

 private:
  static constexpr std::size_t kBufferWords = 256;

  Philox4x32 rng_;
  std::array<std::uint32_t, kBufferWords> buffer_{};
  std::size_t next_ = kBufferWords;
  std::vector<std::uint32_t> draws_;  // Shuffle's words, then its indices
};

}  // namespace cdd::rng
