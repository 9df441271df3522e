#include "rng/philox.hpp"

#include <algorithm>
#include <utility>

#include "core/cpu_features.hpp"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define CDD_PHILOX_X86 1
#include <immintrin.h>
#endif

namespace cdd::rng {
namespace {

constexpr std::uint32_t kPhiloxM0 = 0xD2511F53u;
constexpr std::uint32_t kPhiloxM1 = 0xCD9E8D57u;
constexpr std::uint32_t kPhiloxW0 = 0x9E3779B9u;  // golden ratio
constexpr std::uint32_t kPhiloxW1 = 0xBB67AE85u;  // sqrt(3) - 1

inline std::uint32_t MulHi(std::uint32_t a, std::uint32_t b) {
  return static_cast<std::uint32_t>(
      (static_cast<std::uint64_t>(a) * b) >> 32);
}

/// One Philox4x32 round on the counter words (x0, x1, x2, x3).
inline void PhiloxRound(std::uint32_t& x0, std::uint32_t& x1,
                        std::uint32_t& x2, std::uint32_t& x3,
                        std::array<std::uint32_t, 2> key) {
  const std::uint32_t hi0 = MulHi(kPhiloxM0, x0);
  const std::uint32_t lo0 = kPhiloxM0 * x0;
  const std::uint32_t hi1 = MulHi(kPhiloxM1, x2);
  const std::uint32_t lo1 = kPhiloxM1 * x2;
  x0 = hi1 ^ x1 ^ key[0];
  x1 = lo1;
  x2 = hi0 ^ x3 ^ key[1];
  x3 = lo0;
}

/// Blocks per pass of the portable kernel: enough independent multiply
/// chains to hide the multiplier latency.
constexpr std::size_t kPortableLanes = 8;

/// One portable pass: kPortableLanes counters that count up in word
/// kWord (0 for consecutive blocks of one stream, 2 for block 0 of
/// consecutive streams), round by round.
template <int kWord>
void PortablePass(std::array<std::uint32_t, 4> ctr,
                  std::array<std::uint32_t, 2> key, std::uint32_t* out) {
  std::uint32_t x0[kPortableLanes], x1[kPortableLanes], x2[kPortableLanes],
      x3[kPortableLanes];
  for (std::size_t l = 0; l < kPortableLanes; ++l) {
    const auto lane = static_cast<std::uint32_t>(l);
    x0[l] = ctr[0] + (kWord == 0 ? lane : 0u);
    x1[l] = ctr[1];
    x2[l] = ctr[2] + (kWord == 2 ? lane : 0u);
    x3[l] = ctr[3];
  }
  for (int round = 0; round < 10; ++round) {
    for (std::size_t l = 0; l < kPortableLanes; ++l) {
      PhiloxRound(x0[l], x1[l], x2[l], x3[l], key);
    }
    key[0] += kPhiloxW0;
    key[1] += kPhiloxW1;
  }
  for (std::size_t l = 0; l < kPortableLanes; ++l) {
    out[4 * l] = x0[l];
    out[4 * l + 1] = x1[l];
    out[4 * l + 2] = x2[l];
    out[4 * l + 3] = x3[l];
  }
}

#if defined(CDD_PHILOX_X86)

/// Blocks per AVX2 pass: two interleaved sets of eight 32-bit lanes.
constexpr std::size_t kAvx2Blocks = 16;

/// Eight blocks, one per 32-bit lane, as four counter-word registers.
struct Lanes8 {
  __m256i x0, x1, x2, x3;
};

/// 32x32 -> 64-bit products of every lane with \p m: vpmuludq multiplies
/// the even lanes, the odd lanes are shifted down for a second multiply,
/// and blends put each half back in its lane.
__attribute__((target("avx2"))) inline void MulLanes(__m256i x, __m256i m,
                                                     __m256i& hi,
                                                     __m256i& lo) {
  const __m256i even = _mm256_mul_epu32(x, m);
  const __m256i odd = _mm256_mul_epu32(_mm256_srli_epi64(x, 32), m);
  lo = _mm256_blend_epi32(even, _mm256_slli_epi64(odd, 32), 0xAA);
  hi = _mm256_blend_epi32(_mm256_srli_epi64(even, 32), odd, 0xAA);
}

__attribute__((target("avx2"))) inline void Avx2Round(Lanes8& s,
                                                      __m256i k0,
                                                      __m256i k1) {
  const __m256i m0 = _mm256_set1_epi32(static_cast<int>(kPhiloxM0));
  const __m256i m1 = _mm256_set1_epi32(static_cast<int>(kPhiloxM1));
  __m256i hi0, lo0, hi1, lo1;
  MulLanes(s.x0, m0, hi0, lo0);
  MulLanes(s.x2, m1, hi1, lo1);
  s.x0 = _mm256_xor_si256(_mm256_xor_si256(hi1, s.x1), k0);
  s.x1 = lo1;
  s.x2 = _mm256_xor_si256(_mm256_xor_si256(hi0, s.x3), k1);
  s.x3 = lo0;
}

/// Transposes the eight blocks of \p s back to stream order (four words
/// per block) and stores them to out[0 .. 31].
__attribute__((target("avx2"))) inline void StoreLanes8(const Lanes8& s,
                                                        std::uint32_t* out) {
  const __m256i a = _mm256_unpacklo_epi32(s.x0, s.x1);  // b0 b1 | b4 b5
  const __m256i b = _mm256_unpacklo_epi32(s.x2, s.x3);
  const __m256i c = _mm256_unpackhi_epi32(s.x0, s.x1);  // b2 b3 | b6 b7
  const __m256i d = _mm256_unpackhi_epi32(s.x2, s.x3);
  const __m256i b04 = _mm256_unpacklo_epi64(a, b);
  const __m256i b15 = _mm256_unpackhi_epi64(a, b);
  const __m256i b26 = _mm256_unpacklo_epi64(c, d);
  const __m256i b37 = _mm256_unpackhi_epi64(c, d);
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(out),
                      _mm256_permute2x128_si256(b04, b15, 0x20));
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + 8),
                      _mm256_permute2x128_si256(b26, b37, 0x20));
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + 16),
                      _mm256_permute2x128_si256(b04, b15, 0x31));
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + 24),
                      _mm256_permute2x128_si256(b26, b37, 0x31));
}

/// One AVX2 pass: kAvx2Blocks counters that count up in word kWord (as
/// in PortablePass) to out[0 .. 63].
template <int kWord>
__attribute__((target("avx2"))) void Avx2Pass(
    std::array<std::uint32_t, 4> ctr, std::array<std::uint32_t, 2> key,
    std::uint32_t* out) {
  const __m256i c0 = _mm256_set1_epi32(static_cast<int>(ctr[0]));
  const __m256i c1 = _mm256_set1_epi32(static_cast<int>(ctr[1]));
  const __m256i c2 = _mm256_set1_epi32(static_cast<int>(ctr[2]));
  const __m256i c3 = _mm256_set1_epi32(static_cast<int>(ctr[3]));
  const __m256i lanes_a = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
  const __m256i lanes_b = _mm256_setr_epi32(8, 9, 10, 11, 12, 13, 14, 15);
  Lanes8 a{c0, c1, c2, c3};
  Lanes8 b{c0, c1, c2, c3};
  if constexpr (kWord == 0) {
    a.x0 = _mm256_add_epi32(c0, lanes_a);
    b.x0 = _mm256_add_epi32(c0, lanes_b);
  } else {
    a.x2 = _mm256_add_epi32(c2, lanes_a);
    b.x2 = _mm256_add_epi32(c2, lanes_b);
  }
  for (int round = 0; round < 10; ++round) {
    const __m256i k0 = _mm256_set1_epi32(static_cast<int>(key[0]));
    const __m256i k1 = _mm256_set1_epi32(static_cast<int>(key[1]));
    Avx2Round(a, k0, k1);
    Avx2Round(b, k0, k1);
    key[0] += kPhiloxW0;
    key[1] += kPhiloxW1;
  }
  StoreLanes8(a, out);
  StoreLanes8(b, out + 32);
}

/// Lemire indices of eight words per step: vpmuludq multiplies the even
/// lanes by their bounds, the odd lanes are shifted down for a second
/// multiply, and a blend gathers the high halves.  Returns the number of
/// words mapped, a multiple of 8; MapBelowAvx2 maps the rest.
__attribute__((target("avx2"))) std::size_t MapBelowPass(
    std::uint32_t top, std::span<std::uint32_t> words) {
  __m256i bound = _mm256_sub_epi32(_mm256_set1_epi32(static_cast<int>(top)),
                                   _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
  const __m256i step = _mm256_set1_epi32(8);
  std::size_t k = 0;
  for (; words.size() - k >= 8; k += 8) {
    auto* at = reinterpret_cast<__m256i*>(words.data() + k);
    const __m256i w = _mm256_loadu_si256(at);
    const __m256i even = _mm256_mul_epu32(w, bound);
    const __m256i odd = _mm256_mul_epu32(_mm256_srli_epi64(w, 32),
                                         _mm256_srli_epi64(bound, 32));
    _mm256_storeu_si256(
        at, _mm256_blend_epi32(_mm256_srli_epi64(even, 32), odd, 0xAA));
    bound = _mm256_sub_epi32(bound, step);
  }
  return k;
}

#endif  // CDD_PHILOX_X86

/// Philox4x32Block of \p counter with word kWord advanced by b, to
/// out[4b .. 4b+3] for every b < out.size() / 4: kPortableLanes blocks
/// per pass, the rest one at a time.
template <int kWord>
void BlocksPortable(std::array<std::uint32_t, 4> counter,
                    std::array<std::uint32_t, 2> key,
                    std::span<std::uint32_t> out) {
  std::size_t i = 0;
  for (; out.size() - i >= 4 * kPortableLanes; i += 4 * kPortableLanes) {
    PortablePass<kWord>(counter, key, out.data() + i);
    counter[kWord] += static_cast<std::uint32_t>(kPortableLanes);
  }
  for (; i < out.size(); i += 4) {
    const auto block = Philox4x32Block(counter, key);
    std::copy(block.begin(), block.end(), out.begin() + i);
    ++counter[kWord];
  }
}

/// BlocksPortable's output, kAvx2Blocks per AVX2 pass.
template <int kWord>
void BlocksAvx2(std::array<std::uint32_t, 4> counter,
                std::array<std::uint32_t, 2> key,
                std::span<std::uint32_t> out) {
  std::size_t i = 0;
#if defined(CDD_PHILOX_X86)
  for (; out.size() - i >= 4 * kAvx2Blocks; i += 4 * kAvx2Blocks) {
    Avx2Pass<kWord>(counter, key, out.data() + i);
    counter[kWord] += static_cast<std::uint32_t>(kAvx2Blocks);
  }
#endif
  BlocksPortable<kWord>(counter, key, out.subspan(i));
}

}  // namespace

std::array<std::uint32_t, 4> Philox4x32Block(
    std::array<std::uint32_t, 4> ctr, std::array<std::uint32_t, 2> key) {
  for (int round = 0; round < 10; ++round) {
    PhiloxRound(ctr[0], ctr[1], ctr[2], ctr[3], key);
    key[0] += kPhiloxW0;
    key[1] += kPhiloxW1;
  }
  return ctr;
}

namespace detail {

void PhiloxBlocksPortable(std::array<std::uint32_t, 4> counter,
                          std::array<std::uint32_t, 2> key,
                          std::span<std::uint32_t> out) {
  BlocksPortable<0>(counter, key, out);
}

void PhiloxBlocksAvx2(std::array<std::uint32_t, 4> counter,
                      std::array<std::uint32_t, 2> key,
                      std::span<std::uint32_t> out) {
  BlocksAvx2<0>(counter, key, out);
}

void StreamHeadsPortable(std::array<std::uint32_t, 2> key,
                         std::uint32_t stream_hi, std::uint32_t first,
                         std::span<std::uint32_t> heads) {
  BlocksPortable<2>({0, 0, first, stream_hi}, key, heads);
}

void StreamHeadsAvx2(std::array<std::uint32_t, 2> key,
                     std::uint32_t stream_hi, std::uint32_t first,
                     std::span<std::uint32_t> heads) {
  BlocksAvx2<2>({0, 0, first, stream_hi}, key, heads);
}

void MapBelowPortable(std::uint32_t top, std::span<std::uint32_t> words) {
  for (std::size_t k = 0; k < words.size(); ++k) {
    const std::uint64_t bound = top - static_cast<std::uint32_t>(k);
    words[k] = static_cast<std::uint32_t>((words[k] * bound) >> 32);
  }
}

void MapBelowAvx2(std::uint32_t top, std::span<std::uint32_t> words) {
  std::size_t k = 0;
#if defined(CDD_PHILOX_X86)
  k = MapBelowPass(top, words);
#endif
  MapBelowPortable(top - static_cast<std::uint32_t>(k), words.subspan(k));
}

}  // namespace detail

void StreamHeads(std::uint64_t seed, std::uint32_t stream_hi,
                 std::uint32_t first, std::span<std::uint32_t> heads) {
  const std::array<std::uint32_t, 2> key{
      static_cast<std::uint32_t>(seed), static_cast<std::uint32_t>(seed >> 32)};
  if (core::HostCpuFeatures().avx2) {
    detail::StreamHeadsAvx2(key, stream_hi, first, heads);
  } else {
    detail::StreamHeadsPortable(key, stream_hi, first, heads);
  }
}

void BulkPhilox::Take(std::span<std::uint32_t> out) {
  std::size_t i = 0;
  while (i < out.size()) {
    if (next_ == buffer_.size()) {
      rng_.Fill(buffer_);
      next_ = 0;
    }
    const std::size_t count =
        std::min(out.size() - i, buffer_.size() - next_);
    std::copy_n(buffer_.begin() + next_, count, out.begin() + i);
    next_ += count;
    i += count;
  }
}

void BulkPhilox::Shuffle(std::span<JobId> seq) {
  if (seq.size() < 2) return;
  const std::size_t last = seq.size() - 1;
  draws_.resize(last);
  Take(draws_);
  const auto top = static_cast<std::uint32_t>(seq.size());
  if (core::HostCpuFeatures().avx2) {
    detail::MapBelowAvx2(top, draws_);
  } else {
    detail::MapBelowPortable(top, draws_);
  }
  for (std::size_t k = 0; k < last; ++k) {
    std::swap(seq[last - k], seq[draws_[k]]);
  }
}

void Philox4x32::Fill(std::span<std::uint32_t> out) {
  // 1. The rest of the current block.
  std::size_t i = 0;
  while (index_ < 4 && i < out.size()) out[i++] = block_[index_++];
  if (i == out.size()) return;

  // 2. Whole blocks in bulk.  The kernels hold counter words 1-3 fixed, so
  // a run stops short of a word-0 wrap and the block at the wrap goes
  // through AdvanceCounter's carry on its own.
  const bool avx2 = core::HostCpuFeatures().avx2;
  std::size_t whole = (out.size() - i) / 4;
  while (whole > 0) {
    const std::size_t room = 0xffffffffu - counter_[0];
    if (room == 0) {
      block_ = Philox4x32Block(counter_, key_);
      AdvanceCounter();
      std::copy(block_.begin(), block_.end(), out.begin() + i);
      i += 4;
      --whole;
      continue;
    }
    const std::size_t blocks = std::min(whole, room);
    const std::span<std::uint32_t> run = out.subspan(i, 4 * blocks);
    if (avx2) {
      detail::PhiloxBlocksAvx2(counter_, key_, run);
    } else {
      detail::PhiloxBlocksPortable(counter_, key_, run);
    }
    counter_[0] += static_cast<std::uint32_t>(blocks);
    std::copy(run.end() - 4, run.end(), block_.begin());
    i += run.size();
    whole -= blocks;
  }

  // 3. The tail, leaving a partly consumed block.
  if (i < out.size()) {
    block_ = Philox4x32Block(counter_, key_);
    AdvanceCounter();
    index_ = 0;
    while (i < out.size()) out[i++] = block_[index_++];
  }
}

void Xoshiro256::LongJump() {
  static constexpr std::uint64_t kJump[] = {
      0x76e15d3efefdcbbfULL, 0xc5004e441c522fb3ULL, 0x77710069854ee241ULL,
      0x39109bb02acbe635ULL};
  std::uint64_t s0 = 0, s1 = 0, s2 = 0, s3 = 0;
  for (const std::uint64_t jump : kJump) {
    for (int b = 0; b < 64; ++b) {
      if (jump & (1ULL << b)) {
        s0 ^= state_[0];
        s1 ^= state_[1];
        s2 ^= state_[2];
        s3 ^= state_[3];
      }
      (*this)();
    }
  }
  state_ = {s0, s1, s2, s3};
}

}  // namespace cdd::rng
