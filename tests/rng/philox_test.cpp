/// Philox4x32-10 and companion generator tests: known-answer vectors,
/// stream independence, random access, uniformity, and the bulk Fill path
/// (which must reproduce operator() output for output, state included),
/// the bulk shuffle (which must make FisherYates's swaps exactly) and the
/// stream heads (which must open exactly the stream they were drawn for).

#include "rng/philox.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <set>
#include <utility>
#include <vector>

#include "core/cpu_features.hpp"
#include "core/sequence.hpp"

namespace cdd::rng {
namespace {

TEST(Philox, KnownAnswerVectorZero) {
  // Random123 reference: philox4x32-10 of all-zero counter and key.
  const auto out = Philox4x32Block({0, 0, 0, 0}, {0, 0});
  EXPECT_EQ(out[0], 0x6627e8d5u);
  EXPECT_EQ(out[1], 0xe169c58du);
  EXPECT_EQ(out[2], 0xbc57ac4cu);
  EXPECT_EQ(out[3], 0x9b00dbd8u);
}

TEST(Philox, KnownAnswerVectorOnes) {
  // Random123 reference: all-ones counter and key.
  const auto out = Philox4x32Block(
      {0xffffffffu, 0xffffffffu, 0xffffffffu, 0xffffffffu},
      {0xffffffffu, 0xffffffffu});
  EXPECT_EQ(out[0], 0x408f276du);
  EXPECT_EQ(out[1], 0x41c83b0eu);
  EXPECT_EQ(out[2], 0xa20bc7c6u);
  EXPECT_EQ(out[3], 0x6d5451fdu);
}

TEST(Philox, DeterministicPerSeedAndStream) {
  Philox4x32 a(42, 7);
  Philox4x32 b(42, 7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a(), b());
  }
}

TEST(Philox, DifferentStreamsDiffer) {
  Philox4x32 a(42, 0);
  Philox4x32 b(42, 1);
  int equal = 0;
  for (int i = 0; i < 1000; ++i) {
    if (a() == b()) ++equal;
  }
  EXPECT_LT(equal, 5);  // collisions of independent uniforms are rare
}

TEST(Philox, DifferentSeedsDiffer) {
  Philox4x32 a(1, 0);
  Philox4x32 b(2, 0);
  int equal = 0;
  for (int i = 0; i < 1000; ++i) {
    if (a() == b()) ++equal;
  }
  EXPECT_LT(equal, 5);
}

TEST(Philox, SeekIsRandomAccess) {
  Philox4x32 sequential(9, 3);
  std::vector<std::uint32_t> expected;
  for (int i = 0; i < 64; ++i) expected.push_back(sequential());

  for (const std::uint64_t pos : {0ull, 1ull, 3ull, 4ull, 17ull, 63ull}) {
    Philox4x32 seeker(9, 3);
    seeker.Seek(pos);
    EXPECT_EQ(seeker(), expected[pos]) << "position " << pos;
  }
}

TEST(Philox, UniformFloatInHalfOpenUnitInterval) {
  Philox4x32 rng(2718);
  for (int i = 0; i < 100000; ++i) {
    const float u = rng.NextUniform();
    EXPECT_GT(u, 0.0f);
    EXPECT_LE(u, 1.0f);
  }
  EXPECT_FLOAT_EQ(Philox4x32::ToUniformFloat(0xffffffffu), 1.0f);
  EXPECT_GT(Philox4x32::ToUniformFloat(0), 0.0f);
}

TEST(Philox, ChiSquareUniformityOf16Buckets) {
  Philox4x32 rng(31415);
  constexpr int kBuckets = 16;
  constexpr int kSamples = 160000;
  std::vector<int> counts(kBuckets, 0);
  for (int i = 0; i < kSamples; ++i) {
    ++counts[rng() >> 28];
  }
  double chi2 = 0.0;
  const double expected = static_cast<double>(kSamples) / kBuckets;
  for (const int c : counts) {
    const double d = c - expected;
    chi2 += d * d / expected;
  }
  // 15 degrees of freedom; 99.9th percentile ~ 37.7.
  EXPECT_LT(chi2, 37.7);
}

TEST(Philox, MonobitBalance) {
  Philox4x32 rng(161803);
  std::int64_t bits = 0;
  constexpr int kWords = 100000;
  for (int i = 0; i < kWords; ++i) {
    bits += std::popcount(rng());
  }
  const double mean = static_cast<double>(bits) / (kWords * 32.0);
  EXPECT_NEAR(mean, 0.5, 0.002);
}

// Bulk consumers must not change the footprint cudasim and the annealing
// checkpoints pay per generator: key, counter, block and index.
static_assert(sizeof(Philox4x32) == 11 * sizeof(std::uint32_t));

/// The next \p count outputs of \p rng, one operator() call each.
std::vector<std::uint32_t> Draw(Philox4x32& rng, std::size_t count) {
  std::vector<std::uint32_t> out(count);
  for (std::uint32_t& v : out) v = rng();
  return out;
}

constexpr std::size_t kFillLengths[] = {0, 1, 3, 4, 5, 63, 64, 65, 1000};

TEST(PhiloxFill, MatchesOperatorFromEveryOffsetAndLeavesTheSameState) {
  for (unsigned offset = 0; offset < 4; ++offset) {
    for (const std::size_t length : kFillLengths) {
      Philox4x32 bulk(77, 5);
      Philox4x32 twin(77, 5);
      Draw(bulk, offset);
      Draw(twin, offset);
      std::vector<std::uint32_t> filled(length);
      bulk.Fill(filled);
      EXPECT_EQ(filled, Draw(twin, length))
          << "offset " << offset << " length " << length;
      EXPECT_TRUE(bulk == twin) << "offset " << offset << " length " << length;
      EXPECT_EQ(Draw(bulk, 9), Draw(twin, 9))
          << "offset " << offset << " length " << length;
    }
  }
}

TEST(PhiloxFill, BackToBackFillsMatchSeek) {
  // Fill in uneven pieces; every output must equal Seek(k) + operator().
  Philox4x32 bulk(0xfeedULL, 12);
  std::vector<std::uint32_t> stream;
  for (const std::size_t length : {3u, 1u, 65u, 0u, 64u, 5u, 1000u, 4u}) {
    std::vector<std::uint32_t> piece(length);
    bulk.Fill(piece);
    stream.insert(stream.end(), piece.begin(), piece.end());
  }
  for (std::size_t k = 0; k < stream.size(); ++k) {
    Philox4x32 seeker(0xfeedULL, 12);
    seeker.Seek(k);
    ASSERT_EQ(stream[k], seeker()) << "position " << k;
  }
}

TEST(PhiloxFill, CarriesAcrossTheCounterWordZeroWrap) {
  // Start a few blocks below the word-0 wrap so a 16-block pass would
  // straddle the carry into word 1, at every in-block offset.
  for (const std::uint64_t blocks_below : {1ull, 3ull, 15ull, 16ull, 17ull}) {
    for (unsigned offset = 0; offset < 4; ++offset) {
      const std::uint64_t start =
          ((std::uint64_t{7} << 32) - blocks_below) * 4 + offset;
      Philox4x32 bulk(31, 2);
      Philox4x32 twin(31, 2);
      bulk.Seek(start);
      twin.Seek(start);
      std::vector<std::uint32_t> filled(1000);
      bulk.Fill(filled);
      EXPECT_EQ(filled, Draw(twin, filled.size()))
          << "blocks below " << blocks_below << " offset " << offset;
      EXPECT_TRUE(bulk == twin);
      Philox4x32 seeker(31, 2);
      seeker.Seek(start + filled.size());
      EXPECT_EQ(bulk(), seeker());
    }
  }
}

TEST(PhiloxFill, PortableKernelMatchesTheBlockFunction) {
  const std::array<std::uint32_t, 4> counter{0xfffffe00u, 9, 0xabcdu, 1};
  const std::array<std::uint32_t, 2> key{0x12345678u, 0x9abcdef0u};
  for (const std::size_t blocks : {0u, 1u, 7u, 8u, 9u, 16u, 17u, 100u}) {
    std::vector<std::uint32_t> out(4 * blocks);
    detail::PhiloxBlocksPortable(counter, key, out);
    for (std::size_t b = 0; b < blocks; ++b) {
      const auto expected = Philox4x32Block(
          {counter[0] + static_cast<std::uint32_t>(b), counter[1],
           counter[2], counter[3]},
          key);
      for (std::size_t w = 0; w < 4; ++w) {
        ASSERT_EQ(out[4 * b + w], expected[w])
            << "blocks " << blocks << " block " << b;
      }
    }
  }
}

TEST(PhiloxFill, Avx2KernelMatchesPortableKernel) {
  if (!core::HostCpuFeatures().avx2) {
    GTEST_SKIP() << "host CPU has no AVX2";
  }
  const std::array<std::array<std::uint32_t, 4>, 3> counters{{
      {0, 0, 0, 0},
      {0xffffff00u, 0xffffffffu, 0xffffffffu, 0xffffffffu},
      {0x01234567u, 0x89abcdefu, 0x0badf00du, 0xdeadbeefu},
  }};
  const std::array<std::array<std::uint32_t, 2>, 3> keys{{
      {0, 0}, {0xffffffffu, 0xffffffffu}, {0x5eedu, 0x70deadbeu}}};
  for (const auto& counter : counters) {
    for (const auto& key : keys) {
      for (const std::size_t blocks : {0u, 1u, 15u, 16u, 17u, 33u, 64u}) {
        std::vector<std::uint32_t> avx2(4 * blocks);
        std::vector<std::uint32_t> portable(4 * blocks);
        detail::PhiloxBlocksAvx2(counter, key, avx2);
        detail::PhiloxBlocksPortable(counter, key, portable);
        EXPECT_EQ(avx2, portable) << "blocks " << blocks;
      }
    }
  }
}

/// Every stream-head kernel the host can run, by name.
std::vector<std::pair<const char*, decltype(&detail::StreamHeadsPortable)>>
HeadKernels() {
  std::vector<std::pair<const char*, decltype(&detail::StreamHeadsPortable)>>
      kernels{{"portable", &detail::StreamHeadsPortable}};
  if (core::HostCpuFeatures().avx2) {
    kernels.emplace_back("avx2", &detail::StreamHeadsAvx2);
  }
  return kernels;
}

TEST(StreamHeads, KernelsMatchTheBlockFunction) {
  const std::array<std::uint32_t, 2> key{0x12345678u, 0x9abcdef0u};
  for (const auto& [name, kernel] : HeadKernels()) {
    for (const std::uint32_t first : {0u, 1u, 0x2ffu, 0xfffff000u}) {
      for (std::uint32_t count = 1; count <= 17; ++count) {
        std::vector<std::uint32_t> heads(4 * count);
        kernel(key, 0x70deadu, first, heads);
        for (std::uint32_t i = 0; i < count; ++i) {
          const auto expected =
              Philox4x32Block({0, 0, first + i, 0x70deadu}, key);
          for (std::size_t w = 0; w < 4; ++w) {
            ASSERT_EQ(heads[4 * i + w], expected[w])
                << name << " first " << first << " count " << count
                << " i " << i;
          }
        }
      }
    }
  }
}

TEST(StreamHeads, Avx2KernelMatchesPortableKernelOverALaunch) {
  if (!core::HostCpuFeatures().avx2) {
    GTEST_SKIP() << "host CPU has no AVX2";
  }
  // The paper's 768-thread ensemble and a ragged tail past it.
  for (const std::size_t count : {768u, 771u}) {
    std::vector<std::uint32_t> avx2(4 * count), portable(4 * count);
    detail::StreamHeadsAvx2({0x5eedu, 0x70deadbeu}, 9, 3, avx2);
    detail::StreamHeadsPortable({0x5eedu, 0x70deadbeu}, 9, 3, portable);
    EXPECT_EQ(avx2, portable) << "count " << count;
  }
}

TEST(StreamHeads, HeadBuiltStreamIsThePhiloxStream) {
  for (const std::uint64_t seed : {0ull, 42ull, ~0ull}) {
    const std::uint32_t stream_hi = 4 * 7 + 2;
    const std::uint32_t first = 40;
    const std::uint32_t count = 20;
    std::vector<std::uint32_t> heads(4 * count);
    StreamHeads(seed, stream_hi, first, heads);
    for (std::uint32_t i = 0; i < count; ++i) {
      const std::uint64_t stream =
          (std::uint64_t{stream_hi} << 32) | (first + i);
      Philox4x32 opened(seed, stream,
                        std::span<const std::uint32_t>(heads)
                            .subspan(4 * i)
                            .first<4>());
      Philox4x32 twin(seed, stream);
      ASSERT_EQ(opened(), twin()) << "seed " << seed << " stream " << i;
      EXPECT_EQ(opened, twin) << "seed " << seed << " stream " << i;
      for (int draw = 1; draw < 16; ++draw) {
        ASSERT_EQ(opened(), twin())
            << "seed " << seed << " stream " << i << " draw " << draw;
      }
    }
  }
}

TEST(BulkPhilox, YieldsThePhiloxStream) {
  for (const std::uint64_t seed : {0ull, 42ull, ~0ull}) {
    BulkPhilox bulk(seed, 0x70DEADBEEFULL);
    Philox4x32 twin(seed, 0x70DEADBEEFULL);
    for (int i = 0; i < 2000; ++i) {
      ASSERT_EQ(bulk(), twin()) << "seed " << seed << " draw " << i;
    }
  }
}

TEST(BulkPhilox, TakeYieldsThePhiloxStreamAcrossRefills) {
  // Pieces of every size around the 256-word buffer, mixed with single
  // draws, so Take starts from every kind of buffer position.
  BulkPhilox bulk(0xabcULL, 3);
  Philox4x32 twin(0xabcULL, 3);
  for (const std::size_t length :
       {0u, 1u, 255u, 256u, 257u, 3u, 511u, 512u, 1000u, 100u}) {
    std::vector<std::uint32_t> taken(length);
    bulk.Take(taken);
    EXPECT_EQ(taken, Draw(twin, length)) << "length " << length;
    ASSERT_EQ(bulk(), twin()) << "draw after length " << length;
  }
}

TEST(BulkPhilox, ShuffleMatchesFisherYatesOnPhilox) {
  for (const std::size_t n :
       {0u, 1u, 2u, 3u, 4u, 5u, 8u, 9u, 99u, 100u, 255u, 256u, 257u, 1000u}) {
    BulkPhilox bulk(0x5eedULL, 0x70DEADBEEFULL);
    Philox4x32 twin(0x5eedULL, 0x70DEADBEEFULL);
    Sequence shuffled = IdentitySequence(n);
    Sequence expected = IdentitySequence(n);
    // Enough cumulative shuffles that the draws cross several refills of
    // the 256-word buffer at varying offsets.
    for (int pass = 0; pass < 12; ++pass) {
      bulk.Shuffle(shuffled);
      FisherYates(std::span<JobId>(expected), twin);
      ASSERT_EQ(shuffled, expected) << "n " << n << " pass " << pass;
      ASSERT_EQ(bulk(), twin()) << "n " << n << " pass " << pass;
    }
  }
}

/// Lemire's index of \p word below \p bound, as UniformBelow computes it.
std::uint32_t LemireIndex(std::uint32_t word, std::uint32_t bound) {
  return static_cast<std::uint32_t>(
      (static_cast<std::uint64_t>(word) * bound) >> 32);
}

/// For every top from 1 to 1025, a pass of top words mapped with bounds
/// top, top - 1, ..., 1: each edge word fills one pass, so it meets every
/// bound, and a random pass follows.
template <typename Check>
void ForEachMapBelowCase(Check check) {
  Philox4x32 source(0xfaceULL, 9);
  for (std::uint32_t top = 1; top <= 1025; ++top) {
    for (const std::uint32_t edge : {0u, 1u, 0x80000000u, 0xffffffffu}) {
      check(top, std::vector<std::uint32_t>(top, edge));
    }
    check(top, Draw(source, top));
  }
}

TEST(MapBelow, PortableKernelIsUniformBelow) {
  ForEachMapBelowCase([](std::uint32_t top, std::vector<std::uint32_t> words) {
    std::vector<std::uint32_t> mapped = words;
    detail::MapBelowPortable(top, mapped);
    for (std::uint32_t k = 0; k < top; ++k) {
      ASSERT_EQ(mapped[k], LemireIndex(words[k], top - k))
          << "top " << top << " k " << k;
      ASSERT_LT(mapped[k], top - k);
    }
  });
}

TEST(MapBelow, Avx2KernelMatchesPortableKernel) {
  if (!core::HostCpuFeatures().avx2) {
    GTEST_SKIP() << "host CPU has no AVX2";
  }
  ForEachMapBelowCase([](std::uint32_t top, std::vector<std::uint32_t> words) {
    std::vector<std::uint32_t> avx2 = words;
    detail::MapBelowAvx2(top, avx2);
    detail::MapBelowPortable(top, words);
    ASSERT_EQ(avx2, words) << "top " << top;
  });
}

TEST(SplitMix64, KnownFirstOutputs) {
  // Reference values for seed 1234567 (Vigna's splitmix64.c).
  SplitMix64 rng(1234567);
  EXPECT_EQ(rng(), 6457827717110365317ull);
  EXPECT_EQ(rng(), 3203168211198807973ull);
}

TEST(Xoshiro256, DeterministicAndNonDegenerate) {
  Xoshiro256 a(99);
  Xoshiro256 b(99);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const std::uint64_t v = a();
    EXPECT_EQ(v, b());
    seen.insert(v);
  }
  EXPECT_GT(seen.size(), 995u);
}

TEST(Xoshiro256, LongJumpDecorrelates) {
  Xoshiro256 a(5);
  Xoshiro256 b(5);
  b.LongJump();
  int equal = 0;
  for (int i = 0; i < 1000; ++i) {
    if (a() == b()) ++equal;
  }
  EXPECT_LT(equal, 5);
}

}  // namespace
}  // namespace cdd::rng
