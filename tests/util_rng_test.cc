#include "util/rng.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <set>

#include <gtest/gtest.h>

namespace gale::util {
namespace {

TEST(RngTest, DeterministicForEqualSeeds) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) equal += (a.Next() == b.Next());
  EXPECT_LT(equal, 4);
}

TEST(RngTest, UniformInUnitInterval) {
  Rng rng(7);
  double sum = 0.0;
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.Uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(RngTest, UniformRangeRespectsBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.Uniform(-3.0, 5.0);
    ASSERT_GE(u, -3.0);
    ASSERT_LT(u, 5.0);
  }
}

TEST(RngTest, UniformIntCoversAllResidues) {
  Rng rng(11);
  std::set<uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.UniformInt(7));
  EXPECT_EQ(seen.size(), 7u);
  EXPECT_EQ(*seen.rbegin(), 6u);
}

TEST(RngTest, NormalMomentsMatch) {
  Rng rng(13);
  double sum = 0.0;
  double sq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.Normal();
    sum += x;
    sq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.03);
  EXPECT_NEAR(sq / n, 1.0, 0.05);
}

TEST(RngTest, NormalWithParams) {
  Rng rng(13);
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.Normal(10.0, 2.0);
  EXPECT_NEAR(sum / n, 10.0, 0.1);
}

TEST(RngTest, BernoulliEdgeCases) {
  Rng rng(3);
  for (int i = 0; i < 32; ++i) {
    EXPECT_FALSE(rng.Bernoulli(0.0));
    EXPECT_TRUE(rng.Bernoulli(1.0));
  }
}

TEST(RngTest, BernoulliRate) {
  Rng rng(3);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) hits += rng.Bernoulli(0.3);
  EXPECT_NEAR(hits / 10000.0, 0.3, 0.02);
}

TEST(RngTest, CategoricalFollowsWeights) {
  Rng rng(5);
  std::vector<double> weights = {1.0, 0.0, 3.0};
  std::vector<int> counts(3, 0);
  for (int i = 0; i < 8000; ++i) counts[rng.Categorical(weights)] += 1;
  EXPECT_EQ(counts[1], 0);
  EXPECT_NEAR(counts[2] / 8000.0, 0.75, 0.03);
}

TEST(RngTest, CategoricalAllZeroFallsBackToUniform) {
  Rng rng(5);
  std::vector<double> weights = {0.0, 0.0};
  std::set<size_t> seen;
  for (int i = 0; i < 100; ++i) seen.insert(rng.Categorical(weights));
  EXPECT_EQ(seen.size(), 2u);
}

TEST(RngTest, SampleWithoutReplacementIsDistinct) {
  Rng rng(17);
  std::vector<size_t> sample = rng.SampleWithoutReplacement(100, 30);
  std::set<size_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(sample.size(), 30u);
  EXPECT_EQ(unique.size(), 30u);
  for (size_t s : sample) EXPECT_LT(s, 100u);
}

TEST(RngTest, SampleWithoutReplacementKGreaterThanN) {
  Rng rng(17);
  std::vector<size_t> sample = rng.SampleWithoutReplacement(5, 50);
  EXPECT_EQ(sample.size(), 5u);
}

TEST(RngTest, ShufflePreservesElements) {
  Rng rng(19);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7};
  std::vector<int> original = v;
  rng.Shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, original);
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng a(23);
  Rng forked = a.Fork();
  int equal = 0;
  for (int i = 0; i < 64; ++i) equal += (a.Next() == forked.Next());
  EXPECT_LT(equal, 4);
}

// Golden stream: the first outputs of each draw from a fixed seed, recorded
// before Next/Uniform/Bernoulli moved inline into the header. Every
// seeded result in the repository hangs off this stream, so a change to
// the engine or to a distribution's arithmetic fails here first.
constexpr uint64_t kGoldenSeed = 20230405;

TEST(RngTest, GoldenNext) {
  constexpr uint64_t kExpected[16] = {
      0x2e72d4875985e4c0ULL, 0x614908132bb33862ULL, 0x1a4496402a15757cULL,
      0x55260c8519fcac13ULL, 0x96a814b2753a0afaULL, 0x9c6229c9c31a7ecaULL,
      0xc532606d694ed1a8ULL, 0xfa7bcf70f16c37d6ULL, 0xd0d120a549e6d451ULL,
      0x07eeb3bd533ea6d5ULL, 0x766568f62d6e8913ULL, 0x3349428996b32b6fULL,
      0xfcd4d97976672a9cULL, 0x2eddae487b54c7d6ULL, 0x31ba1979f946b854ULL,
      0xbeab628215c07a24ULL};
  Rng rng(kGoldenSeed);
  for (uint64_t expected : kExpected) EXPECT_EQ(rng.Next(), expected);
}

TEST(RngTest, GoldenUniform) {
  constexpr double kExpected[16] = {
      0x1.7396a43acc2fp-3,  0x1.8524204caeccep-2, 0x1.a4496402a157p-4,
      0x1.5498321467f2ap-2, 0x1.2d502964ea741p-1, 0x1.38c453938634fp-1,
      0x1.8a64c0dad29dap-1, 0x1.f4f79ee1e2d86p-1, 0x1.a1a2414a93cdap-1,
      0x1.fbacef54cfa8p-6,  0x1.d995a3d8b5ba2p-2, 0x1.9a4a144cb5994p-3,
      0x1.f9a9b2f2ecce5p-1, 0x1.76ed7243daa6p-3,  0x1.8dd0cbcfca35cp-3,
      0x1.7d56c5042b80fp-1};
  Rng rng(kGoldenSeed);
  for (double expected : kExpected) EXPECT_EQ(rng.Uniform(), expected);
}

TEST(RngTest, GoldenBernoulli) {
  // Bit i is the i-th draw of Bernoulli(0.2).
  Rng rng(kGoldenSeed);
  unsigned bits = 0;
  for (unsigned i = 0; i < 16; ++i) {
    if (rng.Bernoulli(0.2)) bits |= 1u << i;
  }
  EXPECT_EQ(bits, 0x6205u);
}

TEST(RngTest, GoldenNormal) {
  constexpr double kExpected[16] = {
      -0x1.58d5e6ecd0f04p+0, 0x1.43bcf1ca72875p+0,  -0x1.0efedceb52565p+0,
      0x1.da54c037a43f2p+0,  -0x1.946218c938dbdp-1, -0x1.524997cacc88cp-1,
      0x1.6e83e097f624fp-1,  -0x1.8f6dea173416dp-4, 0x1.40a3e4c629773p-1,
      0x1.f9d0436732789p-4,  0x1.866a66d5401f7p-2,  0x1.2e91e266b44c8p+0,
      0x1.07e98e5275521p-4,  0x1.27105e6f3a1a2p-3,  -0x1.e435521cf98ccp-5,
      -0x1.cf31eada47236p+0};
  Rng rng(kGoldenSeed);
  for (double expected : kExpected) EXPECT_EQ(rng.Normal(), expected);
}

}  // namespace
}  // namespace gale::util
