// Determinism and distribution sanity of the simulator RNG, and the
// published test vectors of the project's one content hash.
#include <gtest/gtest.h>

#include <cmath>

#include "sim/hash.h"
#include "sim/rng.h"

namespace sim = hwsec::sim;

namespace {

TEST(Rng, DeterministicForSameSeed) {
  sim::Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(Rng, DifferentSeedsDiverge) {
  sim::Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    equal += a.next_u64() == b.next_u64() ? 1 : 0;
  }
  EXPECT_LT(equal, 3);
}

TEST(Rng, UniformInUnitInterval) {
  sim::Rng rng(7);
  double sum = 0.0;
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, BelowRespectsBound) {
  sim::Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.below(17), 17u);
  }
}

TEST(Rng, GaussianMomentsMatch) {
  sim::Rng rng(11);
  double sum = 0.0, sq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double g = rng.gaussian();
    sum += g;
    sq += g * g;
  }
  const double mean = sum / n;
  const double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.03);
  EXPECT_NEAR(var, 1.0, 0.05);
}

TEST(Rng, ChanceExtremes) {
  sim::Rng rng(13);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
  }
}

class RngChanceTest : public ::testing::TestWithParam<double> {};

TEST_P(RngChanceTest, FrequencyTracksProbability) {
  const double p = GetParam();
  sim::Rng rng(static_cast<std::uint64_t>(p * 1000) + 1);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    hits += rng.chance(p) ? 1 : 0;
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, p, 0.02);
}

INSTANTIATE_TEST_SUITE_P(Probabilities, RngChanceTest,
                         ::testing::Values(0.1, 0.25, 0.5, 0.75, 0.9));

TEST(Hash, Fnv1a64PublishedVectors) {
  // Reference vectors of the FNV-1a 64 specification. Every digest,
  // checkpoint trailer, trace-store checksum and leak hash depends on them.
  EXPECT_EQ(sim::fnv1a64(""), 0xcbf29ce484222325ULL);
  EXPECT_EQ(sim::fnv1a64("a"), 0xaf63dc4c8601ec8cULL);
  EXPECT_EQ(sim::fnv1a64("foobar"), 0x85944171f73967e8ULL);
  // A seed continues a hash: hashing in pieces equals hashing the whole.
  EXPECT_EQ(sim::fnv1a64("bar", sim::fnv1a64("foo")), sim::fnv1a64("foobar"));
}

}  // namespace
