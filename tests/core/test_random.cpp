#include "lamsdlc/core/random.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <random>

namespace lamsdlc {
namespace {

TEST(RandomStream, SameSeedSameLabelReproduces) {
  RandomStream a{42, "channel"};
  RandomStream b{42, "channel"};
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
  }
}

TEST(RandomStream, DifferentLabelsDecorrelate) {
  RandomStream a{42, "forward"};
  RandomStream b{42, "reverse"};
  int equal = 0;
  for (int i = 0; i < 1000; ++i) {
    if (a.uniform_int(0, 1000) == b.uniform_int(0, 1000)) ++equal;
  }
  EXPECT_LT(equal, 20);  // ~1/1000 collision rate expected
}

TEST(RandomStream, DifferentSeedsDecorrelate) {
  RandomStream a{1, "x"};
  RandomStream b{2, "x"};
  int equal = 0;
  for (int i = 0; i < 1000; ++i) {
    if (a.uniform_int(0, 1000) == b.uniform_int(0, 1000)) ++equal;
  }
  EXPECT_LT(equal, 20);
}

TEST(RandomStream, BernoulliEdgeCases) {
  RandomStream r{7, "b"};
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(r.bernoulli(0.0));
    EXPECT_FALSE(r.bernoulli(-1.0));
    EXPECT_TRUE(r.bernoulli(1.0));
    EXPECT_TRUE(r.bernoulli(2.0));
  }
}

TEST(RandomStream, BernoulliFrequencyMatchesP) {
  RandomStream r{7, "b"};
  const double p = 0.3;
  int hits = 0;
  const int n = 100'000;
  for (int i = 0; i < n; ++i) hits += r.bernoulli(p) ? 1 : 0;
  const double freq = static_cast<double>(hits) / n;
  EXPECT_NEAR(freq, p, 0.01);
}

TEST(RandomStream, UniformRangeRespected) {
  RandomStream r{9, "u"};
  for (int i = 0; i < 10'000; ++i) {
    const double v = r.uniform(2.0, 5.0);
    EXPECT_GE(v, 2.0);
    EXPECT_LT(v, 5.0);
  }
}

TEST(RandomStream, UniformIntInclusiveBounds) {
  RandomStream r{9, "ui"};
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 10'000; ++i) {
    const auto v = r.uniform_int(0, 9);
    EXPECT_GE(v, 0);
    EXPECT_LE(v, 9);
    saw_lo |= v == 0;
    saw_hi |= v == 9;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RandomStream, ExponentialMean) {
  RandomStream r{11, "e"};
  const double mean = 3.5;
  double sum = 0;
  const int n = 200'000;
  for (int i = 0; i < n; ++i) sum += r.exponential(mean);
  EXPECT_NEAR(sum / n, mean, 0.05);
}

TEST(RandomStream, GeometricMean) {
  RandomStream r{13, "g"};
  const double p = 0.25;
  double sum = 0;
  const int n = 100'000;
  for (int i = 0; i < n; ++i) sum += static_cast<double>(r.geometric(p));
  // Mean failures before success: (1-p)/p = 3.
  EXPECT_NEAR(sum / n, (1 - p) / p, 0.05);
}

TEST(RandomStream, UniformIsGenerateCanonicalBitForBit) {
  // uniform() replaces std::generate_canonical<double, 53> with its exact
  // closed form; every seeded stream must read the same doubles as before.
  for (const std::uint64_t seed : {1ull, 7ull, 0xDEADBEEFull}) {
    RandomStream s{seed};
    std::mt19937_64 reference{seed};
    for (int i = 0; i < 200000; ++i) {
      const double want = std::generate_canonical<double, 53>(reference);
      ASSERT_EQ(s.uniform(), want) << "seed " << seed << " draw " << i;
    }
  }
}

}  // namespace
}  // namespace lamsdlc
