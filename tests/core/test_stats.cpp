#include "lamsdlc/core/stats.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "lamsdlc/core/random.hpp"
#include "support/seed_trace.hpp"

namespace lamsdlc {
namespace {

using namespace lamsdlc::literals;

TEST(RunningStat, EmptyIsZero) {
  RunningStat s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(RunningStat, SingleSample) {
  RunningStat s;
  s.add(5.0);
  EXPECT_EQ(s.count(), 1u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.min(), 5.0);
  EXPECT_DOUBLE_EQ(s.max(), 5.0);
}

TEST(RunningStat, KnownMoments) {
  RunningStat s;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(v);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  // Sample variance of this classic set is 32/7.
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(RunningStat, NumericallyStableForLargeOffsets) {
  RunningStat s;
  for (int i = 0; i < 1000; ++i) s.add(1e9 + (i % 2));
  EXPECT_NEAR(s.mean(), 1e9 + 0.5, 1e-3);
  EXPECT_NEAR(s.variance(), 0.25025, 1e-3);
}

TEST(TimeWeightedStat, StepFunctionAverage) {
  TimeWeightedStat s;
  s.update(0_ms, 10.0);  // value 0 held during [start,0) = nothing
  s.update(4_ms, 20.0);  // 10 held for 4ms
  s.update(6_ms, 0.0);   // 20 held for 2ms
  s.finish(10_ms);       // 0 held for 4ms
  // (10*4 + 20*2 + 0*4) / 10 = 8.
  EXPECT_DOUBLE_EQ(s.average(), 8.0);
  EXPECT_DOUBLE_EQ(s.peak(), 20.0);
  EXPECT_DOUBLE_EQ(s.current(), 0.0);
}

TEST(TimeWeightedStat, NoElapsedTimeReturnsCurrent) {
  TimeWeightedStat s;
  s.update(Time{}, 7.0);
  EXPECT_DOUBLE_EQ(s.average(), 7.0);
}

TEST(TimeWeightedStat, RepeatedUpdatesAtSameInstant) {
  TimeWeightedStat s;
  s.update(1_ms, 5.0);   // value 0 held over [0, 1ms)
  s.update(1_ms, 50.0);  // the 5.0 existed for zero time: no weight
  s.finish(2_ms);        // 50 held over [1ms, 2ms)
  EXPECT_DOUBLE_EQ(s.average(), 25.0);
  EXPECT_DOUBLE_EQ(s.peak(), 50.0);
}

TEST(TimeWeightedStat, NonZeroStart) {
  TimeWeightedStat s{5_ms};
  s.update(7_ms, 4.0);  // 0 for 2ms
  s.finish(9_ms);       // 4 for 2ms
  EXPECT_DOUBLE_EQ(s.average(), 2.0);
}

TEST(Percentiles, EmptyIsZero) {
  Percentiles p;
  EXPECT_EQ(p.count(), 0u);
  EXPECT_DOUBLE_EQ(p.p50(), 0.0);
  EXPECT_DOUBLE_EQ(p.p90(), 0.0);
  EXPECT_DOUBLE_EQ(p.p99(), 0.0);
  EXPECT_DOUBLE_EQ(p.min(), 0.0);
  EXPECT_DOUBLE_EQ(p.max(), 0.0);
}

TEST(Percentiles, SingleSampleIsEveryQuantile) {
  Percentiles p;
  p.add(42.0);
  EXPECT_EQ(p.count(), 1u);
  for (double q : {0.0, 0.01, 0.5, 0.9, 0.99, 1.0}) {
    EXPECT_DOUBLE_EQ(p.quantile(q), 42.0) << "q=" << q;
  }
  EXPECT_DOUBLE_EQ(p.min(), 42.0);
  EXPECT_DOUBLE_EQ(p.max(), 42.0);
}

TEST(Percentiles, DuplicateSamples) {
  Percentiles p;
  for (int i = 0; i < 10; ++i) p.add(3.0);
  EXPECT_DOUBLE_EQ(p.p50(), 3.0);
  EXPECT_DOUBLE_EQ(p.p99(), 3.0);
  EXPECT_DOUBLE_EQ(p.min(), 3.0);
  EXPECT_DOUBLE_EQ(p.max(), 3.0);
}

TEST(Percentiles, NearestRankOnKnownSet) {
  // 1..100: nearest-rank q-quantile is ceil(q*100), i.e. exactly q*100 here.
  Percentiles p;
  for (int i = 100; i >= 1; --i) p.add(static_cast<double>(i));
  EXPECT_DOUBLE_EQ(p.p50(), 50.0);
  EXPECT_DOUBLE_EQ(p.p90(), 90.0);
  EXPECT_DOUBLE_EQ(p.p99(), 99.0);
  EXPECT_DOUBLE_EQ(p.quantile(1.0), 100.0);
  EXPECT_DOUBLE_EQ(p.quantile(0.0), 1.0);  // rank clamps to the first sample
  EXPECT_DOUBLE_EQ(p.min(), 1.0);
  EXPECT_DOUBLE_EQ(p.max(), 100.0);
}

TEST(Percentiles, InterleavedAddAndQuery) {
  // Queries lazily sort; later adds must re-sort, not corrupt the order.
  Percentiles p;
  p.add(5.0);
  p.add(1.0);
  EXPECT_DOUBLE_EQ(p.p50(), 1.0);  // ceil(0.5*2) = rank 1
  p.add(3.0);
  EXPECT_DOUBLE_EQ(p.p50(), 3.0);  // ceil(0.5*3) = rank 2 of {1,3,5}
  EXPECT_DOUBLE_EQ(p.max(), 5.0);
}

TEST(Percentiles, RandomInterleavingMatchesAFreshSortEveryRead) {
  // Reads merge only the samples added since the last read into the sorted
  // prefix; every quantile must equal the one a full sort of all samples
  // gives.  Batches of 0..40 adds (duplicates and negatives included)
  // between reads exercise empty, tiny and large tails.
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    LAMSDLC_SEED_TRACE(seed);
    RandomStream rng{seed, "percentiles.property"};
    Percentiles p;
    std::vector<double> all;
    for (int round = 0; round < 60; ++round) {
      const auto adds = rng.uniform_int(0, 40);
      for (std::int64_t i = 0; i < adds; ++i) {
        const double x =
            rng.bernoulli(0.2)
                ? static_cast<double>(rng.uniform_int(0, 5))
                : rng.uniform(-1000.0, 1000.0);
        p.add(x);
        all.push_back(x);
      }
      std::vector<double> sorted = all;
      std::sort(sorted.begin(), sorted.end());
      ASSERT_EQ(p.count(), sorted.size());
      for (const double q : {0.0, 0.01, 0.25, 0.5, 0.9, 0.99, 1.0}) {
        const double expect =
            sorted.empty()
                ? 0.0
                : sorted[static_cast<std::size_t>(std::clamp<std::int64_t>(
                             static_cast<std::int64_t>(std::ceil(
                                 q * static_cast<double>(sorted.size()))),
                             1, static_cast<std::int64_t>(sorted.size()))) -
                         1];
        ASSERT_EQ(p.quantile(q), expect) << "q=" << q << " round " << round;
      }
    }
  }
}

TEST(Histogram, BinningAndTotal) {
  Histogram h{0.0, 10.0, 10};
  for (int i = 0; i < 10; ++i) h.add(i + 0.5);
  EXPECT_EQ(h.total(), 10u);
  for (const auto b : h.bins()) EXPECT_EQ(b, 1u);
}

TEST(Histogram, OutOfRangeClampsToEdges) {
  Histogram h{0.0, 10.0, 10};
  h.add(-5.0);
  h.add(100.0);
  EXPECT_EQ(h.bins().front(), 1u);
  EXPECT_EQ(h.bins().back(), 1u);
}

TEST(Histogram, QuantileApproximation) {
  Histogram h{0.0, 100.0, 100};
  for (int i = 0; i < 100; ++i) h.add(static_cast<double>(i));
  EXPECT_NEAR(h.quantile(0.5), 50.0, 1.5);
  EXPECT_NEAR(h.quantile(0.9), 90.0, 1.5);
  EXPECT_NEAR(h.quantile(0.0), 0.0, 1.0);
}

TEST(Histogram, BinLowerEdges) {
  Histogram h{10.0, 20.0, 5};
  EXPECT_DOUBLE_EQ(h.bin_lo(0), 10.0);
  EXPECT_DOUBLE_EQ(h.bin_lo(1), 12.0);
  EXPECT_DOUBLE_EQ(h.bin_lo(4), 18.0);
}

}  // namespace
}  // namespace lamsdlc
