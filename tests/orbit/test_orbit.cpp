#include "lamsdlc/orbit/orbit.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace lamsdlc::orbit {
namespace {

using namespace lamsdlc::literals;

CircularOrbit leo(double phase, double incl = 0.0, double raan = 0.0) {
  CircularOrbit o;
  o.altitude_m = 1.0e6;  // the paper's ~1000 km
  o.inclination_rad = incl;
  o.raan_rad = raan;
  o.phase_rad = phase;
  return o;
}

TEST(CircularOrbit, PeriodMatchesKepler) {
  const auto o = leo(0);
  // T = 2*pi*sqrt(r^3/mu); for r = 7371 km, ~105 minutes.
  const double r = o.radius_m();
  const double expect = 2.0 * M_PI * std::sqrt(r * r * r / kEarthMuM3S2);
  EXPECT_NEAR(o.period().sec(), expect, 1e-6);
  EXPECT_NEAR(o.period().sec() / 60.0, 105.0, 2.0);
}

TEST(CircularOrbit, RadiusConstant) {
  const auto o = leo(0.3, 0.7, 1.1);
  for (int i = 0; i < 20; ++i) {
    const auto p = o.position(Time::seconds_int(i * 300));
    EXPECT_NEAR(p.norm(), o.radius_m(), 1.0);
  }
}

TEST(CircularOrbit, ReturnsToStartAfterOnePeriod) {
  const auto o = leo(0.5, 0.9, 0.2);
  const auto p0 = o.position(Time{});
  const auto p1 = o.position(o.period());
  EXPECT_NEAR((p0 - p1).norm(), 0.0, 100.0);  // metres, numerical tolerance
}

TEST(CircularOrbit, EquatorialOrbitStaysInPlane) {
  const auto o = leo(0.0, 0.0);
  for (int i = 0; i < 10; ++i) {
    EXPECT_NEAR(o.position(Time::seconds_int(i * 600)).z, 0.0, 1e-3);
  }
}

TEST(CircularOrbit, PolarOrbitReachesHighLatitude) {
  const auto o = leo(0.0, M_PI / 2);
  double max_z = 0;
  for (int i = 0; i < 200; ++i) {
    max_z = std::max(max_z, std::abs(o.position(Time::seconds_int(i * 60)).z));
  }
  EXPECT_GT(max_z, 0.9 * o.radius_m());
}

TEST(SatellitePair, CoplanarSeparationIsChordLength) {
  // Two satellites in the same orbit separated by angle theta: range is the
  // constant chord 2*r*sin(theta/2).
  const double theta = 0.3;
  SatellitePair pair{leo(0.0), leo(theta)};
  const double expect = 2.0 * leo(0).radius_m() * std::sin(theta / 2.0);
  for (int i = 0; i < 10; ++i) {
    EXPECT_NEAR(pair.range_m(Time::seconds_int(i * 500)), expect, 1.0);
  }
}

TEST(SatellitePair, PropagationDelayIsRangeOverC) {
  SatellitePair pair{leo(0.0), leo(0.4)};
  const Time t = 100_s;
  EXPECT_NEAR(pair.propagation_delay(t).sec(),
              pair.range_m(t) / kLightSpeedMS, 1e-9);
}

TEST(SatellitePair, PaperRangeBandGivesPaperDelays) {
  // 2,000-10,000 km links -> one-way delays of ~6.7 to ~33 ms; check a
  // 2,700 km-ish configuration lands in the paper's 10-100 ms RTT band.
  const double theta = 0.37;  // ~2700 km chord at 7371 km radius
  SatellitePair pair{leo(0.0), leo(theta)};
  const double rtt_ms = 2.0 * pair.propagation_delay(Time{}).ms();
  EXPECT_GT(rtt_ms, 10.0);
  EXPECT_LT(rtt_ms, 100.0);
}

TEST(SatellitePair, AntipodalSatellitesAreOccluded) {
  SatellitePair pair{leo(0.0), leo(M_PI)};
  EXPECT_FALSE(pair.visible(Time{}));
}

TEST(SatellitePair, CloseSatellitesAreVisible) {
  SatellitePair pair{leo(0.0), leo(0.3)};
  EXPECT_TRUE(pair.visible(Time{}));
}

TEST(SatellitePair, MaxRangeLimitApplies) {
  SatellitePair pair{leo(0.0), leo(0.5), /*max_range_m=*/1.0e6};
  EXPECT_FALSE(pair.visible(Time{}));  // chord ~3,600 km > 1,000 km limit
}

TEST(FindWindows, CrossPlanePairAlternates) {
  // One equatorial and one polar satellite: visibility must come and go.
  SatellitePair pair{leo(0.0, 0.0), leo(0.0, M_PI / 2), 8.0e6};
  const auto windows = find_windows(pair, Time::seconds_int(2 * 6300), 10_s);
  ASSERT_GE(windows.size(), 1u);
  for (const auto& w : windows) {
    EXPECT_GT(w.duration().sec(), 0.0);
    // Link lifetimes "in the order of several minutes" (Section 1).
    EXPECT_LT(w.duration().sec(), 3600.0);
  }
}

TEST(RangeStats, MinMaxAndTimeoutTerms) {
  SatellitePair pair{leo(0.0, 0.0), leo(0.3, 0.3)};
  const VisibilityWindow w{Time{}, Time::seconds_int(1200)};
  const auto st = range_stats(pair, w, 5_s);
  EXPECT_GT(st.r_max_m, st.r_min_m);
  EXPECT_NEAR(st.r_mean_m(), 0.5 * (st.r_min_m + st.r_max_m), 1e-6);
  // t_out slack alpha >= R_max - R (Section 4): positive for a moving pair.
  EXPECT_GT(st.min_alpha().sec(), 0.0);
  EXPECT_NEAR(st.round_trip().sec(), 2.0 * st.r_mean_m() / kLightSpeedMS,
              1e-12);
}

TEST(SatellitePair, CachedGeometryIsBitIdenticalToDirectEvaluation) {
  // The pair caches each orbit's mean motion, radius and angle sines and
  // cosines; the range must come out bit for bit as if every term were
  // evaluated afresh (the closed form below), or orbit-driven propagation
  // delays — and with them every arrival instant — would drift.
  const auto direct = [](const CircularOrbit& o, Time t) {
    const double u = o.phase_rad + o.mean_motion_rad_s() * t.sec();
    const double r = o.radius_m();
    const double xp = r * std::cos(u);
    const double yp = r * std::sin(u);
    const double ci = std::cos(o.inclination_rad), si = std::sin(o.inclination_rad);
    const double co = std::cos(o.raan_rad), so = std::sin(o.raan_rad);
    const double y1 = yp * ci;
    return Vec3{co * xp - so * y1, so * xp + co * y1, yp * si};
  };
  const CircularOrbit a = leo(0.3, 0.9, 0.0);
  const CircularOrbit b = leo(1.1, 0.9, 0.785);
  const SatellitePair pair{a, b};
  for (int i = 0; i < 2000; ++i) {
    const Time t = Time::microseconds(static_cast<std::int64_t>(i) * 3'000'017);
    EXPECT_EQ(pair.range_m(t), (direct(a, t) - direct(b, t)).norm()) << i;
  }
}

}  // namespace
}  // namespace lamsdlc::orbit
