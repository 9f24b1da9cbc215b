#pragma once
/// \file orbit.hpp
/// \brief Circular-orbit constellation geometry.
///
/// The paper's LAMS environment is a constellation of low-altitude satellites
/// (~1000 km) whose intersatellite ranges vary between R_min and R_max over a
/// link lifetime of minutes (Sections 1, 2.1).  This module supplies concrete
/// instances of those quantities: satellite positions on circular orbits,
/// pairwise range R_t, line-of-sight visibility (Earth occlusion + maximum
/// laser range), and contiguous visibility windows (link lifetimes).
///
/// The timeout analysis of Section 4 needs only R = (R_min + R_max)/2 and
/// alpha >= R_max - R from var(R_t); `RangeStats` computes these for any
/// window.

#include <cmath>
#include <cstddef>
#include <vector>

#include "lamsdlc/core/time.hpp"

namespace lamsdlc::orbit {

/// Physical constants used throughout (SI units).
inline constexpr double kEarthRadiusM = 6.371e6;
inline constexpr double kEarthMuM3S2 = 3.986004418e14;  ///< GM of Earth.
inline constexpr double kLightSpeedMS = 2.99792458e8;

/// Simple 3-vector.
struct Vec3 {
  double x{0}, y{0}, z{0};

  friend constexpr Vec3 operator-(Vec3 a, Vec3 b) noexcept {
    return {a.x - b.x, a.y - b.y, a.z - b.z};
  }
  friend constexpr Vec3 operator+(Vec3 a, Vec3 b) noexcept {
    return {a.x + b.x, a.y + b.y, a.z + b.z};
  }
  friend constexpr Vec3 operator*(double k, Vec3 a) noexcept {
    return {k * a.x, k * a.y, k * a.z};
  }
  [[nodiscard]] constexpr double dot(Vec3 o) const noexcept {
    return x * o.x + y * o.y + z * o.z;
  }
  [[nodiscard]] double norm() const noexcept { return std::sqrt(dot(*this)); }
};

/// A satellite on a circular orbit.
struct CircularOrbit {
  double altitude_m = 1.0e6;    ///< Height above Earth surface.
  double inclination_rad = 0;   ///< Orbit plane tilt from equator.
  double raan_rad = 0;          ///< Right ascension of ascending node.
  double phase_rad = 0;         ///< Position along the orbit at t = 0.

  /// Orbital radius from Earth centre.
  [[nodiscard]] double radius_m() const noexcept { return kEarthRadiusM + altitude_m; }

  /// Mean motion (rad/s) from Kepler's third law.
  [[nodiscard]] double mean_motion_rad_s() const noexcept {
    const double r = radius_m();
    return std::sqrt(kEarthMuM3S2 / (r * r * r));
  }

  /// Orbital period.
  [[nodiscard]] Time period() const noexcept {
    return Time::seconds(2.0 * M_PI / mean_motion_rad_s());
  }

  /// Earth-centred inertial position at simulation time \p t.
  [[nodiscard]] Vec3 position(Time t) const noexcept;
};

/// The time-invariant part of `CircularOrbit::position`, evaluated once:
/// mean motion, radius, and the inclination/RAAN sines and cosines.
/// `position` then performs the same floating-point operations on the same
/// values as `CircularOrbit::position` (which is defined through it), so
/// the two agree bit for bit.
struct OrbitTrack {
  double phase_rad;
  double mean_motion_rad_s;
  double radius_m;
  double ci, si;  ///< cos/sin of the inclination.
  double co, so;  ///< cos/sin of the RAAN.

  explicit OrbitTrack(const CircularOrbit& o) noexcept;
  [[nodiscard]] Vec3 position(Time t) const noexcept;
};

/// Geometry between two satellites.  Ranges are evaluated per frame in
/// orbit-driven links, so each orbit's constants are cached (`OrbitTrack`).
class SatellitePair {
 public:
  SatellitePair(CircularOrbit a, CircularOrbit b, double max_range_m = 1.0e7)
      : a_{a}, b_{b}, ta_{a}, tb_{b}, max_range_m_{max_range_m} {}

  /// Instantaneous range in metres.
  [[nodiscard]] double range_m(Time t) const noexcept;

  /// One-way light-time at \p t.
  [[nodiscard]] Time propagation_delay(Time t) const noexcept {
    return Time::seconds(range_m(t) / kLightSpeedMS);
  }

  /// True when the pair has line of sight (not occluded by the Earth,
  /// including a grazing-altitude margin) and is within laser range.
  [[nodiscard]] bool visible(Time t, double grazing_altitude_m = 1.0e5) const noexcept;

  [[nodiscard]] const CircularOrbit& a() const noexcept { return a_; }
  [[nodiscard]] const CircularOrbit& b() const noexcept { return b_; }

 private:
  CircularOrbit a_, b_;
  OrbitTrack ta_, tb_;
  double max_range_m_;
};

/// A contiguous interval during which a pair is visible: one link lifetime.
struct VisibilityWindow {
  Time start;
  Time end;
  [[nodiscard]] Time duration() const noexcept { return end - start; }
};

/// Scan [0, horizon] at the given step for visibility windows.
[[nodiscard]] std::vector<VisibilityWindow> find_windows(
    const SatellitePair& pair, Time horizon,
    Time step = Time::seconds_int(1));

/// Range statistics over a window, as needed by the Section 4 timeout model:
/// t_out = R + alpha with R the mean of R_min/R_max and alpha >= R_max - R.
struct RangeStats {
  double r_min_m = 0;
  double r_max_m = 0;

  [[nodiscard]] double r_mean_m() const noexcept { return 0.5 * (r_min_m + r_max_m); }
  /// Mean round-trip light-time 2*R/c.
  [[nodiscard]] Time round_trip() const noexcept {
    return Time::seconds(2.0 * r_mean_m() / kLightSpeedMS);
  }
  /// Minimum alpha (in time units, round-trip terms): 2*(R_max - R)/c.
  [[nodiscard]] Time min_alpha() const noexcept {
    return Time::seconds(2.0 * (r_max_m - r_mean_m()) / kLightSpeedMS);
  }
};

/// Sample ranges across \p window and return min/max.
[[nodiscard]] RangeStats range_stats(const SatellitePair& pair,
                                     const VisibilityWindow& window,
                                     Time step = Time::seconds_int(1));

}  // namespace lamsdlc::orbit
