#include "lamsdlc/orbit/orbit.hpp"

#include <algorithm>

namespace lamsdlc::orbit {

OrbitTrack::OrbitTrack(const CircularOrbit& o) noexcept
    : phase_rad{o.phase_rad},
      mean_motion_rad_s{o.mean_motion_rad_s()},
      radius_m{o.radius_m()},
      ci{std::cos(o.inclination_rad)},
      si{std::sin(o.inclination_rad)},
      co{std::cos(o.raan_rad)},
      so{std::sin(o.raan_rad)} {}

Vec3 OrbitTrack::position(Time t) const noexcept {
  const double u = phase_rad + mean_motion_rad_s * t.sec();  // argument of latitude
  const double r = radius_m;
  // Position in the orbital plane.
  const double xp = r * std::cos(u);
  const double yp = r * std::sin(u);
  // Rotate by inclination about x, then by RAAN about z.
  const double x1 = xp;
  const double y1 = yp * ci;
  const double z1 = yp * si;
  return Vec3{co * x1 - so * y1, so * x1 + co * y1, z1};
}

Vec3 CircularOrbit::position(Time t) const noexcept {
  return OrbitTrack{*this}.position(t);
}

double SatellitePair::range_m(Time t) const noexcept {
  return (ta_.position(t) - tb_.position(t)).norm();
}

bool SatellitePair::visible(Time t, double grazing_altitude_m) const noexcept {
  const Vec3 pa = ta_.position(t);
  const Vec3 pb = tb_.position(t);
  const Vec3 d = pb - pa;
  const double range = d.norm();
  if (range > max_range_m_) return false;
  // Minimum distance from Earth's centre to segment pa..pb.
  const double dd = d.dot(d);
  double s = dd > 0 ? -pa.dot(d) / dd : 0.0;
  s = std::clamp(s, 0.0, 1.0);
  const Vec3 closest = pa + s * d;
  return closest.norm() >= kEarthRadiusM + grazing_altitude_m;
}

std::vector<VisibilityWindow> find_windows(const SatellitePair& pair,
                                           Time horizon, Time step) {
  std::vector<VisibilityWindow> windows;
  bool open = false;
  Time start{};
  for (Time t{}; t <= horizon; t += step) {
    const bool vis = pair.visible(t);
    if (vis && !open) {
      open = true;
      start = t;
    } else if (!vis && open) {
      open = false;
      windows.push_back({start, t});
    }
  }
  if (open) windows.push_back({start, horizon});
  return windows;
}

RangeStats range_stats(const SatellitePair& pair,
                       const VisibilityWindow& window, Time step) {
  RangeStats st;
  bool first = true;
  for (Time t = window.start; t <= window.end; t += step) {
    const double r = pair.range_m(t);
    if (first) {
      st.r_min_m = st.r_max_m = r;
      first = false;
    } else {
      st.r_min_m = std::min(st.r_min_m, r);
      st.r_max_m = std::max(st.r_max_m, r);
    }
  }
  return st;
}

}  // namespace lamsdlc::orbit
