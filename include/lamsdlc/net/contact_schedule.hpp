#pragma once
/// \file contact_schedule.hpp
/// \brief Drive network-link availability from orbital contact plans.
///
/// LAMS links live only while geometry allows (Section 1's "short link
/// lifetime").  These helpers connect the orbit module's visibility windows
/// to the network: a link exists permanently as an object but is up only
/// inside its windows; outside them traffic parks at the store-and-forward
/// nodes until the next contact.  Every up-transition starts fresh protocol
/// instances on both flows (a re-acquired laser link has no shared state
/// with its previous life).

#include <algorithm>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "lamsdlc/net/network.hpp"
#include "lamsdlc/orbit/constellation.hpp"

namespace lamsdlc::net {

/// Normalize a window list into the sorted, disjoint form the scheduler
/// requires: inverted (`end < start`) and zero-length windows are dropped,
/// the rest are sorted by start and coalesced whenever they overlap or
/// touch.  Raw plans routinely violate the "sorted, disjoint" contract —
/// a finder step that quantizes to the same tick produces zero-length
/// windows, and a plan combining `{a,b}` with `{b,a}` rows lists the same
/// physical contact twice — and feeding such a list to the scheduler
/// unmerged interleaves up/down transitions at the same instant, taking a
/// link down in the middle of a live contact.
[[nodiscard]] inline std::vector<orbit::VisibilityWindow> merge_contact_windows(
    std::vector<orbit::VisibilityWindow> windows) {
  std::erase_if(windows, [](const orbit::VisibilityWindow& w) {
    return w.end <= w.start;  // inverted or zero-length: no up-time to give
  });
  std::sort(windows.begin(), windows.end(),
            [](const orbit::VisibilityWindow& a,
               const orbit::VisibilityWindow& b) {
              if (a.start != b.start) return a.start < b.start;
              return a.end < b.end;
            });
  std::vector<orbit::VisibilityWindow> merged;
  for (const orbit::VisibilityWindow& w : windows) {
    // Touching windows coalesce too: an up at the very tick of a down would
    // otherwise schedule both transitions at the same instant, with the
    // link's fate decided by event-queue tie-breaking.
    if (!merged.empty() && w.start <= merged.back().end) {
      merged.back().end = std::max(merged.back().end, w.end);
    } else {
      merged.push_back(w);
    }
  }
  return merged;
}

/// Conservative lower bound on \p pair's propagation delay over
/// [0, \p horizon] (a contact plan's latest window end), for the parallel
/// driver's lookahead (`LinkSpec::min_propagation`).  The range function is
/// sampled once per second — far finer than orbital range dynamics — and
/// shrunk by a 25 % safety margin; a violation cannot corrupt a run
/// silently, because the parallel delivery path asserts every
/// cross-partition arrival clears the window bound (link::ChannelIngress).
[[nodiscard]] inline Time min_propagation_bound(const orbit::SatellitePair& pair,
                                                Time horizon) {
  Time best = pair.propagation_delay(Time{});
  for (Time t{}; t <= horizon; t += Time::seconds_int(1)) {
    best = std::min(best, pair.propagation_delay(t));
  }
  return Time::picoseconds(best.ps() * 3 / 4);
}

/// Schedule \p link to be up exactly during \p windows.  The list is
/// normalized first (see `merge_contact_windows`), so overlapping, touching,
/// inverted and zero-length windows are all handled; windows already in the
/// past are ignored and a window containing `now` takes effect immediately.
/// Transitions go through `Network::at`, so under the parallel (PDES) driver
/// they run at window barriers in canonical order.
inline void schedule_link_windows(
    Network& net, LinkId link,
    const std::vector<orbit::VisibilityWindow>& windows) {
  const Time now = net.simulator().now();
  bool currently_up = false;
  for (const auto& w : merge_contact_windows(windows)) {
    if (w.end <= now) continue;
    // Contact transitions are topology-only: they never inject traffic, so
    // they must not hold `run_to_completion` open after the last delivery
    // (a run would otherwise dwell until the final scheduled contact).
    if (w.start <= now) {
      currently_up = true;
    } else {
      net.at(w.start, [&net, link] { net.set_link_up(link, true); },
             /*blocks_completion=*/false);
    }
    net.at(w.end, [&net, link] { net.set_link_up(link, false); },
           /*blocks_completion=*/false);
  }
  net.set_link_up(link, currently_up);
}

/// Build one link per constellation pair appearing in \p plan, with
/// orbit-driven propagation, and schedule each link's windows.  \p proto
/// supplies everything except endpoints and propagation.  Returns the
/// pair→link mapping, keyed by the canonical (min, max) satellite pair — a
/// plan listing both `{a,b}` and `{b,a}` rows describes one physical ISL,
/// so both spellings collapse onto one link whose window list is the merge
/// of both rows' windows.
inline std::map<std::pair<std::size_t, std::size_t>, LinkId>
build_contact_network(Network& net, const orbit::Constellation& c,
                      const std::vector<orbit::Contact>& plan,
                      const LinkSpec& proto, double max_range_m = 1.0e7) {
  // Group windows per canonical pair.
  std::map<std::pair<std::size_t, std::size_t>,
           std::vector<orbit::VisibilityWindow>>
      windows;
  for (const orbit::Contact& ct : plan) {
    const auto [lo, hi] = std::minmax(ct.a, ct.b);
    windows[{lo, hi}].push_back(ct.window);
  }

  // The plan's horizon, for every link's min-propagation bound.
  Time horizon{};
  for (const orbit::Contact& ct : plan) {
    horizon = std::max(horizon, ct.window.end);
  }
  std::map<std::pair<std::size_t, std::size_t>, LinkId> out;
  for (auto& [pair_ids, w] : windows) {
    auto geometry = std::make_shared<orbit::SatellitePair>(
        c.pair(pair_ids.first, pair_ids.second, max_range_m));
    LinkSpec spec = proto;
    spec.a = static_cast<NodeId>(pair_ids.first);
    spec.b = static_cast<NodeId>(pair_ids.second);
    spec.geometry = geometry;
    if (spec.min_propagation.is_zero()) {
      spec.min_propagation = min_propagation_bound(*geometry, horizon);
    }
    const LinkId id = net.add_link(spec);
    schedule_link_windows(net, id, w);
    out.emplace(pair_ids, id);
  }
  return out;
}

}  // namespace lamsdlc::net
