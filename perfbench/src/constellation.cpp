// constellation_steady / constellation_churn: the constellation run of
// `sim::run_network`, composed from the public calls it is built from so
// that set-up and the run phase are timed apart.

#include <algorithm>
#include <cstdio>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "lamsdlc/core/random.hpp"
#include "lamsdlc/core/simulator.hpp"
#include "lamsdlc/net/contact_schedule.hpp"
#include "lamsdlc/net/network.hpp"
#include "lamsdlc/orbit/constellation.hpp"
#include "lamsdlc/sim/run_network.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using lamsdlc::Simulator;
using lamsdlc::Time;
namespace net = lamsdlc::net;
namespace orbit = lamsdlc::orbit;
namespace sim = lamsdlc::sim;

struct Spec {
  sim::NetworkRunConfig cfg;
  /// Simulated interval between in-run counter probes; the time to advance
  /// across one interval, probes excluded, is the workload's "operation".
  Time probe_every;
};

Spec spec_for(const std::string& workload, std::uint64_t seed, bool smoke) {
  Spec s;
  sim::NetworkRunConfig& c = s.cfg;
  c.seed = seed;
  c.p_frame = 1e-3;  // the paper's post-FEC frame error regime
  c.p_control = 1e-3;
  // Both workloads run serially (partitions == 1 is the same windowed PDES
  // code path).  With 2 partitions the run-to-run spread of the per-interval
  // tail was 0.36 (IQR/median over ten runs) against 0.13 serially; the
  // traced run measures the 2-partition speed-up instead.
  if (workload == "constellation_steady") {
    // Dense waves: every link carries data.
    c.horizon = Time::seconds_int(600);
    c.waves = smoke ? 4 : 100;
    c.wave_interval = Time::milliseconds(100);
    c.packets_per_wave = smoke ? 100 : 1000;
    s.probe_every = Time::milliseconds(100);
  } else {
    // Contact churn: short acquisition range, sparse waves, idle links.
    c.max_range_m = 5.0e6;
    c.horizon = Time::seconds_int(smoke ? 120 : 300);
    c.waves = smoke ? 1 : 2;
    c.wave_interval = Time::seconds_int(smoke ? 50 : 100);
    c.packets_per_wave = smoke ? 50 : 500;
    s.probe_every = Time::milliseconds(500);
  }
  return s;
}

void stamp_config(Result& r, const Spec& s) {
  const sim::NetworkRunConfig& c = s.cfg;
  r.set("satellites", c.satellites);
  r.set("planes", c.planes);
  r.set("phasing", c.phasing);
  r.set("max_range_m", c.max_range_m);
  r.set("partitions", static_cast<double>(c.partitions));
  r.set("horizon_s", c.horizon.sec());
  r.set("data_rate_bps", c.data_rate_bps);
  r.set("p_frame", c.p_frame);
  r.set("p_control", c.p_control);
  r.set("waves", c.waves);
  r.set("wave_interval_s", c.wave_interval.sec());
  r.set("packets_per_wave", c.packets_per_wave);
  r.set("packet_bytes", c.packet_bytes);
  r.set("probe_every_s", s.probe_every.sec());
}

/// One composed run: the kernel, the network and everything set-up built,
/// plus what the in-run probes saw.  Heap-allocated so probe callbacks can
/// hold its address.
struct Composed {
  std::unique_ptr<Simulator> sim;
  std::unique_ptr<net::Network> net;
  std::vector<Simulator*> kernels;  // every distinct event kernel
  std::size_t links = 0;
  double plan_s = 0;
  double build_s = 0;
  double setup_s = 0;
  double run_s = 0;
  double cpu_s = 0;
  bool completed = false;
  net::NetworkReport report;
  // Run-phase timeline: wall and process-CPU clocks at the start of the run;
  // at the start and end of every probe and after the host tick that
  // follows it; and at the end of the run.  `ticks` holds one host_tick_s()
  // per probe and one after the run.
  std::vector<double> wall_marks;
  std::vector<double> cpu_marks;
  std::vector<double> ticks;
  std::vector<double> stale_share;   // 1 - pending / heap entries
  std::uint64_t max_parked = 0;

  void mark() {
    wall_marks.push_back(now_s());
    cpu_marks.push_back(process_cpu_s());
  }

  [[nodiscard]] std::uint64_t events() const {
    std::uint64_t n = 0;
    for (const Simulator* k : kernels) n += k->events_executed();
    return n;
  }
};

/// A status document of the running network, the constellation's analogue
/// of the daemon's `status` endpoint: the report, then every node's
/// forwarding and parking counters and every flow's DLC state, as JSON.
std::string status_snapshot(net::Network& nw, std::size_t links,
                            const net::NetworkReport& rep) {
  std::string out;
  out.reserve(64 * 1024);
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "{\"report\":{\"sent\":%llu,\"delivered\":%llu,\"forwarded\":%llu,"
                "\"parked\":%llu,\"mean_delay_s\":%.9g},\"nodes\":[",
                static_cast<unsigned long long>(rep.packets_sent),
                static_cast<unsigned long long>(rep.packets_delivered),
                static_cast<unsigned long long>(rep.packets_forwarded),
                static_cast<unsigned long long>(rep.packets_parked),
                rep.mean_delay_s);
  out += buf;
  for (net::NodeId id = 0; id < nw.node_count(); ++id) {
    const net::Node& n = nw.node(id);
    std::snprintf(buf, sizeof buf, "%s{\"id\":%u,\"forwarded\":%llu,\"parked\":%zu}",
                  id ? "," : "", id, static_cast<unsigned long long>(n.forwarded()),
                  n.parked());
    out += buf;
  }
  out += "],\"flows\":[";
  for (net::LinkId l = 0; l < links; ++l) {
    net::Flow& ba = nw.flow(l, ~net::NodeId{0});  // no node has this id
    for (net::Flow* fp : {&nw.flow(l, ba.to()), &ba}) {
      net::Flow& f = *fp;
      const bool forward = fp != &ba;
      const lamsdlc::sim::DlcStats& st = f.stats();
      std::snprintf(buf, sizeof buf,
                    "%s{\"link\":%u,\"from\":%u,\"failed\":%s,\"buffer\":%zu,"
                    "\"iframe_tx\":%llu,\"iframe_retx\":%llu,\"control_tx\":%llu}",
                    l || !forward ? "," : "", l, f.from(), f.failed() ? "true" : "false",
                    f.dlc().sending_buffer_depth(),
                    static_cast<unsigned long long>(st.iframe_tx),
                    static_cast<unsigned long long>(st.iframe_retx),
                    static_cast<unsigned long long>(st.control_tx));
      out += buf;
    }
  }
  out += "]}";
  return out;
}

/// Set up exactly as `sim::run_network` does (same constellation, plan,
/// links and seeded traffic schedule), plus one non-blocking `Network::at`
/// probe per \p s.probe_every that only reads published counters.
std::unique_ptr<Composed> compose(const Spec& s) {
  const sim::NetworkRunConfig& cfg = s.cfg;
  auto c = std::make_unique<Composed>();
  const double t0 = now_s();
  c->sim = std::make_unique<Simulator>();
  c->net = std::make_unique<net::Network>(*c->sim, cfg.seed);
  net::Network& nw = *c->net;
  nw.enable_pdes(cfg.partitions == 0 ? 1 : cfg.partitions, cfg.satellites);

  orbit::WalkerParams wp;
  wp.total = cfg.satellites;
  wp.planes = cfg.planes;
  wp.phasing = cfg.phasing;
  wp.altitude_m = cfg.altitude_m;
  wp.inclination_rad = cfg.inclination_rad;
  const orbit::Constellation constellation{wp};
  for (std::size_t i = 0; i < constellation.size(); ++i) {
    nw.add_node("sat" + std::to_string(i));
  }

  const double t_plan = now_s();
  const std::vector<orbit::Contact> plan = orbit::contact_plan(
      constellation, cfg.horizon, cfg.contact_step, cfg.max_range_m,
      cfg.min_contact);
  c->plan_s = now_s() - t_plan;

  net::LinkSpec proto;
  proto.data_rate_bps = cfg.data_rate_bps;
  proto.lams.checkpoint_interval = cfg.checkpoint_interval;
  proto.lams.cumulation_depth = cfg.cumulation_depth;
  proto.lams.max_rtt = cfg.max_rtt;
  if (cfg.p_frame > 0 || cfg.p_control > 0) {
    sim::ErrorConfig err;
    err.kind = sim::ErrorConfig::Kind::kFixedFrameProb;
    err.p_frame = cfg.p_frame;
    err.p_control = cfg.p_control;
    proto.a_to_b_error = err;
    proto.b_to_a_error = err;
  }
  const double t_build = now_s();
  c->links = net::build_contact_network(nw, constellation, plan, proto,
                                        cfg.max_range_m)
                 .size();
  c->build_s = now_s() - t_build;

  // Traffic: the same draws, in the same order, as sim::run_network.
  lamsdlc::RandomStream traffic{cfg.seed, "netrun.traffic"};
  const auto node_count = static_cast<std::int64_t>(constellation.size());
  for (std::uint32_t w = 0; w < cfg.waves; ++w) {
    std::vector<std::pair<net::NodeId, net::NodeId>> draws;
    draws.reserve(cfg.packets_per_wave);
    for (std::uint32_t k = 0; k < cfg.packets_per_wave; ++k) {
      const auto src =
          static_cast<net::NodeId>(traffic.uniform_int(0, node_count - 1));
      auto dst =
          static_cast<net::NodeId>(traffic.uniform_int(0, node_count - 2));
      if (dst >= src) ++dst;
      draws.emplace_back(src, dst);
    }
    const Time at = Time::picoseconds(cfg.wave_interval.ps() *
                                      (static_cast<std::int64_t>(w) + 1));
    const std::uint32_t bytes = cfg.packet_bytes;
    nw.at(at, [&nw, bytes, draws = std::move(draws)] {
      for (const auto& [src, dst] : draws) nw.send_packet(src, dst, bytes);
    });
  }

  std::set<Simulator*> kernels{c->sim.get()};
  for (net::NodeId id = 0; id < nw.node_count(); ++id) {
    kernels.insert(&nw.sim_for(id));
  }
  c->kernels.assign(kernels.begin(), kernels.end());

  // Probes read counters only; `blocks_completion = false` lets the run end
  // as soon as its traffic drains.
  Composed* cp = c.get();
  for (Time t = s.probe_every; t < cfg.horizon; t += s.probe_every) {
    nw.at(t, [cp] {
      cp->mark();
      const net::NetworkReport rep = cp->net->report();
      status_snapshot(*cp->net, cp->links, rep);
      std::size_t pending = 0;
      std::size_t entries = 0;
      for (const Simulator* k : cp->kernels) {
        pending += k->events_pending();
        entries += k->heap_entries();
      }
      cp->max_parked = std::max<std::uint64_t>(cp->max_parked,
                                               rep.packets_parked);
      if (entries > 0) {
        cp->stale_share.push_back(1.0 - static_cast<double>(pending) /
                                            static_cast<double>(entries));
      }
      cp->mark();
      cp->ticks.push_back(host_tick_s());
      cp->mark();
    }, /*blocks_completion=*/false);
  }
  c->setup_s = now_s() - t0;
  return c;
}

void run(Composed& c, const Spec& s) {
  c.mark();
  c.completed = c.net->run_parallel_to_completion(s.cfg.horizon);
  c.mark();
  c.ticks.push_back(host_tick_s());
  // The run phase without the host ticks.
  c.run_s = c.wall_marks.back() - c.wall_marks.front();
  c.cpu_s = c.cpu_marks.back() - c.cpu_marks.front();
  for (std::size_t m = 3; m + 1 < c.wall_marks.size(); m += 3) {
    c.run_s -= c.wall_marks[m] - c.wall_marks[m - 1];
    c.cpu_s -= c.cpu_marks[m] - c.cpu_marks[m - 1];
  }
  c.report = c.net->report();
}

/// The run phase of one repeat cut into segments, each in reference-host
/// seconds (host_speed): simulation up to probe j (`sim[j]`, the last one
/// up to the end of the run) and probe j itself, each scaled by the host
/// tick measured right after it.  The ticks are left out.
struct Segments {
  std::vector<double> sim, probe, sim_cpu, probe_cpu;

  explicit Segments(const Composed& c) {
    const std::vector<double>& w = c.wall_marks;
    const std::vector<double>& u = c.cpu_marks;
    const std::size_t probes = c.ticks.size() - 1;
    for (std::size_t j = 0; j <= probes; ++j) {
      const double speed = host_speed(c.ticks[j]);
      sim.push_back((w[3 * j + 1] - w[3 * j]) * speed);
      sim_cpu.push_back((u[3 * j + 1] - u[3 * j]) * speed);
      if (j < probes) {
        probe.push_back((w[3 * j + 2] - w[3 * j + 1]) * speed);
        probe_cpu.push_back((u[3 * j + 2] - u[3 * j + 1]) * speed);
      }
    }
  }
};

/// Median across repeats of each segment.  Repeats of one seed do identical
/// simulated work, so segment k of every repeat is the same work.
class SegmentMedian {
 public:
  /// Fold in one repeat; false when its probe count differs.
  bool add(const Segments& s) {
    if (!reps_.empty() && s.sim.size() != reps_.front().sim.size()) return false;
    reps_.push_back(s);
    return true;
  }
  [[nodiscard]] std::vector<double> sim() const { return column(&Segments::sim); }
  [[nodiscard]] std::vector<double> probe() const { return column(&Segments::probe); }
  [[nodiscard]] std::vector<double> sim_cpu() const { return column(&Segments::sim_cpu); }
  [[nodiscard]] std::vector<double> probe_cpu() const {
    return column(&Segments::probe_cpu);
  }

 private:
  [[nodiscard]] std::vector<double> column(std::vector<double> Segments::*part) const {
    std::vector<double> out;
    for (std::size_t k = 0; k < (reps_.front().*part).size(); ++k) {
      std::vector<double> across;
      for (const Segments& r : reps_) across.push_back((r.*part)[k]);
      out.push_back(median(across));
    }
    return out;
  }
  std::vector<Segments> reps_;
};

double sum(const std::vector<double>& v) {
  double t = 0;
  for (const double x : v) t += x;
  return t;
}

std::vector<double> scaled(std::vector<double> v, double by) {
  for (double& x : v) x *= by;
  return v;
}

bool same_report(const net::NetworkReport& a, const net::NetworkReport& b) {
  return a.packets_sent == b.packets_sent &&
         a.packets_delivered == b.packets_delivered &&
         a.duplicate_deliveries == b.duplicate_deliveries &&
         a.packets_lost == b.packets_lost &&
         a.packets_forwarded == b.packets_forwarded &&
         a.packets_parked == b.packets_parked &&
         a.messages_completed == b.messages_completed &&
         a.mean_delay_s == b.mean_delay_s && a.max_delay_s == b.max_delay_s;
}

std::string describe(const net::NetworkReport& r) {
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "sent %llu delivered %llu dup %llu lost %llu forwarded %llu "
                "mean_delay %.9g max_delay %.9g",
                static_cast<unsigned long long>(r.packets_sent),
                static_cast<unsigned long long>(r.packets_delivered),
                static_cast<unsigned long long>(r.duplicate_deliveries),
                static_cast<unsigned long long>(r.packets_lost),
                static_cast<unsigned long long>(r.packets_forwarded),
                r.mean_delay_s, r.max_delay_s);
  return buf;
}

/// Count one run's outcome against `attempted`/`failed`: every packet sent
/// is one attempted operation; lost and duplicated packets fail, and an
/// incomplete run fails everything it did not deliver.
void count_outcome(Result& r, const Composed& c) {
  r.attempted += c.report.packets_sent;
  std::uint64_t bad = c.report.packets_lost + c.report.duplicate_deliveries;
  if (!c.completed) {
    r.notes.push_back("run did not complete within the horizon");
    bad = std::max(bad, c.report.packets_sent - c.report.packets_delivered);
  }
  if (bad > 0) r.notes.push_back("failed packets: " + describe(c.report));
  r.failed += bad;
}

/// Nanoseconds per `CircularOrbit::position` call, over every satellite of
/// the workload's constellation.
double orbit_position_ns(const sim::NetworkRunConfig& cfg) {
  orbit::WalkerParams wp;
  wp.total = cfg.satellites;
  wp.planes = cfg.planes;
  wp.phasing = cfg.phasing;
  wp.altitude_m = cfg.altitude_m;
  wp.inclination_rad = cfg.inclination_rad;
  const orbit::Constellation con{wp};
  double sink = 0;
  std::uint64_t calls = 0;
  const double t0 = now_s();
  for (int rep = 0; rep < 2000; ++rep) {
    const Time t = Time::milliseconds(rep * 37);
    for (std::size_t i = 0; i < con.size(); ++i) {
      sink += con.satellite(i).position(t).x;
      ++calls;
    }
  }
  const double dt = now_s() - t0;
  if (sink == 0.123) std::puts("");  // keep the calls observable
  return dt * 1e9 / static_cast<double>(calls);
}

}  // namespace

Result run_constellation(const Args& a) {
  const Spec spec = spec_for(a.workload, a.seed, a.smoke);
  const double mb_per_pkt = spec.cfg.packet_bytes / 1e6;
  Result r;
  stamp_config(r, spec);

  if (a.trace == 0) {
    // Repeat set-up + run of the one seeded configuration until the time is
    // spent (at least twice, so the report can be compared across repeats).
    // Each repeat builds kSetups networks to time set-up and runs the last.
    // Every time is in reference-host seconds (host_speed); the run-phase
    // figures are built from the per-segment medians across repeats.
    constexpr int kSetups = 3;
    std::vector<double> setup, raw_run_s, tick_ms;
    SegmentMedian seg;
    net::NetworkReport first{};
    int reps = 0;
    const double deadline = now_s() + a.seconds;
    for (; reps < 2 || now_s() < deadline; ++reps) {
      std::unique_ptr<Composed> c;
      for (int k = 0; k < kSetups; ++k) {
        const double before = host_tick_s();
        c = compose(spec);
        const double after = host_tick_s();
        setup.push_back(c->setup_s * host_speed((before + after) / 2));
      }
      run(*c, spec);
      raw_run_s.push_back(c->run_s);
      for (const double t : c->ticks) tick_ms.push_back(t * 1e3);
      count_outcome(r, *c);
      if (reps == 0) {
        first = c->report;
      } else if (!same_report(first, c->report)) {
        r.fail_check("report differs across repeats of seed: " +
                     describe(first) + " vs " + describe(c->report));
      }
      if (!seg.add(Segments{*c})) {
        r.fail_check("probe count differs across repeats of seed");
      }
    }
    const double delivered = static_cast<double>(first.packets_delivered);
    const std::vector<double> sims = seg.sim();
    const std::vector<double> scrapes = seg.probe();
    const double run_s = sum(sims) + sum(scrapes);
    // Whole probe intervals: the first and last simulation segments are not.
    const std::vector<double> ops(sims.begin() + (sims.size() > 2 ? 1 : 0),
                                  sims.end() - (sims.size() > 2 ? 1 : 0));
    r.notes.push_back("report: " + describe(first));
    char buf[200];
    std::snprintf(buf, sizeof buf,
                  "host tick median %.4f ms (reference %.4f ms); run phase "
                  "median %.4f s as measured, %.4f s at reference speed",
                  median(tick_ms), kHostTickRefS * 1e3, median(raw_run_s),
                  run_s);
    r.notes.push_back(buf);
    r.add("setup_s", median(setup), "s", setup.size());
    r.add("delivered_pkts_per_s", delivered / run_s, "pkt/s", reps);
    r.add("bulk_goodput_mbps", delivered * mb_per_pkt * 8 / run_s, "Mbit/s",
          reps);
    r.add("cpu_ms_per_mb",
          (sum(seg.sim_cpu()) + sum(seg.probe_cpu())) * 1e3 /
              (delivered * mb_per_pkt),
          "ms/MB", reps);
    r.add("peak_rss_mb", peak_rss_mb(), "MB");
    r.add("op_p50_ms", quantile(scaled(ops, 1e3), 0.5), "ms", ops.size());
    r.add("op_tail_ms", tail_mean(scaled(ops, 1e3), 0.9), "ms", ops.size());
    r.add("scrape_p50_ms", quantile(scaled(scrapes, 1e3), 0.5), "ms",
          scrapes.size());
    r.add("scrape_p90_ms", quantile(scaled(scrapes, 1e3), 0.9), "ms",
          scrapes.size());
    return r;
  }

  // Traced run: one untraced repeat for the kernel, orbit and net figures;
  // `sim::run_network` with `observe = true` for registry counts (and to
  // check the composed report against it); one extra run on 2 partitions
  // for the PDES speed-up.
  const auto c = compose(spec);
  run(*c, spec);
  count_outcome(r, *c);
  const double untraced_s = c->setup_s + c->run_s;

  sim::NetworkRunConfig observed_cfg = spec.cfg;
  observed_cfg.observe = true;
  const sim::NetworkRunResult observed = sim::run_network(observed_cfg);
  if (!same_report(c->report, observed.report)) {
    r.fail_check("composed report differs from sim::run_network: " +
                 describe(c->report) + " vs " + describe(observed.report));
  }
  const auto reg = parse_json(observed.metrics_json);
  if (!reg) r.fail_check("sim::run_network metrics JSON does not parse");
  const Json registry = reg.value_or(Json{});

  Spec parallel = spec;
  parallel.cfg.partitions = 2;
  const auto o = compose(parallel);
  run(*o, parallel);
  count_outcome(r, *o);
  if (!same_report(c->report, o->report)) {
    r.fail_check("report differs between 1 and 2 partitions");
  }

  const double delivered = static_cast<double>(c->report.packets_delivered);
  const double iframes = counter_sum(registry, "lams.sender.iframe_tx");
  const double retx = counter_sum(registry, "lams.sender.iframe_retx");
  const double checkpoints =
      counter_sum(registry, "lams.receiver.checkpoints_emitted");
  const double control = checkpoints + counter_sum(registry, "lams.sender.control_tx");
  const double timer_arms = counter_sum(registry, "lams.sender.timer_armed.") +
                            counter_sum(registry, "lams.receiver.timer_armed.");
  const double link_frames = iframes + control;
  const double events = static_cast<double>(c->events());
  const double pos_ns = orbit_position_ns(spec.cfg);

  r.add("core.events", events, "count");
  r.add("core.ns_per_event", c->run_s * 1e9 / events, "ns");
  r.add("core.heap_stale_share", median(c->stale_share), "ratio",
        c->stale_share.size());
  r.add("orbit.contact_plan_s", c->plan_s, "s");
  r.add("orbit.position_ns", pos_ns, "ns");
  // range_m evaluates two positions per frame: the share of the run phase
  // that per-frame geometry would take at the measured per-call cost.
  r.add("orbit.position_share", pos_ns * 2 * link_frames / (c->run_s * 1e9),
        "ratio");
  r.add("net.build_s", c->build_s, "s");
  r.add("net.hops_per_delivered",
        (static_cast<double>(c->report.packets_forwarded) + delivered) / delivered,
        "hops");
  r.add("net.parked", static_cast<double>(c->max_parked), "count",
        c->stale_share.size());
  r.add("link.frames", link_frames, "count");
  r.add("lams.retx_ratio", iframes > 0 ? retx / iframes : 0,
        "ratio");
  r.add("lams.checkpoints_per_delivered", checkpoints / delivered, "ratio");
  r.add("lams.timer_arms_per_delivered", timer_arms / delivered, "ratio");
  r.add("pdes.speedup", c->run_s / o->run_s, "x");
  r.add("trace.overhead", observed.elapsed_s / untraced_s - 1, "ratio");
  return r;
}

bool check_composed_matches_run_network(const std::string& workload,
                                        std::uint64_t seed) {
  const Spec spec = spec_for(workload, seed, /*smoke=*/true);
  const auto c = compose(spec);
  run(*c, spec);
  const sim::NetworkRunResult ref = sim::run_network(spec.cfg);
  std::printf("# composed:        %s\n# sim::run_network: %s\n",
              describe(c->report).c_str(), describe(ref.report).c_str());
  return c->completed == ref.completed && same_report(c->report, ref.report) &&
         c->report.packets_delivered > 0;
}

}  // namespace perfbench
