/// \file lamsdlc_cli.cpp
/// \brief Command-line scenario driver and tools.
///
/// With no subcommand, runs one protocol-over-link simulation from flags and
/// prints a report or a CSV row (for sweeps driven by shell loops); the
/// subcommands replay chaos schedules, verify, capture/inspect/trace event
/// streams, run constellations and talk to the live daemon.  Every command
/// derives its parser and `--help` from one flag table:
///
///   lamsdlc_cli --protocol lams --rate 300e6 --delay-ms 10 --pf 0.1 --csv
///   lamsdlc_cli chaos --seed 1 --seeds 500 --jobs 0
///   lamsdlc_cli verify --seeds 200
///   lamsdlc_cli capture --seed 42 --out run.ldlcap
///   lamsdlc_cli inspect run.ldlcap --timeline --bucket-ms 10
///   lamsdlc_cli trace --seed 42 --explain worst
///   lamsdlc_cli network --sats 112 --planes 8 --partitions 4
///   lamsdlc_cli <subcommand> --help

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "lamsdlc/analysis/model.hpp"
#include "lamsdlc/obs/capture.hpp"
#include "lamsdlc/obs/event.hpp"
#include "lamsdlc/obs/metrics.hpp"
#include "lamsdlc/obs/perfetto.hpp"
#include "lamsdlc/obs/trace.hpp"
#include "lamsdlc/sim/chaos.hpp"
#include "lamsdlc/sim/run_network.hpp"
#include "lamsdlc/sim/sweep.hpp"
#include "lamsdlc/sim/scenario.hpp"
#include "lamsdlc/verif/corrupt.hpp"
#include "lamsdlc/verif/fuzz.hpp"
#include "lamsdlc/verif/verify.hpp"
#include "lamsdlc/workload/sources.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include "daemon_opts.hpp"
#include "flags.hpp"

namespace {

using namespace lamsdlc;
using namespace lamsdlc::tools;

struct Options {
  sim::ScenarioConfig cfg;
  std::uint64_t frames = 1000;
  Time horizon = Time::seconds_int(600);
  bool csv = false;
  bool csv_header = false;
  bool analysis = false;
};

constexpr std::pair<const char*, sim::Protocol> kProtocols[] = {
    {"lams", sim::Protocol::kLams},
    {"sr", sim::Protocol::kSrHdlc},
    {"gbn", sim::Protocol::kGbnHdlc},
    {"nbdt", sim::Protocol::kNbdt}};

const char* protocol_name(sim::Protocol p) {
  for (const auto& [name, q] : kProtocols) {
    if (q == p) return name;
  }
  return "?";
}

Options parse(const Command& cmd, int argc, char** argv) {
  Options o;
  sim::ScenarioConfig& c = o.cfg;
  double pf = 0, pc = 0, ber = -1;
  Time burst{};
  const Flags flags = {
      {"--protocol", "lams|sr|gbn|nbdt", "protocol under test",
       protocol_name(c.protocol),
       [&c](std::string_view t) {
         for (const auto& [name, p] : kProtocols) {
           if (t == name) c.protocol = p;
         }
         return t == protocol_name(c.protocol) ? nullptr : kMalformed;
       }},
      {"--rate", "BPS", "link data rate", c.data_rate_bps, kPositive},
      {"--delay-ms", "MS", "one-way propagation delay", c.prop_delay, 1e-3},
      {"--frame-bytes", "B", "frame size", c.frame_bytes},
      {"--frames", "N", "batch size", o.frames},
      {"--pf", "P", "I-frame error probability", pf, kProbability},
      {"--pc", "P", "control-frame error probability", pc, kProbability},
      {"--ber", "B", "bit error rate (-1 = use --pf/--pc)", ber, kProbability},
      {"--burst-ms", "MS", "Gilbert-Elliott mean burst (0 = none)", burst, 1e-3},
      {"--icp-ms", "MS", "LAMS checkpoint interval W_cp",
       c.lams.checkpoint_interval, 1e-3},
      {"--cdepth", "K", "LAMS cumulation depth C_depth",
       c.lams.cumulation_depth},
      Flag{"--window", "W", "HDLC window (modulus becomes 4 W)", c.hdlc.window,
           kPositive}
          .also([&c] { c.hdlc.modulus = 4 * c.hdlc.window; }),
      {"--timeout-ms", "MS", "HDLC t_out", c.hdlc.timeout, 1e-3},
      {"--seed", "S", "random seed", c.seed},
      {"--byte-level", "send frames through the real codec", c.byte_level_wire},
      {"--horizon-s", "S", "simulated-time limit", o.horizon, 1.0},
      {"--csv", "emit one CSV row instead of the report", o.csv},
      Flag{"--csv-header", "--csv with a header row", o.csv_header}.also(
          [&o] { o.csv = true; }),
      {"--analysis", "also print the Section 4 closed forms", o.analysis}};
  parse_flags(cmd, flags, argc, argv, 1);
  if (c.hdlc.window >= 1u << 30) usage_error(cmd, "--window must be < 2^30");
  if (ber >= 0) {
    o.cfg.forward_error.kind = sim::ErrorConfig::Kind::kBernoulliBer;
    o.cfg.forward_error.ber = ber;
    o.cfg.reverse_error = o.cfg.forward_error;
  } else if (burst > Time{}) {
    o.cfg.forward_error.kind = sim::ErrorConfig::Kind::kGilbertElliott;
    o.cfg.forward_error.gilbert.mean_bad = burst;
    o.cfg.reverse_error = o.cfg.forward_error;
  } else if (pf > 0 || pc > 0) {
    o.cfg.forward_error.kind = sim::ErrorConfig::Kind::kFixedFrameProb;
    o.cfg.forward_error.p_frame = pf;
    o.cfg.forward_error.p_control = pc;
    o.cfg.reverse_error.kind = sim::ErrorConfig::Kind::kFixedFrameProb;
    o.cfg.reverse_error.p_frame = pc;
    o.cfg.reverse_error.p_control = pc;
  }
  // Keep the LAMS failure budget consistent with the configured delay.
  o.cfg.lams.max_rtt = o.cfg.prop_delay * 2 + Time::milliseconds(5);
  return o;
}

/// `--seeds/--jobs`: how many consecutive seeds a sweep runs, on how many
/// worker threads (output is identical whatever --jobs is).
struct Sweep {
  std::uint64_t seeds = 1;
  unsigned jobs = 1;
};

Flags seed_flag(std::uint64_t& seed) {
  return {{"--seed", "S", "first (or only) seed", seed}};
}

Flags sweep_flags(std::uint64_t& seed, Sweep& sweep) {
  const Flags flags = {
      {"--seeds", "N", "consecutive seeds to run", sweep.seeds, kPositive},
      {"--jobs", "N", "worker threads (0 = all cores)", sweep.jobs}};
  return seed_flag(seed) + flags;
}

/// The `sim::ChaosKnobs` flags shared by `chaos`, `capture` and `trace`.
Flags chaos_flags(sim::ChaosKnobs& k) {
  return {
      {"--packets", "N", "workload size per run", k.packets},
      {"--reverse-only", "faults hit checkpoints only", k.allow_forward_faults,
       false},
      {"--forward-only", "faults hit I-frames only", k.allow_reverse_faults,
       false},
      {"--no-outage", "no full link outages", k.allow_link_outage, false},
      {"--no-suppress-duplicates", "ablation: receiver delivers stale frames",
       k.suppress_duplicates, false},
      {"--reverse-noise", "P", "pin the checkpoint-path error (-1 = drawn)",
       k.reverse_noise},
      {"--reverse-outage-from-ms", "MS", "start of a reverse-only outage",
       k.reverse_outage_from, 1e-3},
      {"--reverse-outage-ms", "MS", "its length (I-frames still flow)",
       k.reverse_outage_len, 1e-3},
      {"--self-heal", "enable self-audit, watchdog and RESYNC", k.self_heal}};
}

int run_chaos_command(const Command& cmd, int argc, char** argv) {
  sim::ChaosKnobs knobs;
  Sweep sweep;
  parse_flags(cmd, sweep_flags(knobs.seed, sweep) + chaos_flags(knobs), argc,
              argv, 2);
  const std::uint64_t seeds = sweep.seeds;

  // Seeds are independent simulations; the sweep returns verdicts in seed
  // order, so the output below is identical whatever --jobs is.
  const std::vector<sim::ChaosVerdict> verdicts =
      sim::run_chaos_sweep(knobs, knobs.seed, seeds, sweep.jobs);

  std::uint64_t violated = 0;
  for (std::uint64_t s = knobs.seed; s < knobs.seed + seeds; ++s) {
    const sim::ChaosVerdict& v = verdicts[s - knobs.seed];
    if (!v.ok) ++violated;
    if (!v.ok || seeds == 1) {
      std::printf("%s", v.to_string().c_str());
      std::printf(
          "  counters: drop=%llu dup=%llu delay=%llu trunc=%llu corrupt=%llu "
          "reverse=%llu congestion=%llu dup_suppressed=%llu rnak=%llu "
          "cp=%llu\n",
          static_cast<unsigned long long>(v.faults_dropped),
          static_cast<unsigned long long>(v.faults_duplicated),
          static_cast<unsigned long long>(v.faults_delayed),
          static_cast<unsigned long long>(v.faults_truncated),
          static_cast<unsigned long long>(v.frames_corrupted),
          static_cast<unsigned long long>(v.reverse_faulted),
          static_cast<unsigned long long>(v.congestion_discards),
          static_cast<unsigned long long>(v.duplicates_suppressed),
          static_cast<unsigned long long>(v.request_naks),
          static_cast<unsigned long long>(v.checkpoints_sent));
    }
  }
  if (seeds > 1) {
    std::printf("chaos soak: %llu seeds, %llu violated\n",
                static_cast<unsigned long long>(seeds),
                static_cast<unsigned long long>(violated));
  }
  return violated == 0 ? 0 : 1;
}

/// `verify --corrupt-state`: the state-corruption chaos tier.
int run_corrupt_state_command(const Command& verify, int argc, char** argv) {
  const Command cmd{
      verify.prog + " --corrupt-state",
      "State-corruption chaos tier: seeded injections mutate live endpoint\n"
      "state mid-run (counters, slots, NAK history, cadence timers,\n"
      "anchors).  Each run must converge to invariant-clean steady state\n"
      "within the recovery budget, or tear down through the bounded-retry\n"
      "RESYNC path.  Failing seeds shrink and print a repro line."};
  verif::CorruptKnobs knobs;
  Sweep sweep;
  bool repro = false;
  bool corrupt_state = true;  // run_verify_command dispatched on it already
  const Flags flags = {
      {"--corrupt-state", "select this tier", corrupt_state},
      {"--packets", "N", "workload size per run", knobs.packets},
      {"--injections", "N", "pin the injection count (0 = draw 1..4)",
       knobs.injections},
      {"--no-sender", "never corrupt the sender", knobs.allow_sender, false},
      {"--no-receiver", "never corrupt the receiver", knobs.allow_receiver,
       false},
      {"--no-state-loss", "never destroy an in-flight slot",
       knobs.allow_state_loss, false},
      {"--no-noise", "no background wire noise", knobs.background_noise, false},
      {"--no-self-heal", "ablation: self-audit/watchdog/RESYNC off",
       knobs.self_heal, false},
      {"--fault-scale", "X", "warp-magnitude multiplier (shrinker)",
       knobs.scale},
      {"--repro", "print one seed's transcript verbatim", repro}};
  parse_flags(cmd, sweep_flags(knobs.seed, sweep) + flags, argc, argv, 2);
  const std::uint64_t seeds = sweep.seeds;

  if (repro || seeds == 1) {
    const verif::CorruptVerdict v = verif::run_corrupt(knobs);
    std::printf("%s", v.to_string().c_str());
    return v.ok ? 0 : 1;
  }

  const std::vector<verif::CorruptVerdict> verdicts =
      verif::run_corrupt_sweep(knobs, knobs.seed, seeds, sweep.jobs);
  std::uint64_t failed = 0, converged = 0, torn_down = 0, resyncs = 0;
  for (const verif::CorruptVerdict& v : verdicts) {
    converged += v.converged ? 1 : 0;
    torn_down += v.torn_down ? 1 : 0;
    resyncs += v.resyncs;
    if (v.ok) continue;
    ++failed;
    std::printf("seed %llu FAILED, shrinking...\n",
                static_cast<unsigned long long>(v.knobs.seed));
    const verif::CorruptVerdict small = verif::shrink_corrupt(v.knobs);
    std::printf("%s", small.to_string().c_str());
  }
  std::printf("corrupt-state sweep: %llu seeds, %llu converged, %llu torn "
              "down, %llu resyncs, %llu failed\n",
              static_cast<unsigned long long>(seeds),
              static_cast<unsigned long long>(converged),
              static_cast<unsigned long long>(torn_down),
              static_cast<unsigned long long>(resyncs),
              static_cast<unsigned long long>(failed));
  return failed == 0 ? 0 : 1;
}

int run_verify_command(const Command& cmd, int argc, char** argv) {
  if (std::find(argv + 2, argv + argc, std::string_view{"--corrupt-state"}) !=
      argv + argc) {
    return run_corrupt_state_command(cmd, argc, argv);
  }
  verif::VerifyKnobs knobs;
  Sweep sweep;
  std::uint64_t fuzz_iters = 10000;
  bool repro = false;
  const Flags flags = {
      {"--fuzz", "N", "codec fuzz iterations (0 disables)", fuzz_iters},
      {"--modulus", "M", "pin the numbering size (0 = draw)", knobs.modulus},
      {"--cdepth", "C", "pin the cumulation depth (0 = draw)", knobs.c_depth},
      {"--packets", "P", "pin the workload size (0 = draw)", knobs.packets},
      {"--no-faults", "no windowed fault episodes", knobs.faults, false},
      {"--no-congestion", "no small buffers / slow t_proc", knobs.congestion,
       false},
      {"--no-outage", "no full link outages", knobs.outage, false},
      {"--no-reverse", "no checkpoint-channel episodes", knobs.reverse_faults,
       false},
      {"--no-byte-level", "never draw byte-level wire mode", knobs.byte_level,
       false},
      {"--no-differential", "skip the SR/GBN differential legs",
       knobs.differential, false},
      {"--no-analysis", "skip the model-vs-sim check", knobs.analysis_check,
       false},
      {"--fault-scale", "X", "scale fault windows (shrinker output)",
       knobs.fault_scale},
      {"--repro", "one seed, full transcript, no shrinking", repro}};
  parse_flags(cmd, sweep_flags(knobs.seed, sweep) + flags, argc, argv, 2);
  const std::uint64_t seeds = sweep.seeds;

  if (repro) {
    // Exact single-run replay: no shrinking, full transcript either way.
    const verif::VerifyVerdict v = verif::run_verify(knobs);
    std::printf("%s", v.to_string().c_str());
    return v.ok ? 0 : 1;
  }

  std::uint64_t failed = 0;

  // Wire-input leg first: it is cheap and a codec property violation makes
  // every byte-level scenario verdict suspect.
  if (fuzz_iters > 0) {
    verif::FuzzOptions fo;
    fo.seed = knobs.seed;
    fo.iterations = fuzz_iters;
    fo.seq_modulus = knobs.modulus != 0 ? knobs.modulus : 32;
    const verif::FuzzReport fr = verif::fuzz_codec(fo);
    std::printf("%s\n", fr.summary().c_str());
    if (!fr.ok()) failed += fr.failures.size();
  }

  const sim::ParallelSweep pool{sweep.jobs};
  const auto verdicts = pool.map<verif::VerifyVerdict>(
      static_cast<std::size_t>(seeds), [&knobs](std::size_t i) {
        verif::VerifyKnobs k = knobs;
        k.seed = knobs.seed + i;
        return verif::run_verify(k);
      });

  for (const verif::VerifyVerdict& v : verdicts) {
    if (v.ok && seeds > 1) continue;
    if (v.ok) {
      std::printf("%s", v.to_string().c_str());
      continue;
    }
    ++failed;
    std::printf("seed %llu FAILED, shrinking...\n",
                static_cast<unsigned long long>(v.knobs.seed));
    const verif::VerifyVerdict small = verif::shrink_failure(v.knobs);
    std::printf("%s", small.to_string().c_str());
  }
  if (seeds > 1) {
    std::printf("verify sweep: %llu seeds, %llu failed\n",
                static_cast<unsigned long long>(seeds),
                static_cast<unsigned long long>(failed));
  }
  return failed == 0 ? 0 : 1;
}

int run_capture_command(const Command& cmd, int argc, char** argv) {
  sim::ChaosKnobs knobs;
  std::string out;
  const Flags flags = {
      {"--out", "FILE", "capture path (empty = chaos-seed-S.ldlcap)", out},
      {"--sample-ms", "MS", "registry snapshot cadence (0 = off)",
       knobs.sample_period, 1e-3}};
  parse_flags(cmd, seed_flag(knobs.seed) + chaos_flags(knobs) + flags, argc,
              argv, 2);
  if (out.empty()) {
    out = "chaos-seed-" + std::to_string(knobs.seed) + ".ldlcap";
  }

  std::ofstream os{out, std::ios::binary | std::ios::trunc};
  if (!os) {
    std::fprintf(stderr, "lamsdlc_cli: cannot open %s for writing\n",
                 out.c_str());
    return 1;
  }
  obs::CaptureWriter writer{os};
  knobs.tap = [&writer](sim::Scenario& s) {
    s.events().subscribe(writer.subscriber());
  };
  const sim::ChaosVerdict v = sim::run_chaos(knobs);
  os.flush();
  if (!os) {
    std::fprintf(stderr, "lamsdlc_cli: write error on %s\n", out.c_str());
    return 1;
  }

  std::printf("%s", v.to_string().c_str());
  std::printf("captured %llu events -> %s\n",
              static_cast<unsigned long long>(writer.written()), out.c_str());
  return v.ok ? 0 : 1;
}

/// `inspect --timeline`: render filtered events as a time-bucketed table —
/// per-bucket event rates, carried-forward buffer depths, and (when the
/// capture holds Sampler snapshots) per-bucket deltas of the busiest sampled
/// counters.
void print_timeline(const std::vector<obs::Event>& events, double bucket_ms) {
  if (events.empty()) {
    std::printf("timeline: no matching records\n");
    return;
  }
  const double t0 = events.front().at.ms();
  const double t1 = events.back().at.ms();
  if (bucket_ms <= 0) {
    bucket_ms = (t1 - t0) / 20.0;
    if (bucket_ms < 1.0) bucket_ms = 1.0;
  }
  const auto buckets =
      static_cast<std::size_t>((t1 - t0) / bucket_ms) + 1;

  struct Row {
    std::uint64_t tx = 0, retx = 0, delivered = 0, corrupted = 0, naks = 0,
                  checkpoints = 0;
  };
  std::vector<Row> rows(buckets);
  // Carried-forward depths: the last observed occupancy at or before each
  // bucket's end (a buffer that never changes inside a bucket keeps its
  // depth, it does not read as empty).
  std::vector<int64_t> send_depth(buckets, -1), recv_depth(buckets, -1);
  // Sampled counters: name -> cumulative value per bucket (last snapshot in
  // the bucket; -1 = no snapshot yet).
  std::map<std::string, std::vector<double>> sampled;

  for (const obs::Event& e : events) {
    auto b = static_cast<std::size_t>((e.at.ms() - t0) / bucket_ms);
    if (b >= buckets) b = buckets - 1;
    Row& r = rows[b];
    switch (e.kind) {
      case obs::EventKind::kFrameSent:
        if (e.source == obs::Source::kLamsSender && !e.p.frame.control) {
          ++r.tx;
          if (e.p.frame.attempt > 1) ++r.retx;
        }
        break;
      case obs::EventKind::kPacketDelivered:
        ++r.delivered;
        break;
      case obs::EventKind::kFrameCorrupted:
        ++r.corrupted;
        break;
      case obs::EventKind::kNakGenerated:
        ++r.naks;
        break;
      case obs::EventKind::kCheckpointEmitted:
        ++r.checkpoints;
        break;
      case obs::EventKind::kBufferOccupancy:
        (e.p.buffer.which == obs::BufferId::kSendBuffer
             ? send_depth
             : recv_depth)[b] = e.p.buffer.depth;
        break;
      case obs::EventKind::kMetricSample:
        if (e.p.sample.is_counter) {
          auto& series = sampled[std::string{e.p.sample.name_view()}];
          if (series.empty()) series.assign(buckets, -1.0);
          series[b] = e.p.sample.value;
        }
        break;
      default:
        break;
    }
  }
  // Carry depths forward through empty buckets.
  for (std::size_t b = 1; b < buckets; ++b) {
    if (send_depth[b] < 0) send_depth[b] = send_depth[b - 1];
    if (recv_depth[b] < 0) recv_depth[b] = recv_depth[b - 1];
  }

  std::printf("timeline: %zu buckets x %.3f ms, t=[%.3f ms, %.3f ms]\n",
              buckets, bucket_ms, t0, t1);
  std::printf("%12s %6s %6s %6s %6s %6s %6s %7s %7s\n", "t0_ms", "tx", "retx",
              "dlvr", "corr", "nak", "cp", "sendq", "recvq");
  for (std::size_t b = 0; b < buckets; ++b) {
    const Row& r = rows[b];
    char sendq[24] = "-", recvq[24] = "-";
    if (send_depth[b] >= 0) {
      std::snprintf(sendq, sizeof sendq, "%lld",
                    static_cast<long long>(send_depth[b]));
    }
    if (recv_depth[b] >= 0) {
      std::snprintf(recvq, sizeof recvq, "%lld",
                    static_cast<long long>(recv_depth[b]));
    }
    std::printf("%12.3f %6llu %6llu %6llu %6llu %6llu %6llu %7s %7s\n",
                t0 + static_cast<double>(b) * bucket_ms,
                static_cast<unsigned long long>(r.tx),
                static_cast<unsigned long long>(r.retx),
                static_cast<unsigned long long>(r.delivered),
                static_cast<unsigned long long>(r.corrupted),
                static_cast<unsigned long long>(r.naks),
                static_cast<unsigned long long>(r.checkpoints), sendq, recvq);
  }

  if (!sampled.empty()) {
    // Busiest sampled counters, as per-bucket deltas (rates).  Snapshots are
    // cumulative, so carry the last seen value forward before differencing.
    std::vector<std::pair<double, const std::string*>> by_final;
    for (auto& [name, series] : sampled) {
      double last = 0;
      for (std::size_t b = 0; b < buckets; ++b) {
        if (series[b] < 0) {
          series[b] = last;
        } else {
          last = series[b];
        }
      }
      by_final.emplace_back(last, &name);
    }
    std::sort(by_final.begin(), by_final.end(),
              [](const auto& x, const auto& y) {
                return x.first != y.first ? x.first > y.first
                                          : *x.second < *y.second;
              });
    const std::size_t shown = by_final.size() < 4 ? by_final.size() : 4;
    std::printf("\nsampled counter deltas per bucket (%zu of %zu series):\n",
                shown, by_final.size());
    std::printf("%12s", "t0_ms");
    for (std::size_t c = 0; c < shown; ++c) {
      std::printf(" %24s", by_final[c].second->c_str());
    }
    std::printf("\n");
    for (std::size_t b = 0; b < buckets; ++b) {
      std::printf("%12.3f", t0 + static_cast<double>(b) * bucket_ms);
      for (std::size_t c = 0; c < shown; ++c) {
        const std::vector<double>& series = sampled[*by_final[c].second];
        const double prev = b == 0 ? 0.0 : series[b - 1];
        std::printf(" %24.0f", series[b] - prev);
      }
      std::printf("\n");
    }
  }
}

int run_inspect_command(const Command& cmd, int argc, char** argv) {
  std::string file;
  bool json = false, summary = false, timeline = false;
  std::optional<obs::EventKind> kind;
  std::optional<obs::Source> source;
  double from_ms = -1, to_ms = -1, bucket_ms = 0;
  std::uint64_t limit = 0;
  const Flags flags = {
      {"FILE", "", "the .ldlcap capture to decode (required)", file},
      {"--json", "one JSON object per record (default: text)", json},
      {"--summary", "per-kind/per-source counts only", summary},
      {"--timeline", "time-bucketed rate/occupancy table", timeline},
      {"--bucket-ms", "MS", "timeline bucket width (0 = span/20, >= 1)",
       bucket_ms, kPositive},
      {"--kind", "NAME", "keep only this event kind", "",
       [&kind](std::string_view t) {
         kind = obs::kind_from_string(t);
         return kind ? nullptr : kMalformed;
       }},
      {"--source", "NAME", "keep only this source (e.g. lams.sender)", "",
       [&source](std::string_view t) {
         source = obs::source_from_string(t);
         return source ? nullptr : kMalformed;
       }},
      {"--from-ms", "MS", "keep t >= MS (-1 = no bound)", from_ms},
      {"--to-ms", "MS", "keep t < MS (-1 = no bound)", to_ms},
      {"--limit", "N", "stop after printing N records (0 = all)", limit}};
  parse_flags(cmd, flags, argc, argv, 2);
  if (file.empty()) usage_error(cmd, "a capture FILE is required");
  if (from_ms >= 0 && to_ms >= 0 && from_ms > to_ms) {
    usage_error(cmd, "empty time filter: --from-ms " +
                         std::to_string(from_ms) + " is after --to-ms " +
                         std::to_string(to_ms));
  }

  std::ifstream is{file, std::ios::binary};
  if (!is) {
    std::fprintf(stderr, "lamsdlc_cli: cannot open %s\n", file.c_str());
    return 1;
  }
  obs::CaptureReader reader{is};

  std::uint64_t matched = 0, printed = 0;
  std::uint64_t by_kind[obs::kEventKindCount] = {};
  std::uint64_t by_source[obs::kSourceCount] = {};
  std::vector<obs::Event> bucketed;  // filtered records, timeline mode only
  Time first{}, last{};
  while (auto e = reader.next()) {
    if (kind && e->kind != *kind) continue;
    if (source && e->source != *source) continue;
    if (from_ms >= 0 && e->at.ms() < from_ms) continue;
    if (to_ms >= 0 && e->at.ms() >= to_ms) continue;
    if (matched == 0) first = e->at;
    last = e->at;
    ++matched;
    by_kind[static_cast<std::uint8_t>(e->kind)]++;
    by_source[static_cast<std::uint8_t>(e->source)]++;
    if (timeline) {
      bucketed.push_back(*e);
      continue;
    }
    if (summary || (limit != 0 && printed >= limit)) continue;
    ++printed;
    if (json) {
      std::printf("%s\n", obs::to_json(*e).c_str());
    } else {
      std::printf("%12.6f ms  %-13s %s\n", e->at.ms(),
                  obs::to_string(e->source), obs::describe(*e).c_str());
    }
  }
  if (!reader.ok()) {
    std::fprintf(stderr, "lamsdlc_cli: %s: %s\n", file.c_str(),
                 reader.error().c_str());
    return 1;
  }
  if (timeline) {
    print_timeline(bucketed, bucket_ms);
    return 0;
  }
  if (summary) {
    std::printf("%s: version %u, %llu records, %llu matched\n", file.c_str(),
                reader.version(),
                static_cast<unsigned long long>(reader.read_count()),
                static_cast<unsigned long long>(matched));
    if (matched > 0) {
      std::printf("span: %.6f ms .. %.6f ms\n", first.ms(), last.ms());
      for (std::uint8_t k = 0; k < obs::kEventKindCount; ++k) {
        if (by_kind[k] == 0) continue;
        std::printf("  kind   %-21s %llu\n",
                    obs::to_string(static_cast<obs::EventKind>(k)),
                    static_cast<unsigned long long>(by_kind[k]));
      }
      for (std::uint8_t s = 0; s < obs::kSourceCount; ++s) {
        if (by_source[s] == 0) continue;
        std::printf("  source %-21s %llu\n",
                    obs::to_string(static_cast<obs::Source>(s)),
                    static_cast<unsigned long long>(by_source[s]));
      }
    }
  } else if (limit != 0 && matched > printed) {
    std::printf("... %llu more matching records (--limit %llu)\n",
                static_cast<unsigned long long>(matched - printed),
                static_cast<unsigned long long>(limit));
  }
  return 0;
}

int run_trace_command(const Command& cmd, int argc, char** argv) {
  sim::ChaosKnobs knobs;
  std::string file, perfetto_out, explain_arg;
  std::uint64_t explain_id = 0;
  bool dump = false;
  bool live_flags = false;
  bool corrupt_state = false;
  std::uint32_t corrupt_injections = 0;
  Flags live = seed_flag(knobs.seed) + chaos_flags(knobs) + Flags{
      {"--sample-ms", "MS", "registry snapshot cadence (0 = off)",
       knobs.sample_period, 1e-3},
      {"--corrupt-state", "run the state-corruption tier instead",
       corrupt_state},
      {"--injections", "N", "corrupt-state injections (0 = draw)",
       corrupt_injections}};
  for (Flag& f : live) f.also([&live_flags] { live_flags = true; });
  const Flags flags = {
      {"--perfetto", "FILE", "write Chrome trace-event JSON", perfetto_out},
      {"--explain", "ID|worst", "print one packet's causal story", "",
       [&](std::string_view t) {
         explain_arg = t;
         return t == "worst" || read_number(t, explain_id) ? nullptr
                                                          : kMalformed;
       }},
      {"--dump", "print the canonical reconstruction dump", dump}};
  const Flags capture = {
      {"FILE", "", "an .ldlcap capture, instead of a live run", file}};
  parse_flags(cmd, capture + live + flags, argc, argv, 2);
  if (!file.empty() && live_flags) {
    usage_error(cmd, "give a capture FILE or live-run flags, not both");
  }

  obs::TraceBuilder tb;
  if (!file.empty()) {
    std::ifstream is{file, std::ios::binary};
    if (!is) {
      std::fprintf(stderr, "lamsdlc_cli: cannot open %s\n", file.c_str());
      return 1;
    }
    obs::CaptureReader reader{is};
    while (auto e = reader.next()) tb.on_event(*e);
    if (!reader.ok()) {
      std::fprintf(stderr, "lamsdlc_cli: %s: %s\n", file.c_str(),
                   reader.error().c_str());
      return 1;
    }
  } else if (corrupt_state) {
    // Live state-corruption run: the trace shows the corruption instants,
    // the self-audit trips and each RESYNC episode as a recovery span.
    verif::CorruptKnobs ck;
    ck.seed = knobs.seed;
    ck.packets = knobs.packets;
    ck.injections = corrupt_injections;
    ck.tap = [&tb](sim::Scenario& s) {
      s.events().subscribe(tb.subscriber());
    };
    const verif::CorruptVerdict v = verif::run_corrupt(ck);
    std::printf("%s", v.to_string().c_str());
  } else {
    knobs.tap = [&tb](sim::Scenario& s) {
      s.events().subscribe(tb.subscriber());
    };
    const sim::ChaosVerdict v = sim::run_chaos(knobs);
    std::printf("%s", v.to_string().c_str());
  }

  const obs::TraceSummary sum = tb.summarize();
  std::printf(
      "trace: %zu packets, %zu complete, %zu delivered, %zu released, "
      "%llu attempts (max %u per packet)\n",
      sum.packets, sum.complete, sum.delivered, sum.released,
      static_cast<unsigned long long>(sum.attempts), sum.max_attempts);
  if (sum.resync_requeues > 0) {
    std::printf("trace: %llu attempt chains restarted by RESYNC requeues\n",
                static_cast<unsigned long long>(sum.resync_requeues));
  }
  if (sum.broken_chains > 0 || sum.orphan_events > 0 ||
      sum.extra_deliveries > 0) {
    std::printf("trace: ANOMALIES: %zu broken chains, %llu orphan events, "
                "%llu duplicate deliveries\n",
                sum.broken_chains,
                static_cast<unsigned long long>(sum.orphan_events),
                static_cast<unsigned long long>(sum.extra_deliveries));
  }

  obs::Registry reg;
  tb.fold_latency(reg);
  if (reg.counter_value("trace.packets_complete") > 0) {
    std::printf("latency attribution over %llu complete packets:\n",
                static_cast<unsigned long long>(
                    reg.counter_value("trace.packets_complete")));
    std::printf("  %-34s %10s %10s %10s %10s\n", "component (ms)", "mean",
                "p50", "p99", "max");
    for (const auto& [name, h] : reg.histograms()) {
      std::printf("  %-34s %10.3f %10.3f %10.3f %10.3f\n", name.c_str(),
                  h.mean(), h.p50(), h.p99(), h.max());
    }
  }

  if (dump) std::printf("%s", tb.dump().c_str());

  if (!perfetto_out.empty()) {
    std::ofstream os{perfetto_out, std::ios::trunc};
    if (!os) {
      std::fprintf(stderr, "lamsdlc_cli: cannot open %s for writing\n",
                   perfetto_out.c_str());
      return 1;
    }
    obs::write_perfetto(os, tb);
    os.flush();
    if (!os) {
      std::fprintf(stderr, "lamsdlc_cli: write error on %s\n",
                   perfetto_out.c_str());
      return 1;
    }
    std::printf("perfetto trace -> %s (load in ui.perfetto.dev)\n",
                perfetto_out.c_str());
  }

  if (!explain_arg.empty()) {
    const obs::PacketTrace* t =
        explain_arg == "worst" ? tb.worst() : tb.find(explain_id);
    if (t == nullptr) {
      std::fprintf(stderr, "lamsdlc_cli: no trace for packet '%s'\n",
                   explain_arg.c_str());
      return 1;
    }
    std::printf("%s", obs::explain(*t).c_str());
  }

  // Acceptance gate: every packet that reached the client must have a fully
  // stitched span tree — a delivered-but-unstitchable packet is a trace bug.
  std::size_t incomplete_delivered = 0;
  for (const auto& [id, t] : tb.packets()) {
    if (t.delivered && !t.complete()) ++incomplete_delivered;
  }
  if (incomplete_delivered > 0) {
    std::fprintf(stderr,
                 "lamsdlc_cli: %zu delivered packets lack a complete span "
                 "tree\n",
                 incomplete_delivered);
    return 1;
  }
  return 0;
}

// ---------------------------------------------------------------------------
// `connect` — bridge client (modem discipline: stream, half-close, status).

/// Where a daemon client connects; `--host/--port` for `connect`, `status`
/// and `watch`.
struct Endpoint {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;

  /// A TCP connection to the daemon, or -1 with errno set.
  [[nodiscard]] int dial() const {
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, host.c_str(), &addr.sin_addr);  // checked by --host
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0 ||
        ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) == 0) {
      return fd;
    }
    const int err = errno;
    ::close(fd);
    errno = err;
    return -1;
  }
};

Endpoint parse_endpoint(const Command& cmd, const Flags& more, int argc,
                        char** argv) {
  Endpoint e;
  const Flags flags = {
      {"--host", "ADDR", "daemon IPv4 address", e.host,
       [&e](std::string_view t) {
         in_addr addr{};
         e.host = t;
         return ::inet_pton(AF_INET, e.host.c_str(), &addr) == 1 ? nullptr
                                                                 : kMalformed;
       }},
      {"--port", "N", "daemon TCP port (required)", e.port}};
  parse_flags(cmd, flags + more, argc, argv, 2);
  if (e.port == 0) usage_error(cmd, "--port is required");
  return e;
}

int run_connect_command(const Command& cmd, int argc, char** argv) {
  std::string in_path;
  const Endpoint bridge = parse_endpoint(
      cmd, {{"--in", "FILE", "bytes to send (empty = stdin)", in_path}}, argc,
      argv);

  std::FILE* in = stdin;
  if (!in_path.empty()) {
    in = std::fopen(in_path.c_str(), "rb");
    if (in == nullptr) {
      std::fprintf(stderr, "lamsdlc_cli: cannot open %s\n", in_path.c_str());
      return 1;
    }
  }

  const int fd = bridge.dial();
  if (fd < 0) {
    std::perror("lamsdlc_cli: connect");
    return 1;
  }
  signal(SIGPIPE, SIG_IGN);

  char buf[16384];
  std::uint64_t sent = 0;
  for (;;) {
    const std::size_t n = std::fread(buf, 1, sizeof buf, in);
    if (n == 0) break;
    std::size_t off = 0;
    while (off < n) {
      const ssize_t w = ::send(fd, buf + off, n - off, 0);
      if (w <= 0) {
        std::fprintf(stderr, "lamsdlc_cli: bridge write failed\n");
        ::close(fd);
        return 1;
      }
      off += static_cast<std::size_t>(w);
      sent += static_cast<std::uint64_t>(w);
    }
  }
  if (in != stdin) std::fclose(in);
  ::shutdown(fd, SHUT_WR);  // "that's all" — now wait for the verdict

  std::string status;
  for (;;) {
    const ssize_t r = ::recv(fd, buf, sizeof buf, 0);
    if (r <= 0) break;
    status.append(buf, static_cast<std::size_t>(r));
    if (status.find('\n') != std::string::npos) break;
  }
  ::close(fd);
  if (const auto nl = status.find('\n'); nl != std::string::npos) {
    status.resize(nl);
  }
  if (status.empty()) {
    std::fprintf(stderr, "lamsdlc_cli: bridge closed without a status line "
                 "(%llu bytes sent)\n",
                 static_cast<unsigned long long>(sent));
    return 1;
  }
  std::printf("%s\n", status.c_str());
  return status.rfind("OK", 0) == 0 ? 0 : 1;
}

// ---------------------------------------------------------------------------
// `status` / `watch` — clients of the daemon's introspection port.

/// One request/response exchange with a status port: send \p verb, read to
/// EOF (the daemon answers one line-delimited request per connection and
/// closes).  Empty optional, reported on stderr, on connect/send failure.
std::optional<std::string> fetch_status(const Endpoint& e,
                                        const std::string& verb) {
  const std::string req = verb + "\n";
  const int fd = e.dial();
  if (fd < 0 || ::send(fd, req.data(), req.size(), 0) !=
                    static_cast<ssize_t>(req.size())) {
    if (fd >= 0) ::close(fd);
    std::fprintf(stderr, "lamsdlc_cli: cannot reach status port %s:%u\n",
                 e.host.c_str(), e.port);
    return std::nullopt;
  }
  std::string out;
  char buf[16384];
  for (;;) {
    const ssize_t r = ::recv(fd, buf, sizeof buf, 0);
    if (r < 0 && errno == EINTR) continue;
    if (r <= 0) break;
    out.append(buf, static_cast<std::size_t>(r));
  }
  ::close(fd);
  return out;
}

int run_status_command(const Command& cmd, int argc, char** argv) {
  std::string verb = "status";
  const Endpoint status = parse_endpoint(
      cmd,
      {{"--pretty", "server-rendered table instead of JSON", verb, "text"},
       {"--metrics", "Prometheus text exposition instead of JSON", verb,
        "metrics"}},
      argc, argv);
  const auto resp = fetch_status(status, verb);
  if (!resp.has_value()) return 1;
  std::fwrite(resp->data(), 1, resp->size(), stdout);
  return 0;
}

/// Pull a string / number / bool field out of one of our own sampler-event
/// JSON lines.  Not a JSON parser — it only needs to read what
/// `obs::to_json` writes (flat object, known key set).
std::optional<std::string> json_field(const std::string& line,
                                      const std::string& key) {
  const std::string pat = "\"" + key + "\":";
  const auto at = line.find(pat);
  if (at == std::string::npos) return std::nullopt;
  std::size_t v = at + pat.size();
  if (v >= line.size()) return std::nullopt;
  if (line[v] == '"') {
    const auto end = line.find('"', v + 1);
    if (end == std::string::npos) return std::nullopt;
    return line.substr(v + 1, end - v - 1);
  }
  auto end = v;
  while (end < line.size() && line[end] != ',' && line[end] != '}') ++end;
  return line.substr(v, end - v);
}

int run_watch_command(const Command& cmd, int argc, char** argv) {
  long interval_ms = 1000;
  std::uint64_t count = 0;
  const Endpoint status = parse_endpoint(
      cmd,
      {{"--interval-ms", "MS", "fetch cadence", interval_ms, kPositive},
       {"--count", "N", "stop after N reports (0 = until killed)", count}},
      argc, argv);

  // name -> value at the previous *sampler* tick; rates divide by sampler
  // tick spacing (t_ps delta), not our fetch interval — the two cadences
  // are independent and only the former is exact.
  std::map<std::string, double> prev;
  double prev_t_s = -1.0;
  for (std::uint64_t n = 0; count == 0 || n < count;) {
    const auto resp = fetch_status(status, "samples");
    if (!resp.has_value()) return 1;
    double t_s = -1.0;
    std::map<std::string, std::pair<double, bool>> tick;  // name -> (v, ctr)
    std::size_t start = 0;
    while (start < resp->size()) {
      auto end = resp->find('\n', start);
      if (end == std::string::npos) end = resp->size();
      const std::string line = resp->substr(start, end - start);
      start = end + 1;
      const auto name = json_field(line, "name");
      const auto value = json_field(line, "value");
      const auto t_ps = json_field(line, "t_ps");
      if (!name || !value || !t_ps) continue;
      t_s = std::atof(t_ps->c_str()) * 1e-12;
      const bool is_counter =
          json_field(line, "is_counter").value_or("false") == "true";
      tick[*name] = {std::atof(value->c_str()), is_counter};
    }
    if (t_s < 0) {
      std::printf("-- no samples yet (sampler warming up or disabled)\n");
      std::fflush(stdout);
    } else if (t_s != prev_t_s) {  // a fresh tick, not a re-read
      std::printf("-- t=%.1fs (%zu metrics)\n", t_s, tick.size());
      for (const auto& [name, vc] : tick) {
        const auto& [v, is_counter] = vc;
        if (!is_counter) {
          std::printf("   %-44s %14.3f\n", name.c_str(), v);
          continue;
        }
        const auto p = prev.find(name);
        if (p == prev.end() || prev_t_s < 0) {
          std::printf("   %-44s %14.0f\n", name.c_str(), v);
        } else {
          const double d = v - p->second;
          if (d == 0) continue;  // quiet metrics stay off the screen
          std::printf("   %-44s %14.0f  +%.0f (%.1f/s)\n", name.c_str(), v,
                      d, d / (t_s - prev_t_s));
        }
      }
      std::fflush(stdout);
      for (const auto& [name, vc] : tick) prev[name] = vc.first;
      prev_t_s = t_s;
      ++n;
      if (count != 0 && n >= count) break;
    }
    ::usleep(static_cast<useconds_t>(interval_ms) * 1000);
  }
  return 0;
}

// ---------------------------------------------------------------------------
// `network`: Walker-constellation multi-hop run via sim::run_network.
int run_network_command(const Command& cmd, int argc, char** argv) {
  sim::NetworkRunConfig cfg;
  std::string metrics_out;
  std::string capture_out;
  double range_km = cfg.max_range_m / 1e3;
  const auto observe = [&cfg] { cfg.observe = true; };
  const Flags flags = {
      {"--sats", "N", "Walker total satellites", cfg.satellites},
      {"--planes", "P", "Walker planes (must divide --sats)", cfg.planes},
      {"--partitions", "K", "PDES logical processes (1 = serial)",
       cfg.partitions, kPositive},
      {"--waves", "W", "traffic bursts", cfg.waves},
      {"--packets-per-wave", "N", "packets per burst", cfg.packets_per_wave},
      {"--packet-bytes", "B", "packet size", cfg.packet_bytes},
      {"--message-segments", "S", "also one S-segment message per wave",
       cfg.message_segments},
      {"--wave-interval-ms", "MS", "time between bursts", cfg.wave_interval,
       1e-3},
      {"--horizon-s", "S", "simulated-time limit", cfg.horizon, 1.0},
      Flag{"--max-range-km", "KM", "ISL range (smaller: churn)", range_km}
          .also([&] { cfg.max_range_m = range_km * 1e3; }),
      {"--seed", "S", "random seed", cfg.seed},
      {"--pf", "P", "I-frame error probability", cfg.p_frame, kProbability},
      {"--pc", "P", "control error probability", cfg.p_control, kProbability},
      {"--observe", "collect metrics + capture artifacts", cfg.observe},
      Flag{"--sample-ms", "MS", "registry samples in the capture",
           cfg.sample_period, 1e-3}
          .also(observe),
      Flag{"--metrics-out", "FILE", "write the metrics JSON", metrics_out}
          .also(observe),
      Flag{"--capture-out", "FILE", "write the .ldlcap bytes", capture_out}
          .also(observe)};
  parse_flags(cmd, flags, argc, argv, 2);
  if (cfg.satellites == 0 || cfg.planes == 0 ||
      cfg.satellites % cfg.planes != 0) {
    usage_error(cmd, "--sats must be a positive multiple of --planes");
  }

  const sim::NetworkRunResult r = sim::run_network(cfg);

  std::printf("nodes/links/contacts: %zu / %zu / %llu\n", r.nodes, r.links,
              static_cast<unsigned long long>(r.contacts));
  std::printf("partitions:           %zu\n", cfg.partitions);
  std::printf("completed:            %s\n", r.completed ? "yes" : "NO");
  std::printf("sent/delivered/dup:   %llu / %llu / %llu\n",
              static_cast<unsigned long long>(r.report.packets_sent),
              static_cast<unsigned long long>(r.report.packets_delivered),
              static_cast<unsigned long long>(r.report.duplicate_deliveries));
  std::printf("forwarded/parked:     %llu / %llu\n",
              static_cast<unsigned long long>(r.report.packets_forwarded),
              static_cast<unsigned long long>(r.report.packets_parked));
  std::printf("messages completed:   %llu\n",
              static_cast<unsigned long long>(r.report.messages_completed));
  std::printf("mean/max delay:       %.6f / %.6f s\n", r.report.mean_delay_s,
              r.report.max_delay_s);
  if (cfg.observe) {
    std::printf("events:               %llu\n",
                static_cast<unsigned long long>(r.events));
  }
  std::fprintf(stderr, "lamsdlc_cli: network run took %.3f s wall\n",
               r.elapsed_s);

  if (!metrics_out.empty()) {
    std::ofstream f{metrics_out, std::ios::binary | std::ios::trunc};
    f << r.metrics_json;
    if (!f) {
      std::fprintf(stderr, "lamsdlc_cli: cannot write %s\n",
                   metrics_out.c_str());
      return 1;
    }
  }
  if (!capture_out.empty()) {
    std::ofstream f{capture_out, std::ios::binary | std::ios::trunc};
    f.write(r.capture.data(),
            static_cast<std::streamsize>(r.capture.size()));
    if (!f) {
      std::fprintf(stderr, "lamsdlc_cli: cannot write %s\n",
                   capture_out.c_str());
      return 1;
    }
  }
  return r.completed ? 0 : 1;
}

int run_serve_command(const Command& cmd, int argc, char** argv) {
  return run_daemon_main(argc, argv, 2, cmd.prog.c_str());
}

struct Subcommand {
  const char* name;
  const char* about;    ///< One line; `lamsdlc_cli --help` lists it too.
  const char* details;  ///< The rest of `<name> --help`'s description.
  int (*run)(const Command&, int argc, char** argv);
};

constexpr Subcommand kSubcommands[] = {
    {"chaos", "replay seeded fault schedules under the invariant checker",
     "A violation prints the seed and its fault schedule and exits 1.",
     run_chaos_command},
    {"verify", "property-fuzzing + differential-oracle verification sweep",
     "Hostile seeded scenarios are checked against the protocol invariants,\n"
     "the SR/GBN differential oracle and the Section 4 closed forms, after a\n"
     "codec mutation fuzz.  A failing seed shrinks to a `verify --repro`\n"
     "line.  `verify --corrupt-state --help` covers the state-corruption tier.",
     run_verify_command},
    {"capture", "run one chaos seed, record events to an .ldlcap file",
     "The capture format is described in docs/OBSERVABILITY.md.",
     run_capture_command},
    {"inspect", "decode an .ldlcap file to text, JSON or a timeline",
     "Filters combine; --timeline buckets the matching records.",
     run_inspect_command},
    {"trace",
     "reconstruct packet span trees, attribute latency, export Perfetto JSON",
     "Reads a capture FILE, or runs one chaos seed live.  Exits 1 when a\n"
     "delivered packet lacks a complete span tree.",
     run_trace_command},
    {"serve", "run the live transport daemon (same as the lamsdlcd binary)",
     "", run_serve_command},
    {"connect", "push one byte stream through a daemon's client bridge",
     "Streams stdin (or --in FILE) to the bridge, half-closes, and waits for\n"
     "the OK/ERR status line.  Exits 0 iff OK.",
     run_connect_command},
    {"status", "one-shot snapshot of a live daemon's introspection port",
     "Queries `lamsdlcd --status`; the default output is one JSON line.",
     run_status_command},
    {"watch", "periodic sampled metric rates from a live daemon",
     "Fetches the daemon's latest sampler tick each interval and prints\n"
     "counter rates (computed client-side) and gauge levels.",
     run_watch_command},
    {"network",
     "constellation-scale multi-hop run (optionally PDES-partitioned)",
     "The report and both artifact files are byte-identical at every\n"
     "--partitions value (scripts/ci.sh holds the CLI to it with cmp).",
     run_network_command},
};

std::string subcommand_list() {
  std::string list = "subcommands:\n";
  for (const Subcommand& c : kSubcommands) {
    char line[128];
    std::snprintf(line, sizeof line, "  %-9s %s\n", c.name, c.about);
    list += line;
  }
  return list + "  (none)    run one scenario from flags and print a report\n";
}

}  // namespace

int main(int argc, char** argv) {
  const std::string_view first = argc > 1 ? argv[1] : "";
  for (const Subcommand& c : kSubcommands) {
    if (first == c.name) {
      return c.run({"lamsdlc_cli " + std::string{c.name},
                    std::string{c.about} + "\n" + c.details},
                   argc, argv);
    }
  }
  if (first == "help") {
    static char help_flag[] = "--help";
    argv[1] = help_flag;
  } else if (!first.empty() && first[0] != '-') {
    // A bare word that is not a subcommand must not fall through into the
    // scenario flag parser.
    std::fprintf(stderr, "lamsdlc_cli: unknown subcommand '%s'\n%s", argv[1],
                 subcommand_list().c_str());
    return 2;
  }
  const Options o = parse(
      {"lamsdlc_cli",
       "Simulates the LAMS-DLC ARQ protocol (and HDLC/NBDT baselines) over a\n"
       "faulty link.  With no subcommand, runs one scenario from the flags\n"
       "below and prints a report (or a CSV row with --csv).\n\n" +
           subcommand_list() +
           "\nRun `lamsdlc_cli <subcommand> --help` for that subcommand's "
           "flags."},
      argc, argv);

  sim::Scenario s{o.cfg};
  workload::submit_batch(s.simulator(), s.sender(), s.tracker(), s.ids(),
                         o.frames, o.cfg.frame_bytes);
  const bool done = s.run_to_completion(o.horizon);
  const auto r = s.report();

  if (o.csv) {
    if (o.csv_header) {
      std::printf(
          "protocol,frames,pf,pc,completed,delivered,lost,duplicates,"
          "efficiency,tx_per_frame,mean_delay_s,mean_holding_s,"
          "mean_send_buffer,peak_send_buffer,control_tx\n");
    }
    std::printf("%s,%llu,%g,%g,%d,%llu,%llu,%llu,%.6f,%.4f,%.6f,%.6f,%.1f,"
                "%.1f,%llu\n",
                protocol_name(o.cfg.protocol),
                static_cast<unsigned long long>(o.frames),
                o.cfg.forward_error.p_frame, o.cfg.forward_error.p_control,
                done ? 1 : 0,
                static_cast<unsigned long long>(r.unique_delivered),
                static_cast<unsigned long long>(r.lost),
                static_cast<unsigned long long>(r.duplicates), r.efficiency,
                r.tx_per_frame, r.mean_delay_s, r.mean_holding_s,
                r.mean_send_buffer, r.peak_send_buffer,
                static_cast<unsigned long long>(r.control_tx));
  } else {
    std::printf("protocol:             %s\n", protocol_name(o.cfg.protocol));
    std::printf("completed:            %s\n", done ? "yes" : "NO");
    std::printf("delivered/lost/dup:   %llu / %llu / %llu\n",
                static_cast<unsigned long long>(r.unique_delivered),
                static_cast<unsigned long long>(r.lost),
                static_cast<unsigned long long>(r.duplicates));
    std::printf("efficiency:           %.4f\n", r.efficiency);
    std::printf("tx per frame:         %.4f\n", r.tx_per_frame);
    std::printf("mean delay:           %.3f ms\n", 1e3 * r.mean_delay_s);
    std::printf("mean holding time:    %.3f ms\n", 1e3 * r.mean_holding_s);
    std::printf("send buffer mean/peak:%.1f / %.1f frames\n",
                r.mean_send_buffer, r.peak_send_buffer);
  }

  if (o.analysis) {
    const auto p = s.analysis_params();
    const double n = static_cast<double>(o.frames);
    std::printf("\nSection 4 closed forms at this operating point:\n");
    std::printf("  s_bar lams/hdlc:    %.4f / %.4f\n",
                analysis::s_bar_lams(p), analysis::s_bar_hdlc(p));
    std::printf("  H_frame:            %.3f ms\n",
                1e3 * analysis::h_frame_lams(p));
    std::printf("  B_LAMS:             %.1f frames\n", analysis::b_lams(p));
    std::printf("  efficiency lams:    %.4f\n", analysis::efficiency_lams(p, n));
    std::printf("  efficiency hdlc:    %.4f\n", analysis::efficiency_hdlc(p, n));
  }
  return done ? 0 : 1;
}
