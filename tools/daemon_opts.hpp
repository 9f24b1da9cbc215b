#pragma once
/// \file daemon_opts.hpp
/// \brief Flag table + run loop shared by `lamsdlcd` and
///        `lamsdlc_cli serve` — one daemon, two front doors.

#include <csignal>
#include <cstdio>
#include <string>
#include <string_view>

#include "flags.hpp"
#include "lamsdlc/rt/daemon.hpp"

namespace lamsdlc::tools {

inline rt::Daemon* g_daemon = nullptr;

inline void daemon_signal_handler(int) {
  if (g_daemon != nullptr) g_daemon->stop();
}

/// Parse `HOST:PORT` (port 1..65535 and nothing after it).
inline bool split_host_port(std::string_view s, std::string& host,
                            std::uint16_t& port) {
  const auto colon = s.rfind(':');
  std::uint16_t p = 0;
  if (colon == std::string_view::npos || colon == 0 ||
      !read_number(s.substr(colon + 1), p) || p == 0) {
    return false;
  }
  host = s.substr(0, colon);
  port = p;
  return true;
}

/// Parse daemon flags starting at argv[first]; exits 2 on bad usage.
/// `prog` names the command in help and errors ("lamsdlcd").
inline rt::DaemonConfig parse_daemon_flags(int argc, char** argv, int first,
                                           const char* prog) {
  rt::DaemonConfig cfg;
  const Command cmd{
      prog,
      "Runs LAMS-DLC sessions over a real UDP socket.  On startup it prints\n"
      "one line per bound socket (`udp <port>`, `bridge <port>`, `status\n"
      "<port>`) and `ready`, then serves until killed or --exit-after-streams\n"
      "is met; exit status 0 iff no stream failed."};
  const Flags flags = {
      {"--bind", "HOST", "UDP bind address", cfg.bind_host},
      {"--port", "N", "UDP port (0 = ephemeral, printed)", cfg.udp_port},
      {"--peer", "HOST:PORT", "remote daemon for outbound streams", "",
       [&cfg](std::string_view t) {
         return split_host_port(t, cfg.peer_host, cfg.peer_port) ? nullptr
                                                                 : kMalformed;
       }},
      {"--self-peer", "peer with our own socket (one-process live mode)",
       cfg.self_peer},
      Flag{"--bridge", "[PORT]", "local TCP client bridge (0 = ephemeral)",
           cfg.bridge_port}
          .also([&cfg] { cfg.bridge = true; }),
      {"--deliver-dir", "DIR", "write inbound streams here", cfg.deliver_dir},
      {"--session-base", "N", "first outbound session id (0 = pid-based)",
       cfg.session_base},
      {"--exit-after-streams", "N", "exit once N streams finished (0 = never)",
       cfg.exit_after_streams},
      {"--rate", "BPS", "modeled serialization rate", cfg.data_rate_bps,
       kPositive},
      {"--max-one-way-ms", "MS", "one-way delay bound", cfg.max_one_way, 1e-3},
      {"--chunk-bytes", "B", "stream segmentation", cfg.chunk_bytes, kPositive},
      {"--icp-ms", "MS", "LAMS checkpoint interval",
       cfg.session.lams.checkpoint_interval, 1e-3},
      {"--impair", "route outbound datagrams through the fault injector",
       cfg.impair},
      {"--p-drop", "P", "fault rate: drop", cfg.fault.p_drop, kProbability},
      {"--p-duplicate", "P", "fault rate: duplicate", cfg.fault.p_duplicate,
       kProbability},
      {"--p-reorder", "P", "fault rate: reorder", cfg.fault.p_reorder,
       kProbability},
      {"--p-corrupt", "P", "fault rate: corrupt", cfg.fault.p_corrupt,
       kProbability},
      {"--p-truncate", "P", "fault rate: truncate", cfg.fault.p_truncate,
       kProbability},
      {"--max-jitter-us", "US", "reorder jitter bound", cfg.fault.max_jitter,
       1e-6},
      {"--fault-seed", "S", "fault injector seed", cfg.fault_seed},
      {"--capture", "PREFIX", "one PREFIX-s<sid>.ldlcap per session",
       cfg.capture_prefix},
      Flag{"--status", "[PORT]", "TCP introspection port (0 = ephemeral)",
           cfg.status_port}
          .also([&cfg] { cfg.status = true; }),
      {"--status-sample-ms", "MS", "sampler period for `watch` (0 = off)",
       cfg.status_sample_period, 1e-3},
      {"--recorder-dir", "DIR", "flight-recorder dumps (empty = .)",
       cfg.recorder_dir},
      {"--recorder-events", "N", "per-session recorder ring (0 = off)",
       cfg.recorder_events},
      {"--no-telemetry", "detach per-session telemetry (bench A/B)",
       cfg.telemetry, false},
      {"--verbose", "progress lines on stderr", cfg.verbose}};
  parse_flags(cmd, flags, argc, argv, first);
  if (cfg.self_peer && !cfg.peer_host.empty()) {
    usage_error(cmd, "--self-peer and --peer are mutually exclusive");
  }
  return cfg;
}

/// The shared daemon entry point: parse, start, announce ports, serve.
inline int run_daemon_main(int argc, char** argv, int first,
                           const char* prog) {
  rt::DaemonConfig cfg = parse_daemon_flags(argc, argv, first, prog);
  try {
    rt::Daemon daemon{std::move(cfg)};
    daemon.start();
    g_daemon = &daemon;
    std::signal(SIGINT, daemon_signal_handler);
    std::signal(SIGTERM, daemon_signal_handler);
    std::signal(SIGPIPE, SIG_IGN);  // a dying bridge client must not kill us

    std::printf("udp %u\n", daemon.udp_port());
    if (daemon.bridge_port() != 0) {
      std::printf("bridge %u\n", daemon.bridge_port());
    }
    if (daemon.status_port() != 0) {
      std::printf("status %u\n", daemon.status_port());
    }
    std::printf("ready\n");
    std::fflush(stdout);

    daemon.run();
    g_daemon = nullptr;

    std::printf("done streams=%u failed=%u\n", daemon.streams_completed(),
                daemon.streams_failed());
    return daemon.streams_failed() == 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s: %s\n", prog, e.what());
    return 1;
  }
}

}  // namespace lamsdlc::tools
