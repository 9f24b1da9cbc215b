#pragma once
/// \file daemon.hpp
/// \brief `lamsdlcd` — LAMS-DLC sessions over real UDP, with a local
///        byte-stream bridge for clients.
///
/// One daemon owns one UDP socket (the "link"), a `SessionMux` running any
/// number of concurrent DLC sessions over it, and optionally:
///
///  - a **client bridge**: a local TCP listener where one connection = one
///    outbound stream (modem discipline: write bytes, half-close to finish,
///    read back a single `OK <n>` / `ERR <why>` status line once the DLC
///    session has closed cleanly or failed);
///  - a **delivery directory**: each inbound stream is written to
///    `stream-p<peer>-s<sid>.part`, renamed to `.bin` when its session
///    closes with every byte accounted for (`.err` otherwise) — rename-on-
///    complete so a consumer never reads a half-delivered file;
///  - an **impaired link**: outbound datagrams routed through a
///    `phy::FaultInjector` (drops, duplicates, jitter, real byte damage),
///    turning localhost into the hostile channel the protocol was built
///    for;
///  - **captures**: a per-session `obs::EventBus` feeding one `.ldlcap`
///    file per session id, readable by `lamsdlc_cli inspect` / `trace`.
///    In `self_peer` mode both endpoints of a session live in this process
///    and share the session's bus, so the capture holds the full
///    admitted → sent → delivered span tree and `trace` reconstructs
///    complete packet lifecycles over a real kernel round trip;
///  - a **status endpoint**: a local TCP introspection port answering
///    `status` (one-line JSON: daemon vitals, per-session window/buffer/
///    reject/resync state, the full registry), `metrics` (Prometheus text
///    exposition), `samples` (latest sampler tick, for `watch` rates) and
///    `text` (rendered table) — one request line per connection.  Telemetry
///    itself (per-session metrics collectors into a shared registry, plus
///    an always-on flight recorder that auto-dumps a `.ldlcap` black box
///    when an anomaly trigger fires) is on by default and independent of
///    whether the port is open.  A session's telemetry lives as long as
///    the protocol objects holding its bus, so finished sessions retire
///    and the daemon's state tracks live work (docs/RUNTIME.md, "Session
///    retirement").
///
/// The daemon is single-threaded on a `WallClock` event loop; every socket
/// is nonblocking and fd-driven.  `run()` blocks until `stop()`, SIGTERM
/// handling by the caller, or — when `exit_after_streams` is set — that
/// many streams (either direction) have finished.

#include <cstdint>
#include <memory>
#include <string>

#include "lamsdlc/core/time.hpp"
#include "lamsdlc/lams/session.hpp"
#include "lamsdlc/obs/metrics.hpp"
#include "lamsdlc/phy/fault_injector.hpp"
#include "lamsdlc/rt/event_loop.hpp"
#include "lamsdlc/rt/session_mux.hpp"
#include "lamsdlc/rt/transport.hpp"

namespace lamsdlc::rt {

struct DaemonConfig {
  std::string bind_host = "127.0.0.1";
  std::uint16_t udp_port = 0;  ///< 0 = ephemeral (printed/queried).

  /// Remote daemon; empty host = serve-only (no outbound streams).
  std::string peer_host;
  std::uint16_t peer_port = 0;
  /// Peer with our own socket: datagrams make a real kernel round trip but
  /// both session endpoints live here (single-process live mode; gives
  /// complete per-session captures).
  bool self_peer = false;

  bool bridge = false;            ///< Open the local client bridge.
  std::uint16_t bridge_port = 0;  ///< Requested port; 0 = ephemeral.
  std::string deliver_dir;        ///< Empty = discard inbound payload bytes.

  /// First outbound session id; 0 = derive from the pid so a restarted
  /// daemon never reuses its predecessor's ids against a live peer.
  std::uint32_t session_base = 0;
  std::uint32_t exit_after_streams = 0;  ///< 0 = run until stopped.

  double data_rate_bps = 300e6;
  Time max_one_way = Time::milliseconds(5);
  std::uint32_t chunk_bytes = 1024;
  /// Per-stream sending-buffer bound, in packets (SessionMux::Config).
  /// Caps daemon memory per bridge client: a fast client writing into a
  /// slow/impaired link is paused at this depth and resumed event-driven
  /// when checkpoints release frames.
  std::size_t stream_buffer_packets = 256;
  lams::SessionConfig session;

  bool impair = false;  ///< Route outbound datagrams through the injector.
  phy::FaultInjector::Config fault;
  std::uint64_t fault_seed = 1;

  std::string capture_prefix;  ///< Empty = no captures.
  bool verbose = false;        ///< Progress lines on stderr.

  /// \name Live telemetry (docs/OBSERVABILITY.md "Live telemetry")
  /// @{

  /// Attach per-session telemetry (metrics collector into the shared
  /// registry + flight recorder).  Off is the bench A/B control: session
  /// buses stay subscriber-free and the frame path pays one dead branch.
  bool telemetry = true;
  /// Open the local TCP introspection port (`lamsdlc_cli status/watch`).
  bool status = false;
  std::uint16_t status_port = 0;  ///< Requested port; 0 = ephemeral.
  /// Registry sampling period for the `samples` endpoint verb (`watch`).
  /// Non-positive disables the sampler.
  Time status_sample_period = Time::milliseconds(500);
  /// Flight-recorder ring capacity per session, in events; 0 disables the
  /// recorder (telemetry then only feeds the registry).
  std::size_t recorder_events = 4096;
  /// Directory for anomaly auto-dumps, written as
  /// `<dir>/blackbox-s<sid>-<n>.ldlcap`.  Empty = current directory.
  std::string recorder_dir;
  /// @}
};

class Daemon {
 public:
  explicit Daemon(DaemonConfig cfg);
  ~Daemon();

  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Bind sockets and wire everything; throws std::system_error on failure.
  /// Separate from `run()` so callers can learn the ephemeral ports first.
  void start();

  /// Event loop; blocks (see file comment for exit conditions).
  void run();
  void stop();

  [[nodiscard]] std::uint16_t udp_port() const noexcept;
  [[nodiscard]] std::uint16_t bridge_port() const noexcept;
  /// Introspection port (0 when `DaemonConfig::status` is off).
  [[nodiscard]] std::uint16_t status_port() const noexcept;

  /// The shared metrics registry every session's collector feeds.
  [[nodiscard]] const obs::Registry& registry() const noexcept;

  /// The status document the endpoint serves, for in-process callers
  /// (tests assert on it without opening a socket).
  [[nodiscard]] std::string status_json();

  /// Streams finished, either direction (clean or not).
  [[nodiscard]] std::uint32_t streams_completed() const noexcept;
  /// Of those, ended unclean (session failure or reassembly hole).
  [[nodiscard]] std::uint32_t streams_failed() const noexcept;

  [[nodiscard]] SessionMux& mux();
  [[nodiscard]] EventLoop& loop();

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace lamsdlc::rt
