#pragma once
// The benchmark's workloads and the per-layer probes they share.

#include <cstdint>
#include <string>

#include "common.hpp"

namespace perfbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  /// Smoke scale: tiny inputs, for the benchmark's own tests.
  bool smoke = false;
  /// Test hook: perturb one expected digest so the daemon_mix output check
  /// must fail (proves the check can fail).
  bool corrupt_expected_digest = false;
};

/// `constellation_steady` / `constellation_churn`.
[[nodiscard]] Result run_constellation(const Args& a);
/// `daemon_mix`.
[[nodiscard]] Result run_daemon_mix(const Args& a);
/// Compose the constellation workload from the calls `sim::run_network` is
/// built from and compare its report with `sim::run_network` on the same
/// configuration (smoke scale).  Returns true when they are identical.
[[nodiscard]] bool check_composed_matches_run_network(const std::string& workload,
                                                      std::uint64_t seed);

// Per-layer microbenchmarks through public entry points (layers.cpp).

/// Envelope + codec + CRC encode/decode of one data chunk of
/// \p chunk_bytes: nanoseconds per datagram.
[[nodiscard]] double frame_wire_ns_per_datagram(std::uint32_t chunk_bytes);
/// `rt::UdpTransport::send` of \p datagram_bytes over loopback between two
/// benchmark-owned transports: nanoseconds per send.
[[nodiscard]] double udp_send_ns(std::size_t datagram_bytes);

}  // namespace perfbench
