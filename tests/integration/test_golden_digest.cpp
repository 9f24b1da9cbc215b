/// \file test_golden_digest.cpp
/// \brief Pinned output digests: kernel and channel optimizations must not
///        move a single byte of observable output.
///
/// The other identity suites compare the code with itself (serial against
/// partitioned, batched against per-frame), so a change that reorders events
/// the same way on both sides passes them.  These tests instead pin FNV-1a
/// digests of artifacts recorded from a known-good build: the metrics JSON
/// and `.ldlcap` capture bytes of a contact-churn network (links going up
/// and down, 1e-2 frame and control errors) at partition counts 1 and 3,
/// the concatenated metrics JSON of a 25-seed self-healing chaos sweep, and
/// the `NetworkReport` of the same churn network run with observation off
/// (the bus-off branches every endpoint and channel takes in production).
/// Both are chosen to change when the FIFO tie-break among same-instant
/// events is reversed, which the small configs of the other suites do not.  Any change
/// to the kernel's (instant, priority, FIFO) dispatch order, to when a
/// channel's serializer frees up, or to a PDES window boundary shows up here
/// as a digest mismatch.
///
/// If a change is *meant* to alter observable behaviour, re-record the
/// digests (the failure message prints the new value) and say why in the
/// change description.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "lamsdlc/sim/chaos.hpp"
#include "lamsdlc/sim/run_network.hpp"
#include "lamsdlc/sim/sweep.hpp"

namespace lamsdlc::sim {
namespace {

std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

/// The default 112-satellite Walker at 5000 km acquisition range: cross-plane
/// links are lost and re-acquired during the run, two traffic waves ride
/// through the transitions, and 1e-2 frame and control damage exercises
/// retransmission, enforced recovery and failover.  Many packets reach a
/// node at the same instant here, so the run is sensitive to same-instant
/// dispatch order, not only to event times.
NetworkRunConfig churn_config() {
  NetworkRunConfig cfg;
  cfg.max_range_m = 5.0e6;
  cfg.waves = 2;
  cfg.packets_per_wave = 100;
  cfg.wave_interval = Time::seconds_int(50);
  cfg.horizon = Time::seconds_int(120);
  cfg.checkpoint_interval = Time::milliseconds(100);
  cfg.p_frame = 1e-2;
  cfg.p_control = 1e-2;
  cfg.seed = 5;
  cfg.observe = true;
  return cfg;
}

struct NetworkDigest {
  std::size_t partitions;
  std::uint64_t metrics;
  std::uint64_t capture;
};

// Recorded from the build before the reschedule / reserved-completion /
// 4-ary-heap kernel; see the file comment.
constexpr NetworkDigest kChurnDigests[] = {
    {1, 0xf5ce17c268354e4dull, 0x888e1d752d99d231ull},
    {3, 0xf5ce17c268354e4dull, 0x888e1d752d99d231ull},
};

constexpr std::uint64_t kChaosSweepDigest = 0xcd6e53165c483bedull;

// Recorded from the build before the checkpoint-round changes (direct
// channel start, slot-pooled transit, tagged NAK intervals).
constexpr std::uint64_t kUnobservedReportDigest = 0x7f0c3357f8f91c93ull;

/// Every report field, the delay doubles as their exact bit patterns.
std::string report_bytes(const net::NetworkReport& r) {
  std::string out;
  const auto put = [&out](std::uint64_t v) {
    out.append(reinterpret_cast<const char*>(&v), sizeof v);
  };
  const auto put_double = [&put](double d) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &d, sizeof bits);
    put(bits);
  };
  put(r.packets_sent);
  put(r.packets_delivered);
  put(r.duplicate_deliveries);
  put(r.packets_lost);
  put(r.packets_forwarded);
  put(r.packets_parked);
  put(r.messages_completed);
  put_double(r.mean_delay_s);
  put_double(r.max_delay_s);
  return out;
}

TEST(GoldenDigest, ContactChurnNetwork) {
  for (const NetworkDigest& want : kChurnDigests) {
    NetworkRunConfig cfg = churn_config();
    cfg.partitions = want.partitions;
    const NetworkRunResult r = run_network(cfg);
    SCOPED_TRACE("partitions=" + std::to_string(want.partitions));
    // Links really went down mid-run (frames died on a lost link).
    ASSERT_NE(r.metrics_json.find("link.forward.down_dropped"),
              std::string::npos);
    ASSERT_GT(r.report.packets_sent, 0u);
    EXPECT_EQ(fnv1a(r.metrics_json), want.metrics)
        << std::hex << "metrics digest 0x" << fnv1a(r.metrics_json);
    EXPECT_EQ(fnv1a(r.capture), want.capture)
        << std::hex << "capture digest 0x" << fnv1a(r.capture);
  }
}

TEST(GoldenDigest, UnobservedContactChurnReport) {
  // With observation off no event reaches a bus, so nothing above pins
  // these runs; the report is the only output.  It must match the pinned
  // digest and the observed run's report field for field.
  NetworkRunConfig cfg = churn_config();
  cfg.observe = false;
  const NetworkRunResult quiet = run_network(cfg);
  ASSERT_TRUE(quiet.metrics_json.empty());
  ASSERT_GT(quiet.report.packets_delivered, 0u);
  const std::string bytes = report_bytes(quiet.report);
  EXPECT_EQ(fnv1a(bytes), kUnobservedReportDigest)
      << std::hex << "unobserved report digest 0x" << fnv1a(bytes);

  const NetworkRunResult observed = run_network(churn_config());
  EXPECT_EQ(bytes, report_bytes(observed.report));
}

TEST(GoldenDigest, ChaosSweepMetrics) {
  // Self-healing chaos (audits, watchdog, RESYNC) from seed 40: the range
  // holds seeds whose outcome turns on same-instant event order.
  ChaosKnobs base;
  base.self_heal = true;
  const std::vector<ChaosVerdict> verdicts = run_chaos_sweep(base, 40, 25, 2);
  std::string all;
  for (const ChaosVerdict& v : verdicts) all += v.metrics_json;
  ASSERT_FALSE(all.empty());
  EXPECT_EQ(fnv1a(all), kChaosSweepDigest)
      << std::hex << "chaos sweep digest 0x" << fnv1a(all);
}

}  // namespace
}  // namespace lamsdlc::sim
