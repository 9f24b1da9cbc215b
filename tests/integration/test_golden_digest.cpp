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
/// and the concatenated metrics JSON of a 25-seed self-healing chaos sweep.
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
