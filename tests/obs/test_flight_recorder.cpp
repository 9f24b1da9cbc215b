/// \file test_flight_recorder.cpp
/// \brief FlightRecorder: ring semantics, anomaly-triggered dumps, and the
///        black-box acceptance path — a dump must be byte-stable and replay
///        through TraceBuilder with zero orphan events.

#include "lamsdlc/obs/flight_recorder.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "lamsdlc/obs/capture.hpp"
#include "lamsdlc/obs/trace.hpp"
#include "lamsdlc/sim/scenario.hpp"
#include "lamsdlc/workload/sources.hpp"

namespace lamsdlc::obs {
namespace {

namespace fs = std::filesystem;

Event nak_event(std::uint64_t ctr, Time at) {
  Event e;
  e.at = at;
  e.source = Source::kLamsReceiver;
  e.kind = EventKind::kNakGenerated;
  e.p.nak = {ctr};
  return e;
}

Event audit_event(Time at) {
  Event e;
  e.at = at;
  e.source = Source::kLamsReceiver;
  e.kind = EventKind::kSelfAuditFailed;
  e.p.audit = {AuditCheck::kReceiverNakCoherence, 7, 42};
  return e;
}

TEST(FlightRecorder, RingWrapsKeepingNewestOldestFirst) {
  FlightRecorder::Config cfg;
  cfg.capacity = 8;
  FlightRecorder rec{cfg};
  for (std::uint64_t i = 0; i < 20; ++i) {
    rec.record(nak_event(i, Time::milliseconds(static_cast<std::int64_t>(i))));
  }
  EXPECT_EQ(rec.capacity(), 8u);
  EXPECT_EQ(rec.held(), 8u);
  EXPECT_EQ(rec.recorded(), 20u);
  EXPECT_EQ(rec.evicted(), 12u);

  std::stringstream ss;
  rec.dump(ss);
  const auto out = read_capture(ss);
  ASSERT_TRUE(out.has_value());
  ASSERT_EQ(out->size(), 8u);
  for (std::size_t i = 0; i < out->size(); ++i) {
    EXPECT_EQ((*out)[i].p.nak.ctr, 12 + i) << "slot " << i;
  }
}

/// The bytes a `CaptureWriter` writes for \p events, in order.
std::string capture_bytes(const std::vector<Event>& events) {
  std::stringstream ss;
  CaptureWriter w{ss};
  for (const Event& e : events) w.write(e);
  return ss.str();
}

// The ring grows on demand: while it fills, a dump holds every event so
// far; once it wraps, a dump holds the newest `capacity` events.  Either
// way the bytes are exactly what a CaptureWriter writes for those events.
TEST(FlightRecorder, GrowingRingWrapsAndDumpsTheNewestCapacityEvents) {
  constexpr std::size_t kCapacity = 100;  // not a power of two
  FlightRecorder::Config cfg;
  cfg.capacity = kCapacity;
  FlightRecorder rec{cfg};
  EXPECT_EQ(rec.capacity(), kCapacity);
  EXPECT_EQ(rec.held(), 0u);

  std::vector<Event> all;
  const auto dump_bytes = [&] {
    std::stringstream ss;
    rec.dump(ss);
    return ss.str();
  };
  for (std::uint64_t i = 0; i < 3 * kCapacity + 17; ++i) {
    const auto at = Time::microseconds(static_cast<std::int64_t>(7 * i));
    all.push_back(nak_event(i, at));
    rec.record(all.back());
    const std::size_t held = std::min(all.size(), kCapacity);
    ASSERT_EQ(rec.held(), held);
    if (i % 23 == 0 || all.size() == kCapacity ||
        all.size() == kCapacity + 1) {
      const std::vector<Event> newest(
          all.end() - static_cast<std::ptrdiff_t>(held), all.end());
      ASSERT_EQ(dump_bytes(), capture_bytes(newest)) << "after " << all.size();
    }
  }
  EXPECT_EQ(rec.recorded(), all.size());
  EXPECT_EQ(rec.evicted(), all.size() - kCapacity);
  const std::vector<Event> newest(all.end() - kCapacity, all.end());
  EXPECT_EQ(dump_bytes(), capture_bytes(newest));
}

TEST(FlightRecorder, IsAnomalyMatchesExactlyTheBlackBoxTriggers) {
  EXPECT_TRUE(FlightRecorder::is_anomaly(audit_event(Time{})));

  Event resync;
  resync.kind = EventKind::kResyncInitiated;
  resync.p.resync = {1, 1, 0, RecoveryReason::kProgressWatchdog};
  EXPECT_TRUE(FlightRecorder::is_anomaly(resync));

  Event failed;
  failed.kind = EventKind::kRecoveryTransition;
  failed.p.recovery = {SenderMode::kResyncing, SenderMode::kFailed,
                       RecoveryReason::kResyncExhausted};
  EXPECT_TRUE(FlightRecorder::is_anomaly(failed));

  failed.p.recovery.to = SenderMode::kNormal;
  EXPECT_FALSE(FlightRecorder::is_anomaly(failed))
      << "recovery back to normal is good news, not an incident";
  EXPECT_FALSE(FlightRecorder::is_anomaly(nak_event(1, Time{})));
}

TEST(FlightRecorder, AnomalyAutoDumpsAndRateLimits) {
  const fs::path dir = fs::path{testing::TempDir()} / "lamsdlc-blackbox";
  fs::remove_all(dir);
  fs::create_directories(dir);

  FlightRecorder::Config cfg;
  cfg.capacity = 64;
  cfg.dump_prefix = (dir / "bb").string();
  cfg.max_dumps = 2;
  cfg.min_dump_gap = Time::seconds_int(1);
  FlightRecorder rec{cfg};

  for (std::uint64_t i = 0; i < 10; ++i) {
    rec.record(nak_event(i, Time::milliseconds(static_cast<std::int64_t>(i))));
  }
  // First trigger dumps; a second trigger inside min_dump_gap is suppressed.
  rec.record(audit_event(Time::milliseconds(100)));
  EXPECT_EQ(rec.dumps(), 1u);
  rec.record(audit_event(Time::milliseconds(200)));
  EXPECT_EQ(rec.dumps(), 1u);
  EXPECT_EQ(rec.suppressed_triggers(), 1u);
  // Past the gap, the next trigger dumps again — and max_dumps then caps.
  rec.record(audit_event(Time::seconds_int(2)));
  EXPECT_EQ(rec.dumps(), 2u);
  rec.record(audit_event(Time::seconds_int(10)));
  EXPECT_EQ(rec.dumps(), 2u);
  EXPECT_EQ(rec.suppressed_triggers(), 2u);

  EXPECT_TRUE(fs::exists(dir / "bb-1.ldlcap"));
  EXPECT_TRUE(fs::exists(dir / "bb-2.ldlcap"));
  EXPECT_FALSE(fs::exists(dir / "bb-3.ldlcap"));
  EXPECT_EQ(rec.last_dump_path(), (dir / "bb-2.ldlcap").string());

  // Each dump is a complete, valid capture ending in the trigger itself.
  std::ifstream in{dir / "bb-1.ldlcap", std::ios::binary};
  const auto events = read_capture(in);
  ASSERT_TRUE(events.has_value());
  ASSERT_EQ(events->size(), 11u);
  EXPECT_EQ(events->back().kind, EventKind::kSelfAuditFailed);
  fs::remove_all(dir);
}

/// The acceptance path: record a real impaired run, dump the ring, and the
/// black box must (a) be byte-stable across dumps and (b) replay through
/// TraceBuilder exactly like the live stream — zero orphans, every
/// delivered packet's span tree complete.
TEST(FlightRecorder, BlackBoxDumpIsByteStableAndReplaysWithZeroOrphans) {
  sim::ScenarioConfig cfg;
  cfg.protocol = sim::Protocol::kLams;
  cfg.seed = 91;
  cfg.forward_error.kind = sim::ErrorConfig::Kind::kFixedFrameProb;
  cfg.forward_error.p_frame = 0.06;
  cfg.forward_error.p_control = 0.02;
  cfg.reverse_error = cfg.forward_error;
  sim::Scenario s{cfg};

  // Capacity above the run's event count: nothing evicted, so the replay
  // sees complete packet lifecycles.
  FlightRecorder::Config rc;
  rc.capacity = 1u << 16;
  FlightRecorder rec{rc};
  s.events().subscribe(rec.subscriber());

  workload::submit_batch(s.simulator(), s.sender(), s.tracker(), s.ids(), 200,
                         cfg.frame_bytes);
  ASSERT_TRUE(s.run_to_completion(Time::seconds_int(30)));
  ASSERT_GT(rec.recorded(), 200u);
  ASSERT_EQ(rec.evicted(), 0u);

  std::stringstream a, b;
  rec.dump(a);
  rec.dump(b);
  ASSERT_FALSE(a.str().empty());
  EXPECT_EQ(a.str(), b.str()) << "dumping the same ring twice must produce "
                                 "identical bytes";

  const auto events = read_capture(a);
  ASSERT_TRUE(events.has_value());
  ASSERT_EQ(events->size(), rec.held());

  TraceBuilder tb;
  for (const Event& e : *events) tb.on_event(e);
  const TraceSummary sum = tb.summarize();
  EXPECT_EQ(sum.packets, 200u);
  EXPECT_EQ(sum.delivered, 200u);
  EXPECT_EQ(sum.complete, 200u) << "a delivered packet with an incomplete "
                                   "span tree means the ring lost events";
  EXPECT_EQ(sum.orphan_events, 0u);
  EXPECT_TRUE(tb.orphans().empty());
}

}  // namespace
}  // namespace lamsdlc::obs
