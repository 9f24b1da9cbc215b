#include "lamsdlc/link/link.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "lamsdlc/frame/codec.hpp"
#include "lamsdlc/lams/sender.hpp"

namespace lamsdlc::link {
namespace {

using namespace lamsdlc::literals;

/// Records every delivered frame with its arrival time.
struct RecordingSink final : FrameSink {
  struct Arrival {
    frame::Frame f;
    Time at;
  };
  explicit RecordingSink(Simulator& sim) : sim{sim} {}
  void on_frame(frame::Frame f) override {
    arrivals.push_back({std::move(f), sim.now()});
  }
  Simulator& sim;
  std::vector<Arrival> arrivals;
};

/// A sending endpoint that always (or never) has work; counts idle calls.
struct StubUser final : ChannelUser {
  explicit StubUser(bool work) : work{work} {}
  void on_channel_idle() override { ++idle_calls; }
  [[nodiscard]] bool has_channel_work() const override { return work; }
  bool work;
  int idle_calls = 0;
};

frame::Frame iframe(std::uint32_t seq, std::uint32_t bytes) {
  frame::Frame f;
  f.body = frame::IFrame{seq, 0, bytes, {}};
  return f;
}

frame::Frame cpframe() {
  frame::Frame f;
  f.body = frame::CheckpointFrame{};
  return f;
}

SimplexChannel::Config cfg_100mbps_5ms() {
  SimplexChannel::Config c;
  c.data_rate_bps = 100e6;
  c.propagation = [](Time) { return 5_ms; };
  return c;
}

TEST(SimplexChannel, DeliversAfterSerializationPlusPropagation) {
  Simulator sim;
  SimplexChannel ch{sim, cfg_100mbps_5ms(), std::make_unique<phy::PerfectChannel>()};
  RecordingSink sink{sim};
  ch.set_sink(&sink);

  auto f = iframe(1, 1000);
  const Time tx = ch.tx_time(f);
  // 1000B payload + 11B header/FCS = 1011 bytes = 8088 bits at 100 Mbps.
  EXPECT_NEAR(tx.sec(), 8088.0 / 100e6, 1e-12);
  ch.send(std::move(f));
  sim.run();
  ASSERT_EQ(sink.arrivals.size(), 1u);
  EXPECT_EQ(sink.arrivals[0].at, tx + 5_ms);
  EXPECT_FALSE(sink.arrivals[0].f.corrupted);
}

TEST(SimplexChannel, FramesSerializeBackToBackFifo) {
  Simulator sim;
  SimplexChannel ch{sim, cfg_100mbps_5ms(), std::make_unique<phy::PerfectChannel>()};
  RecordingSink sink{sim};
  ch.set_sink(&sink);

  const Time tx = ch.tx_time(iframe(0, 1000));
  for (std::uint32_t i = 0; i < 5; ++i) ch.send(iframe(i, 1000));
  sim.run();
  ASSERT_EQ(sink.arrivals.size(), 5u);
  for (std::uint32_t i = 0; i < 5; ++i) {
    const auto& a = sink.arrivals[i];
    EXPECT_EQ(std::get<frame::IFrame>(a.f.body).seq, i);
    EXPECT_EQ(a.at, tx * static_cast<std::int64_t>(i + 1) + 5_ms);
  }
}

TEST(SimplexChannel, BusyUntilTracksSerializer) {
  Simulator sim;
  SimplexChannel ch{sim, cfg_100mbps_5ms(), std::make_unique<phy::PerfectChannel>()};
  RecordingSink sink{sim};
  ch.set_sink(&sink);
  EXPECT_FALSE(ch.busy());
  auto f = iframe(0, 1000);
  const Time tx = ch.tx_time(f);
  ch.send(std::move(f));
  EXPECT_TRUE(ch.busy());
  EXPECT_EQ(ch.busy_until(), tx);
  sim.run();
  EXPECT_FALSE(ch.busy());
}

TEST(SimplexChannel, IdleCallbackFiresWhenQueueDrains) {
  Simulator sim;
  SimplexChannel ch{sim, cfg_100mbps_5ms(), std::make_unique<phy::PerfectChannel>()};
  RecordingSink sink{sim};
  ch.set_sink(&sink);
  StubUser user{true};
  ch.set_user(&user);
  ch.send(iframe(0, 100));
  ch.send(iframe(1, 100));
  sim.run();
  EXPECT_EQ(user.idle_calls, 1);  // once, when the second frame finishes
}

TEST(SimplexChannel, ErrorModelMarksCorruption) {
  Simulator sim;
  SimplexChannel ch{sim, cfg_100mbps_5ms(),
                    std::make_unique<phy::FixedFrameErrorModel>(
                        1.0, RandomStream{1, "all"})};
  RecordingSink sink{sim};
  ch.set_sink(&sink);
  ch.send(iframe(0, 100));
  sim.run();
  ASSERT_EQ(sink.arrivals.size(), 1u);
  EXPECT_TRUE(sink.arrivals[0].f.corrupted);
  EXPECT_EQ(ch.frames_corrupted(), 1u);
}

TEST(SimplexChannel, ControlErrorModelAppliesOnlyToControlFrames) {
  Simulator sim;
  // Data model never corrupts; control model always does.
  SimplexChannel ch{sim, cfg_100mbps_5ms(), std::make_unique<phy::PerfectChannel>()};
  ch.set_control_error_model(std::make_unique<phy::FixedFrameErrorModel>(
      1.0, RandomStream{1, "ctl"}));
  RecordingSink sink{sim};
  ch.set_sink(&sink);
  ch.send(iframe(0, 100));
  ch.send(cpframe());
  sim.run();
  ASSERT_EQ(sink.arrivals.size(), 2u);
  EXPECT_FALSE(sink.arrivals[0].f.corrupted);
  EXPECT_TRUE(sink.arrivals[1].f.corrupted);
}

TEST(SimplexChannel, FecExpandsWireTime) {
  Simulator sim;
  auto cfg = cfg_100mbps_5ms();
  cfg.iframe_fec = phy::FecParams{255, 223, 16, 8, true};
  SimplexChannel coded{sim, cfg, std::make_unique<phy::PerfectChannel>()};
  SimplexChannel plain{sim, cfg_100mbps_5ms(),
                       std::make_unique<phy::PerfectChannel>()};
  const auto f = iframe(0, 1000);
  EXPECT_GT(coded.tx_time(f), plain.tx_time(f));
  // Expansion is at least n/k.
  EXPECT_GE(coded.tx_time(f) / plain.tx_time(f), 255.0 / 223.0 - 1e-9);
}

TEST(SimplexChannel, ControlFecIndependentOfDataFec) {
  Simulator sim;
  auto cfg = cfg_100mbps_5ms();
  cfg.control_fec = phy::FecParams{15, 5, 5, 4, true};  // strong, low rate
  SimplexChannel ch{sim, cfg, std::make_unique<phy::PerfectChannel>()};
  const auto data_tx = ch.tx_time(iframe(0, 100));
  SimplexChannel plain{sim, cfg_100mbps_5ms(),
                       std::make_unique<phy::PerfectChannel>()};
  EXPECT_EQ(data_tx, plain.tx_time(iframe(0, 100)));  // data unaffected
  EXPECT_GT(ch.tx_time(cpframe()), plain.tx_time(cpframe()));
}

TEST(SimplexChannel, DownLinkDropsQueuedAndNewFrames) {
  Simulator sim;
  SimplexChannel ch{sim, cfg_100mbps_5ms(), std::make_unique<phy::PerfectChannel>()};
  RecordingSink sink{sim};
  ch.set_sink(&sink);
  ch.send(iframe(0, 10'000));
  ch.send(iframe(1, 10'000));
  ch.set_up(false);
  ch.send(iframe(2, 100));
  sim.run();
  EXPECT_TRUE(sink.arrivals.empty());
  EXPECT_EQ(ch.frames_dropped(), 3u);
}

TEST(SimplexChannel, FramesInFlightAtFailureAreLost) {
  Simulator sim;
  SimplexChannel ch{sim, cfg_100mbps_5ms(), std::make_unique<phy::PerfectChannel>()};
  RecordingSink sink{sim};
  ch.set_sink(&sink);
  ch.send(iframe(0, 100));
  // Kill the link while the frame is propagating (after tx, before arrival).
  sim.schedule_at(1_ms, [&] { ch.set_up(false); });
  sim.run();
  EXPECT_TRUE(sink.arrivals.empty());
}

TEST(SimplexChannel, RestoredLinkCarriesTrafficAgain) {
  Simulator sim;
  SimplexChannel ch{sim, cfg_100mbps_5ms(), std::make_unique<phy::PerfectChannel>()};
  RecordingSink sink{sim};
  ch.set_sink(&sink);
  ch.set_up(false);
  sim.schedule_at(10_ms, [&] {
    ch.set_up(true);
    ch.send(iframe(7, 100));
  });
  sim.run();
  ASSERT_EQ(sink.arrivals.size(), 1u);
  EXPECT_EQ(std::get<frame::IFrame>(sink.arrivals[0].f.body).seq, 7u);
}

TEST(SimplexChannel, TimeVaryingPropagation) {
  Simulator sim;
  SimplexChannel::Config cfg;
  cfg.data_rate_bps = 1e9;
  cfg.propagation = [](Time at) {
    // Range opening at 1 ms per 10 ms of elapsed time.
    return 5_ms + Time::picoseconds(at.ps() / 10);
  };
  SimplexChannel ch{sim, cfg, std::make_unique<phy::PerfectChannel>()};
  RecordingSink sink{sim};
  ch.set_sink(&sink);
  ch.send(iframe(0, 100));
  sim.schedule_at(100_ms, [&] { ch.send(iframe(1, 100)); });
  sim.run();
  ASSERT_EQ(sink.arrivals.size(), 2u);
  const Time d0 = sink.arrivals[0].at;
  const Time d1 = sink.arrivals[1].at - 100_ms;
  EXPECT_GT(d1, d0);  // later send saw a longer path
}

TEST(SimplexChannel, NoSinkCountsDrops) {
  Simulator sim;
  SimplexChannel ch{sim, cfg_100mbps_5ms(), std::make_unique<phy::PerfectChannel>()};
  ch.send(iframe(0, 100));
  sim.run();
  EXPECT_EQ(ch.frames_dropped(), 1u);
  EXPECT_EQ(ch.frames_sent(), 1u);
}

TEST(FullDuplexLink, DirectionsAreIndependent) {
  Simulator sim;
  FullDuplexLink link{sim,
                      cfg_100mbps_5ms(),
                      std::make_unique<phy::PerfectChannel>(),
                      cfg_100mbps_5ms(),
                      std::make_unique<phy::FixedFrameErrorModel>(
                          1.0, RandomStream{1, "rev"})};
  RecordingSink fwd_sink{sim}, rev_sink{sim};
  link.forward().set_sink(&fwd_sink);
  link.reverse().set_sink(&rev_sink);
  link.forward().send(iframe(0, 100));
  link.reverse().send(iframe(1, 100));
  sim.run();
  ASSERT_EQ(fwd_sink.arrivals.size(), 1u);
  ASSERT_EQ(rev_sink.arrivals.size(), 1u);
  EXPECT_FALSE(fwd_sink.arrivals[0].f.corrupted);
  EXPECT_TRUE(rev_sink.arrivals[0].f.corrupted);
}

TEST(FullDuplexLink, SetUpTogglesBothDirections) {
  Simulator sim;
  FullDuplexLink link{sim, cfg_100mbps_5ms(),
                      std::make_unique<phy::PerfectChannel>(),
                      cfg_100mbps_5ms(),
                      std::make_unique<phy::PerfectChannel>()};
  link.set_up(false);
  EXPECT_FALSE(link.forward().up());
  EXPECT_FALSE(link.reverse().up());
  link.set_up(true);
  EXPECT_TRUE(link.forward().up());
  EXPECT_TRUE(link.reverse().up());
}

// ---------------------------------------------------------------------------
// Serializer completion on demand.  A frame's completion takes its dispatch
// key when the frame starts; the event is inserted only when the completion
// has work.  Whether it was inserted must never show: everything around the
// completion instant has to happen exactly as if it always fired.

TEST(SimplexChannel, SendAtCompletionInstantFollowsDispatchOrder) {
  const auto frame_at_tx = [](bool keyed_before_completion,
                              Simulator::Priority prio) {
    Simulator sim;
    SimplexChannel ch{sim, cfg_100mbps_5ms(),
                      std::make_unique<phy::PerfectChannel>()};
    RecordingSink sink{sim};
    ch.set_sink(&sink);
    StubUser idle_sender{false};
    ch.set_user(&idle_sender);
    const Time tx = ch.tx_time(iframe(0, 100));
    bool busy = false;
    const auto probe = [&] {
      busy = ch.busy();
      ch.send(iframe(1, 100));
    };
    if (keyed_before_completion) sim.schedule_at(tx, prio, probe);
    ch.send(iframe(0, 100));  // reserves the completion key at tx
    if (!keyed_before_completion) sim.schedule_at(tx, prio, probe);
    sim.run();
    EXPECT_EQ(sim.now(), tx * 2 + 5_ms);
    EXPECT_EQ(sink.arrivals.size(), 2u);
    if (sink.arrivals.size() == 2) {
      EXPECT_EQ(sink.arrivals[1].at, tx * 2 + 5_ms);  // starts right at tx
    }
    return busy;
  };
  // Keyed before the completion: the serializer is still busy, so frame 1
  // queues behind frame 0 and the completion starts it.
  EXPECT_TRUE(frame_at_tx(true, Simulator::kDefaultPriority));
  // A lower priority value sorts first at the instant even when scheduled
  // after the frame started.
  EXPECT_TRUE(frame_at_tx(false, Simulator::Priority{1}));
  // Keyed after the completion: the serializer is already free.
  EXPECT_FALSE(frame_at_tx(false, Simulator::kDefaultPriority));
}

TEST(SimplexChannel, RunBoundaryAtCompletionInstant) {
  // run_before(t) leaves dispatch before everything at t, run_until(t) after
  // it; a top-level send at the completion instant must see the difference.
  for (const bool until : {false, true}) {
    Simulator sim;
    SimplexChannel ch{sim, cfg_100mbps_5ms(),
                      std::make_unique<phy::PerfectChannel>()};
    RecordingSink sink{sim};
    ch.set_sink(&sink);
    const Time tx = ch.tx_time(iframe(0, 100));
    ch.send(iframe(0, 100));
    if (until) {
      sim.run_until(tx);
    } else {
      sim.run_before(tx);
    }
    EXPECT_EQ(ch.busy(), !until);
    EXPECT_EQ(ch.busy_until(), tx);
    ch.send(iframe(1, 100));
    sim.run();
    ASSERT_EQ(sink.arrivals.size(), 2u);
    EXPECT_EQ(sink.arrivals[1].at, tx * 2 + 5_ms);
  }
}

TEST(SimplexChannel, ZeroLengthSerializationStillCompletes) {
  // At an absurd data rate a frame serializes in zero time; its completion
  // falls on the current instant and must still free the serializer and
  // start the next frame.
  Simulator sim;
  SimplexChannel::Config cfg = cfg_100mbps_5ms();
  cfg.data_rate_bps = 1e18;
  SimplexChannel ch{sim, cfg, std::make_unique<phy::PerfectChannel>()};
  RecordingSink sink{sim};
  ch.set_sink(&sink);
  ASSERT_TRUE(ch.tx_time(iframe(0, 100)).is_zero());
  ch.send(iframe(0, 100));
  ch.send(iframe(1, 100));
  sim.run_until(1_ms);
  EXPECT_FALSE(ch.busy());
  ch.send(iframe(2, 100));
  sim.run();
  ASSERT_EQ(sink.arrivals.size(), 3u);
  EXPECT_EQ(sink.arrivals[2].at, 1_ms + 5_ms);
}

lams::LamsConfig boundary_lams_config() {
  lams::LamsConfig cfg;
  cfg.checkpoint_interval = 5_ms;
  cfg.cumulation_depth = 3;
  cfg.max_rtt = 12_ms;
  cfg.resync_enabled = true;
  return cfg;
}

sim::Packet packet(frame::PacketId id) {
  sim::Packet p;
  p.id = id;
  p.bytes = 100;
  return p;
}

template <typename Body>
void deliver(lams::LamsSender& tx, Body body) {
  frame::Frame f;
  f.body = std::move(body);
  tx.on_frame(std::move(f));
}

TEST(SimplexChannel, RetransmissionRequeuedMidFrameGetsIdleCallback) {
  // The sender is idle while a long foreign frame serializes, so that
  // frame's completion is only reserved.  A NAK arriving mid-frame queues a
  // retransmission; it must go out exactly when the frame completes.
  Simulator sim;
  SimplexChannel ch{sim, cfg_100mbps_5ms(), std::make_unique<phy::PerfectChannel>()};
  RecordingSink sink{sim};
  ch.set_sink(&sink);
  lams::LamsSender tx{sim, ch, boundary_lams_config(), nullptr};
  tx.submit(packet(7));  // ctr 0 at t = 0
  const Time t1 = 1_ms;
  const Time big = ch.tx_time(iframe(99, 10'000));
  sim.schedule_at(t1, [&] { ch.send(iframe(99, 10'000)); });
  sim.schedule_at(t1 + big / std::int64_t{2}, [&] {
    frame::CheckpointFrame cp;
    cp.cp_seq = 1;
    cp.generated_at = sim.now();
    cp.naks = {0};
    deliver(tx, cp);
    EXPECT_TRUE(ch.busy());
  });
  sim.run_until(10_ms);
  ASSERT_EQ(sink.arrivals.size(), 3u);
  const auto& retx = sink.arrivals[2];
  ASSERT_TRUE(std::holds_alternative<frame::IFrame>(retx.f.body));
  EXPECT_EQ(std::get<frame::IFrame>(retx.f.body).packet_id, 7u);
  EXPECT_EQ(retx.at, t1 + big + ch.tx_time(retx.f) + 5_ms);
}

TEST(SimplexChannel, ResyncRequeueMidFrameGetsIdleCallback) {
  // A RESYNC quiesces the sender, so the RESYNC frame's own completion is
  // only reserved.  The RESYNC-ACK landing while that frame is still on the
  // wire requeues the unresolved packet; it must start at the completion.
  Simulator sim;
  SimplexChannel ch{sim, cfg_100mbps_5ms(), std::make_unique<phy::PerfectChannel>()};
  RecordingSink sink{sim};
  ch.set_sink(&sink);
  lams::LamsSender tx{sim, ch, boundary_lams_config(), nullptr};
  tx.submit(packet(7));
  const Time t1 = 1_ms;
  Time resync_done{};
  sim.schedule_at(t1, [&] {
    frame::CheckpointFrame cp;
    cp.cp_seq = 1;
    cp.generated_at = sim.now();
    cp.resync_req = true;
    deliver(tx, cp);
    ASSERT_EQ(tx.mode(), lams::LamsSender::Mode::kResyncing);
    resync_done = ch.busy_until();
    sim.schedule_at(sim.now() + (resync_done - sim.now()) / std::int64_t{2}, [&] {
      deliver(tx, frame::ResyncAckFrame{1, tx.current_epoch()});
      EXPECT_EQ(tx.mode(), lams::LamsSender::Mode::kNormal);
    });
  });
  sim.run_until(10_ms);
  ASSERT_EQ(sink.arrivals.size(), 3u);  // I-frame, RESYNC, requeued I-frame
  ASSERT_TRUE(std::holds_alternative<frame::ResyncFrame>(sink.arrivals[1].f.body));
  const auto& again = sink.arrivals[2];
  ASSERT_TRUE(std::holds_alternative<frame::IFrame>(again.f.body));
  EXPECT_EQ(std::get<frame::IFrame>(again.f.body).packet_id, 7u);
  EXPECT_EQ(again.at, resync_done + ch.tx_time(again.f) + 5_ms);
}

}  // namespace
}  // namespace lamsdlc::link
