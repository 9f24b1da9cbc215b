#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "lamsdlc/core/random.hpp"
#include "lamsdlc/link/link.hpp"
#include "lamsdlc/obs/bus.hpp"

namespace lamsdlc::link {
namespace {

using namespace lamsdlc::literals;

/// Records the wire sequence and arrival instant of every delivered frame.
struct SeqSink final : FrameSink {
  explicit SeqSink(Simulator& sim) : sim{sim} {}
  void on_frame(frame::Frame f) override {
    seqs.push_back(std::get<frame::IFrame>(f.body).seq);
    at.push_back(sim.now());
  }
  Simulator& sim;
  std::vector<std::uint32_t> seqs;
  std::vector<Time> at;
};

frame::Frame iframe(std::uint32_t seq) {
  frame::Frame f;
  f.body = frame::IFrame{seq, 0, 100, {}};
  return f;
}

TEST(ChannelIngress, EqualArrivalsDeliverInPushOrder) {
  Simulator sim;
  ChannelIngress ing{sim, Simulator::kDefaultPriority};
  SeqSink sink{sim};
  ing.set_sink(&sink);
  for (std::uint32_t s = 0; s < 5; ++s) ing.push(1_ms, 0, iframe(s));
  sim.run();
  EXPECT_EQ(sink.seqs, (std::vector<std::uint32_t>{0, 1, 2, 3, 4}));
  EXPECT_EQ(sink.at, std::vector<Time>(5, 1_ms));
  EXPECT_EQ(ing.frames_delivered(), 5u);
  EXPECT_EQ(ing.in_flight(), 0u);
}

TEST(ChannelIngress, OutOfOrderPushesDeliverByArrivalThenPushOrder) {
  Simulator sim;
  ChannelIngress ing{sim, Simulator::kDefaultPriority};
  SeqSink sink{sim};
  ing.set_sink(&sink);
  // 5 ms first arms the sweep; the earlier arrivals must move it forward,
  // and the two 3 ms frames keep their push order.
  ing.push(5_ms, 0, iframe(0));
  ing.push(3_ms, 0, iframe(1));
  ing.push(4_ms, 0, iframe(2));
  ing.push(3_ms, 0, iframe(3));
  ing.push(6_ms, 0, iframe(4));
  sim.run();
  EXPECT_EQ(sink.seqs, (std::vector<std::uint32_t>{1, 3, 2, 0, 4}));
  EXPECT_EQ(sink.at, (std::vector<Time>{3_ms, 3_ms, 4_ms, 5_ms, 6_ms}));
}

TEST(ChannelIngress, BumpEpochDropsParkedFramesAsLinkDown) {
  Simulator sim;
  ChannelIngress ing{sim, Simulator::kDefaultPriority};
  SeqSink sink{sim};
  ing.set_sink(&sink);
  obs::EventBus bus;
  std::vector<obs::Event> events;
  bus.subscribe([&](const obs::Event& e) { events.push_back(e); });
  ing.set_event_bus(&bus, obs::Source::kLinkForward);

  ing.push(2_ms, 0, iframe(7));
  ing.push(3_ms, 0, iframe(8));
  ing.bump_epoch();              // the link went down with both in flight
  ing.push(4_ms, 1, iframe(9));  // sent after the link came back
  sim.run();

  EXPECT_EQ(sink.seqs, std::vector<std::uint32_t>{9});
  EXPECT_EQ(ing.frames_dropped(), 2u);
  EXPECT_EQ(ing.frames_delivered(), 1u);
  ASSERT_EQ(events.size(), 2u);
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].kind, obs::EventKind::kFrameDropped);
    EXPECT_EQ(events[i].source, obs::Source::kLinkForward);
    EXPECT_EQ(events[i].p.drop.cause, obs::DropCause::kLinkDown);
    EXPECT_EQ(events[i].p.drop.ctr, 7u + i);
    EXPECT_EQ(events[i].at, i == 0 ? 2_ms : 3_ms);  // at their arrivals
  }
}

TEST(ChannelIngress, FramesWithoutASinkAreDropped) {
  Simulator sim;
  ChannelIngress ing{sim, Simulator::kDefaultPriority};
  ing.push(1_ms, 0, iframe(0));
  sim.run();
  EXPECT_EQ(ing.frames_dropped(), 1u);
  EXPECT_EQ(ing.frames_delivered(), 0u);
}

/// Relays every frame it receives back into the same ingress (a node that
/// answers on a partition-local link), once per original frame.
struct EchoSink final : FrameSink {
  EchoSink(Simulator& sim, ChannelIngress& ing, Time delay)
      : sim{sim}, ing{ing}, delay{delay} {}
  void on_frame(frame::Frame f) override {
    const std::uint32_t seq = std::get<frame::IFrame>(f.body).seq;
    seqs.push_back(seq);
    at.push_back(sim.now());
    if (seq < 100) ing.push(sim.now() + delay, 0, iframe(seq + 100));
  }
  Simulator& sim;
  ChannelIngress& ing;
  Time delay;
  std::vector<std::uint32_t> seqs;
  std::vector<Time> at;
};

TEST(ChannelIngress, SinkMayPushDuringTheSweep) {
  Simulator sim;
  ChannelIngress ing{sim, Simulator::kDefaultPriority};
  EchoSink same_instant{sim, ing, Time{}};
  ing.set_sink(&same_instant);
  ing.push(1_ms, 0, iframe(0));
  ing.push(1_ms, 0, iframe(1));
  ing.push(2_ms, 0, iframe(2));
  sim.run();
  // A zero-delay echo is due at once: the running sweep delivers it after
  // the frames already queued for the same instant.
  EXPECT_EQ(same_instant.seqs,
            (std::vector<std::uint32_t>{0, 1, 100, 101, 2, 102}));
  EXPECT_EQ(same_instant.at,
            (std::vector<Time>{1_ms, 1_ms, 1_ms, 1_ms, 2_ms, 2_ms}));

  Simulator sim2;
  ChannelIngress ing2{sim2, Simulator::kDefaultPriority};
  EchoSink later{sim2, ing2, 500_us};
  ing2.set_sink(&later);
  ing2.push(1_ms, 0, iframe(0));
  ing2.push(2_ms, 0, iframe(1));
  sim2.run();
  // An echo landing before the queued head re-arms the sweep earlier.
  EXPECT_EQ(later.seqs, (std::vector<std::uint32_t>{0, 100, 1, 101}));
  EXPECT_EQ(later.at,
            (std::vector<Time>{1_ms, 1500_us, 2_ms, 2500_us}));
  // A slot is held until its sink returns, so the echo pushed from inside
  // the first delivery took a third slot: three frames were in hand.
  EXPECT_EQ(ing2.pool_slots(), 3u);
}

TEST(ChannelIngress, ArrivalInThePastViolatesLookaheadAndThrows) {
  Simulator sim;
  ChannelIngress ing{sim, Simulator::kDefaultPriority};
  sim.schedule_at(10_ms, [] {});
  sim.run();
  EXPECT_THROW(ing.push(5_ms, 0, iframe(0)), std::logic_error);
  EXPECT_NO_THROW(ing.push(10_ms, 0, iframe(1)));
}

TEST(ChannelIngress, SlotPoolNeverOutgrowsThePeakInFlight) {
  for (const bool batched : {true, false}) {
    SCOPED_TRACE(batched ? "batched" : "per-frame");
    Simulator sim;
    ChannelIngress ing{sim, Simulator::kDefaultPriority, batched};
    SeqSink sink{sim};
    ing.set_sink(&sink);
    RandomStream rng{11, "ingress.pool"};
    std::size_t peak = 0;
    std::uint32_t pushed = 0;
    // 20 000 frames, one every 10 us, each in flight 5 us–2 ms with
    // jitter: the population rises and falls, arrivals reorder, and a few
    // down-epochs strand frames mid-flight.
    std::uint64_t epoch = 0;
    const auto tick = [&](auto& self) -> void {
      const Time flight = Time::microseconds(rng.uniform_int(5, 2000));
      ing.push(sim.now() + flight, epoch, iframe(pushed));
      peak = std::max(peak, ing.in_flight());
      if (++pushed % 5000 == 0) {
        ing.bump_epoch();
        ++epoch;
      }
      if (pushed < 20000) {
        sim.schedule_in(10_us, [&self] { self(self); });
      }
    };
    sim.schedule_at(Time{}, [&] { tick(tick); });
    sim.run();
    EXPECT_EQ(ing.frames_delivered() + ing.frames_dropped(), 20000u);
    EXPECT_GT(ing.frames_dropped(), 0u);
    EXPECT_EQ(ing.in_flight(), 0u);
    EXPECT_GT(peak, 50u);
    EXPECT_EQ(ing.pool_slots(), peak);
    // Delivery instants never go backwards.
    EXPECT_TRUE(std::is_sorted(sink.at.begin(), sink.at.end()));
  }
}

}  // namespace
}  // namespace lamsdlc::link
