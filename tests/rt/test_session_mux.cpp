/// \file test_session_mux.cpp
/// \brief SessionMux: full LAMS-DLC sessions over a datagram transport.

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <vector>

#include "lamsdlc/core/random.hpp"
#include "lamsdlc/frame/codec.hpp"
#include "lamsdlc/frame/envelope.hpp"
#include "lamsdlc/phy/fault_injector.hpp"
#include "lamsdlc/rt/event_loop.hpp"
#include "lamsdlc/rt/session_mux.hpp"
#include "lamsdlc/rt/transport.hpp"

namespace {

using namespace lamsdlc;
using rt::LoopbackTransport;
using rt::PeerId;
using rt::SessionMux;
using rt::SimClock;

std::vector<std::uint8_t> pattern(std::size_t n, std::uint8_t salt = 0) {
  std::vector<std::uint8_t> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = static_cast<std::uint8_t>(i * 7 + 13 + salt);
  }
  return v;
}

/// Collects everything one mux delivers, keyed by (peer, sid).
struct Sink {
  std::map<std::uint64_t, std::vector<std::uint8_t>> data;
  std::map<std::uint64_t, bool> clean;
  /// Retirement probes, taken when a stream ends: whether the mux still
  /// held the stream just before `inbound_linger()` expired, and whether it
  /// was gone just after.
  std::map<std::uint64_t, bool> held_in_linger;
  std::map<std::uint64_t, bool> gone_after_linger;

  void attach(SessionMux& mux, SimClock& loop) {
    mux.set_inbound_data_handler(
        [this](PeerId p, std::uint32_t sid, std::span<const std::uint8_t> b) {
          auto& d = data[key(p, sid)];
          d.insert(d.end(), b.begin(), b.end());
        });
    mux.set_inbound_end_handler(
        [this, &mux, &loop](PeerId p, std::uint32_t sid, bool c) {
          const std::uint64_t k = key(p, sid);
          clean[k] = c;
          const Time linger = mux.inbound_linger();
          const Time probe = Time::microseconds(1);
          loop.sim().schedule_in(linger - probe, [this, &mux, p, sid, k] {
            held_in_linger[k] = mux.inbound_stats(p, sid) != nullptr;
          });
          loop.sim().schedule_in(linger + probe, [this, &mux, p, sid, k] {
            gone_after_linger[k] = mux.inbound_stats(p, sid) == nullptr;
          });
        });
  }

  /// The stream ended cleanly, lingered, then retired.
  void expect_retired(std::uint64_t k) const {
    ASSERT_TRUE(held_in_linger.contains(k)) << "stream never ended";
    EXPECT_TRUE(held_in_linger.at(k)) << "retired before the linger expired";
    ASSERT_TRUE(gone_after_linger.contains(k));
    EXPECT_TRUE(gone_after_linger.at(k)) << "still held after the linger";
  }

  static std::uint64_t key(PeerId p, std::uint32_t sid) {
    return (static_cast<std::uint64_t>(p) << 32) | sid;
  }
};

SessionMux::Config mux_config() {
  SessionMux::Config mc;
  mc.chunk_bytes = 256;
  mc.max_one_way = Time::microseconds(500);
  return mc;
}

TEST(SessionMux, StreamRoundTripIsByteExact) {
  SimClock loop;
  auto [ta, tb] = LoopbackTransport::make_pair(loop, Time::microseconds(100));
  SessionMux ma{loop, *ta, mux_config()};
  SessionMux mb{loop, *tb, mux_config()};
  Sink sink;
  sink.attach(mb, loop);

  bool closed = false;
  ma.set_stream_state_handler(
      [&](std::uint32_t, lams::SessionSender::State s) {
        if (s == lams::SessionSender::State::kClosed) closed = true;
      });

  const auto payload = pattern(10000);
  ma.open_stream(0, 42);
  ASSERT_TRUE(ma.stream_write(42, payload));
  ma.stream_close(42);
  loop.sim().run_until(Time::seconds(30));

  EXPECT_TRUE(closed);
  ASSERT_TRUE(sink.clean.contains(Sink::key(0, 42)));
  EXPECT_TRUE(sink.clean.at(Sink::key(0, 42)));
  EXPECT_EQ(sink.data.at(Sink::key(0, 42)), payload);
  // The finished receiver lingers for late CLOSE retransmissions, then
  // retires: the mux holds live sessions, not every session it has seen.
  EXPECT_EQ(mb.inbound_linger(), Time::milliseconds(11 * 30) +
                                     Time::microseconds(2 * 500));
  sink.expect_retired(Sink::key(0, 42));
  EXPECT_EQ(mb.inbound_count(), 0u);
  EXPECT_EQ(ma.undecodable(), 0u);
}

TEST(SessionMux, TwoConcurrentStreamsShareOneTransport) {
  SimClock loop;
  auto [ta, tb] = LoopbackTransport::make_pair(loop, Time::microseconds(100));
  SessionMux ma{loop, *ta, mux_config()};
  SessionMux mb{loop, *tb, mux_config()};
  Sink sink;
  sink.attach(mb, loop);

  const auto p1 = pattern(5000, 1);
  const auto p2 = pattern(7000, 2);
  ma.open_stream(0, 1);
  ma.open_stream(0, 2);
  // Interleave writes so both sessions' I-frames mingle on the wire.
  ma.stream_write(1, std::span{p1}.first(2500));
  ma.stream_write(2, std::span{p2}.first(3500));
  ma.stream_write(1, std::span{p1}.subspan(2500));
  ma.stream_write(2, std::span{p2}.subspan(3500));
  ma.stream_close(1);
  ma.stream_close(2);
  loop.sim().run_until(Time::seconds(30));

  EXPECT_EQ(sink.data.at(Sink::key(0, 1)), p1);
  EXPECT_EQ(sink.data.at(Sink::key(0, 2)), p2);
  EXPECT_TRUE(sink.clean.at(Sink::key(0, 1)));
  EXPECT_TRUE(sink.clean.at(Sink::key(0, 2)));
  sink.expect_retired(Sink::key(0, 1));
  sink.expect_retired(Sink::key(0, 2));
  EXPECT_EQ(mb.inbound_count(), 0u);
}

TEST(SessionMux, SameSessionIdInBothDirectionsStaysSeparate) {
  // Both ends initiate a stream with the *same* session id.  The envelope's
  // direction bit must keep the four DLC endpoints apart.
  SimClock loop;
  auto [ta, tb] = LoopbackTransport::make_pair(loop, Time::microseconds(100));
  SessionMux ma{loop, *ta, mux_config()};
  SessionMux mb{loop, *tb, mux_config()};
  Sink sink_a, sink_b;
  sink_a.attach(ma, loop);
  sink_b.attach(mb, loop);

  const auto pa = pattern(4000, 3);  // a -> b
  const auto pb = pattern(6000, 4);  // b -> a
  ma.open_stream(0, 7);
  mb.open_stream(0, 7);
  ma.stream_write(7, pa);
  mb.stream_write(7, pb);
  ma.stream_close(7);
  mb.stream_close(7);
  loop.sim().run_until(Time::seconds(30));

  EXPECT_EQ(sink_b.data.at(Sink::key(0, 7)), pa);
  EXPECT_EQ(sink_a.data.at(Sink::key(0, 7)), pb);
  EXPECT_TRUE(sink_b.clean.at(Sink::key(0, 7)));
  EXPECT_TRUE(sink_a.clean.at(Sink::key(0, 7)));
}

TEST(SessionMux, RecoversByteExactUnderLossAndCorruption) {
  SimClock loop;
  auto [ta, tb] = LoopbackTransport::make_pair(loop, Time::microseconds(100));

  phy::FaultInjector::Config fc;
  fc.p_drop = 0.15;
  fc.p_corrupt = 0.10;
  fc.p_duplicate = 0.05;
  phy::FaultInjector injector{fc, RandomStream{11, "mux.fault"}};
  rt::ImpairedTransport wire{loop, *ta, injector,
                             RandomStream{11, "mux.damage"}};

  SessionMux ma{loop, wire, mux_config()};
  SessionMux mb{loop, *tb, mux_config()};
  Sink sink;
  sink.attach(mb, loop);

  bool closed = false;
  ma.set_stream_state_handler(
      [&](std::uint32_t, lams::SessionSender::State s) {
        if (s == lams::SessionSender::State::kClosed) closed = true;
      });

  const auto payload = pattern(20000, 5);
  ma.open_stream(0, 9);
  ma.stream_write(9, payload);
  ma.stream_close(9);
  loop.sim().run_until(Time::seconds(120));

  EXPECT_TRUE(closed);
  EXPECT_GT(wire.dropped() + wire.damaged(), 0u) << "impairment was a no-op";
  ASSERT_TRUE(sink.data.contains(Sink::key(0, 9)));
  EXPECT_EQ(sink.data.at(Sink::key(0, 9)), payload);
  EXPECT_TRUE(sink.clean.at(Sink::key(0, 9)));
  // Damaged datagrams surface as undecodable at the far mux (FCS / envelope
  // length check), not as delivered garbage.
  EXPECT_EQ(sink.data.at(Sink::key(0, 9)).size(), payload.size());
}

TEST(SessionMux, RefusesInboundWhenNotAccepting) {
  SimClock loop;
  auto [ta, tb] = LoopbackTransport::make_pair(loop, Time::microseconds(100));
  SessionMux ma{loop, *ta, mux_config()};
  SessionMux::Config closed_cfg = mux_config();
  closed_cfg.accept_inbound = false;
  SessionMux mb{loop, *tb, closed_cfg};

  ma.open_stream(0, 3);
  ma.stream_write(3, pattern(512));
  ma.stream_close(3);
  // The sender retries INIT for a while; cap the run instead of waiting out
  // the whole failure path.
  loop.sim().run_until(Time::seconds(2));

  EXPECT_EQ(mb.inbound_count(), 0u);
  EXPECT_GT(mb.unroutable(), 0u);
}

TEST(SessionMux, PeerRestartWithLowEpochReplacesClosedReceiver) {
  SimClock loop;
  auto [ta, tb] = LoopbackTransport::make_pair(loop, Time::microseconds(100));
  SessionMux mb{loop, *tb, mux_config()};
  Sink sink;
  sink.attach(mb, loop);

  const auto round1 = pattern(1000, 6);
  {
    SessionMux ma{loop, *ta, mux_config()};
    ma.open_stream(0, 5);
    ma.stream_write(5, round1);
    ma.stream_close(5);
    while (!sink.clean.contains(Sink::key(0, 5)) &&
           loop.now() < Time::seconds(10)) {
      loop.sim().run_until(loop.now() + Time::milliseconds(1));
    }
    ASSERT_EQ(sink.data.at(Sink::key(0, 5)), round1);
  }
  // The restart lands inside the closed receiver's linger, so the INIT
  // meets the stale state instead of a retired slot.
  ASSERT_EQ(mb.inbound_count(), 1u);

  // "Restart": a fresh mux reuses session id 5 from epoch 1.  The receiver
  // side must tear down the stale closed state and accept the new INIT
  // (the kept one would drop round 2's chunks as duplicates of round 1's).
  const auto round2 = pattern(1500, 7);
  SessionMux ma2{loop, *ta, mux_config()};
  ma2.open_stream(0, 5);
  ma2.stream_write(5, round2);
  ma2.stream_close(5);
  loop.sim().run_until(Time::seconds(20));

  // The sink accumulates: round1 then round2 on the same (peer, sid) key.
  auto expect = round1;
  expect.insert(expect.end(), round2.begin(), round2.end());
  EXPECT_EQ(sink.data.at(Sink::key(0, 5)), expect);
  EXPECT_TRUE(sink.clean.at(Sink::key(0, 5)));
  sink.expect_retired(Sink::key(0, 5));
}

// A CLOSE for a session the mux no longer holds (its sender retransmitted
// past the linger) lands on a fresh entry: it is still ACKed, so the sender
// ends cleanly, and the entry — which never opened — retires in turn.
TEST(SessionMux, LateCloseIsAckedAndItsEntryRetires) {
  SimClock loop;
  auto [ta, tb] = LoopbackTransport::make_pair(loop, Time::microseconds(100));
  SessionMux mb{loop, *tb, mux_config()};
  std::vector<frame::Frame> replies;
  ta->set_recv_handler([&](PeerId, std::span<const std::uint8_t> bytes) {
    const auto env = frame::decode_envelope(bytes);
    ASSERT_TRUE(env.has_value());
    EXPECT_FALSE(env->to_receiver);
    EXPECT_EQ(env->session_id, 31u);
    auto f = frame::decode(env->payload);
    ASSERT_TRUE(f.has_value());
    replies.push_back(std::move(*f));
  });

  frame::Frame close;
  close.body = frame::SessionFrame{frame::SessionFrame::Kind::kClose, 4};
  frame::Envelope env;
  env.session_id = 31;
  env.to_receiver = true;
  env.payload = frame::encode(close);
  ASSERT_TRUE(ta->send(0, frame::encode_envelope(env)));

  loop.sim().run_until(mb.inbound_linger());
  EXPECT_EQ(mb.inbound_count(), 1u) << "entry lingers like a closed one";
  ASSERT_EQ(replies.size(), 1u);
  const auto* ack = std::get_if<frame::SessionFrame>(&replies[0].body);
  ASSERT_NE(ack, nullptr);
  EXPECT_EQ(ack->kind, frame::SessionFrame::Kind::kCloseAck);
  EXPECT_EQ(ack->epoch, 4u);

  loop.sim().run_until(mb.inbound_linger() + Time::milliseconds(1));
  EXPECT_EQ(mb.inbound_count(), 0u);
}

// An entry made by a stray frame never opened and holds no event bus; an
// INIT inside its linger replaces it with an observed receiver, and the
// mux lets go of that bus once the stream has closed and retired.
TEST(SessionMux, InitReplacesStrayEntryWithObservedReceiverAndReleasesItsBus) {
  SimClock loop;
  auto [ta, tb] = LoopbackTransport::make_pair(loop, Time::microseconds(100));
  std::vector<std::weak_ptr<obs::EventBus>> buses;
  std::size_t events = 0;
  SessionMux::Config observed = mux_config();
  observed.bus_for = [&](std::uint32_t, bool sender_side) {
    EXPECT_FALSE(sender_side);
    auto bus = std::make_shared<obs::EventBus>();
    bus->subscribe([&](const obs::Event&) { ++events; });
    buses.push_back(bus);
    return bus;
  };
  SessionMux mb{loop, *tb, observed};
  Sink sink;
  sink.attach(mb, loop);

  // A stray CLOSE for session 12 makes a bus-less entry.
  frame::Frame close;
  close.body = frame::SessionFrame{frame::SessionFrame::Kind::kClose, 9};
  frame::Envelope env;
  env.session_id = 12;
  env.to_receiver = true;
  env.payload = frame::encode(close);
  ASSERT_TRUE(ta->send(0, frame::encode_envelope(env)));
  loop.sim().run_until(Time::milliseconds(1));
  ASSERT_EQ(mb.inbound_count(), 1u);
  EXPECT_TRUE(buses.empty()) << "a stray frame must not open telemetry";

  // The real stream opens inside that entry's linger.
  SessionMux ma{loop, *ta, mux_config()};
  const auto payload = pattern(3000, 8);
  ma.open_stream(0, 12);
  ma.stream_write(12, payload);
  ma.stream_close(12);
  loop.sim().run_until(Time::seconds(5));

  EXPECT_EQ(sink.data.at(Sink::key(0, 12)), payload);
  EXPECT_TRUE(sink.clean.at(Sink::key(0, 12)));
  ASSERT_EQ(buses.size(), 1u);
  EXPECT_GT(events, 0u) << "the session ran on the bus-less stray entry";
  sink.expect_retired(Sink::key(0, 12));
  EXPECT_TRUE(buses[0].expired()) << "retired stream still holds its bus";
}

}  // namespace
