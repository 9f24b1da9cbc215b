// Per-layer microbenchmarks through the program's public entry points, on
// the daemon workload's datagram shape.

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "lamsdlc/frame/codec.hpp"
#include "lamsdlc/frame/envelope.hpp"
#include "lamsdlc/rt/event_loop.hpp"
#include "lamsdlc/rt/transport.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace fr = lamsdlc::frame;
namespace rt = lamsdlc::rt;
using lamsdlc::Time;

double frame_wire_ns_per_datagram(std::uint32_t chunk_bytes) {
  PayloadStream gen{42};
  fr::Frame f;
  fr::IFrame body{7, 1, chunk_bytes, std::vector<std::uint8_t>(chunk_bytes)};
  gen.fill(body.payload.data(), body.payload.size());
  f.body = std::move(body);
  fr::Envelope env;
  env.session_id = 9;
  env.has_packet_id = true;
  env.to_receiver = true;
  std::vector<std::uint8_t> wire;
  constexpr int kReps = 200000;
  std::uint64_t ok = 0;
  const double t0 = now_s();
  for (int i = 0; i < kReps; ++i) {
    env.packet_id = static_cast<fr::PacketId>(i);
    fr::encode_into(f, env.payload);
    fr::encode_envelope_into(env, wire);
    const auto back = fr::decode_envelope(wire);
    if (back && fr::decode(back->payload)) ++ok;
  }
  const double dt = now_s() - t0;
  if (ok != kReps) throw std::runtime_error("frame wire round trip rejected a datagram");
  return dt * 1e9 / kReps;
}

double udp_send_ns(std::size_t datagram_bytes) {
  // Both transports on one wall-clock loop; a timer sends one batch at a
  // time and yields, so the receiver drains between batches and no send
  // meets a full socket buffer.
  rt::WallClock loop;
  rt::UdpTransport a{loop, {}};
  rt::UdpTransport b{loop, {}};
  const rt::PeerId to_b = a.add_peer("127.0.0.1", b.local_port());
  std::uint64_t received = 0;
  b.set_recv_handler([&](rt::PeerId, std::span<const std::uint8_t>) { ++received; });
  std::vector<std::uint8_t> dgram(datagram_bytes);
  PayloadStream{7}.fill(dgram.data(), dgram.size());

  constexpr int kBatch = 32;
  constexpr int kBatches = 1500;
  int batches = 0;
  std::uint64_t sent = 0;
  double busy = 0;
  std::function<void()> tick = [&] {
    const double t0 = now_s();
    for (int i = 0; i < kBatch; ++i) sent += a.send(to_b, dgram) ? 1 : 0;
    busy += now_s() - t0;
    if (++batches == kBatches) {
      loop.stop();
    } else {
      loop.sim().schedule_in(Time::microseconds(200), tick);
    }
  };
  loop.sim().schedule_in(Time{}, tick);
  loop.run();
  if (sent == 0) throw std::runtime_error("udp transport sent nothing");
  return busy * 1e9 / static_cast<double>(sent);
}

}  // namespace perfbench
