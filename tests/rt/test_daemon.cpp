/// \file test_daemon.cpp
/// \brief rt::Daemon in self-peer mode: a full session over real kernel UDP.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "lamsdlc/rt/daemon.hpp"

namespace {

using namespace lamsdlc;
namespace fs = std::filesystem;

std::vector<std::uint8_t> read_file(const fs::path& p) {
  std::ifstream in{p, std::ios::binary};
  return {std::istreambuf_iterator<char>{in}, std::istreambuf_iterator<char>{}};
}

/// One bridge stream: connect, write \p payload flat out, half-close, and
/// return the daemon's status line ("OK <n>\n" / "ERR ...").
std::string bridge_send(std::uint16_t port,
                        const std::vector<std::uint8_t>& payload) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) !=
      0) {
    ::close(fd);
    return "connect-failed";
  }
  std::size_t off = 0;
  while (off < payload.size()) {
    const ssize_t n = ::write(fd, payload.data() + off, payload.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      return "write-failed";
    }
    off += static_cast<std::size_t>(n);
  }
  ::shutdown(fd, SHUT_WR);
  std::string status;
  char buf[64];
  for (;;) {
    const ssize_t n = ::read(fd, buf, sizeof buf);
    if (n <= 0) break;
    status.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return status;
}

TEST(Daemon, SelfPeerStreamDeliversByteExactOverRealUdp) {
  const fs::path dir =
      fs::path{testing::TempDir()} / "lamsdlc-daemon-selfpeer";
  fs::remove_all(dir);
  fs::create_directories(dir);

  rt::DaemonConfig cfg;
  cfg.self_peer = true;
  cfg.deliver_dir = dir.string();
  cfg.session_base = 700;
  // One stream = two halves (our sender, our receiver), both counted.
  cfg.exit_after_streams = 2;

  rt::Daemon daemon{cfg};
  daemon.start();
  ASSERT_NE(daemon.udp_port(), 0);
  EXPECT_EQ(daemon.bridge_port(), 0) << "bridge stays closed unless asked";

  std::vector<std::uint8_t> payload(64 * 1024);
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<std::uint8_t>(i * 131 + 7);
  }

  // Drive the mux from the loop thread: peer 0 is our own socket.
  daemon.loop().sim().schedule_in(Time{}, [&] {
    daemon.mux().open_stream(0, 700);
    ASSERT_TRUE(daemon.mux().stream_write(700, payload));
    daemon.mux().stream_close(700);
  });
  // Watchdog so a wedged session fails the test instead of hanging it.
  daemon.loop().sim().schedule_in(Time::seconds(30),
                                  [&] { daemon.stop(); });
  daemon.run();

  EXPECT_EQ(daemon.streams_completed(), 2u);
  EXPECT_EQ(daemon.streams_failed(), 0u);
  EXPECT_EQ(read_file(dir / "stream-p0-s700.bin"), payload);
  EXPECT_FALSE(fs::exists(dir / "stream-p0-s700.part"))
      << "rename-on-complete must not leave the partial behind";
  fs::remove_all(dir);
}

TEST(Daemon, ImpairedSelfPeerStillDeliversAndCaptures) {
  const fs::path dir =
      fs::path{testing::TempDir()} / "lamsdlc-daemon-impaired";
  fs::remove_all(dir);
  fs::create_directories(dir);

  rt::DaemonConfig cfg;
  cfg.self_peer = true;
  cfg.deliver_dir = dir.string();
  cfg.session_base = 900;
  cfg.exit_after_streams = 2;
  cfg.impair = true;
  cfg.fault.p_drop = 0.10;
  cfg.fault.p_corrupt = 0.05;
  cfg.fault_seed = 5;
  cfg.capture_prefix = (dir / "cap").string();

  rt::Daemon daemon{cfg};
  daemon.start();

  std::vector<std::uint8_t> payload(32 * 1024);
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<std::uint8_t>(i * 37 + 11);
  }
  daemon.loop().sim().schedule_in(Time{}, [&] {
    daemon.mux().open_stream(0, 900);
    daemon.mux().stream_write(900, payload);
    daemon.mux().stream_close(900);
  });
  daemon.loop().sim().schedule_in(Time::seconds(60),
                                  [&] { daemon.stop(); });
  daemon.run();

  EXPECT_EQ(daemon.streams_completed(), 2u);
  EXPECT_EQ(daemon.streams_failed(), 0u);
  EXPECT_EQ(read_file(dir / "stream-p0-s900.bin"), payload);
  // The capture must exist and be non-trivial (both endpoints share the
  // session bus in self-peer mode).
  EXPECT_GT(fs::file_size(dir / "cap-s900.ldlcap"), 100u);
  fs::remove_all(dir);
}

// A bridge client that writes much faster than the link drains must be
// paused by backpressure — the per-stream sending buffer stays bounded at
// `stream_buffer_packets` plus at most one socket read's worth of chunks —
// and must be resumed event-driven (no polling) until every byte delivers.
TEST(Daemon, FastBridgeClientOverSlowLinkKeepsBufferBounded) {
  const fs::path dir =
      fs::path{testing::TempDir()} / "lamsdlc-daemon-backpressure";
  fs::remove_all(dir);
  fs::create_directories(dir);

  constexpr std::size_t kBufferPackets = 64;
  constexpr std::uint32_t kChunk = 1024;
  constexpr std::size_t kReadChunks = 16384 / kChunk;  // daemon read size

  rt::DaemonConfig cfg;
  cfg.self_peer = true;
  cfg.bridge = true;
  cfg.deliver_dir = dir.string();
  cfg.session_base = 7400;
  cfg.exit_after_streams = 2;
  cfg.chunk_bytes = kChunk;
  cfg.stream_buffer_packets = kBufferPackets;
  cfg.data_rate_bps = 8e6;  // ~0.25 s of wire time for the payload

  rt::Daemon daemon{cfg};
  daemon.start();
  ASSERT_NE(daemon.bridge_port(), 0);

  std::vector<std::uint8_t> payload(256 * 1024);
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<std::uint8_t>(i * 197 + 3);
  }

  // The client writes flat out; the kernel's TCP window is the only thing
  // slowing it down once the daemon stops reading.
  std::string status;
  std::thread client{
      [&] { status = bridge_send(daemon.bridge_port(), payload); }};

  // The high-water mark lives in the mux and dies with drop_stream, so
  // sample it from inside the loop while the stream is alive.
  std::size_t observed_hw = 0;
  std::function<void()> sample = [&] {
    observed_hw =
        std::max(observed_hw, daemon.mux().stream_buffer_high_water(7400));
    daemon.loop().sim().schedule_in(Time::milliseconds(2), sample);
  };
  daemon.loop().sim().schedule_in(Time{}, sample);
  daemon.loop().sim().schedule_in(Time::seconds(60), [&] { daemon.stop(); });
  daemon.run();
  client.join();

  EXPECT_EQ(daemon.streams_completed(), 2u);
  EXPECT_EQ(daemon.streams_failed(), 0u);
  EXPECT_EQ(status, "OK " + std::to_string(payload.size()) + "\n");
  EXPECT_EQ(read_file(dir / "stream-p0-s7400.bin"), payload);

  // Backpressure engaged (the buffer filled to capacity at least once) and
  // held: one 16 KiB socket read can overshoot the capacity check by at
  // most kReadChunks packets, and nothing beyond that is ever admitted.
  EXPECT_GE(observed_hw, kBufferPackets);
  EXPECT_LE(observed_hw, kBufferPackets + kReadChunks);
  fs::remove_all(dir);
}

// --------------------------------------------------------------- status --

/// One request/response round trip against the status port (blocking, with
/// a receive timeout so a wedged endpoint fails the test, not hangs it).
std::string status_request(std::uint16_t port, const std::string& verb) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return {};
  timeval tv{5, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  std::string out;
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) ==
      0) {
    const std::string req = verb + "\n";
    (void)!::write(fd, req.data(), req.size());
    char buf[4096];
    for (;;) {
      const ssize_t n = ::read(fd, buf, sizeof buf);
      if (n <= 0) break;
      out.append(buf, static_cast<std::size_t>(n));
    }
  }
  ::close(fd);
  return out;
}

/// Naive flat extraction of an integer that follows `"key":` in one-line
/// JSON; -1 when absent.
long long json_int_after(const std::string& doc, const std::string& key) {
  const auto pos = doc.find("\"" + key + "\":");
  if (pos == std::string::npos) return -1;
  return std::atoll(doc.c_str() + pos + key.size() + 3);
}

/// Braces must balance and never dip negative — a torn (partially written)
/// snapshot fails this long before a JSON parser would.
bool braces_balanced(const std::string& doc) {
  int depth = 0;
  bool in_str = false;
  for (std::size_t i = 0; i < doc.size(); ++i) {
    const char c = doc[i];
    if (in_str) {
      if (c == '\\') ++i;
      else if (c == '"') in_str = false;
      continue;
    }
    if (c == '"') in_str = true;
    else if (c == '{') ++depth;
    else if (c == '}' && --depth < 0) return false;
  }
  return depth == 0 && !in_str;
}

// Concurrent status scrapes against an active impaired transfer: every
// response is a complete untorn snapshot, the delivered counter is monotone
// across scrapes, and all four endpoint verbs answer.
TEST(Daemon, StatusEndpointServesUntornMonotoneSnapshotsMidTransfer) {
  rt::DaemonConfig cfg;
  cfg.self_peer = true;
  cfg.status = true;
  cfg.session_base = 8100;
  cfg.exit_after_streams = 2;
  cfg.data_rate_bps = 20e6;
  cfg.impair = true;
  cfg.fault.p_drop = 0.05;
  cfg.fault_seed = 9;
  cfg.status_sample_period = Time::milliseconds(50);

  rt::Daemon daemon{cfg};
  daemon.start();
  ASSERT_NE(daemon.status_port(), 0);

  std::vector<std::uint8_t> payload(512 * 1024);
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<std::uint8_t>(i * 151 + 29);
  }
  daemon.loop().sim().schedule_in(Time{}, [&] {
    daemon.mux().open_stream(0, 8100);
    daemon.mux().stream_write(8100, payload);
    daemon.mux().stream_close(8100);
  });
  daemon.loop().sim().schedule_in(Time::seconds(60), [&] { daemon.stop(); });

  std::atomic<bool> done{false};
  std::vector<std::string> snapshots;
  std::string metrics_text, samples_text, pretty_text;
  std::thread scraper{[&] {
    while (!done.load()) {
      std::string got = status_request(daemon.status_port(), "status");
      if (!got.empty()) snapshots.push_back(std::move(got));
      if (metrics_text.empty()) {
        metrics_text = status_request(daemon.status_port(), "metrics");
      }
      if (samples_text.empty()) {
        samples_text = status_request(daemon.status_port(), "samples");
      }
      if (pretty_text.empty()) {
        pretty_text = status_request(daemon.status_port(), "text");
      }
    }
  }};
  daemon.run();
  done.store(true);
  scraper.join();

  EXPECT_EQ(daemon.streams_completed(), 2u);
  EXPECT_EQ(daemon.streams_failed(), 0u);
  ASSERT_GE(snapshots.size(), 2u) << "transfer finished before any scrape";

  long long prev_delivered = -1;
  for (const std::string& snap : snapshots) {
    ASSERT_TRUE(braces_balanced(snap)) << "torn snapshot: " << snap;
    EXPECT_EQ(snap.front(), '{');
    EXPECT_EQ(snap.back(), '\n');
    EXPECT_NE(snap.find("\"daemon\":"), std::string::npos);
    EXPECT_NE(snap.find("\"registry\":"), std::string::npos);
    const long long delivered =
        json_int_after(snap, "lams.receiver.packets_delivered");
    if (delivered >= 0) {
      EXPECT_GE(delivered, prev_delivered) << "counter went backwards";
      prev_delivered = std::max(prev_delivered, delivered);
    }
  }
  EXPECT_GT(prev_delivered, 0) << "no scrape observed a live session";

  EXPECT_NE(metrics_text.find("# TYPE lamsdlc_"), std::string::npos);
  EXPECT_NE(pretty_text.find("lamsdlcd pid"), std::string::npos);
  // The sampler was on (50 ms period), so `samples` answers with
  // line-delimited kMetricSample JSON once a tick has fired.
  if (!samples_text.empty() && samples_text != "\n") {
    EXPECT_NE(samples_text.find("\"kind\":\"metric_sample\""),
              std::string::npos);
  }

  // After the loop exits the in-process document is still coherent.
  const std::string final_doc = daemon.status_json();
  EXPECT_TRUE(braces_balanced(final_doc));
  EXPECT_EQ(json_int_after(final_doc, "streams_completed"), 2);
  EXPECT_NE(final_doc.find("\"recorder\":"), std::string::npos);
}

/// Occurrences of \p needle in \p doc.
std::size_t count_of(const std::string& doc, const std::string& needle) {
  std::size_t n = 0;
  for (auto pos = doc.find(needle); pos != std::string::npos;
       pos = doc.find(needle, pos + needle.size())) {
    ++n;
  }
  return n;
}

// Soak: hundreds of sequential bridge streams through a self-peer daemon
// while a `metrics` scraper runs.  Finished sessions retire — their rings,
// inbound receivers and status entries go — so once the linger has passed,
// what the daemon holds is set by live sessions, not by how many finished,
// and the status document stops growing.  The recorder totals and the
// finished-stream count stay monotone across retirements.
TEST(Daemon, SoakOfSequentialStreamsKeepsSessionStateBounded) {
  constexpr int kStreams = 300;
  constexpr int kSnapshotEvery = 50;
  constexpr int kSettleAt = 100;  // first bounded-state check

  rt::DaemonConfig cfg;
  cfg.self_peer = true;
  cfg.bridge = true;
  cfg.status = true;
  cfg.session_base = 20000;

  rt::Daemon daemon{cfg};
  daemon.start();
  const std::uint16_t status_port = daemon.status_port();
  // Past the linger (with margin), every finished session has retired.
  const auto settle = std::chrono::microseconds(
      static_cast<std::int64_t>(daemon.mux().inbound_linger().us() * 2));
  std::thread loop{[&] { daemon.run(); }};

  std::atomic<bool> done{false};
  std::atomic<int> scrapes{0};
  std::thread scraper{[&] {  // about 50 Hz
    while (!done.load()) {
      if (status_request(status_port, "metrics").find("# TYPE lamsdlc_") !=
          std::string::npos) {
        ++scrapes;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  }};

  struct Snap {
    long long completed, rings, recorded, dumps;
    std::size_t bytes, sessions_in, sessions_out;
  };
  const auto snap = [&] {
    const std::string doc = status_request(status_port, "status");
    EXPECT_TRUE(braces_balanced(doc));
    return Snap{json_int_after(doc, "streams_completed"),
                json_int_after(doc, "rings"),
                json_int_after(doc, "recorded"),
                json_int_after(doc, "dumps"),
                doc.size(),
                count_of(doc, "\"in_session\":"),
                count_of(doc, "\"outstanding\":")};
  };

  std::vector<std::uint8_t> payload(16 * 1024);
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<std::uint8_t>(i * 29 + 5);
  }
  std::vector<Snap> snaps;
  Snap settled_early{};
  int ok = 0;
  for (int i = 1; i <= kStreams; ++i) {
    if (bridge_send(daemon.bridge_port(), payload) ==
        "OK " + std::to_string(payload.size()) + "\n") {
      ++ok;
    }
    if (i % kSnapshotEvery == 0) snaps.push_back(snap());
    if (i == kSettleAt) {
      std::this_thread::sleep_for(settle);
      settled_early = snap();
    }
  }
  std::this_thread::sleep_for(settle);
  const Snap settled = snap();
  done.store(true);
  scraper.join();
  daemon.stop();
  (void)status_request(status_port, "status");  // wake the loop to stop
  loop.join();

  EXPECT_EQ(ok, kStreams);
  EXPECT_GT(scrapes.load(), 0);
  EXPECT_EQ(daemon.streams_completed(), 2u * kStreams);  // both halves
  EXPECT_EQ(daemon.streams_failed(), 0u);

  // Monotone across retirements.
  snaps.push_back(settled);
  for (std::size_t i = 1; i < snaps.size(); ++i) {
    EXPECT_GE(snaps[i].completed, snaps[i - 1].completed) << "snapshot " << i;
    EXPECT_GE(snaps[i].recorded, snaps[i - 1].recorded) << "snapshot " << i;
    EXPECT_GE(snaps[i].dumps, snaps[i - 1].dumps) << "snapshot " << i;
  }
  EXPECT_EQ(settled.completed, 2 * kStreams);
  EXPECT_GT(settled.recorded, 0) << "retired rings' events were dropped";

  // Bounded by live sessions (none, once settled), at 100 and at 300
  // finished streams alike.
  for (const Snap& s : {settled_early, settled}) {
    EXPECT_LE(s.rings, 1);
    EXPECT_LE(s.sessions_in, 1u);
    EXPECT_LE(s.sessions_out, 1u);
  }
  // Three times the finished streams, the same document: only counter and
  // quantile digits may differ (each retained session entry would add
  // hundreds of bytes).
  EXPECT_LE(settled.bytes, settled_early.bytes + 512)
      << "status grew from " << settled_early.bytes << " to "
      << settled.bytes << " bytes";
}

// Unknown verbs get a one-line error, not a hang or a close without bytes.
TEST(Daemon, StatusEndpointRejectsUnknownVerbs) {
  rt::DaemonConfig cfg;
  cfg.self_peer = true;
  cfg.status = true;
  cfg.status_sample_period = Time{};  // sampler off; `samples` stays empty

  rt::Daemon daemon{cfg};
  daemon.start();
  daemon.loop().sim().schedule_in(Time::seconds(10), [&] { daemon.stop(); });
  std::thread loop{[&] { daemon.run(); }};

  EXPECT_EQ(status_request(daemon.status_port(), "gimme"),
            "ERR unknown-command\n");
  const std::string doc = status_request(daemon.status_port(), "status");
  EXPECT_TRUE(braces_balanced(doc));
  daemon.stop();
  // stop() from another thread is only noticed at the next loop wakeup;
  // one more connection provides it (instead of the 10 s watchdog).
  (void)status_request(daemon.status_port(), "status");
  loop.join();
}

}  // namespace
