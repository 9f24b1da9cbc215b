#include <gtest/gtest.h>

#include <deque>
#include <vector>

#include "lamsdlc/core/random.hpp"
#include "lamsdlc/lams/receiver.hpp"

namespace lamsdlc::lams {
namespace {

using namespace lamsdlc::literals;

/// A reverse channel that keeps every frame the receiver sends.
struct CaptureChannel final : link::FrameChannel {
  void send(frame::Frame f) override { sent.push_back(std::move(f)); }
  void set_user(link::ChannelUser*) override {}
  [[nodiscard]] bool busy() const override { return false; }
  [[nodiscard]] bool up() const override { return true; }
  [[nodiscard]] Time tx_time(const frame::Frame&) const override { return Time{}; }
  [[nodiscard]] Time propagation_at(Time) const override { return Time{}; }
  std::vector<frame::Frame> sent;
};

/// The cumulative NAK list as the paper states it: one list per checkpoint
/// interval, the last C_depth closed ones reported.
struct ReferenceIntervals {
  explicit ReferenceIntervals(std::uint32_t depth) : depth{depth} {}
  void nak(std::uint64_t ctr) { open.push_back(ctr); }
  std::vector<std::uint64_t> tick() {
    closed.push_back(open);
    open.clear();
    while (closed.size() > depth) closed.pop_front();
    std::vector<std::uint64_t> out;
    for (const auto& interval : closed) {
      out.insert(out.end(), interval.begin(), interval.end());
    }
    return out;
  }
  void reset() {
    closed.clear();
    open.clear();
  }
  std::uint32_t depth;
  std::deque<std::vector<std::uint64_t>> closed;
  std::vector<std::uint64_t> open;
};

std::vector<std::uint64_t> naks_of(const frame::Frame& f) {
  const auto& cp = std::get<frame::CheckpointFrame>(f.body);
  EXPECT_FALSE(cp.enforced);
  return {cp.naks.begin(), cp.naks.end()};
}

TEST(ReceiverNakIntervals, EachNakRidesExactlyDepthConsecutiveCheckpoints) {
  for (std::uint32_t depth = 1; depth <= 6; ++depth) {
    SCOPED_TRACE("C_depth=" + std::to_string(depth));
    Simulator sim;
    CaptureChannel out;
    LamsConfig cfg;
    cfg.checkpoint_interval = 10_ms;
    cfg.cumulation_depth = depth;
    LamsReceiver rx{sim, out, cfg, nullptr};
    rx.start();
    ReferenceIntervals ref{depth};
    RandomStream rng{depth, "nak.intervals"};

    std::uint64_t next = 0;  // next counter the sender would issue
    std::vector<std::vector<std::uint64_t>> reports;
    constexpr int kIntervals = 300;
    for (int k = 0; k < kIntervals; ++k) {
      const Time base = cfg.checkpoint_interval * k;
      // About half the intervals are idle; the rest carry 1–3 arrivals,
      // each after a gap of 0–3 lost frames (every gap counter is a NAK).
      const auto arrivals = rng.bernoulli(0.5) ? 0 : rng.uniform_int(1, 3);
      for (std::int64_t a = 0; a < arrivals; ++a) {
        sim.run_until(base + Time::milliseconds(2 + 2 * a));
        const auto lost = static_cast<std::uint64_t>(rng.uniform_int(0, 3));
        for (std::uint64_t i = 0; i < lost; ++i) ref.nak(next + i);
        next += lost;
        frame::Frame f;
        f.body = frame::IFrame{static_cast<frame::Seq>(next), next, 100, {}};
        rx.on_frame(std::move(f));
        ++next;
      }
      if (k == 200) {
        // A new session forgets every NAK, including those still due.
        rx.reset_session();
        ref.reset();
        next = 0;
      }
      const std::size_t before = out.sent.size();
      sim.run_until(base + cfg.checkpoint_interval);
      ASSERT_EQ(out.sent.size(), before + 1) << "interval " << k;
      reports.push_back(naks_of(out.sent.back()));
      EXPECT_EQ(reports.back(), ref.tick()) << "checkpoint " << k + 1;
    }

    // Directly: every NAK shows up in a run of exactly C_depth consecutive
    // checkpoints, starting with the first one after its detection.
    std::vector<std::uint64_t> first_seen(next + 4, 0);
    std::vector<int> count(next + 4, 0);
    std::vector<std::uint64_t> last_seen(next + 4, 0);
    std::uint64_t naks_checked = 0;
    for (std::size_t r = 200; r < reports.size(); ++r) {  // after the reset
      for (const std::uint64_t ctr : reports[r]) {
        if (count[ctr]++ == 0) first_seen[ctr] = r;
        last_seen[ctr] = r;
      }
    }
    for (std::uint64_t ctr = 0; ctr < count.size(); ++ctr) {
      if (count[ctr] == 0) continue;
      const bool truncated = first_seen[ctr] + depth > reports.size();
      if (truncated) continue;  // detected just before the run ended
      ++naks_checked;
      EXPECT_EQ(count[ctr], static_cast<int>(depth)) << "ctr " << ctr;
      EXPECT_EQ(last_seen[ctr] - first_seen[ctr] + 1, depth) << "ctr " << ctr;
    }
    EXPECT_GT(naks_checked, 20u);
  }
}

TEST(ReceiverNakIntervals, ResetSessionDropsANakStillBeingRepeated) {
  Simulator sim;
  CaptureChannel out;
  LamsConfig cfg;
  cfg.checkpoint_interval = 10_ms;
  cfg.cumulation_depth = 4;
  LamsReceiver rx{sim, out, cfg, nullptr};
  rx.start();
  sim.run_until(5_ms);
  frame::Frame f;
  f.body = frame::IFrame{1, 1, 100, {}};  // counter 0 arrived unreadable
  rx.on_frame(std::move(f));
  sim.run_until(10_ms);
  ASSERT_EQ(out.sent.size(), 1u);
  EXPECT_EQ(naks_of(out.sent.back()), std::vector<std::uint64_t>{0});
  sim.run_until(20_ms);
  EXPECT_EQ(naks_of(out.sent.back()), std::vector<std::uint64_t>{0});
  rx.reset_session();
  sim.run_until(30_ms);
  ASSERT_EQ(out.sent.size(), 3u);
  EXPECT_TRUE(naks_of(out.sent.back()).empty());
}

}  // namespace
}  // namespace lamsdlc::lams
