#include "lamsdlc/obs/collector.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "lamsdlc/obs/event.hpp"
#include "lamsdlc/obs/metrics.hpp"
#include "lamsdlc/sim/chaos.hpp"
#include "lamsdlc/sim/scenario.hpp"
#include "lamsdlc/workload/sources.hpp"

namespace lamsdlc::obs {
namespace {

/// The acceptance-criterion cross-check: the registry's per-endpoint
/// counters must match counts derived independently of the collector — the
/// endpoints' own DlcStats accumulators and a raw recount of the event
/// stream.  \p tx / \p rx are the sending and receiving endpoints' sources.
void expect_counters_match_stats(sim::Protocol protocol, std::uint64_t seed,
                                 double p_frame, Source tx, Source rx) {
  sim::ScenarioConfig cfg;
  cfg.protocol = protocol;
  cfg.seed = seed;
  cfg.metrics = true;
  cfg.forward_error.kind = sim::ErrorConfig::Kind::kFixedFrameProb;
  cfg.forward_error.p_frame = p_frame;
  cfg.forward_error.p_control = 0.03;
  cfg.reverse_error = cfg.forward_error;
  sim::Scenario s{cfg};

  std::vector<Event> raw;
  s.events().subscribe(EventBus::record_into(raw));

  workload::submit_batch(s.simulator(), s.sender(), s.tracker(), s.ids(), 400,
                         cfg.frame_bytes);
  ASSERT_TRUE(s.run_to_completion(Time::seconds_int(60)));

  std::uint64_t retx_from_events = 0, tx_from_events = 0;
  for (const Event& e : raw) {
    if (e.source != tx || e.kind != EventKind::kFrameSent ||
        e.p.frame.control != 0) {
      continue;
    }
    ++tx_from_events;
    if (e.p.frame.attempt > 1) ++retx_from_events;
  }
  ASSERT_GT(retx_from_events, 0u) << "faulty run produced no retransmissions";

  Registry& reg = s.metrics();
  const std::string pre = to_string(tx);
  const std::string rx_pre = to_string(rx);
  EXPECT_EQ(reg.counter_value(pre + ".iframe_retx"), retx_from_events);
  EXPECT_EQ(reg.counter_value(pre + ".iframe_retx"), s.stats().iframe_retx);
  EXPECT_EQ(reg.counter_value(pre + ".iframe_tx"), tx_from_events);
  EXPECT_EQ(reg.counter_value(pre + ".iframe_tx"), s.stats().iframe_tx);
  // LAMS checkpoints count as control frames but publish as
  // kCheckpointEmitted, not kFrameSent (the baselines emit none).
  EXPECT_EQ(reg.counter_value(pre + ".control_tx") +
                reg.counter_value(rx_pre + ".control_tx") +
                reg.counter_value(rx_pre + ".checkpoints_emitted"),
            s.stats().control_tx);
  const LogHistogram* hold = reg.find_histogram(pre + ".holding_time_ms");
  ASSERT_NE(hold, nullptr);
  EXPECT_EQ(hold->count(), s.stats().holding_time_s.count());
  EXPECT_EQ(reg.counter_value(pre + ".frames_released"), 400u);
  EXPECT_EQ(reg.counter_value(rx_pre + ".iframe_rx"), 400u);
  EXPECT_EQ(reg.counter_value(pre + ".corrupt_control_discards") +
                reg.counter_value(rx_pre + ".corrupt_control_discards"),
            s.stats().control_corrupted_rx);
}

TEST(Collector, RetransmissionCounterMatchesIndependentCounts) {
  expect_counters_match_stats(sim::Protocol::kLams, 3, 0.12,
                              Source::kLamsSender, Source::kLamsReceiver);
}

/// The baselines publish on the same bus under the dlc.* sources, so the
/// E-series comparisons get the same metrics from the same schema.
class BaselineCollector : public ::testing::TestWithParam<sim::Protocol> {};

TEST_P(BaselineCollector, CountersMatchDlcStats) {
  expect_counters_match_stats(GetParam(), 3, 0.1, Source::kDlcSender,
                              Source::kDlcReceiver);
}

INSTANTIATE_TEST_SUITE_P(
    Baselines, BaselineCollector,
    ::testing::Values(sim::Protocol::kSrHdlc, sim::Protocol::kGbnHdlc,
                      sim::Protocol::kNbdt),
    [](const ::testing::TestParamInfo<sim::Protocol>& info) {
      switch (info.param) {
        case sim::Protocol::kSrHdlc: return std::string{"sr"};
        case sim::Protocol::kGbnHdlc: return std::string{"gbn"};
        default: return std::string{"nbdt"};
      }
    });

TEST(Collector, ReceiverAndLinkCountersMatchComponentAccumulators) {
  sim::ScenarioConfig cfg;
  cfg.protocol = sim::Protocol::kLams;
  cfg.seed = 11;
  cfg.metrics = true;
  cfg.forward_error.kind = sim::ErrorConfig::Kind::kFixedFrameProb;
  cfg.forward_error.p_frame = 0.10;
  cfg.forward_error.p_control = 0.05;
  cfg.reverse_error = cfg.forward_error;
  sim::Scenario s{cfg};
  workload::submit_batch(s.simulator(), s.sender(), s.tracker(), s.ids(), 300,
                         cfg.frame_bytes);
  ASSERT_TRUE(s.run_to_completion(Time::seconds_int(60)));

  Registry& reg = s.metrics();
  EXPECT_EQ(reg.counter_value("link.forward.wire_corrupted") +
                reg.counter_value("link.reverse.wire_corrupted"),
            s.link().forward().frames_corrupted() +
                s.link().reverse().frames_corrupted());
  EXPECT_EQ(reg.counter_value("lams.receiver.naks_generated"),
            s.lams_receiver()->naks_generated());
  EXPECT_EQ(reg.counter_value("lams.receiver.duplicates_suppressed"),
            s.lams_receiver()->duplicates_suppressed());
  EXPECT_EQ(reg.counter_value("lams.receiver.checkpoints_emitted"),
            s.lams_receiver()->checkpoints_sent());
  EXPECT_EQ(reg.counter_value("lams.sender.frames_released"), 300u);
}

TEST(Collector, HistogramsCaptureHoldingTimeAndCheckpointRtt) {
  sim::ScenarioConfig cfg;
  cfg.protocol = sim::Protocol::kLams;
  cfg.seed = 5;
  cfg.metrics = true;
  sim::Scenario s{cfg};
  workload::submit_batch(s.simulator(), s.sender(), s.tracker(), s.ids(), 100,
                         cfg.frame_bytes);
  ASSERT_TRUE(s.run_to_completion(Time::seconds_int(30)));

  Registry& reg = s.metrics();
  const LogHistogram* hold = reg.find_histogram("lams.sender.holding_time_ms");
  ASSERT_NE(hold, nullptr);
  EXPECT_EQ(hold->count(), 100u);
  // Holding time is at least one round trip (2 x 10ms propagation).
  EXPECT_GE(hold->p50(), 20.0);
  EXPECT_NEAR(hold->mean(), s.stats().holding_time_s.mean() * 1e3, 1e-6);

  const LogHistogram* rtt = reg.find_histogram("lams.sender.checkpoint_rtt_ms");
  ASSERT_NE(rtt, nullptr);
  EXPECT_GT(rtt->count(), 0u);
  // Checkpoint RTT ~ one-way propagation (10ms) + serialization.
  EXPECT_GE(rtt->min(), 10.0);
  EXPECT_LT(rtt->max(), 100.0);

  const LogHistogram* depth = reg.find_histogram("lams.sender.send_buffer_depth_hist");
  ASSERT_NE(depth, nullptr);
  EXPECT_GT(depth->count(), 0u);
}

TEST(Collector, DetachedOnDestructionLeavesBusUsable) {
  EventBus bus;
  Registry reg;
  {
    MetricsCollector col{bus, reg};
    EXPECT_TRUE(bus.enabled());
    Event e;
    e.source = Source::kLamsReceiver;
    e.kind = EventKind::kNakGenerated;
    e.p.nak = {4};
    bus.emit(e);
  }
  EXPECT_FALSE(bus.enabled());
  EXPECT_EQ(reg.counter_value("lams.receiver.naks_generated"), 1u);
}

TEST(Collector, ChaosVerdictCountersComeFromTheRegistry) {
  sim::ChaosKnobs knobs;
  knobs.seed = 7;
  const sim::ChaosVerdict v = sim::run_chaos(knobs);
  EXPECT_TRUE(v.ok) << v.to_string();
  EXPECT_FALSE(v.metrics_json.empty());
  EXPECT_NE(v.metrics_json.find("\"lams.sender.iframe_tx\""), std::string::npos);
  EXPECT_NE(v.metrics_json.find("\"scenario.efficiency\""), std::string::npos);
  EXPECT_GT(v.checkpoints_sent, 0u);
}

}  // namespace
}  // namespace lamsdlc::obs
