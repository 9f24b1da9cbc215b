/// Kernel microbenchmarks (google-benchmark): raw speed of the simulation
/// substrate.  These are engineering benchmarks, not paper experiments —
/// they bound how large a constellation-scale study the library supports.
///
/// `bench_kernel --json [ops]` bypasses google-benchmark and times the
/// canonical kernel workloads from bench/kernel_workloads.hpp, printing one
/// machine-readable JSON object (ops/sec per workload).  That mode is what
/// scripts/bench_baseline.sh records into BENCH_kernel.json and what
/// scripts/ci.sh runs as the non-gating perf smoke; because the workloads
/// live in a standalone header, the same code can be compiled against any
/// kernel revision for honest before/after comparisons.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "kernel_workloads.hpp"
#include "lamsdlc/core/random.hpp"
#include "lamsdlc/core/simulator.hpp"
#include "lamsdlc/frame/codec.hpp"
#include "lamsdlc/phy/crc.hpp"
#include "lamsdlc/phy/error_model.hpp"
#include "lamsdlc/sim/scenario.hpp"
#include "lamsdlc/workload/sources.hpp"

namespace {

using namespace lamsdlc;
using namespace lamsdlc::literals;

void BM_SimulatorEventDispatch(benchmark::State& state) {
  for (auto _ : state) {
    Simulator sim;
    const int n = static_cast<int>(state.range(0));
    int fired = 0;
    for (int i = 0; i < n; ++i) {
      sim.schedule_at(Time::microseconds(i), [&fired] { ++fired; });
    }
    sim.run();
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SimulatorEventDispatch)->Arg(1000)->Arg(100000);

void BM_TimerCancelChurn(benchmark::State& state) {
  for (auto _ : state) {
    Simulator sim;
    for (int i = 0; i < 10000; ++i) {
      const EventId id = sim.schedule_at(Time::milliseconds(1), [] {});
      sim.cancel(id);
    }
    sim.run();
  }
  state.SetItemsProcessed(state.iterations() * 10000);
}
BENCHMARK(BM_TimerCancelChurn);

void BM_Crc16(benchmark::State& state) {
  std::vector<std::uint8_t> data(static_cast<std::size_t>(state.range(0)));
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::uint8_t>(i);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(phy::crc16_ccitt(data));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Crc16)->Arg(64)->Arg(1024)->Arg(8192);

void BM_CodecRoundTrip(benchmark::State& state) {
  frame::Frame f;
  f.body = frame::IFrame{42, 7, static_cast<std::uint32_t>(state.range(0)), {}};
  for (auto _ : state) {
    const auto bytes = frame::encode(f);
    auto out = frame::decode(bytes);
    benchmark::DoNotOptimize(out);
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(frame::encoded_size(f)));
}
BENCHMARK(BM_CodecRoundTrip)->Arg(64)->Arg(1024);

void BM_GilbertElliottSampling(benchmark::State& state) {
  phy::GilbertElliottModel m{{1e-7, 1e-2, 50_ms, 5_ms},
                             RandomStream{1, "bench"}};
  std::int64_t i = 0;
  for (auto _ : state) {
    const Time start = Time::microseconds(i * 30);
    benchmark::DoNotOptimize(m.corrupts(start, start + 27_us, 8192));
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_GilbertElliottSampling);

/// End-to-end simulation speed: how many protocol frames per wall second.
void BM_LamsScenarioFrames(benchmark::State& state) {
  for (auto _ : state) {
    sim::ScenarioConfig cfg;
    cfg.protocol = sim::Protocol::kLams;
    cfg.forward_error.kind = sim::ErrorConfig::Kind::kFixedFrameProb;
    cfg.forward_error.p_frame = 0.1;
    sim::Scenario s{cfg};
    workload::submit_batch(s.simulator(), s.sender(), s.tracker(), s.ids(),
                           static_cast<std::uint64_t>(state.range(0)), 1024);
    s.run_to_completion(Time::seconds_int(600));
    benchmark::DoNotOptimize(s.report().unique_delivered);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_LamsScenarioFrames)->Arg(1000)->Arg(10000)
    ->Unit(benchmark::kMillisecond);

void BM_SrHdlcScenarioFrames(benchmark::State& state) {
  for (auto _ : state) {
    sim::ScenarioConfig cfg;
    cfg.protocol = sim::Protocol::kSrHdlc;
    cfg.forward_error.kind = sim::ErrorConfig::Kind::kFixedFrameProb;
    cfg.forward_error.p_frame = 0.1;
    sim::Scenario s{cfg};
    workload::submit_batch(s.simulator(), s.sender(), s.tracker(), s.ids(),
                           static_cast<std::uint64_t>(state.range(0)), 1024);
    s.run_to_completion(Time::seconds_int(600));
    benchmark::DoNotOptimize(s.report().unique_delivered);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SrHdlcScenarioFrames)->Arg(1000)->Arg(10000)
    ->Unit(benchmark::kMillisecond);

/// Best-of-three ops/sec, like any careful manual timing run.
double best_rate(bench::WorkloadResult (*wl)(std::uint64_t),
                 std::uint64_t ops) {
  double best = 0.0;
  for (int rep = 0; rep < 3; ++rep) {
    best = std::max(best, wl(ops).ops_per_sec());
  }
  return best;
}

int run_json_mode(std::uint64_t ops) {
  const double schedule_fire = best_rate(bench::wl_schedule_fire, ops);
  const double cancel_heavy = best_rate(bench::wl_cancel_heavy, ops);
  const double timer_rearm = best_rate(bench::wl_timer_rearm, ops);
  const double reschedule = best_rate(bench::wl_reschedule, ops);
  std::printf("{\n");
  std::printf("  \"ops\": %llu,\n", static_cast<unsigned long long>(ops));
  std::printf("  \"schedule_fire_ops_per_sec\": %.0f,\n", schedule_fire);
  std::printf("  \"cancel_heavy_ops_per_sec\": %.0f,\n", cancel_heavy);
  std::printf("  \"timer_rearm_ops_per_sec\": %.0f,\n", timer_rearm);
  std::printf("  \"reschedule_ops_per_sec\": %.0f\n", reschedule);
  std::printf("}\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 2 && std::strcmp(argv[1], "--json") == 0) {
    std::uint64_t ops = 2'000'000;
    if (argc >= 3) ops = std::strtoull(argv[2], nullptr, 10);
    return run_json_mode(ops);
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
