// perfbench: the repository benchmark program.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 [--smoke]
//   perfbench --check-compose WORKLOAD [--seed N]
//
// Prints notes ("# ..." lines), a stamp line (host fingerprint, workload
// config, sample counts) and, last, one JSON object with `correct`,
// `attempted`, `failed` and `metrics`.  `--trace 0` reports the end-to-end
// metrics, `--trace 1` the per-layer metrics the workload exercises;
// perfbench/run.py holds the result to the metric list in BENCHMARK.json.
// Exit status 0 on a finished run, 1 on an error, 2 on bad arguments.

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <string_view>

#include "workloads.hpp"

namespace {

using perfbench::Result;

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "constellation_steady|constellation_churn|daemon_mix --seed N "
               "--seconds S --trace 0|1 [--smoke]\n"
               "       perfbench --check-compose WORKLOAD [--seed N]\n",
               why);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args a;
  std::string check_compose;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage("missing value");
      return argv[++i];
    };
    try {
      if (arg == "--workload") {
        a.workload = value();
      } else if (arg == "--seed") {
        a.seed = std::stoull(value());
      } else if (arg == "--seconds") {
        a.seconds = std::stod(value());
      } else if (arg == "--trace") {
        a.trace = std::stoi(value());
      } else if (arg == "--smoke") {
        a.smoke = true;
      } else if (arg == "--corrupt-expected-digest") {
        a.corrupt_expected_digest = true;
      } else if (arg == "--check-compose") {
        check_compose = value();
      } else {
        usage("unknown flag");
      }
    } catch (const std::exception&) {
      usage("bad number");
    }
  }
  if (!check_compose.empty()) {
    const bool same =
        perfbench::check_composed_matches_run_network(check_compose, a.seed);
    std::printf("%s\n", same ? "composed run matches sim::run_network"
                             : "MISMATCH");
    return same ? 0 : 1;
  }
  if (a.trace != 0 && a.trace != 1) usage("--trace wants 0 or 1");
  if (a.seconds <= 0) usage("--seconds wants a positive number");

  Result r;
  try {
    if (a.workload == "constellation_steady" ||
        a.workload == "constellation_churn") {
      r = perfbench::run_constellation(a);
    } else if (a.workload == "daemon_mix") {
      r = perfbench::run_daemon_mix(a);
    } else {
      usage("unknown workload");
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  perfbench::print_result(r, a.workload, a.seed, a.trace);
  return 0;
}
