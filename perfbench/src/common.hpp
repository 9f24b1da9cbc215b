#pragma once
// Shared plumbing of the perfbench binary: wall/CPU clocks, quantiles, the
// result record and its JSON rendering, the host fingerprint, and a small
// JSON reader for the documents the program publishes (registry JSON, the
// daemon's `status` document).

#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace perfbench {

// ------------------------------------------------------------------ time --

[[nodiscard]] inline double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}
[[nodiscard]] double process_cpu_s();

/// Host speed probe: wall time of a fixed piece of mostly CPU-bound work
/// (number formatting, FNV hashing, a 1 KiB table, and 30 dependent loads
/// that miss the caches), the fastest of three tries.  It runs no code of
/// the library.  This host's speed changes for seconds to
/// minutes at a time (README.md, "Host-speed normalisation"), and the
/// constellation timings move with it.
[[nodiscard]] double host_tick_s();
/// host_tick_s() on the reference host in a quiet spell.
inline constexpr double kHostTickRefS = 5.0e-5;
/// Factor that turns a time measured next to a tick of \p tick_s into
/// reference-host time.
[[nodiscard]] inline double host_speed(double tick_s) {
  return kHostTickRefS / tick_s;
}
[[nodiscard]] double peak_rss_mb();      // process high-water RSS
[[nodiscard]] double current_rss_kb();   // resident set now

// ----------------------------------------------------------------- stats --

/// Quantile with linear interpolation between closest ranks (the same rule
/// as Python's `statistics.quantiles(method="inclusive")`).  0 when empty.
[[nodiscard]] double quantile(std::vector<double> v, double q);
[[nodiscard]] inline double median(std::vector<double> v) {
  return quantile(std::move(v), 0.5);
}
/// Mean of the values at or above the \p q quantile: the tail's average,
/// which, unlike a quantile, does not jump when it falls in a gap between
/// modes.  0 when empty.
[[nodiscard]] double tail_mean(std::vector<double> v, double q);

// ---------------------------------------------------------------- result --

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::uint64_t samples = 0;  // how many measurements the value summarises
};

/// What one run prints: notes and the stamp on the lines before, the
/// contract line (`correct`, `attempted`, `failed`, `metrics`) last.
struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::pair<std::string, std::string>> config;  // key -> JSON
  std::vector<std::string> notes;     // failure causes, check verdicts

  void add(std::string name, double value, std::string unit,
           std::uint64_t samples = 1) {
    metrics.push_back({std::move(name), value, std::move(unit), samples});
  }
  void set(std::string key, double v);
  void set(std::string key, const std::string& v);
  void fail_check(const std::string& why) {
    correct = false;
    notes.push_back("CHECK FAILED: " + why);
  }
};

/// Print the notes, the stamp line and, last, the contract line.
void print_result(const Result& r, const std::string& workload,
                  std::uint64_t seed, int trace);

// ------------------------------------------------------------ json read --

/// Minimal JSON value: enough to walk the registry and status documents.
struct Json {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };
  Type type = Type::kNull;
  double number = 0;
  std::string string;
  std::vector<Json> array;
  std::vector<std::pair<std::string, Json>> object;

  /// Member lookup; a null value when absent or not an object.
  [[nodiscard]] const Json& operator[](std::string_view key) const;
  /// Dotted-path number lookup (`"loop.lateness_us.p99"`); \p dflt if absent.
  [[nodiscard]] double num(std::string_view path, double dflt = 0) const;
};

/// Parse \p text; std::nullopt on malformed input.
[[nodiscard]] std::optional<Json> parse_json(std::string_view text);

/// Sum of registry counters whose name starts with \p prefix (registry JSON
/// as `obs::Registry::json()` or the status document's `registry` member).
[[nodiscard]] double counter_sum(const Json& registry, std::string_view prefix);

// ---------------------------------------------------------------- digest --

/// 64-bit FNV-1a over \p n bytes, continuing from \p h.
[[nodiscard]] inline std::uint64_t fnv1a(const std::uint8_t* p, std::size_t n,
                                         std::uint64_t h = 14695981039346656037ULL) {
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ULL;
  }
  return h;
}

/// Seeded pseudo-random payload bytes (splitmix64 stream), generated in
/// place so a 32 MB stream never sits in memory whole.
class PayloadStream {
 public:
  explicit PayloadStream(std::uint64_t seed) : state_{seed} {}
  void fill(std::uint8_t* out, std::size_t n);

 private:
  std::uint64_t state_;
  std::uint64_t word_ = 0;
  unsigned left_ = 0;  // unread bytes of word_
};

// ------------------------------------------------------------------ host --

/// Host fingerprint and build stamp (nproc, CPU model, compiler, flags,
/// build type) as a JSON object.
[[nodiscard]] std::string host_json();

}  // namespace perfbench
