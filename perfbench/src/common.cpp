#include "common.hpp"

#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>

namespace perfbench {

double process_cpu_s() {
  timespec ts{};
  ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double host_tick_s() {
  // A single cycle through a shuffled 4 MiB ring, walked a few loads per
  // try: each load misses the caches.
  static const std::vector<std::uint32_t> ring = [] {
    const std::uint32_t n = 1u << 20;
    std::vector<std::uint32_t> order(n);
    for (std::uint32_t i = 0; i < n; ++i) order[i] = i;
    std::uint64_t x = 88172645463325252ULL;  // xorshift64
    for (std::uint32_t i = n - 1; i > 0; --i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      std::swap(order[i], order[x % (i + 1)]);
    }
    std::vector<std::uint32_t> next(n);
    for (std::uint32_t i = 0; i < n; ++i) next[order[i]] = order[(i + 1) % n];
    return next;
  }();
  static std::uint32_t at = 0;
  double best = 1e300;
  for (int attempt = 0; attempt < 3; ++attempt) {
    const double t0 = now_s();
    char buf[64];
    std::uint64_t h = 14695981039346656037ULL;
    std::uint32_t table[256];
    for (std::uint32_t i = 0; i < 256; ++i) table[i] = i * 2654435761u;
    for (int r = 0; r < 150; ++r) {
      const int n = std::snprintf(buf, sizeof buf, "{\"id\":%d,\"v\":%.9g}",
                                  r, r * 0.37);
      h = fnv1a(reinterpret_cast<const std::uint8_t*>(buf),
                static_cast<std::size_t>(n), h);
      for (int i = 0; i < 16; ++i) {
        table[(h >> 8) & 255] += static_cast<std::uint32_t>(h);
        h = h * 31 + table[h & 255];
      }
      if (r % 5 == 0) at = ring[at];
    }
    const double dt = now_s() - t0;
    if (h == at) std::puts("");  // keep the work observable
    best = std::min(best, dt);
  }
  return best;
}

double peak_rss_mb() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

double current_rss_kb() {
  std::ifstream in{"/proc/self/statm"};
  long pages = 0;
  long resident = 0;
  in >> pages >> resident;
  return static_cast<double>(resident) *
         static_cast<double>(::sysconf(_SC_PAGESIZE)) / 1024.0;
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double tail_mean(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto from = static_cast<std::size_t>(
      std::floor(q * static_cast<double>(v.size() - 1)));
  double sum = 0;
  for (std::size_t i = from; i < v.size(); ++i) sum += v[i];
  return sum / static_cast<double>(v.size() - from);
}

// ---------------------------------------------------------------- result --

namespace {

std::string json_quote(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.15g", v);
  return buf;
}

std::string metrics_object(const std::vector<Metric>& ms, bool with_samples) {
  std::string out = "{";
  for (std::size_t i = 0; i < ms.size(); ++i) {
    if (i) out += ", ";
    out += json_quote(ms[i].name) + ": {\"value\": " + json_number(ms[i].value) +
           ", \"unit\": " + json_quote(ms[i].unit);
    if (with_samples) out += ", \"samples\": " + std::to_string(ms[i].samples);
    out += "}";
  }
  return out + "}";
}

}  // namespace

void Result::set(std::string key, double v) {
  config.emplace_back(std::move(key), json_number(v));
}
void Result::set(std::string key, const std::string& v) {
  config.emplace_back(std::move(key), json_quote(v));
}

void print_result(const Result& r, const std::string& workload,
                  std::uint64_t seed, int trace) {
  for (const std::string& n : r.notes) std::printf("# %s\n", n.c_str());
  std::string cfg = "{";
  for (std::size_t i = 0; i < r.config.size(); ++i) {
    if (i) cfg += ", ";
    cfg += json_quote(r.config[i].first) + ": " + r.config[i].second;
  }
  cfg += "}";
  std::printf(
      "{\"stamp\": {\"workload\": %s, \"seed\": %llu, \"trace\": %d, "
      "\"host\": %s, \"config\": %s, \"samples\": %s}}\n",
      json_quote(workload).c_str(), static_cast<unsigned long long>(seed),
      trace, host_json().c_str(), cfg.c_str(),
      metrics_object(r.metrics, true).c_str());
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": %s}\n",
      r.correct ? "true" : "false",
      static_cast<unsigned long long>(r.attempted),
      static_cast<unsigned long long>(r.failed),
      metrics_object(r.metrics, false).c_str());
  std::fflush(stdout);
}

// ------------------------------------------------------------ json read --

namespace {

const Json kNullJson{};

struct Parser {
  std::string_view s;
  std::size_t i = 0;

  void ws() {
    while (i < s.size() && (s[i] == ' ' || s[i] == '\n' || s[i] == '\r' ||
                            s[i] == '\t')) {
      ++i;
    }
  }
  bool lit(std::string_view w) {
    if (s.substr(i, w.size()) != w) return false;
    i += w.size();
    return true;
  }
  bool str(std::string& out) {
    if (i >= s.size() || s[i] != '"') return false;
    ++i;
    while (i < s.size() && s[i] != '"') {
      if (s[i] == '\\') {
        if (++i >= s.size()) return false;
        switch (s[i]) {
          case 'n': out += '\n'; break;
          case 't': out += '\t'; break;
          case 'r': out += '\r'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'u': i += 4; out += '?'; break;  // names here are ASCII
          default: out += s[i];
        }
        ++i;
      } else {
        out += s[i++];
      }
    }
    if (i >= s.size()) return false;
    ++i;
    return true;
  }
  bool value(Json& v, int depth) {
    if (depth > 64) return false;
    ws();
    if (i >= s.size()) return false;
    const char c = s[i];
    if (c == '{') {
      v.type = Json::Type::kObject;
      ++i;
      ws();
      if (i < s.size() && s[i] == '}') return ++i, true;
      for (;;) {
        ws();
        std::string key;
        if (!str(key)) return false;
        ws();
        if (i >= s.size() || s[i] != ':') return false;
        ++i;
        Json member;
        if (!value(member, depth + 1)) return false;
        v.object.emplace_back(std::move(key), std::move(member));
        ws();
        if (i < s.size() && s[i] == ',') { ++i; continue; }
        if (i < s.size() && s[i] == '}') return ++i, true;
        return false;
      }
    }
    if (c == '[') {
      v.type = Json::Type::kArray;
      ++i;
      ws();
      if (i < s.size() && s[i] == ']') return ++i, true;
      for (;;) {
        Json item;
        if (!value(item, depth + 1)) return false;
        v.array.push_back(std::move(item));
        ws();
        if (i < s.size() && s[i] == ',') { ++i; continue; }
        if (i < s.size() && s[i] == ']') return ++i, true;
        return false;
      }
    }
    if (c == '"') {
      v.type = Json::Type::kString;
      return str(v.string);
    }
    if (lit("true") || lit("false")) {
      v.type = Json::Type::kBool;
      return true;
    }
    if (lit("null")) return true;
    const std::size_t start = i;
    while (i < s.size() && std::string_view{"+-.0123456789eE"}.find(s[i]) !=
                               std::string_view::npos) {
      ++i;
    }
    if (i == start) return false;
    v.type = Json::Type::kNumber;
    v.number = std::strtod(std::string{s.substr(start, i - start)}.c_str(), nullptr);
    return true;
  }
};

}  // namespace

const Json& Json::operator[](std::string_view key) const {
  for (const auto& [k, v] : object) {
    if (k == key) return v;
  }
  return kNullJson;
}

double Json::num(std::string_view path, double dflt) const {
  const Json* at = this;
  while (!path.empty()) {
    const std::size_t dot = path.find('.');
    at = &(*at)[path.substr(0, dot)];
    path = dot == std::string_view::npos ? std::string_view{} : path.substr(dot + 1);
  }
  return at->type == Type::kNumber ? at->number : dflt;
}

std::optional<Json> parse_json(std::string_view text) {
  Parser p{text};
  Json v;
  if (!p.value(v, 0)) return std::nullopt;
  p.ws();
  if (p.i != text.size()) return std::nullopt;
  return v;
}

double counter_sum(const Json& registry, std::string_view prefix) {
  double sum = 0;
  for (const auto& [name, v] : registry["counters"].object) {
    if (name.compare(0, prefix.size(), prefix) != 0) continue;
    sum += v.type == Json::Type::kNumber ? v.number : v.num("value");
  }
  return sum;
}

// ---------------------------------------------------------------- digest --

void PayloadStream::fill(std::uint8_t* out, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    if (left_ == 0) {
      std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
      z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
      z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
      word_ = z ^ (z >> 31);
      left_ = 8;
    }
    out[i] = static_cast<std::uint8_t>(word_);
    word_ >>= 8;
    --left_;
  }
}

// ------------------------------------------------------------------ host --

std::string host_json() {
  std::string cpu = "unknown";
  std::ifstream in{"/proc/cpuinfo"};
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) cpu = line.substr(colon + 2);
      break;
    }
  }
  std::ostringstream os;
  os << "{\"nproc\": " << std::thread::hardware_concurrency()
     << ", \"cpu\": " << json_quote(cpu)
     << ", \"compiler\": " << json_quote(PERFBENCH_COMPILER)
     << ", \"flags\": " << json_quote(PERFBENCH_CXX_FLAGS)
     << ", \"build_type\": " << json_quote(PERFBENCH_BUILD_TYPE) << "}";
  return os.str();
}

}  // namespace perfbench
