// daemon_mix: two in-process `rt::Daemon`s over real loopback UDP at the
// deployed `DaemonConfig` defaults, driven by one closed-loop load
// generator on this thread: a bulk bridge client (back-to-back 32 MB
// streams), two short-stream clients (back-to-back 16 KiB streams) and a
// `metrics` scraper at a fixed rate.

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <pthread.h>
#include <sched.h>
#include <sys/socket.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <system_error>
#include <thread>
#include <vector>

#include "lamsdlc/rt/daemon.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

namespace rt = lamsdlc::rt;

struct MixConfig {
  std::size_t bulk_bytes = 32u << 20;
  std::size_t short_bytes = 16u << 10;
  int short_clients = 2;
  double scrape_hz = 20;
  int pairs = 6;             // sub-runs per run, each on a fresh daemon pair
  int setups = 10;           // daemon pairs built per sub-run (set-up median)
  double drain_limit_s = 10; // in-flight streams may finish after the window
};

// ------------------------------------------------------------- sockets --

int connect_local(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) < 0) {
    ::close(fd);
    return -1;
  }
  ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL, 0) | O_NONBLOCK);
  return fd;
}

// ------------------------------------------------------------- daemons --

void pin_to_cpu(int cpu) {
  if (cpu < 0) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  ::pthread_setaffinity_np(::pthread_self(), sizeof set, &set);
}

/// One daemon on its own thread.  `stop()` is requested through a pipe the
/// daemon's own loop watches, so the stop runs on the loop thread.
class DaemonThread {
 public:
  explicit DaemonThread(const rt::DaemonConfig& cfg) : daemon_{cfg} {
    daemon_.start();
    if (::pipe(wake_) != 0) throw std::system_error(errno, std::generic_category());
    daemon_.loop().watch_fd(wake_[0], [this] { daemon_.stop(); });
  }
  ~DaemonThread() {
    try {
      join();
    } catch (const std::exception& e) {
      std::fprintf(stderr, "perfbench: daemon thread: %s\n", e.what());
    }
    ::close(wake_[0]);
    ::close(wake_[1]);
  }
  DaemonThread(const DaemonThread&) = delete;
  DaemonThread& operator=(const DaemonThread&) = delete;

  /// Run the daemon on a new thread, pinned to \p cpu when non-negative.
  void launch(int cpu) {
    thread_ = std::thread{[this, cpu] {
      pin_to_cpu(cpu);
      try {
        daemon_.run();
      } catch (...) {
        error_ = std::current_exception();
      }
      timespec ts{};
      ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
      cpu_s_ = static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
    }};
  }
  void join() {
    if (!thread_.joinable()) return;
    const char b = 1;
    while (::write(wake_[1], &b, 1) < 0 && errno == EINTR) {
    }
    thread_.join();
    if (error_) std::rethrow_exception(std::exchange(error_, nullptr));
  }
  [[nodiscard]] rt::Daemon& daemon() { return daemon_; }
  /// CPU time of the daemon thread; valid after join().
  [[nodiscard]] double cpu_s() const { return cpu_s_; }

 private:
  rt::Daemon daemon_;
  int wake_[2] = {-1, -1};
  std::thread thread_;  // declared after what it uses
  std::exception_ptr error_;
  double cpu_s_ = 0;
};

struct Pair {
  std::unique_ptr<DaemonThread> rx;  // delivers into the work directory
  std::unique_ptr<DaemonThread> tx;  // bridge + status port
};

Pair start_pair(const rt::DaemonConfig& base, const std::string& dir) {
  Pair p;
  rt::DaemonConfig rx = base;
  rx.deliver_dir = dir;
  rx.recorder_dir = dir;
  p.rx = std::make_unique<DaemonThread>(rx);
  rt::DaemonConfig tx = base;
  tx.peer_host = "127.0.0.1";
  tx.peer_port = p.rx->daemon().udp_port();
  tx.bridge = true;
  tx.status = true;
  tx.recorder_dir = dir;
  p.tx = std::make_unique<DaemonThread>(tx);
  return p;
}

// ----------------------------------------------------------- the load --

enum class Kind { kBulk, kShort, kScrape };

struct Op {
  Kind kind = Kind::kShort;
  std::size_t bytes = 0;      // stream payload size
  std::uint64_t digest = 0;   // FNV-1a of the payload sent
  double t_start = 0;
  double t_end = 0;
  bool ok = false;
  std::string cause;          // why it failed
  std::size_t reply_bytes = 0;
};

struct Conn {
  std::size_t op = 0;  // index into MixRun::ops
  int fd = -1;
  std::size_t sent = 0;
  bool writing = true;
  PayloadStream gen{0};
  std::vector<std::uint8_t> buf;
  std::size_t buf_off = 0;
  std::string reply;
};

struct MixRun {
  std::vector<Op> ops;
  double t0 = 0;        // first op started
  double t_last = 0;    // last op finished
  double wall_s = 0;    // daemon threads' running time
  double tx_cpu_s = 0;
  double rx_cpu_s = 0;
  double rss_after_setup_kb = 0;
  double rss_end_kb = 0;
  std::string tx_status;  // status documents taken after the run
  std::string rx_status;
  std::uint64_t events = 0;
  std::size_t heap_pending = 0;
  std::size_t heap_entries = 0;
  double collect_s = 0;   // time spent reading the documents above
  // Output verification.
  std::uint64_t files = 0;
  std::uint64_t incomplete_files = 0;
  std::vector<std::string> mismatches;
};

class LoadGen {
 public:
  /// \p expect_body: the scraped registry has series (telemetry on), so an
  /// empty `metrics` response is a failed scrape.
  LoadGen(MixRun& run, const MixConfig& mix, std::uint64_t seed,
          std::uint16_t bridge, std::uint16_t status, bool expect_body)
      : run_{run}, mix_{mix}, seed_{seed}, bridge_{bridge}, status_{status},
        expect_body_{expect_body} {}

  void drive(double seconds) {
    const double start = now_s();
    const double window_end = start + seconds;
    const double drain_end = window_end + mix_.drain_limit_s;
    double next_scrape = start;
    run_.t0 = start;
    for (;;) {
      const double now = now_s();
      if (now < window_end) {
        if (!busy(Kind::kBulk)) open_stream(Kind::kBulk, mix_.bulk_bytes);
        for (int k = count(Kind::kShort); k < mix_.short_clients; ++k) {
          open_stream(Kind::kShort, mix_.short_bytes);
        }
        if (now >= next_scrape && !busy(Kind::kScrape)) {
          open_scrape();
          next_scrape += 1.0 / mix_.scrape_hz;
          if (next_scrape < now) next_scrape = now;  // never burst to catch up
        }
      } else if (conns_.empty()) {
        break;
      } else if (now > drain_end) {
        for (Conn& c : conns_) end(c, false, "still running at drain limit");
        conns_.clear();
        break;
      }
      std::vector<pollfd> pfds;
      for (const Conn& c : conns_) {
        pfds.push_back({c.fd, static_cast<short>(POLLIN | (c.writing ? POLLOUT : 0)), 0});
      }
      double wake = now + 0.05;
      if (now < window_end) {
        wake = std::min(wake, window_end);
        if (!busy(Kind::kScrape)) wake = std::min(wake, next_scrape);
      }
      const int timeout_ms = std::clamp(static_cast<int>(std::ceil((wake - now) * 1e3)), 0, 50);
      const int n = ::poll(pfds.data(), pfds.size(), timeout_ms);
      if (n < 0 && errno != EINTR) throw std::system_error(errno, std::generic_category());
      for (std::size_t i = 0; i < pfds.size(); ++i) {
        if (pfds[i].revents == 0) continue;
        Conn& c = conns_[i];
        if (c.writing && (pfds[i].revents & (POLLOUT | POLLERR | POLLHUP))) pump(c);
        if (c.fd >= 0 && (pfds[i].revents & (POLLIN | POLLERR | POLLHUP))) read_reply(c);
      }
      std::erase_if(conns_, [](const Conn& c) { return c.fd < 0; });
    }
    run_.t_last = now_s();
  }

 private:
  [[nodiscard]] int count(Kind k) const {
    int n = 0;
    for (const Conn& c : conns_) n += run_.ops[c.op].kind == k ? 1 : 0;
    return n;
  }
  [[nodiscard]] bool busy(Kind k) const { return count(k) > 0; }

  void open_stream(Kind kind, std::size_t bytes) {
    Op op;
    op.kind = kind;
    op.bytes = bytes;
    op.t_start = now_s();
    run_.ops.push_back(op);
    Conn c;
    c.op = run_.ops.size() - 1;
    // Payload bytes are a function of the run seed and the stream index.
    c.gen = PayloadStream{seed_ * 0x100000001B3ULL + run_.ops.size()};
    run_.ops[c.op].digest = 14695981039346656037ULL;
    c.fd = connect_local(bridge_);
    if (c.fd < 0) {
      end(c, false, std::string("bridge connect: ") + std::strerror(errno));
      return;
    }
    conns_.push_back(std::move(c));
  }

  void open_scrape() {
    Op op;
    op.kind = Kind::kScrape;
    op.t_start = now_s();
    run_.ops.push_back(op);
    Conn c;
    c.op = run_.ops.size() - 1;
    c.writing = false;
    c.fd = connect_local(status_);
    if (c.fd < 0) {
      end(c, false, std::string("status connect: ") + std::strerror(errno));
      return;
    }
    static const char verb[] = "metrics\n";
    if (::send(c.fd, verb, sizeof verb - 1, MSG_NOSIGNAL) != sizeof verb - 1) {
      end(c, false, "scrape request not sent");
      return;
    }
    conns_.push_back(std::move(c));
  }

  /// Write as much payload as the socket takes; half-close when done.
  void pump(Conn& c) {
    Op& op = run_.ops[c.op];
    while (c.sent < op.bytes) {
      if (c.buf_off == c.buf.size()) {
        const std::size_t n = std::min<std::size_t>(64u << 10, op.bytes - c.sent);
        c.buf.resize(n);
        c.gen.fill(c.buf.data(), n);
        op.digest = fnv1a(c.buf.data(), n, op.digest);
        c.buf_off = 0;
      }
      const ssize_t w = ::send(c.fd, c.buf.data() + c.buf_off,
                               c.buf.size() - c.buf_off, MSG_NOSIGNAL);
      if (w < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK) return;
        if (errno == EINTR) continue;
        end(c, false, std::string("write: ") + std::strerror(errno));
        return;
      }
      c.buf_off += static_cast<std::size_t>(w);
      c.sent += static_cast<std::size_t>(w);
    }
    ::shutdown(c.fd, SHUT_WR);
    c.writing = false;
  }

  void read_reply(Conn& c) {
    Op& op = run_.ops[c.op];
    char buf[16384];
    for (;;) {
      const ssize_t n = ::read(c.fd, buf, sizeof buf);
      if (n < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK) return;
        if (errno == EINTR) continue;
        end(c, false, std::string("read: ") + std::strerror(errno));
        return;
      }
      if (n == 0) break;
      if (op.kind == Kind::kScrape) {
        op.reply_bytes += static_cast<std::size_t>(n);
      } else {
        c.reply.append(buf, static_cast<std::size_t>(n));
        if (c.reply.find('\n') != std::string::npos) break;
      }
    }
    if (op.kind == Kind::kScrape) {
      end(c, op.reply_bytes > 0 || !expect_body_, "empty metrics response");
      return;
    }
    const std::string line = c.reply.substr(0, c.reply.find('\n'));
    if (line.rfind("OK ", 0) == 0) {
      const std::size_t n = std::strtoull(line.c_str() + 3, nullptr, 10);
      if (c.writing || n != op.bytes) {
        end(c, false, "short: '" + line + "' after " + std::to_string(c.sent) +
                          " of " + std::to_string(op.bytes) + " bytes");
      } else {
        end(c, true, "");
      }
    } else if (line.empty()) {
      end(c, false, "closed without a status line after " +
                        std::to_string(c.sent) + " bytes");
    } else {
      end(c, false, "'" + line + "' after " + std::to_string(c.sent) + " bytes");
    }
  }

  void end(Conn& c, bool ok, const std::string& cause) {
    Op& op = run_.ops[c.op];
    op.t_end = now_s();
    op.ok = ok;
    if (!ok) op.cause = cause;
    if (c.fd >= 0) ::close(c.fd);
    c.fd = -1;
  }

  MixRun& run_;
  const MixConfig& mix_;
  std::uint64_t seed_;
  std::uint16_t bridge_;
  std::uint16_t status_;
  bool expect_body_;
  std::vector<Conn> conns_;
};

/// Match every delivered `.bin` file to a stream the daemon confirmed `OK`
/// by length and digest, then delete it.  Mismatches are output errors.
void verify_deliveries(MixRun& run, const std::string& dir,
                       bool corrupt_expected) {
  std::multimap<std::pair<std::size_t, std::uint64_t>, std::size_t> expected;
  bool corrupted = false;
  for (std::size_t i = 0; i < run.ops.size(); ++i) {
    const Op& op = run.ops[i];
    if (op.kind == Kind::kScrape || !op.ok) continue;
    std::uint64_t digest = op.digest;
    if (corrupt_expected && !corrupted) {
      digest ^= 1;
      corrupted = true;
    }
    expected.emplace(std::make_pair(op.bytes, digest), i);
  }
  std::vector<char> buf(1u << 20);
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    const std::string path = entry.path().string();
    const std::string name = entry.path().filename().string();
    if (name.rfind("stream-", 0) != 0) continue;
    ++run.files;
    if (entry.path().extension() != ".bin") {
      // A stream the receiver could not complete (.part / .err): the
      // sender side counts it as failed; its bytes are not checked.
      ++run.incomplete_files;
      std::filesystem::remove(entry.path());
      continue;
    }
    std::ifstream in{path, std::ios::binary};
    std::uint64_t h = 14695981039346656037ULL;
    std::size_t len = 0;
    while (in) {
      in.read(buf.data(), static_cast<std::streamsize>(buf.size()));
      const auto got = static_cast<std::size_t>(in.gcount());
      h = fnv1a(reinterpret_cast<const std::uint8_t*>(buf.data()), got, h);
      len += got;
    }
    const auto it = expected.find({len, h});
    if (it == expected.end()) {
      run.mismatches.push_back(name + ": " + std::to_string(len) +
                               " bytes match no stream confirmed OK");
    } else {
      expected.erase(it);
    }
    std::filesystem::remove(entry.path());
  }
  for (const auto& [key, idx] : expected) {
    run.mismatches.push_back("stream " + std::to_string(idx) + " (" +
                             std::to_string(key.first) +
                             " bytes) confirmed OK but no matching file");
  }
}

/// Build `mix.setups` daemon pairs (timing construct + start of both until
/// the bridge listens, in reference-host seconds), then run the load on the
/// last pair for \p seconds.
MixRun run_mix(const rt::DaemonConfig& base, const MixConfig& mix,
               std::uint64_t seed, double seconds, const std::string& dir,
               bool corrupt_expected, std::vector<double>* setup_times) {
  MixRun run;
  std::filesystem::create_directories(dir);
  Pair p;
  for (int i = 0; i < mix.setups; ++i) {
    p = Pair{};
    // Set-up is CPU work on this thread: scaled to the reference host like
    // the constellation times (README.md, "Host-speed normalisation").
    const double before = host_tick_s();
    const double t0 = now_s();
    p = start_pair(base, dir);
    const double dt = now_s() - t0;
    const double after = host_tick_s();
    if (p.tx->daemon().bridge_port() == 0) throw std::runtime_error("no bridge port");
    if (setup_times) setup_times->push_back(dt * host_speed((before + after) / 2));
  }
  run.rss_after_setup_kb = current_rss_kb();
  const double t_launch = now_s();
  // Load generator, receiver and sender each get a core of their own when
  // there are enough: unpinned, the scheduler's placement of the three
  // busy threads varied from run to run and so did every figure.
  const bool pin = std::thread::hardware_concurrency() >= 3;
  pin_to_cpu(pin ? 0 : -1);
  p.rx->launch(pin ? 1 : -1);
  p.tx->launch(pin ? 2 : -1);
  LoadGen gen{run, mix, seed, p.tx->daemon().bridge_port(),
              p.tx->daemon().status_port(), base.telemetry};
  try {
    gen.drive(seconds);
  } catch (...) {
    p.tx->join();
    p.rx->join();
    throw;
  }
  run.rss_end_kb = current_rss_kb();
  p.tx->join();
  p.rx->join();
  run.wall_s = now_s() - t_launch;
  run.tx_cpu_s = p.tx->cpu_s();
  run.rx_cpu_s = p.rx->cpu_s();

  // Counters the daemons publish, read after their threads have ended.
  const double c0 = now_s();
  run.tx_status = p.tx->daemon().status_json();
  run.rx_status = p.rx->daemon().status_json();
  for (DaemonThread* d : {p.tx.get(), p.rx.get()}) {
    const auto& k = d->daemon().loop().sim();
    run.events += k.events_executed();
    run.heap_pending += k.events_pending();
    run.heap_entries += k.heap_entries();
  }
  run.collect_s = now_s() - c0;
  p = Pair{};
  verify_deliveries(run, dir, corrupt_expected);
  return run;
}

/// Figures pooled over the sub-runs of one phase.
struct MixFigures {
  double window_s = 0;      // summed load windows
  double chunks = 0;        // payload chunks of completed streams
  double delivered_mb = 0;
  double bulk_bits = 0;
  double bulk_span_s = 0;   // first bulk start to last bulk end, summed
  double cpu_s = 0;         // both daemon threads
  std::vector<double> short_ms;
  std::vector<double> scrape_ms;
  std::vector<double> scrape_bytes;

  void add(const MixRun& run, std::uint32_t chunk_bytes) {
    double bulk_first = -1;
    double bulk_last = 0;
    for (const Op& op : run.ops) {
      if (!op.ok) continue;
      if (op.kind == Kind::kScrape) {
        scrape_ms.push_back((op.t_end - op.t_start) * 1e3);
        scrape_bytes.push_back(static_cast<double>(op.reply_bytes));
        continue;
      }
      delivered_mb += static_cast<double>(op.bytes) / 1e6;
      chunks += static_cast<double>((op.bytes + chunk_bytes - 1) / chunk_bytes);
      if (op.kind == Kind::kShort) {
        short_ms.push_back((op.t_end - op.t_start) * 1e3);
      } else {
        bulk_bits += static_cast<double>(op.bytes) * 8;
        if (bulk_first < 0) bulk_first = op.t_start;
        bulk_last = std::max(bulk_last, op.t_end);
      }
    }
    if (bulk_first >= 0) bulk_span_s += bulk_last - bulk_first;
    window_s += run.t_last - run.t0;
    cpu_s += run.tx_cpu_s + run.rx_cpu_s;
  }
  [[nodiscard]] double pkts_per_s() const { return chunks / window_s; }
  [[nodiscard]] double bulk_mbps() const {
    return bulk_span_s > 0 ? bulk_bits / bulk_span_s / 1e6 : 0;
  }
  [[nodiscard]] double cpu_ms_per_mb() const { return cpu_s * 1e3 / delivered_mb; }
};

/// Count operations and failures into \p r; note each failure's cause and
/// fail the output check on any delivery mismatch.
void account(Result& r, const MixRun& run, const char* phase) {
  for (std::size_t i = 0; i < run.ops.size(); ++i) {
    const Op& op = run.ops[i];
    ++r.attempted;
    if (op.ok) continue;
    ++r.failed;
    const char* kind = op.kind == Kind::kBulk    ? "bulk stream"
                       : op.kind == Kind::kShort ? "short stream"
                                                 : "scrape";
    r.notes.push_back(std::string(phase) + ": " + kind + " " +
                      std::to_string(i) + " failed: " + op.cause);
  }
  for (const std::string& m : run.mismatches) r.fail_check(std::string(phase) + ": " + m);
  r.notes.push_back(std::string(phase) + ": " + std::to_string(run.ops.size()) +
                    " operations, " + std::to_string(run.files) +
                    " delivered files checked (" +
                    std::to_string(run.incomplete_files) + " incomplete)");
}

void stamp_config(Result& r, const rt::DaemonConfig& base, const MixConfig& mix) {
  r.set("data_rate_bps", base.data_rate_bps);
  r.set("chunk_bytes", base.chunk_bytes);
  r.set("stream_buffer_packets", static_cast<double>(base.stream_buffer_packets));
  r.set("max_one_way_s", base.max_one_way.sec());
  r.set("telemetry", base.telemetry ? 1.0 : 0.0);
  r.set("recorder_events", static_cast<double>(base.recorder_events));
  r.set("status_sample_period_s", base.status_sample_period.sec());
  r.set("bulk_stream_bytes", static_cast<double>(mix.bulk_bytes));
  r.set("short_stream_bytes", static_cast<double>(mix.short_bytes));
  r.set("bulk_clients", 1);
  r.set("short_clients", mix.short_clients);
  r.set("scrape_hz", mix.scrape_hz);
  r.set("scrape_verb", std::string("metrics"));
  r.set("pairs_per_run", mix.pairs);
  r.set("setups_per_pair", mix.setups);
}

double registry_series(const Json& reg) {
  return static_cast<double>(reg["counters"].object.size() +
                             reg["gauges"].object.size() +
                             reg["histograms"].object.size());
}

}  // namespace

Result run_daemon_mix(const Args& a) {
  MixConfig mix;
  if (a.smoke) {
    mix.bulk_bytes = 1u << 20;
    mix.setups = 2;
  }
  rt::DaemonConfig base;  // deployed defaults
  Result r;
  stamp_config(r, base, mix);
  const std::string dir = ".perfbench_run/daemon_mix-" + std::to_string(::getpid());

  struct Cleanup {
    std::string dir;
    ~Cleanup() {
      std::error_code ec;
      std::filesystem::remove_all(dir, ec);
      std::filesystem::remove(".perfbench_run", ec);  // only when empty
    }
  } cleanup{dir};

  // The run is split into `mix.pairs` sub-runs, each on a fresh daemon
  // pair (README: the daemons slow down as finished sessions accumulate).
  const double sub_s = a.seconds / mix.pairs;
  std::vector<double> setups;
  const auto sub_run = [&](const rt::DaemonConfig& cfg, const char* phase,
                           MixFigures& f) {
    MixRun run = run_mix(cfg, mix, a.seed, sub_s, dir, a.corrupt_expected_digest,
                         &setups);
    account(r, run, phase);
    f.add(run, cfg.chunk_bytes);
    return run;
  };

  if (a.trace == 0) {
    MixFigures f;
    for (int i = 0; i < mix.pairs; ++i) sub_run(base, "mix", f);
    r.add("setup_s", median(setups), "s", setups.size());
    r.add("delivered_pkts_per_s", f.pkts_per_s(), "pkt/s", mix.pairs);
    r.add("bulk_goodput_mbps", f.bulk_mbps(), "Mbit/s", mix.pairs);
    r.add("cpu_ms_per_mb", f.cpu_ms_per_mb(), "ms/MB", mix.pairs);
    r.add("peak_rss_mb", peak_rss_mb(), "MB");
    r.add("op_p50_ms", quantile(f.short_ms, 0.5), "ms", f.short_ms.size());
    r.add("op_tail_ms", tail_mean(f.short_ms, 0.9), "ms", f.short_ms.size());
    r.add("scrape_p50_ms", quantile(f.scrape_ms, 0.5), "ms", f.scrape_ms.size());
    r.add("scrape_p90_ms", quantile(f.scrape_ms, 0.9), "ms", f.scrape_ms.size());
    return r;
  }

  // Traced: the same sub-runs, alternating telemetry on (per-layer counters
  // read after each window) and `DaemonConfig::telemetry = false`.
  rt::DaemonConfig quiet = base;
  quiet.telemetry = false;
  MixFigures f_on;
  MixFigures f_off;
  MixRun on;
  for (int i = 0; i < mix.pairs; ++i) {
    if (i % 2 == 0) {
      MixRun run = sub_run(base, "telemetry on", f_on);
      if (i == 0) on = std::move(run);
    } else {
      sub_run(quiet, "telemetry off", f_off);
    }
  }

  const auto tx = parse_json(on.tx_status);
  const auto rx = parse_json(on.rx_status);
  if (!tx || !rx) r.fail_check("daemon status document does not parse");
  const Json txs = tx.value_or(Json{});
  const Json rxs = rx.value_or(Json{});
  const Json& treg = txs["registry"];
  const Json& rreg = rxs["registry"];
  const double iframes = counter_sum(treg, "lams.sender.iframe_tx");
  const double retx = counter_sum(treg, "lams.sender.iframe_retx");
  const double delivered = counter_sum(rreg, "lams.receiver.packets_delivered");
  const double checkpoints = counter_sum(rreg, "lams.receiver.checkpoints_emitted");
  const double control = checkpoints + counter_sum(treg, "lams.sender.control_tx");
  const double timer_arms = counter_sum(treg, "lams.sender.timer_armed.") +
                            counter_sum(rreg, "lams.receiver.timer_armed.");
  const double events = static_cast<double>(on.events);
  const double streams = static_cast<double>(std::count_if(
      on.ops.begin(), on.ops.end(), [](const Op& op) { return op.kind != Kind::kScrape; }));

  r.add("core.events", events, "count");
  r.add("core.ns_per_event", (on.tx_cpu_s + on.rx_cpu_s) * 1e9 / events, "ns");
  r.add("core.heap_stale_share",
        on.heap_entries ? 1.0 - static_cast<double>(on.heap_pending) /
                                    static_cast<double>(on.heap_entries)
                        : 0,
        "ratio");
  r.add("link.frames", iframes + control, "count");
  r.add("lams.retx_ratio", iframes > 0 ? retx / iframes : 0, "ratio");
  r.add("lams.checkpoints_per_delivered", checkpoints / delivered, "ratio");
  r.add("lams.timer_arms_per_delivered", timer_arms / delivered, "ratio");
  // One data datagram: the chunk plus frame and envelope headers.
  const std::size_t datagram = base.chunk_bytes + 64;
  r.add("frame.wire_ns_per_datagram", frame_wire_ns_per_datagram(base.chunk_bytes), "ns");
  r.add("rt.udp_send_ns", udp_send_ns(datagram), "ns");
  r.add("rt.tx_busy_share", on.tx_cpu_s / on.wall_s, "ratio");
  r.add("rt.rx_busy_share", on.rx_cpu_s / on.wall_s, "ratio");
  r.add("rt.loop_lateness_p99_us", txs.num("loop.lateness_us.p99"), "us");
  r.add("rt.sessions_retained",
        static_cast<double>(txs["sessions_out"].array.size() +
                            txs["sessions_in"].array.size() +
                            rxs["sessions_out"].array.size() +
                            rxs["sessions_in"].array.size()),
        "count");
  r.add("rt.rss_kb_per_finished_stream",
        (on.rss_end_kb - on.rss_after_setup_kb) / std::max(1.0, streams), "KB");
  r.add("rt.stream_buffer_high_water",
        treg["histograms"]["lams.sender.send_buffer_depth_hist"].num("max"), "count");
  r.add("obs.registry_series", registry_series(treg), "count");
  r.add("obs.metrics_bytes", median(f_on.scrape_bytes), "bytes", f_on.scrape_bytes.size());
  r.add("obs.telemetry_cpu_share", 1.0 - f_off.cpu_ms_per_mb() / f_on.cpu_ms_per_mb(),
        "ratio");
  r.add("trace.overhead", on.collect_s / (on.t_last - on.t0), "ratio");
  return r;
}

}  // namespace perfbench
