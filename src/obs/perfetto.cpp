#include "lamsdlc/obs/perfetto.hpp"

#include <cstdio>
#include <string>
#include <string_view>

namespace lamsdlc::obs {
namespace {

constexpr int kPid = 1;
constexpr int kSenderTid = static_cast<int>(Source::kLamsSender) + 1;
constexpr int kReceiverTid = static_cast<int>(Source::kLamsReceiver) + 1;

/// Trace-event timestamps are microseconds; emit the picosecond remainder as
/// fractional digits so nothing quantizes away.
std::string ts_us(Time t) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.6f", t.us());
  return buf;
}

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
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
  return out;
}

/// Emits one trace-event object per call, handling the comma discipline.
class EventSink {
 public:
  explicit EventSink(std::ostream& os) : os_{os} {}

  void meta_process_name(const char* name) {
    begin();
    os_ << R"({"ph":"M","pid":)" << kPid
        << R"(,"name":"process_name","args":{"name":")" << name << "\"}}";
  }
  void meta_thread_name(int tid, const char* name) {
    begin();
    os_ << R"({"ph":"M","pid":)" << kPid << R"(,"tid":)" << tid
        << R"(,"name":"thread_name","args":{"name":")" << name << "\"}}";
  }
  void async(char ph, const std::string& name, std::uint64_t id, int tid,
             Time at, const std::string& args = {}) {
    begin();
    os_ << R"({"ph":")" << ph << R"(","cat":"pkt","id":)" << id
        << R"(,"pid":)" << kPid << R"(,"tid":)" << tid << R"(,"ts":)"
        << ts_us(at) << R"(,"name":")" << json_escape(name) << '"';
    if (!args.empty()) os_ << R"(,"args":{)" << args << '}';
    os_ << '}';
  }
  void instant(const std::string& name, int tid, Time at,
               const std::string& args = {}) {
    begin();
    os_ << R"({"ph":"i","s":"t","pid":)" << kPid << R"(,"tid":)" << tid
        << R"(,"ts":)" << ts_us(at) << R"(,"name":")" << json_escape(name)
        << '"';
    if (!args.empty()) os_ << R"(,"args":{)" << args << '}';
    os_ << '}';
  }
  void counter(const std::string& name, Time at, const std::string& series,
               double value) {
    begin();
    char val[40];
    std::snprintf(val, sizeof val, "%.6g", value);
    os_ << R"({"ph":"C","pid":)" << kPid << R"(,"ts":)" << ts_us(at)
        << R"(,"name":")" << json_escape(name) << R"(","args":{")" << series
        << "\":" << val << "}}";
  }
  void flow(char ph, std::uint64_t id, int tid, Time at) {
    begin();
    os_ << R"({"ph":")" << ph << R"(","cat":"renumber","id":)" << id
        << R"(,"pid":)" << kPid << R"(,"tid":)" << tid << R"(,"ts":)"
        << ts_us(at) << R"(,"name":"renumber")";
    if (ph == 'f') os_ << R"(,"bp":"e")";
    os_ << '}';
  }

 private:
  void begin() {
    if (!first_) os_ << ",\n";
    first_ = false;
  }
  std::ostream& os_;
  bool first_ = true;
};

}  // namespace

void write_perfetto(std::ostream& os, const TraceBuilder& tb) {
  os << "{\"displayTimeUnit\":\"ms\",\n\"traceEvents\":[\n";
  EventSink sink{os};

  sink.meta_process_name("lamsdlc");
  for (std::uint8_t s = 0; s < kSourceCount; ++s) {
    sink.meta_thread_name(s + 1, to_string(static_cast<Source>(s)));
  }

  for (const auto& [id, t] : tb.packets()) {
    if (t.attempts.empty()) continue;
    const std::string pname = "pkt " + std::to_string(id);
    // Outer span: admission (or first send) to release (or last observed
    // instant) — the packet's whole residence in the protocol.
    const Time open = t.admitted.value_or(t.attempts.front().sent);
    Time close = t.attempts.back().sent;
    if (t.attempts.back().received && close < *t.attempts.back().received) {
      close = *t.attempts.back().received;
    }
    if (t.delivered && close < *t.delivered) close = *t.delivered;
    if (t.released && close < *t.released) close = *t.released;
    sink.async('b', pname, id, kSenderTid, open,
               "\"attempts\":" + std::to_string(t.attempts.size()) +
                   ",\"complete\":" + (t.complete() ? "true" : "false"));

    for (std::size_t i = 0; i < t.attempts.size(); ++i) {
      const TraceAttempt& a = t.attempts[i];
      const std::string aname =
          pname + " attempt " + std::to_string(a.number);
      // Inner slice: this copy's time on the books — send until the next
      // attempt supersedes it (failed copy) or until delivery/receipt.
      Time end = i + 1 < t.attempts.size() ? t.attempts[i + 1].sent
                 : t.delivered             ? *t.delivered
                 : a.received              ? *a.received
                                           : a.sent;
      if (end < a.sent) end = a.sent;
      sink.async('b', aname, id, kSenderTid, a.sent,
                 "\"ctr\":" + std::to_string(a.ctr));
      if (a.nak) {
        sink.instant("NAK ctr=" + std::to_string(a.ctr), kReceiverTid, *a.nak);
      }
      if (a.retx_queued) {
        sink.instant("retx claim ctr=" + std::to_string(a.ctr), kSenderTid,
                     *a.retx_queued);
      }
      sink.async('e', aname, id, kSenderTid, end);
      if (i + 1 < t.attempts.size()) {
        // Flow arrow: failed copy -> renumbered successor (the visual form
        // of kRetransmitMapped).  Unique id per arrow.
        const std::uint64_t fid = id * 1024 + a.number;
        sink.flow('s', fid, kSenderTid, end);
        sink.flow('f', fid, kSenderTid, t.attempts[i + 1].sent);
      }
    }
    if (t.delivered) {
      sink.instant(pname + " delivered", kReceiverTid, *t.delivered);
    }
    if (t.released) {
      sink.instant(pname + " released", kSenderTid, *t.released,
                   "\"holding_ms\":" +
                       std::to_string(static_cast<double>(t.holding_ps) * 1e-9));
    }
    sink.async('e', pname, id, kSenderTid, close);
  }

  for (const CheckpointMark& cp : tb.checkpoints()) {
    sink.instant((cp.enforced ? "enforced-NAK cp=" : "checkpoint cp=") +
                     std::to_string(cp.cp_seq),
                 kReceiverTid, cp.at,
                 "\"naks\":" + std::to_string(cp.nak_count));
  }
  // Recovery episodes render as duration spans: a span opens when the sender
  // leaves normal mode and closes when it returns to normal (or declares
  // failure).  Mode changes *within* an episode (enforced -> resyncing) keep
  // the span open; the per-transition instants below carry the reasons.
  {
    // Id space disjoint from the packet spans (pkt id) and flow arrows
    // (id*1024+attempt) above.
    constexpr std::uint64_t kRecoverySpanBase = 1ULL << 48;
    std::uint64_t episode = 0;
    bool open = false;
    for (const RecoveryMark& r : tb.recoveries()) {
      sink.instant(std::string{"recovery "} + to_string(r.from) + "->" +
                       to_string(r.to),
                   kSenderTid, r.at,
                   std::string{"\"reason\":\""} + to_string(r.reason) + '"');
      const bool terminal =
          r.to == SenderMode::kNormal || r.to == SenderMode::kFailed;
      if (!open && !terminal) {
        open = true;
        // Same name as the matching 'e' below: viewers (and
        // scripts/check_perfetto.py) pair async events by (cat, id, name).
        sink.async('b', std::string{"recovery"},
                   kRecoverySpanBase + episode, kSenderTid, r.at,
                   std::string{"\"reason\":\""} + to_string(r.reason) +
                       "\",\"entered\":\"" + to_string(r.to) + '"');
      } else if (open && terminal) {
        open = false;
        sink.async('e', std::string{"recovery"}, kRecoverySpanBase + episode,
                   kSenderTid, r.at,
                   std::string{"\"outcome\":\""} + to_string(r.to) + '"');
        ++episode;
      }
    }
    if (open) {
      // Run ended mid-episode: close the span at its last transition so the
      // trace stays well-formed.
      const RecoveryMark& last = tb.recoveries().back();
      sink.async('e', std::string{"recovery"}, kRecoverySpanBase + episode,
                 kSenderTid, last.at, "\"outcome\":\"truncated\"");
    }
  }
  for (const OccupancyPoint& o : tb.occupancy()) {
    sink.counter(std::string{to_string(o.source)} + "." + to_string(o.which),
                 o.at, "depth", static_cast<double>(o.depth));
  }
  for (const SamplePoint& s : tb.samples()) {
    sink.counter(s.name, s.at, s.is_counter ? "count" : "value", s.value);
  }

  os << "\n]}\n";
}

}  // namespace lamsdlc::obs
