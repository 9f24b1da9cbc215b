#include "lamsdlc/obs/flight_recorder.hpp"

#include <algorithm>
#include <fstream>

#include "lamsdlc/obs/capture.hpp"

namespace lamsdlc::obs {

FlightRecorder::FlightRecorder(Config cfg) : cfg_{std::move(cfg)} {
  if (cfg_.capacity == 0) cfg_.capacity = 1;
}

bool FlightRecorder::is_anomaly(const Event& e) noexcept {
  switch (e.kind) {
    case EventKind::kSelfAuditFailed:
    case EventKind::kResyncInitiated:
      return true;
    case EventKind::kRecoveryTransition:
      // Bounded-retry teardown: the sender gave up and declared the link
      // failed (RESYNC retries exhausted, failure timer, lifetime, ...).
      return e.p.recovery.to == SenderMode::kFailed;
    default:
      return false;
  }
}

void FlightRecorder::record(const Event& e) {
  if (ring_.size() < cfg_.capacity) {
    // Still filling: grow by doubling, but never past the capacity.
    if (ring_.size() == ring_.capacity()) {
      ring_.reserve(std::min(cfg_.capacity,
                             std::max<std::size_t>(16, 2 * ring_.size())));
    }
    ring_.push_back(e);
  } else {
    ring_[next_] = e;
    next_ = next_ + 1 == ring_.size() ? 0 : next_ + 1;
  }
  ++recorded_;

  if (!is_anomaly(e) || cfg_.dump_prefix.empty()) return;
  if (dumps_ >= cfg_.max_dumps ||
      (dumped_once_ && e.at < last_dump_at_ + cfg_.min_dump_gap)) {
    ++suppressed_;
    return;
  }
  const std::string path = cfg_.dump_prefix + "-" +
                           std::to_string(dumps_ + 1) + ".ldlcap";
  if (!dump_to_file(path)) return;
  ++dumps_;
  dumped_once_ = true;
  last_dump_at_ = e.at;
  last_dump_path_ = path;
}

void FlightRecorder::dump(std::ostream& os) const {
  CaptureWriter writer{os};
  // Oldest event first: slot `next_` (slot 0 until the ring has wrapped).
  for (std::size_t i = 0; i < ring_.size(); ++i) {
    writer.write(ring_[(next_ + i) % ring_.size()]);
  }
}

bool FlightRecorder::dump_to_file(const std::string& path) const {
  std::ofstream os{path, std::ios::binary | std::ios::trunc};
  if (!os) return false;
  dump(os);
  os.flush();
  return static_cast<bool>(os);
}

}  // namespace lamsdlc::obs
