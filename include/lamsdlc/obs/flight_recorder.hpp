#pragma once
/// \file flight_recorder.hpp
/// \brief Always-on black-box event ring with anomaly-triggered dumps.
///
/// Post-mortem capture (`capture.hpp`) answers "what happened" only when
/// somebody thought to enable it *before* the incident.  A `FlightRecorder`
/// closes that gap the way an aircraft black box does: it is an `EventBus`
/// subscriber that keeps the most recent events in a bounded ring at
/// steady-state cost of one copy per event (no allocation, no I/O), and when
/// an anomaly trigger fires it writes the ring — a valid `.ldlcap` v3 file —
/// to disk, so `lamsdlc_cli trace --explain` works on a live incident that
/// nobody was capturing.
///
/// Anomaly triggers (`is_anomaly`):
///   - `kSelfAuditFailed`       — a runtime self-audit invariant tripped;
///   - `kResyncInitiated`       — an endpoint entered RESYNC recovery;
///   - `kRecoveryTransition` to `SenderMode::kFailed` — bounded-retry
///     teardown: the link was declared dead.
///
/// Dumps are rate-limited two ways: at most `max_dumps` per recorder
/// lifetime, and at least `min_dump_gap` of event time between dumps (one
/// incident tends to fire several triggers back to back; the first dump
/// already holds them all).  Dumping is deterministic and byte-stable:
/// writing the same ring twice produces identical bytes (each dump is a
/// self-contained capture whose timestamp deltas restart from zero).
///
/// The daemon attaches one recorder per session bus (`docs/OBSERVABILITY.md`
/// "Live telemetry"); tests drive `record()`/`dump()` directly.

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "lamsdlc/core/time.hpp"
#include "lamsdlc/obs/bus.hpp"
#include "lamsdlc/obs/event.hpp"

namespace lamsdlc::obs {

class FlightRecorder {
 public:
  struct Config {
    /// Ring capacity in events.  The ring grows on demand up to this bound,
    /// so a short session holds only the events it produced; full, 4096
    /// events × 80 B = 320 KB and, at the daemon's event rates, several
    /// seconds of history around an anomaly.
    std::size_t capacity = 4096;
    /// Auto-dump file prefix; the n-th dump writes
    /// `<prefix>-<n>.ldlcap`.  Empty disables auto-dumps (ring + manual
    /// `dump()` still work).
    std::string dump_prefix;
    /// Lifetime cap on auto-dumps (a flapping link must not fill the disk).
    std::uint32_t max_dumps = 4;
    /// Minimum event-time gap between auto-dumps.
    Time min_dump_gap = Time::seconds_int(1);
  };

  explicit FlightRecorder(Config cfg);

  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  /// Ring-write \p e; if it is an anomaly trigger and the rate limits
  /// allow, write the ring to `<dump_prefix>-<n>.ldlcap`.
  void record(const Event& e);

  /// Bus subscriber forwarding to `record()`.  The recorder must outlive
  /// the subscription.
  [[nodiscard]] EventBus::Subscriber subscriber() {
    return [this](const Event& e) { record(e); };
  }

  /// Write the ring, oldest to newest, as a complete `.ldlcap` stream.
  void dump(std::ostream& os) const;

  /// `dump()` to \p path (truncating).  False on I/O failure.
  bool dump_to_file(const std::string& path) const;

  /// True when \p e is one of the black-box triggers listed above.
  [[nodiscard]] static bool is_anomaly(const Event& e) noexcept;

  /// \name Introspection
  /// @{
  [[nodiscard]] std::size_t capacity() const noexcept { return cfg_.capacity; }
  [[nodiscard]] std::size_t held() const noexcept { return ring_.size(); }
  [[nodiscard]] std::uint64_t recorded() const noexcept { return recorded_; }
  /// Events overwritten because the ring was full.
  [[nodiscard]] std::uint64_t evicted() const noexcept {
    return recorded_ - ring_.size();
  }
  [[nodiscard]] std::uint32_t dumps() const noexcept { return dumps_; }
  /// Triggers that fired while rate-limited (no dump written).
  [[nodiscard]] std::uint64_t suppressed_triggers() const noexcept {
    return suppressed_;
  }
  [[nodiscard]] const std::string& last_dump_path() const noexcept {
    return last_dump_path_;
  }
  /// @}

 private:
  Config cfg_;
  /// Grows to `cfg_.capacity`, then wraps.
  std::vector<Event> ring_;
  /// Oldest held event once the ring is full (the slot the next event
  /// overwrites); 0 while it is still growing.
  std::size_t next_ = 0;
  std::uint64_t recorded_ = 0;
  std::uint32_t dumps_ = 0;
  std::uint64_t suppressed_ = 0;
  bool dumped_once_ = false;
  Time last_dump_at_{};
  std::string last_dump_path_;
};

}  // namespace lamsdlc::obs
