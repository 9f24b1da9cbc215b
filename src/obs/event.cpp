#include "lamsdlc/obs/event.hpp"

#include <sstream>

namespace lamsdlc::obs {
namespace {

bool frame_eq(const FramePayload& a, const FramePayload& b) noexcept {
  return a.ctr == b.ctr && a.packet_id == b.packet_id &&
         a.attempt == b.attempt && a.control == b.control &&
         a.holding_ps == b.holding_ps;
}

bool drop_eq(const DropPayload& a, const DropPayload& b) noexcept {
  return a.cause == b.cause && a.control == b.control && a.ctr == b.ctr;
}

bool checkpoint_eq(const CheckpointPayload& a,
                   const CheckpointPayload& b) noexcept {
  return a.cp_seq == b.cp_seq && a.highest_seen == b.highest_seen &&
         a.missed == b.missed && a.nak_count == b.nak_count &&
         a.flags == b.flags && a.naks == b.naks;
}

bool timer_eq(const TimerPayload& a, const TimerPayload& b) noexcept {
  return a.timer == b.timer && a.deadline_ps == b.deadline_ps;
}

bool recovery_eq(const RecoveryPayload& a, const RecoveryPayload& b) noexcept {
  return a.from == b.from && a.to == b.to && a.reason == b.reason;
}

bool map_eq(const RetransmitMapPayload& a,
            const RetransmitMapPayload& b) noexcept {
  return a.old_ctr == b.old_ctr && a.new_ctr == b.new_ctr &&
         a.packet_id == b.packet_id && a.attempt == b.attempt;
}

bool sample_eq(const MetricSamplePayload& a,
               const MetricSamplePayload& b) noexcept {
  return a.name == b.name && a.value == b.value &&
         a.is_counter == b.is_counter;
}

bool audit_eq(const AuditPayload& a, const AuditPayload& b) noexcept {
  return a.check == b.check && a.a == b.a && a.b == b.b;
}

bool corruption_eq(const CorruptionPayload& a,
                   const CorruptionPayload& b) noexcept {
  return a.cls == b.cls && a.target == b.target && a.a == b.a && a.b == b.b;
}

bool resync_eq(const ResyncPayload& a, const ResyncPayload& b) noexcept {
  return a.token == b.token && a.epoch == b.epoch && a.attempt == b.attempt &&
         a.reason == b.reason;
}

const char* frame_verb(EventKind k) noexcept {
  switch (k) {
    case EventKind::kFrameSent: return "tx";
    case EventKind::kFrameReceived: return "rx";
    case EventKind::kFrameReleased: return "released";
    case EventKind::kRetransmitQueued: return "retx-queued";
    default: return "?";
  }
}

}  // namespace

bool operator==(const Event& a, const Event& b) noexcept {
  if (a.at != b.at || a.source != b.source || a.kind != b.kind) return false;
  switch (a.kind) {
    case EventKind::kFrameSent:
    case EventKind::kFrameReceived:
    case EventKind::kFrameReleased:
    case EventKind::kRetransmitQueued:
    case EventKind::kPacketAdmitted:
    case EventKind::kPacketDelivered:
      return frame_eq(a.p.frame, b.p.frame);
    case EventKind::kFrameCorrupted:
    case EventKind::kFrameDropped:
    case EventKind::kFrameDuplicated:
    case EventKind::kFrameDelayed:
      return drop_eq(a.p.drop, b.p.drop);
    case EventKind::kCheckpointEmitted:
    case EventKind::kCheckpointProcessed:
      return checkpoint_eq(a.p.checkpoint, b.p.checkpoint);
    case EventKind::kNakGenerated:
      return a.p.nak.ctr == b.p.nak.ctr;
    case EventKind::kBufferOccupancy:
      return a.p.buffer.which == b.p.buffer.which &&
             a.p.buffer.depth == b.p.buffer.depth;
    case EventKind::kTimerArmed:
    case EventKind::kTimerFired:
      return timer_eq(a.p.timer, b.p.timer);
    case EventKind::kRecoveryTransition:
      return recovery_eq(a.p.recovery, b.p.recovery);
    case EventKind::kRetransmitMapped:
      return map_eq(a.p.map, b.p.map);
    case EventKind::kMetricSample:
      return sample_eq(a.p.sample, b.p.sample);
    case EventKind::kSelfAuditFailed:
      return audit_eq(a.p.audit, b.p.audit);
    case EventKind::kStateCorrupted:
      return corruption_eq(a.p.corruption, b.p.corruption);
    case EventKind::kResyncInitiated:
    case EventKind::kResyncCompleted:
      return resync_eq(a.p.resync, b.p.resync);
  }
  return false;
}

const char* to_string(EventKind k) noexcept {
  switch (k) {
    case EventKind::kFrameSent: return "frame_sent";
    case EventKind::kFrameReceived: return "frame_received";
    case EventKind::kFrameReleased: return "frame_released";
    case EventKind::kRetransmitQueued: return "retransmit_queued";
    case EventKind::kFrameCorrupted: return "frame_corrupted";
    case EventKind::kFrameDropped: return "frame_dropped";
    case EventKind::kFrameDuplicated: return "frame_duplicated";
    case EventKind::kFrameDelayed: return "frame_delayed";
    case EventKind::kCheckpointEmitted: return "checkpoint_emitted";
    case EventKind::kCheckpointProcessed: return "checkpoint_processed";
    case EventKind::kNakGenerated: return "nak_generated";
    case EventKind::kBufferOccupancy: return "buffer_occupancy";
    case EventKind::kTimerArmed: return "timer_armed";
    case EventKind::kTimerFired: return "timer_fired";
    case EventKind::kRecoveryTransition: return "recovery_transition";
    case EventKind::kRetransmitMapped: return "retransmit_mapped";
    case EventKind::kPacketAdmitted: return "packet_admitted";
    case EventKind::kPacketDelivered: return "packet_delivered";
    case EventKind::kMetricSample: return "metric_sample";
    case EventKind::kSelfAuditFailed: return "self_audit_failed";
    case EventKind::kStateCorrupted: return "state_corrupted";
    case EventKind::kResyncInitiated: return "resync_initiated";
    case EventKind::kResyncCompleted: return "resync_completed";
  }
  return "unknown";
}

const char* to_string(Source s) noexcept {
  switch (s) {
    case Source::kLamsSender: return "lams.sender";
    case Source::kLamsReceiver: return "lams.receiver";
    case Source::kLinkForward: return "link.forward";
    case Source::kLinkReverse: return "link.reverse";
    case Source::kOther: return "other";
    case Source::kDlcSender: return "dlc.sender";
    case Source::kDlcReceiver: return "dlc.receiver";
  }
  return "unknown";
}

const char* to_string(DropCause c) noexcept {
  switch (c) {
    case DropCause::kWireCorruption: return "wire_corruption";
    case DropCause::kFaultDrop: return "fault_drop";
    case DropCause::kFaultTruncation: return "fault_truncation";
    case DropCause::kFaultJitter: return "fault_jitter";
    case DropCause::kFaultDuplicate: return "fault_duplicate";
    case DropCause::kLinkDown: return "link_down";
    case DropCause::kNoSink: return "no_sink";
    case DropCause::kCongestion: return "congestion";
    case DropCause::kStaleSequence: return "stale_sequence";
    case DropCause::kCorruptControl: return "corrupt_control";
  }
  return "unknown";
}

const char* to_string(TimerId t) noexcept {
  switch (t) {
    case TimerId::kCheckpointTimer: return "checkpoint_timer";
    case TimerId::kFailureTimer: return "failure_timer";
    case TimerId::kCheckpointCadence: return "checkpoint_cadence";
    case TimerId::kResyncTimer: return "resync_timer";
    case TimerId::kSelfAuditCadence: return "self_audit_cadence";
    case TimerId::kWatchdogTimer: return "watchdog_timer";
    case TimerId::kRetransmitTimeout: return "retransmit_timeout";
  }
  return "unknown";
}

const char* to_string(SenderMode m) noexcept {
  switch (m) {
    case SenderMode::kNormal: return "normal";
    case SenderMode::kEnforcedRecovery: return "enforced_recovery";
    case SenderMode::kFailed: return "failed";
    case SenderMode::kResyncing: return "resyncing";
  }
  return "unknown";
}

const char* to_string(RecoveryReason r) noexcept {
  switch (r) {
    case RecoveryReason::kCheckpointSilence: return "checkpoint_silence";
    case RecoveryReason::kNakGapAmbiguity: return "nak_gap_ambiguity";
    case RecoveryReason::kEnforcedNakResolved: return "enforced_nak_resolved";
    case RecoveryReason::kFailureTimeout: return "failure_timeout";
    case RecoveryReason::kLifetimeExhausted: return "lifetime_exhausted";
    case RecoveryReason::kSelfAuditFailure: return "self_audit_failure";
    case RecoveryReason::kProgressWatchdog: return "progress_watchdog";
    case RecoveryReason::kResyncRequested: return "resync_requested";
    case RecoveryReason::kImplausibleAck: return "implausible_ack";
    case RecoveryReason::kResyncExhausted: return "resync_exhausted";
    case RecoveryReason::kResyncCompleted: return "resync_completed";
  }
  return "unknown";
}

const char* to_string(AuditCheck c) noexcept {
  switch (c) {
    case AuditCheck::kSenderCtrCoherence: return "sender_ctr_coherence";
    case AuditCheck::kSenderWindowBound: return "sender_window_bound";
    case AuditCheck::kSenderCpTracking: return "sender_cp_tracking";
    case AuditCheck::kSenderTimerCoherence: return "sender_timer_coherence";
    case AuditCheck::kSenderPacingStuck: return "sender_pacing_stuck";
    case AuditCheck::kReceiverAnchorCoherence:
      return "receiver_anchor_coherence";
    case AuditCheck::kReceiverSeqCoherence: return "receiver_seq_coherence";
    case AuditCheck::kReceiverNakCoherence: return "receiver_nak_coherence";
    case AuditCheck::kReceiverHistoryOrder: return "receiver_history_order";
    case AuditCheck::kReceiverHuskStall: return "receiver_husk_stall";
    case AuditCheck::kReceiverCadenceStall: return "receiver_cadence_stall";
  }
  return "unknown";
}

const char* to_string(BufferId b) noexcept {
  switch (b) {
    case BufferId::kSendBuffer: return "send_buffer";
    case BufferId::kRecvBuffer: return "recv_buffer";
  }
  return "unknown";
}

std::optional<EventKind> kind_from_string(std::string_view name) noexcept {
  for (std::uint8_t i = 0; i < kEventKindCount; ++i) {
    const auto k = static_cast<EventKind>(i);
    if (name == to_string(k)) return k;
  }
  return std::nullopt;
}

std::optional<Source> source_from_string(std::string_view name) noexcept {
  for (std::uint8_t i = 0; i < kSourceCount; ++i) {
    const auto s = static_cast<Source>(i);
    if (name == to_string(s)) return s;
  }
  return std::nullopt;
}

std::string describe(const Event& e) {
  std::ostringstream os;
  switch (e.kind) {
    case EventKind::kFrameSent:
    case EventKind::kFrameReceived:
    case EventKind::kRetransmitQueued: {
      const auto& f = e.p.frame;
      os << (f.control ? "control " : "iframe ") << frame_verb(e.kind)
         << " ctr=" << f.ctr;
      if (!f.control) os << " pkt=" << f.packet_id;
      if (f.attempt > 0) os << " attempt=" << f.attempt;
      break;
    }
    case EventKind::kFrameReleased: {
      const auto& f = e.p.frame;
      os << "iframe released ctr=" << f.ctr << " pkt=" << f.packet_id
         << " held=" << static_cast<double>(f.holding_ps) * 1e-9 << "ms";
      break;
    }
    case EventKind::kFrameCorrupted:
    case EventKind::kFrameDropped:
    case EventKind::kFrameDuplicated:
    case EventKind::kFrameDelayed: {
      const auto& d = e.p.drop;
      os << (d.control ? "control " : "frame ") << to_string(e.kind) + 6
         << " cause=" << to_string(d.cause);
      if (d.ctr != 0) os << " ctr=" << d.ctr;
      break;
    }
    case EventKind::kCheckpointEmitted:
    case EventKind::kCheckpointProcessed: {
      const auto& cp = e.p.checkpoint;
      os << (e.kind == EventKind::kCheckpointEmitted ? "checkpoint tx seq="
                                                     : "checkpoint rx seq=")
         << cp.cp_seq << " highest=" << cp.highest_seen
         << " naks=" << cp.nak_count;
      if (cp.missed > 0) os << " missed=" << cp.missed;
      if (cp.enforced()) os << " enforced";
      if (cp.stop_go()) os << " stop-go";
      if (cp.resync_req()) os << " resync-req";
      if (cp.nak_count > 0) {
        os << " [";
        for (std::size_t i = 0; i < cp.inline_naks(); ++i) {
          if (i) os << ' ';
          os << cp.naks[i];
        }
        if (cp.nak_count > kMaxInlineNaks) os << " ...";
        os << ']';
      }
      break;
    }
    case EventKind::kNakGenerated:
      os << "nak ctr=" << e.p.nak.ctr;
      break;
    case EventKind::kBufferOccupancy:
      os << to_string(e.p.buffer.which) << " depth=" << e.p.buffer.depth;
      break;
    case EventKind::kTimerArmed:
      os << "timer armed " << to_string(e.p.timer.timer) << " deadline="
         << static_cast<double>(e.p.timer.deadline_ps) * 1e-9 << "ms";
      break;
    case EventKind::kTimerFired:
      os << "timer fired " << to_string(e.p.timer.timer);
      break;
    case EventKind::kRecoveryTransition:
      os << "mode " << to_string(e.p.recovery.from) << " -> "
         << to_string(e.p.recovery.to)
         << " reason=" << to_string(e.p.recovery.reason);
      break;
    case EventKind::kRetransmitMapped:
      os << "renumbered ctr " << e.p.map.old_ctr << " -> " << e.p.map.new_ctr
         << " pkt=" << e.p.map.packet_id << " attempt=" << e.p.map.attempt;
      break;
    case EventKind::kPacketAdmitted:
      os << "packet admitted pkt=" << e.p.frame.packet_id;
      break;
    case EventKind::kPacketDelivered:
      os << "packet delivered pkt=" << e.p.frame.packet_id
         << " ctr=" << e.p.frame.ctr;
      break;
    case EventKind::kMetricSample:
      os << "sample " << (e.p.sample.is_counter ? "counter " : "gauge ")
         << e.p.sample.name_view() << '=' << e.p.sample.value;
      break;
    case EventKind::kSelfAuditFailed:
      os << "self-audit failed " << to_string(e.p.audit.check)
         << " a=" << e.p.audit.a << " b=" << e.p.audit.b;
      break;
    case EventKind::kStateCorrupted:
      os << "state corrupted class=" << static_cast<unsigned>(e.p.corruption.cls)
         << " target=" << (e.p.corruption.target == 0 ? "sender" : "receiver")
         << " a=" << e.p.corruption.a << " b=" << e.p.corruption.b;
      break;
    case EventKind::kResyncInitiated:
      os << "resync initiated token=" << e.p.resync.token
         << " epoch=" << e.p.resync.epoch << " attempt=" << e.p.resync.attempt
         << " reason=" << to_string(e.p.resync.reason);
      break;
    case EventKind::kResyncCompleted:
      os << "resync completed token=" << e.p.resync.token
         << " epoch=" << e.p.resync.epoch << " attempt=" << e.p.resync.attempt;
      break;
  }
  return os.str();
}

std::string to_json(const Event& e) {
  std::ostringstream os;
  os << "{\"t_ps\":" << e.at.ps() << ",\"source\":\"" << to_string(e.source)
     << "\",\"kind\":\"" << to_string(e.kind) << '"';
  switch (e.kind) {
    case EventKind::kFrameSent:
    case EventKind::kFrameReceived:
    case EventKind::kFrameReleased:
    case EventKind::kRetransmitQueued:
    case EventKind::kPacketAdmitted:
    case EventKind::kPacketDelivered: {
      const auto& f = e.p.frame;
      os << ",\"ctr\":" << f.ctr << ",\"packet_id\":" << f.packet_id
         << ",\"attempt\":" << f.attempt
         << ",\"control\":" << (f.control ? "true" : "false")
         << ",\"holding_ps\":" << f.holding_ps;
      break;
    }
    case EventKind::kFrameCorrupted:
    case EventKind::kFrameDropped:
    case EventKind::kFrameDuplicated:
    case EventKind::kFrameDelayed: {
      const auto& d = e.p.drop;
      os << ",\"cause\":\"" << to_string(d.cause) << "\",\"control\":"
         << (d.control ? "true" : "false") << ",\"ctr\":" << d.ctr;
      break;
    }
    case EventKind::kCheckpointEmitted:
    case EventKind::kCheckpointProcessed: {
      const auto& cp = e.p.checkpoint;
      os << ",\"cp_seq\":" << cp.cp_seq << ",\"highest_seen\":"
         << cp.highest_seen << ",\"missed\":" << cp.missed
         << ",\"nak_count\":" << cp.nak_count
         << ",\"any_seen\":" << (cp.any_seen() ? "true" : "false")
         << ",\"enforced\":" << (cp.enforced() ? "true" : "false")
         << ",\"stop_go\":" << (cp.stop_go() ? "true" : "false")
         << ",\"resync_req\":" << (cp.resync_req() ? "true" : "false")
         << ",\"naks\":[";
      for (std::size_t i = 0; i < cp.inline_naks(); ++i) {
        if (i) os << ',';
        os << cp.naks[i];
      }
      os << ']';
      break;
    }
    case EventKind::kNakGenerated:
      os << ",\"ctr\":" << e.p.nak.ctr;
      break;
    case EventKind::kBufferOccupancy:
      os << ",\"buffer\":\"" << to_string(e.p.buffer.which)
         << "\",\"depth\":" << e.p.buffer.depth;
      break;
    case EventKind::kTimerArmed:
    case EventKind::kTimerFired:
      os << ",\"timer\":\"" << to_string(e.p.timer.timer)
         << "\",\"deadline_ps\":" << e.p.timer.deadline_ps;
      break;
    case EventKind::kRecoveryTransition:
      os << ",\"from\":\"" << to_string(e.p.recovery.from) << "\",\"to\":\""
         << to_string(e.p.recovery.to) << "\",\"reason\":\""
         << to_string(e.p.recovery.reason) << '"';
      break;
    case EventKind::kRetransmitMapped:
      os << ",\"old_ctr\":" << e.p.map.old_ctr << ",\"new_ctr\":"
         << e.p.map.new_ctr << ",\"packet_id\":" << e.p.map.packet_id
         << ",\"attempt\":" << e.p.map.attempt;
      break;
    case EventKind::kMetricSample:
      // Metric names are dot/underscore identifiers; nothing to escape.
      os << ",\"name\":\"" << e.p.sample.name_view() << "\",\"value\":"
         << e.p.sample.value
         << ",\"is_counter\":" << (e.p.sample.is_counter ? "true" : "false");
      break;
    case EventKind::kSelfAuditFailed:
      os << ",\"check\":\"" << to_string(e.p.audit.check)
         << "\",\"a\":" << e.p.audit.a << ",\"b\":" << e.p.audit.b;
      break;
    case EventKind::kStateCorrupted:
      os << ",\"class\":" << static_cast<unsigned>(e.p.corruption.cls)
         << ",\"target\":\""
         << (e.p.corruption.target == 0 ? "sender" : "receiver")
         << "\",\"a\":" << e.p.corruption.a << ",\"b\":" << e.p.corruption.b;
      break;
    case EventKind::kResyncInitiated:
    case EventKind::kResyncCompleted:
      os << ",\"token\":" << e.p.resync.token << ",\"epoch\":"
         << e.p.resync.epoch << ",\"attempt\":" << e.p.resync.attempt
         << ",\"reason\":\"" << to_string(e.p.resync.reason) << '"';
      break;
  }
  os << '}';
  return os.str();
}

}  // namespace lamsdlc::obs
