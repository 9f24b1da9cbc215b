#include "lamsdlc/link/link.hpp"

#include <algorithm>
#include <stdexcept>

#include "lamsdlc/frame/codec.hpp"

namespace lamsdlc::link {
namespace {

/// Wire sequence of a frame, for event payloads (0 for unnumbered frames).
std::uint64_t wire_ctr(const frame::Frame& f) noexcept {
  if (const auto* in = std::get_if<frame::IFrame>(&f.body)) return in->seq;
  if (const auto* hin = std::get_if<frame::HdlcIFrame>(&f.body)) return hin->ns;
  return 0;
}

}  // namespace

void SimplexChannel::emit_fate(obs::EventKind kind, obs::DropCause cause,
                               const frame::Frame& f) {
  if (bus_ == nullptr || !bus_->enabled()) return;
  obs::Event e;
  e.at = sim_.now();
  e.source = src_;
  e.kind = kind;
  e.p.drop = {cause, static_cast<std::uint8_t>(f.is_control() ? 1 : 0),
              wire_ctr(f)};
  bus_->emit(e);
}

SimplexChannel::SimplexChannel(Simulator& sim, Config cfg,
                               std::unique_ptr<phy::ErrorModel> error_model)
    : sim_{sim},
      cfg_{std::move(cfg)},
      error_{std::move(error_model)},
      transit_{sim, Simulator::kDefaultPriority, cfg_.batched_delivery},
      flip_rng_{cfg_.byte_level_seed, "link.bitflip"} {
  if (cfg_.iframe_fec) iframe_codec_.emplace(*cfg_.iframe_fec);
  if (cfg_.control_fec) control_codec_.emplace(*cfg_.control_fec);
}

frame::Frame SimplexChannel::through_codec(frame::Frame f, bool corrupt) {
  frame::encode_into(f, wire_buf_);
  if (corrupt) {
    // One or more real bit flips (a short geometric tail mimics a small
    // error cluster inside the frame).
    const auto flips = 1 + flip_rng_.geometric(0.5);
    for (std::int64_t i = 0; i < flips; ++i) {
      const auto at = static_cast<std::size_t>(flip_rng_.uniform_int(
          0, static_cast<std::int64_t>(wire_buf_.size()) - 1));
      wire_buf_[at] ^=
          static_cast<std::uint8_t>(1u << flip_rng_.uniform_int(0, 7));
    }
  }
  frame::DecodeReject why = frame::DecodeReject::kNone;
  auto decoded = frame::decode(wire_buf_, cfg_.decode_limits, &why);
  if (!decoded.has_value()) {
    decode_rejects_.count(why);
    // The FCS caught the damage (the expected outcome for corrupt frames):
    // deliver the unreadable husk — the original, moved through, marked.
    if (!corrupt) ++codec_mismatches_;  // clean frame failed decode: a bug
    f.corrupted = true;
    return f;
  }
  if (corrupt) {
    // Flips survived the CRC check: aliasing (~2^-16 per damaged frame).
    // Surface it and fail safe by still marking the frame corrupted, which
    // preserves link-model assumption 9 for the protocols above.
    ++codec_aliases_;
    decoded->corrupted = true;
    return *std::move(decoded);
  }
  // Clean round trip: restore the simulation-side identity the codec
  // intentionally keeps off the wire, and verify the wire fields survived.
  if (auto* in = std::get_if<frame::IFrame>(&decoded->body)) {
    const auto* oin = std::get_if<frame::IFrame>(&f.body);
    if (oin != nullptr && in->seq == oin->seq &&
        in->payload_bytes == oin->payload_bytes) {
      in->packet_id = oin->packet_id;
    } else {
      ++codec_mismatches_;
    }
  } else if (auto* hin = std::get_if<frame::HdlcIFrame>(&decoded->body)) {
    const auto* oin = std::get_if<frame::HdlcIFrame>(&f.body);
    if (oin != nullptr && hin->ns == oin->ns && hin->poll == oin->poll) {
      hin->packet_id = oin->packet_id;
    } else {
      ++codec_mismatches_;
    }
  }
  return *std::move(decoded);
}

std::size_t SimplexChannel::coded_bits(std::size_t raw,
                                       bool control) const noexcept {
  if (control) return control_codec_ ? control_codec_->coded_bits(raw) : raw;
  return iframe_codec_ ? iframe_codec_->coded_bits(raw) : raw;
}

Time SimplexChannel::tx_time(const frame::Frame& f) const noexcept {
  return tx_time_bits(coded_bits(frame::wire_bits(f), f.is_control()));
}

Time SimplexChannel::busy_until() const noexcept {
  return serializing() ? tx_done_ : sim_.now();
}

bool SimplexChannel::busy() const noexcept {
  return serializing() || !queue_.empty();
}

void SimplexChannel::set_user(ChannelUser* user) {
  user_ = user;
  note_work();  // a new sender may arrive with work in hand
}

void SimplexChannel::note_work() {
  if (serializing() && !done_armed_ && user_ != nullptr &&
      user_->has_channel_work()) {
    arm_done();
  }
}

void SimplexChannel::arm_done() {
  if (done_armed_) return;
  done_armed_ = true;
  sim_.schedule_reserved(done_key_,
                         [this, epoch = down_epoch_] { on_done(epoch); });
}

void SimplexChannel::on_done(std::uint64_t epoch) {
  if (epoch != down_epoch_) return;  // link went down meanwhile
  transmitting_ = false;
  done_armed_ = false;
  start_next();
}

void SimplexChannel::send(frame::Frame f) {
  if (!up_) {
    ++frames_dropped_;
    emit_fate(obs::EventKind::kFrameDropped, obs::DropCause::kLinkDown, f);
    return;
  }
  if (!serializing() && queue_.empty()) {
    start(f);  // an idle serializer takes the frame at once
    return;
  }
  queue_.push_back(std::move(f));
  if (!serializing()) {
    start_next();
  } else {
    arm_done();  // the completion must start the frame queued behind
  }
}

void SimplexChannel::set_up(bool up) {
  if (up == up_) return;
  up_ = up;
  if (up_) {
    // Restored: tell the sender the transmitter is available again.
    if (user_ != nullptr) user_->on_channel_idle();
    return;
  }
  frames_dropped_ += queue_.size();
  for (const auto& q : queue_) {
    emit_fate(obs::EventKind::kFrameDropped, obs::DropCause::kLinkDown, q);
  }
  queue_.clear();
  // A frame mid-serialization is lost too.  Its completion, if it was
  // inserted, still fires but finds the epoch moved on (on_done); the
  // serializer is free from now.  Frames in flight in this channel's own
  // transit queue die at their arrival instants.
  ++down_epoch_;
  transit_.bump_epoch();
  transmitting_ = false;
  done_armed_ = false;
}

void SimplexChannel::start_next() {
  if (queue_.empty() || !up_) {
    if (user_ != nullptr && up_) user_->on_channel_idle();
    return;
  }
  frame::Frame f = std::move(queue_.front());
  queue_.pop_front();
  start(f);
}

void SimplexChannel::start(frame::Frame& f) {
  const Time start = sim_.now();
  // Information bits, computed once: the FEC expansion of them sets the
  // serialization time, and the error process and fault stages see them
  // as they are.
  const bool control = f.is_control();
  const std::size_t raw = frame::wire_bits(f);
  const std::size_t bits = coded_bits(raw, control);
  const Time end = start + tx_time_bits(bits);
  transmitting_ = true;
  tx_done_ = end;
  ++frames_sent_;
  bits_sent_ += bits;

  // The error process models the *post-FEC residual* channel (the paper
  // folds the codec into the medium, assumption 5), so it sees information
  // bits; the FEC expansion affects only serialization time above.
  phy::ErrorModel* model =
      (control && control_error_) ? control_error_.get() : error_.get();
  phy::FrameFate fate;
  fate.corrupt = model != nullptr && model->corrupts(start, end, raw);
  for (auto& stage : faults_) {
    fate.combine(stage->fate(control, start, end, raw));
  }
  if (fate.corrupt) {
    ++frames_corrupted_;
    emit_fate(obs::EventKind::kFrameCorrupted, obs::DropCause::kWireCorruption,
              f);
  }
  if (cfg_.byte_level) {
    f = through_codec(std::move(f), fate.corrupt);
  } else if (fate.corrupt) {
    f.corrupted = true;
  }
  if (fate.truncate) {
    // Header damage: whatever survived the codec is an unreadable husk.
    ++frames_truncated_;
    emit_fate(obs::EventKind::kFrameCorrupted, obs::DropCause::kFaultTruncation,
              f);
    f.corrupted = true;
  }

  const Time prop = propagation_at(start);
  const std::uint64_t epoch = down_epoch_;

  // Serialization completes at `end`: take the completion's key now, and
  // insert the event only if the completion will have something to do.  A
  // sender gaining work later says so through note_work().  A frame that
  // serializes in zero time (an absurd data rate) completes at the current
  // instant, where a reserved key cannot be told apart from ones already
  // passed, so its completion is inserted at once.
  if (end == start) {
    done_armed_ = true;
    sim_.schedule_at(end, [this, epoch] { on_done(epoch); });
  } else {
    done_key_ = sim_.reserve(end);
    done_armed_ = false;
    if (!queue_.empty() || (user_ != nullptr && user_->has_channel_work())) {
      arm_done();
    }
  }

  if (fate.drop) {
    // Silent omission: the frame occupied the serializer but nothing ever
    // reaches the far end — the pure-loss channel of the self-stabilizing
    // ARQ literature, stronger than the paper's detectable-error model.
    ++frames_fault_dropped_;
    emit_fate(obs::EventKind::kFrameDropped, obs::DropCause::kFaultDrop, f);
    return;
  }

  // Head of the frame left at `start`; the tail (and hence the deliverable
  // frame) arrives at end + prop, plus any fault-stage jitter.  A delayed
  // frame can land after later-sent ones: the channel is no longer FIFO.
  const Time arrival = end + prop + fate.delay;
  if (!fate.delay.is_zero()) {
    ++frames_delayed_;
    emit_fate(obs::EventKind::kFrameDelayed, obs::DropCause::kFaultJitter, f);
  }
  // The fate is fully decided, so the finished (frame, arrival, epoch)
  // triple needs nothing more from this channel.  Duplicates go first, so
  // they deliver before the original at the same instant.
  for (std::uint32_t i = 0; i < fate.duplicates; ++i) {
    ++frames_duplicated_;
    emit_fate(obs::EventKind::kFrameDuplicated, obs::DropCause::kFaultDuplicate,
              f);
    if (egress_) {
      egress_(arrival, epoch, frame::Frame{f});
    } else {
      ingress_->push(arrival, epoch, frame::Frame{f});
    }
  }
  if (egress_) {
    egress_(arrival, epoch, std::move(f));
  } else {
    ingress_->push(arrival, epoch, std::move(f));
  }
}

void ChannelIngress::emit_drop(obs::DropCause cause, const frame::Frame& f) {
  if (bus_ == nullptr || !bus_->enabled()) return;
  obs::Event e;
  e.at = sim_.now();
  e.source = src_;
  e.kind = obs::EventKind::kFrameDropped;
  e.p.drop = {cause, static_cast<std::uint8_t>(f.is_control() ? 1 : 0),
              wire_ctr(f)};
  bus_->emit(e);
}

std::uint32_t ChannelIngress::park(frame::Frame&& f) {
  if (free_.empty()) {
    pool_.push_back(std::move(f));
    return static_cast<std::uint32_t>(pool_.size() - 1);
  }
  const std::uint32_t slot = free_.back();
  free_.pop_back();
  pool_[slot] = std::move(f);
  return slot;
}

void ChannelIngress::push(Time arrival, std::uint64_t epoch, frame::Frame&& f) {
  if (arrival < sim_.now()) {
    // The window lookahead bound (min link propagation) was violated: this
    // frame's delivery instant is already in the receiver's past.  Fail loud
    // — a silent mis-ordering here would diverge from the serial run in ways
    // that surface only as wrong protocol behaviour much later.
    throw std::logic_error(
        "ChannelIngress::push: arrival before local clock (lookahead bound "
        "violated)");
  }
  const std::uint32_t slot = park(std::move(f));
  if (!batched_) {
    sim_.schedule_at(arrival, sweep_priority_,
                     [this, epoch, slot] { deliver(epoch, slot); });
    return;
  }
  if (head_ == transit_.size() || !(arrival < transit_.back().arrival)) {
    transit_.push_back(Transit{arrival, epoch, slot});
  } else {
    // Out-of-order arrival: insert after every entry arriving at or before
    // the same instant, preserving FIFO among equal arrivals.
    const auto pos = std::upper_bound(
        transit_.begin() + static_cast<std::ptrdiff_t>(head_), transit_.end(),
        arrival, [](Time a, const Transit& t) { return a < t.arrival; });
    transit_.insert(pos, Transit{arrival, epoch, slot});
  }
  arm_sweep();
}

void ChannelIngress::arm_sweep() {
  if (head_ == transit_.size()) return;
  const Time head = transit_[head_].arrival;
  if (!sweep_armed_) {
    sweep_event_ = sim_.schedule_at(head, sweep_priority_, [this] { sweep(); });
  } else if (head < sweep_at_) {
    sweep_event_ = sim_.reschedule(sweep_event_, head);
  } else {
    return;
  }
  sweep_at_ = head;
  sweep_armed_ = true;
}

void ChannelIngress::sweep() {
  sweep_armed_ = false;
  const Time now = sim_.now();
  while (head_ < transit_.size() && !(now < transit_[head_].arrival)) {
    const Transit t = transit_[head_++];
    if (head_ == transit_.size()) {
      transit_.clear();
      head_ = 0;
    } else if (head_ >= 1024 && 2 * head_ >= transit_.size()) {
      // A link that never drains reclaims its consumed prefix now and
      // then: amortized O(1) per frame.
      transit_.erase(transit_.begin(),
                     transit_.begin() + static_cast<std::ptrdiff_t>(head_));
      head_ = 0;
    }
    // Delivery can synchronously send (and re-enter push for a local
    // channel); popping first keeps the queue consistent, and arm_sweep
    // below coalesces with any re-entrant arm.
    deliver(t.epoch, t.slot);
  }
  arm_sweep();
}

void ChannelIngress::deliver(std::uint64_t epoch, std::uint32_t slot) {
  frame::Frame& f = pool_[slot];
  if (epoch != epoch_ || sink_ == nullptr) {
    // A stale epoch: photons in flight when pointing was lost.
    ++frames_dropped_;
    emit_drop(epoch != epoch_ ? obs::DropCause::kLinkDown
                              : obs::DropCause::kNoSink,
              f);
    free_.push_back(slot);
    return;
  }
  ++frames_delivered_;
  // The sink's parameter is moved straight out of the slot; the slot is
  // recycled only afterwards, so a re-entrant push (which may grow the
  // pool) never lands on it.
  sink_->on_frame(std::move(f));
  free_.push_back(slot);
}

}  // namespace lamsdlc::link
