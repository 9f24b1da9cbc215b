#pragma once
/// \file link.hpp
/// \brief Simulated point-to-point full-duplex intersatellite link.
///
/// Each direction is a `SimplexChannel`: a serializer running at the data
/// rate, a propagation delay (fixed, or time-varying via a range function for
/// orbit-driven scenarios), and an error process deciding per-frame
/// corruption.  Corrupted frames are still delivered with `corrupted = true`
/// — the paper's link model treats loss as a detectable error (assumption 9),
/// and endpoints decide what survives of a damaged frame.
///
/// An optional FEC codec expands payload bits into coded bits for the
/// serializer, so control frames can ride a stronger (lower-rate) code than
/// I-frames, exactly as link model assumption 4 prescribes.

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "lamsdlc/core/simulator.hpp"
#include "lamsdlc/core/stats.hpp"
#include "lamsdlc/frame/codec.hpp"
#include "lamsdlc/frame/frame.hpp"
#include "lamsdlc/obs/bus.hpp"
#include "lamsdlc/orbit/orbit.hpp"
#include "lamsdlc/phy/error_model.hpp"
#include "lamsdlc/phy/fault_injector.hpp"
#include "lamsdlc/phy/fec.hpp"

namespace lamsdlc::link {

/// Receiving side of a channel.
class FrameSink {
 public:
  virtual ~FrameSink() = default;
  /// Deliver a frame (possibly with `corrupted` set).
  virtual void on_frame(frame::Frame f) = 0;
};

/// The sending endpoint as its channel sees it: the transmit hook a backend
/// calls when the serializer frees up.  Installed once, when the endpoint is
/// built on the channel, so the per-frame calls are plain virtual calls.
class ChannelUser {
 public:
  virtual ~ChannelUser() = default;
  /// The serializer finished the last queued frame (or a downed channel came
  /// back up); it lets a saturating sender keep the pipe full without
  /// polling.
  virtual void on_channel_idle() = 0;
  /// Whether `on_channel_idle` would do anything right now.  A backend may
  /// skip a completion whose callback would find nothing to send, so this
  /// must never return false while `on_channel_idle` would act; returning
  /// true needlessly only costs an event.
  [[nodiscard]] virtual bool has_channel_work() const = 0;
};

/// Sending side of a channel, abstracted over the backend: the surface the
/// LAMS endpoints actually use.  Two implementations exist — the simulated
/// `SimplexChannel` below and the live `rt::NetChannel` (rt/net_channel.hpp), which
/// serializes frames through the byte codec onto a real transport.  The
/// protocol state machines are written against this interface, so the
/// simulator is one backend of two rather than a hard dependency.
///
/// Timing contract: `tx_time` is the serialization time the sender budgets
/// for pacing, and `propagation_at(t)` is an *upper bound* on the one-way
/// delay of a frame sent at `t`.  The sim backend's bound is exact; a live
/// backend returns its configured worst case, which keeps the release rule
/// conservative (see docs/RUNTIME.md, "checkpoint age normalization").
class FrameChannel {
 public:
  virtual ~FrameChannel() = default;

  /// Queue a frame for transmission (FIFO at the channel's data rate).
  virtual void send(frame::Frame f) = 0;

  /// Install the sender's transmit hook (null detaches it).  \p user must
  /// outlive the channel or be detached first.
  virtual void set_user(ChannelUser* user) = 0;

  /// The user's `has_channel_work()` may just have turned true.  A sender calls
  /// this wherever it gains work that it does not transmit on the spot
  /// (typically because the channel is busy), so a frame mid-serialization
  /// still owes it the idle callback when it completes.
  virtual void note_work() {}

  /// True while the serializer has work queued or in progress.
  [[nodiscard]] virtual bool busy() const = 0;

  /// Channel availability; while down, frames are destroyed.
  [[nodiscard]] virtual bool up() const = 0;

  /// Serialization time of \p f on this channel (after FEC expansion).
  [[nodiscard]] virtual Time tx_time(const frame::Frame& f) const = 0;

  /// Upper bound on the one-way delay of a frame sent at \p when.
  [[nodiscard]] virtual Time propagation_at(Time when) const = 0;
};

/// Arrival-ordered queue of frames in flight towards one receiving sink —
/// the one transit queue of the link layer.  A `SimplexChannel` delivers
/// through its own instance; the parallel network driver gives each channel
/// one in the *receiving* partition's kernel instead, fed directly for
/// partition-local traffic and at window barriers for cross-partition
/// traffic.
///
/// Frames park in a slot pool and the queue holds 24-byte `{arrival, epoch,
/// slot}` records, so a frame is moved once in and once out and the steady
/// state allocates nothing.  A single armed sweep event delivers every due
/// frame in (arrival, push order) — FIFO among equal arrivals, so fault
/// duplicates pushed before their original deliver first.  On a fault-free
/// channel arrivals are monotone and a push appends; a jitter stage or
/// shrinking orbital propagation takes the rare sorted insert and moves the
/// sweep earlier.  The sweep fires at a fixed priority chosen by the owner:
/// the kernel default for a channel's own queue, a distinct below-default
/// value per ingress in the parallel driver, so same-instant
/// sweep-vs-endpoint-timer order depends only on which objects are involved,
/// never on scheduling history — which is what makes execution invariant
/// across partition counts.
///
/// Down-epochs are mirrored rather than shared: `bump_epoch` is called by
/// the same link-down operation that bumps the sending channel's epoch, so
/// an in-flight frame stamped with a stale epoch is dropped at its arrival
/// instant with the fate the channel itself would give it.
class ChannelIngress {
 public:
  /// \p batched false schedules one kernel event per frame at its arrival
  /// (same priority) instead of the shared sweep — the original delivery
  /// discipline, kept for A/B identity tests.
  ChannelIngress(Simulator& sim, Simulator::Priority sweep_priority,
                 bool batched = true)
      : sim_{sim}, sweep_priority_{sweep_priority}, batched_{batched} {}

  ChannelIngress(const ChannelIngress&) = delete;
  ChannelIngress& operator=(const ChannelIngress&) = delete;

  void set_sink(FrameSink* sink) noexcept { sink_ = sink; }
  void set_event_bus(obs::EventBus* bus, obs::Source source) noexcept {
    bus_ = bus;
    src_ = source;
  }

  /// Accept an in-flight frame.  \throws std::logic_error if \p arrival is
  /// before the local kernel's clock — that means the window lookahead bound
  /// was violated, and a loud failure beats a silently divergent run.
  void push(Time arrival, std::uint64_t epoch, frame::Frame&& f);

  /// Link went down: in-flight frames stamped with the old epoch are dropped
  /// at their arrival instants (photons in flight when pointing was lost).
  void bump_epoch() noexcept { ++epoch_; }

  [[nodiscard]] std::uint64_t frames_delivered() const noexcept {
    return frames_delivered_;
  }
  /// Frames dropped at arrival: stale epoch (kLinkDown) or no sink.
  [[nodiscard]] std::uint64_t frames_dropped() const noexcept {
    return frames_dropped_;
  }
  /// Frames parked now, between `push` and their delivery.
  [[nodiscard]] std::size_t in_flight() const noexcept {
    return pool_.size() - free_.size();
  }
  /// Slots the pool has ever allocated: the peak of `in_flight()`.
  [[nodiscard]] std::size_t pool_slots() const noexcept { return pool_.size(); }

 private:
  struct Transit {
    Time arrival;
    std::uint64_t epoch;
    std::uint32_t slot;
  };
  static_assert(sizeof(Transit) == 24, "transit records stay small");

  std::uint32_t park(frame::Frame&& f);
  void deliver(std::uint64_t epoch, std::uint32_t slot);
  void arm_sweep();
  void sweep();
  void emit_drop(obs::DropCause cause, const frame::Frame& f);

  Simulator& sim_;
  Simulator::Priority sweep_priority_;
  bool batched_;
  FrameSink* sink_{nullptr};
  obs::EventBus* bus_{nullptr};
  obs::Source src_{obs::Source::kOther};
  /// Pending records from `head_` on, in delivery order; the consumed
  /// prefix is reclaimed when the queue drains (or, on a link that never
  /// drains, once it is the larger half).
  std::vector<Transit> transit_;
  std::size_t head_{0};
  std::vector<frame::Frame> pool_;     ///< Parked frames by slot.
  std::vector<std::uint32_t> free_;    ///< Recycled slot indices.
  EventId sweep_event_{0};
  bool sweep_armed_{false};
  Time sweep_at_{};
  std::uint64_t epoch_{0};
  std::uint64_t frames_delivered_{0};
  std::uint64_t frames_dropped_{0};
};

/// One direction of the link.
class SimplexChannel final : public FrameChannel {
 public:
  struct Config {
    double data_rate_bps = 300e6;  ///< Laser link rate (paper: 0.3–1 Gbps).
    /// One-way propagation delay as a function of the send instant.  Fixed
    /// by default; see `geometry` for moving satellites.
    std::function<Time(Time)> propagation =
        [](Time) { return Time::milliseconds(10); };
    /// Orbit-driven propagation: when set, a frame sent at t takes the
    /// pair's light time at t (`SatellitePair::propagation_delay`, called
    /// directly) and `propagation` is ignored.
    std::shared_ptr<const orbit::SatellitePair> geometry;
    /// Distinct FEC per frame class (assumption 4).  A frame's wire length
    /// is `codec.coded_bits(frame bits)` when a codec is configured.
    std::optional<phy::FecParams> iframe_fec;
    std::optional<phy::FecParams> control_fec;

    /// Byte-accurate wire mode: every frame is serialized through the real
    /// codec on send; corruption flips actual bits in the encoded buffer;
    /// delivery decodes the damaged bytes and lets the CRC-16 FCS do the
    /// detection.  Slower, but exercises the full byte path end to end.
    /// In the default (fast) mode the `corrupted` mark models the same
    /// outcome without serializing.
    bool byte_level = false;

    /// Seed for the bit-flip positions in byte-accurate mode.
    std::uint64_t byte_level_seed = 0x5EED;

    /// Byte-accurate mode only: value limits the receiving end applies when
    /// decoding (frame::DecodeLimits).  The scenario harness fills in the
    /// protocol's sequence modulus, so a frame whose FCS survives damage but
    /// whose seq field is out of range is refused like any other unreadable
    /// husk instead of aliasing mod m inside the endpoint.
    frame::DecodeLimits decode_limits;

    /// Batched delivery: in-flight frames wait in a per-channel
    /// arrival-ordered transit queue (`ChannelIngress`) with a single armed
    /// kernel event at the head arrival, instead of one kernel event per
    /// frame.  A saturated 1 Gbps / 10 ms link holds ~10^3 frames in
    /// flight, so this keeps the simulator's event heap a few entries deep
    /// rather than a thousand.
    /// Per-frame delivery instants and same-instant ordering are preserved
    /// exactly (the identity is gated by tests); `false` restores the
    /// original one-event-per-frame scheduling for A/B comparison.
    bool batched_delivery = true;
  };

  SimplexChannel(Simulator& sim, Config cfg,
                 std::unique_ptr<phy::ErrorModel> error_model);

  /// Replace the data-frame error process (e.g. to script a burst outage
  /// after construction).
  void set_data_error_model(std::unique_ptr<phy::ErrorModel> m) {
    error_ = std::move(m);
  }

  /// Use a distinct error process for control frames (the analysis treats
  /// P_F and P_C as independent invariants; the stronger control-frame FEC
  /// of assumption 4 justifies a separate, lower probability).  Without
  /// this, the single model applies to all frames.
  void set_control_error_model(std::unique_ptr<phy::ErrorModel> m) {
    control_error_ = std::move(m);
  }

  /// Append a fault stage (see phy::FaultInjector).  Stages compose: each
  /// frame's fate is the combination of every stage's verdict, so e.g. a
  /// control-only drop stage and an all-frames jitter stage attack the same
  /// channel independently.
  void add_fault_stage(std::unique_ptr<phy::FaultInjector> stage) {
    faults_.push_back(std::move(stage));
  }

  /// Remove every installed fault stage (the channel reverts to the plain
  /// error-model behaviour).
  void clear_fault_stages() { faults_.clear(); }

  /// Attach a typed-event bus; \p source labels this direction's events
  /// (kLinkForward / kLinkReverse).  Events mirror the channel counters
  /// one-for-one: every counter increment emits exactly one event, so the
  /// metrics collector reproduces the counters from the stream.
  void set_event_bus(obs::EventBus* bus, obs::Source source) noexcept {
    bus_ = bus;
    src_ = source;
    transit_.set_event_bus(bus, source);
  }

  SimplexChannel(const SimplexChannel&) = delete;
  SimplexChannel& operator=(const SimplexChannel&) = delete;

  /// Attach the receiving endpoint.  Frames that arrive while no sink is
  /// attached are counted and dropped.
  void set_sink(FrameSink* sink) noexcept { transit_.set_sink(sink); }

  /// Receiver-side handoff for the parallel network driver: every frame that
  /// survives the send-time fate draw (error model, fault stages, byte-level
  /// codec) goes to \p ingress with its computed arrival instant and the
  /// channel's down-epoch at send, *instead of* into this channel's own
  /// transit queue.  All nondeterminism is resolved at send time — the
  /// handoff carries a finished (frame, arrival, epoch) triple, so delivery
  /// needs no sender-side state.  \p ingress must run on this channel's
  /// kernel (a partition-local receiver); it is called directly.
  void set_ingress(ChannelIngress& ingress) noexcept { ingress_ = &ingress; }

  /// As `set_ingress`, for a receiver in another partition's kernel: the
  /// triple goes to \p egress (which stages it for the next window barrier)
  /// and overrides any ingress.
  using Egress = std::function<void(Time arrival, std::uint64_t epoch,
                                    frame::Frame f)>;
  void set_egress(Egress egress) { egress_ = std::move(egress); }

  /// Queue a frame for transmission.  Frames serialize back-to-back in FIFO
  /// order at the data rate.
  void send(frame::Frame f) override;

  /// See `FrameChannel::set_user`.  The serializer-completion event is
  /// inserted into the kernel only when the user has work (or a frame is
  /// queued); otherwise its key is merely reserved.
  void set_user(ChannelUser* user) override;

  void note_work() override;

  /// Instant the serializer becomes free (== now when idle).
  [[nodiscard]] Time busy_until() const noexcept;

  /// True while the serializer has work queued or in progress.
  [[nodiscard]] bool busy() const noexcept override;

  /// Link state; while down, queued and new frames are destroyed (photons
  /// have nowhere to go when pointing is lost).
  void set_up(bool up);
  [[nodiscard]] bool up() const noexcept override { return up_; }

  /// Serialization time of \p f on this channel (after FEC expansion).
  [[nodiscard]] Time tx_time(const frame::Frame& f) const noexcept override;

  /// One-way delay of a frame sent at \p when (exact in the sim model).
  [[nodiscard]] Time propagation_at(Time when) const override {
    return cfg_.geometry ? geometry_delay(when) : cfg_.propagation(when);
  }

  /// Share one orbit-range memo with \p other, the opposite direction of the
  /// same link on the same kernel (FullDuplexLink does this).  The receivers
  /// at both ends tick at the same instants, so each checkpoint's range is
  /// then evaluated once for both directions.  No-op unless both channels
  /// use the same `geometry`.
  void share_geometry_memo(SimplexChannel& other) noexcept {
    if (cfg_.geometry && cfg_.geometry == other.cfg_.geometry) {
      other.memo_ = memo_;
    }
  }

  /// One-way delay for a frame sent now.
  [[nodiscard]] Time current_propagation() const {
    return propagation_at(sim_.now());
  }

  [[nodiscard]] const Config& config() const noexcept { return cfg_; }

  /// \name Counters
  /// @{
  [[nodiscard]] std::uint64_t frames_sent() const noexcept { return frames_sent_; }
  [[nodiscard]] std::uint64_t frames_corrupted() const noexcept { return frames_corrupted_; }
  /// Frames destroyed on a downed link (queued, sent, or in flight) or
  /// arriving with no sink attached.
  [[nodiscard]] std::uint64_t frames_dropped() const noexcept {
    return frames_dropped_ + transit_.frames_dropped();
  }
  [[nodiscard]] std::uint64_t bits_sent() const noexcept { return bits_sent_; }
  /// Byte-accurate mode only: clean frames that failed to decode, or whose
  /// decoded wire fields disagreed with what was sent despite a passing FCS.
  /// Always 0 — a nonzero value is a codec bug (surfaced for the test suite
  /// and the invariant checker to assert on).
  [[nodiscard]] std::uint64_t codec_mismatches() const noexcept { return codec_mismatches_; }
  /// Byte-accurate mode only: *damaged* frames whose bit flips happened to
  /// produce a passing FCS (CRC-16 aliasing, ~2^-16 per damaged frame).
  /// This is a modeled property of the channel, not a codec bug — the
  /// channel fails safe by still marking the frame corrupted — so it is
  /// counted separately from `codec_mismatches()`.
  [[nodiscard]] std::uint64_t codec_aliases() const noexcept { return codec_aliases_; }
  /// Byte-accurate mode only: per-reason tally of every wire buffer the
  /// frame decoder refused (bad FCS for damaged frames, length overruns and
  /// the rest for hostile input injected by the verification tiers).
  [[nodiscard]] const frame::DecodeRejectCounts& decode_rejects() const noexcept {
    return decode_rejects_;
  }
  /// Frames silently omitted by a fault stage (never delivered).
  [[nodiscard]] std::uint64_t frames_fault_dropped() const noexcept {
    return frames_fault_dropped_;
  }
  /// Extra frame copies injected by fault stages.
  [[nodiscard]] std::uint64_t frames_duplicated() const noexcept {
    return frames_duplicated_;
  }
  /// Frames whose delivery a fault stage delayed (reordering candidates).
  [[nodiscard]] std::uint64_t frames_delayed() const noexcept {
    return frames_delayed_;
  }
  /// Frames truncated into unreadable husks by a fault stage.
  [[nodiscard]] std::uint64_t frames_truncated() const noexcept {
    return frames_truncated_;
  }
  /// @}

 private:
  /// `geometry` light time at \p when, remembered for the last instant
  /// asked (the function of \p when is pure, so the memo is exact).
  [[nodiscard]] Time geometry_delay(Time when) const noexcept {
    if (!(memo_->valid && memo_->at == when)) {
      *memo_ = {when, cfg_.geometry->propagation_delay(when), true};
    }
    return memo_->delay;
  }
  void start_next();
  /// Serialize \p f (consumed) from now: fate draw, completion key, and the
  /// handoff towards the receiver.
  void start(frame::Frame& f);
  /// True from `start_next` until the current frame's serialization ends:
  /// the completion event fired, or its reserved key passed unmaterialized.
  [[nodiscard]] bool serializing() const noexcept {
    return transmitting_ && (done_armed_ || !sim_.passed(done_key_));
  }
  /// Insert the serializer-completion event at its reserved key (once).
  void arm_done();
  void on_done(std::uint64_t epoch);
  void emit_fate(obs::EventKind kind, obs::DropCause cause,
                 const frame::Frame& f);
  /// Serializer bits for \p raw information bits of a control/data frame.
  [[nodiscard]] std::size_t coded_bits(std::size_t raw, bool control) const noexcept;
  [[nodiscard]] Time tx_time_bits(std::size_t coded) const noexcept {
    return Time::seconds(static_cast<double>(coded) / cfg_.data_rate_bps);
  }
  /// Byte-accurate mode: encode, apply \p corrupt as real bit flips, decode.
  /// Moves through: the input frame is consumed, never copied, and the
  /// encode buffer is the reused channel-owned `wire_buf_`.
  [[nodiscard]] frame::Frame through_codec(frame::Frame f, bool corrupt);

  Simulator& sim_;
  Config cfg_;
  std::unique_ptr<phy::ErrorModel> error_;
  std::unique_ptr<phy::ErrorModel> control_error_;
  std::vector<std::unique_ptr<phy::FaultInjector>> faults_;
  std::optional<phy::FecCodec> iframe_codec_;
  std::optional<phy::FecCodec> control_codec_;
  /// This channel's own transit queue (the single-kernel delivery path).
  ChannelIngress transit_;
  ChannelIngress* ingress_{&transit_};  ///< Where surviving frames go.
  Egress egress_;                       ///< Cross-partition staging, if set.
  obs::EventBus* bus_{nullptr};
  obs::Source src_{obs::Source::kOther};
  ChannelUser* user_{nullptr};
  struct GeometryMemo {
    Time at;
    Time delay;
    bool valid = false;
  };
  /// Own memo, or the opposite direction's (`share_geometry_memo`).
  std::shared_ptr<GeometryMemo> memo_ = std::make_shared<GeometryMemo>();
  /// Frames waiting behind the one serializing; an idle channel starts a
  /// sent frame directly and leaves this empty.
  std::deque<frame::Frame> queue_;
  std::vector<std::uint8_t> wire_buf_;          ///< Reused encode buffer.
  /// \name Serializer
  /// A frame's completion takes its dispatch key in `start_next`, exactly
  /// where an unconditional completion event would be scheduled, but the
  /// event is inserted (`arm_done`) only when it has work: a frame queued
  /// behind, or a sender with something to send.  On an idle link the
  /// completion would only call a `try_send()` that finds nothing, so its
  /// key simply passes; `serializing()` reads that off the kernel.
  /// @{
  bool transmitting_{false};
  bool done_armed_{false};
  Simulator::Key done_key_{};
  Time tx_done_{};
  /// @}
  bool up_{true};
  std::uint64_t down_epoch_{0};  ///< Invalidates in-flight events on failure.
  std::uint64_t frames_sent_{0};
  std::uint64_t frames_corrupted_{0};
  std::uint64_t frames_dropped_{0};
  std::uint64_t bits_sent_{0};
  std::uint64_t codec_mismatches_{0};
  std::uint64_t codec_aliases_{0};
  frame::DecodeRejectCounts decode_rejects_;
  std::uint64_t frames_fault_dropped_{0};
  std::uint64_t frames_duplicated_{0};
  std::uint64_t frames_delayed_{0};
  std::uint64_t frames_truncated_{0};
  RandomStream flip_rng_;
};

/// Full-duplex link: two independent simplex channels (assumption 2).
class FullDuplexLink {
 public:
  FullDuplexLink(Simulator& sim, SimplexChannel::Config forward_cfg,
                 std::unique_ptr<phy::ErrorModel> forward_error,
                 SimplexChannel::Config reverse_cfg,
                 std::unique_ptr<phy::ErrorModel> reverse_error)
      : FullDuplexLink{sim,
                       sim,
                       std::move(forward_cfg),
                       std::move(forward_error),
                       std::move(reverse_cfg),
                       std::move(reverse_error)} {}

  /// Two-kernel form for the parallel network driver: each direction's
  /// transmit side is owned by the kernel of the node doing the sending
  /// (forward = a→b serializes in a's partition, reverse in b's).
  FullDuplexLink(Simulator& forward_sim, Simulator& reverse_sim,
                 SimplexChannel::Config forward_cfg,
                 std::unique_ptr<phy::ErrorModel> forward_error,
                 SimplexChannel::Config reverse_cfg,
                 std::unique_ptr<phy::ErrorModel> reverse_error)
      : forward_{forward_sim, std::move(forward_cfg), std::move(forward_error)},
        reverse_{reverse_sim, std::move(reverse_cfg), std::move(reverse_error)} {
    // Directions on different kernels (parallel partitions) keep their own
    // memos, so no memo is ever touched by two threads.
    if (&forward_sim == &reverse_sim) forward_.share_geometry_memo(reverse_);
  }

  [[nodiscard]] SimplexChannel& forward() noexcept { return forward_; }
  [[nodiscard]] SimplexChannel& reverse() noexcept { return reverse_; }

  /// Take both directions up or down together (a pointing loss kills both).
  void set_up(bool up) {
    forward_.set_up(up);
    reverse_.set_up(up);
  }

 private:
  SimplexChannel forward_;
  SimplexChannel reverse_;
};

}  // namespace lamsdlc::link
