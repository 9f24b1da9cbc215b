#pragma once
/// \file simulator.hpp
/// \brief Deterministic discrete-event simulation kernel.
///
/// The kernel is single-threaded and fully deterministic.  Every event has a
/// dispatch key (instant, priority, FIFO seq), and events fire in ascending
/// key order: same-instant events in ascending priority, and in scheduling
/// order within a priority.  This total order is the kernel's whole contract
/// (the paper's assumption 8, "all parameters ... are deterministic", made
/// operational): every experiment is bit-for-bit reproducible from a seed,
/// and every optimization below is judged by whether each event still fires
/// at exactly the key it would otherwise have.
///
/// Implementation: a 4-ary min-heap of 24-byte trivially-copyable entries,
/// sifted with a moving hole, over a generation-tagged slot table that owns
/// the callbacks (a small-buffer-optimized `core::InlineFunction`, so the
/// common protocol lambdas never allocate).  Beside the heap sit a few FIFO
/// lanes: events scheduled at one fixed delay from the clock (a periodic
/// tick re-arming itself) arrive in key order, so they queue and leave in
/// O(1); the next event is the least of the heap top and the lane heads.
/// Three primitives keep periodic protocol machinery cheap without moving a
/// single key:
///
/// - `cancel()` is O(1): it destroys the callback at once and leaves a
///   24-byte tombstone, reclaimed when it surfaces or by compaction once
///   tombstones outnumber live events.
/// - `reschedule()` is what `cancel()` + `schedule_at()` would be, minus the
///   tombstone when the deadline moves later (the common timer re-arm): the
///   slot's authoritative key is updated in place, and the stale heap entry
///   is re-keyed and sifted down when it surfaces.
/// - `reserve()` hands out the key an event *would* get, without inserting
///   it; `schedule_reserved()` inserts it late at that key, and `passed()`
///   says whether dispatch has moved beyond it.  The link layer uses it for
///   serializer completions that usually have nothing to do.

#include <array>
#include <cstdint>
#include <utility>
#include <vector>

#include "lamsdlc/core/inline_function.hpp"
#include "lamsdlc/core/time.hpp"

namespace lamsdlc {

/// Handle identifying a scheduled event; used to cancel timers.
/// Value 0 is reserved and never issued.  Internally `(slot << 32) | gen`:
/// generations start at 1 and advance whenever an event fires or is
/// cancelled, so a stale id can never hit a recycled slot.
using EventId = std::uint64_t;

/// Single-threaded discrete-event simulator.
///
/// Usage:
/// \code
///   Simulator sim;
///   sim.schedule_in(Time::milliseconds(5), [&]{ ... });
///   sim.run();
/// \endcode
class Simulator {
 public:
  using Callback = core::InlineFunction<48>;

  /// Same-instant tie-break priority.  Events at the same instant fire in
  /// ascending priority, FIFO within a priority.  Everything defaults to the
  /// midpoint, so ordinary scheduling keeps its pure-FIFO semantics; the
  /// parallel network layer pins its transit-sweep events *below* the
  /// default (one distinct priority per channel) so same-instant
  /// sweep-vs-timer ordering is a global property of the object, not of the
  /// scheduling history — the keystone of partition-count-invariant
  /// execution (docs/PERFORMANCE.md, "why identity holds").
  using Priority = std::uint16_t;
  static constexpr Priority kDefaultPriority = 0x8000;

  /// A position in the dispatch order.  `seq` carries the priority in its
  /// top 16 bits and a per-kernel issue counter in the low 48, so one
  /// integer compare orders (priority, FIFO) among equal instants.
  struct Key {
    Time at;
    std::uint64_t seq = 0;
    friend constexpr bool operator<(const Key& a, const Key& b) noexcept {
      return a.at != b.at ? a.at < b.at : a.seq < b.seq;
    }
  };

  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current simulation time.  Starts at zero.
  [[nodiscard]] Time now() const noexcept { return now_; }

  /// Schedule \p cb to run at absolute time \p at.
  /// \throws std::invalid_argument if \p at is in the past.
  EventId schedule_at(Time at, Callback cb) {
    return schedule_at(at, kDefaultPriority, std::move(cb));
  }

  /// Schedule with an explicit same-instant priority (see `Priority`).
  EventId schedule_at(Time at, Priority prio, Callback cb);

  /// Schedule \p cb to run \p delay after the current time.
  EventId schedule_in(Time delay, Callback cb) { return schedule_at(now_ + delay, std::move(cb)); }

  /// Cancel a pending event.  Returns true if the event existed and had not
  /// yet fired; cancelling an already-fired or unknown id is a harmless no-op
  /// returning false (this is the convenient semantics for protocol timers).
  bool cancel(EventId id);

  /// Move pending event \p id to fire at \p at, keeping its callback and
  /// priority.  The event gets exactly the key `cancel(id)` followed by
  /// `schedule_at(at, prio, same callback)` would give it, consuming one
  /// sequence number.  Returns the id that names the event from now on — \p
  /// id itself when the deadline does not move earlier (no heap work, no
  /// tombstone), a fresh id otherwise — or 0, changing nothing, when \p id
  /// is not pending (the caller then schedules anew).
  /// \throws std::invalid_argument if \p at is in the past.
  EventId reschedule(EventId id, Time at);

  /// Timer re-arm: `reschedule(id, at)` when \p id is pending, else
  /// `schedule_at(at, cb)`.  Either way the event lands on the key that
  /// `cancel(id)` + `schedule_at(at, cb)` would give it.
  EventId rearm(EventId id, Time at, Callback cb) {
    const EventId moved = reschedule(id, at);
    return moved != 0 ? moved : schedule_at(at, std::move(cb));
  }

  /// Issue the key a default-priority event scheduled now for \p at would
  /// get, without inserting anything.  The key still counts as a pending
  /// event for `next_event_time()` and for the clock `run()` drains to,
  /// until dispatch passes it.  \p at must lie strictly in the future, so
  /// the key sorts after everything dispatched so far.
  /// \throws std::invalid_argument if \p at is not later than `now()`.
  Key reserve(Time at);

  /// Insert \p cb at a key issued by `reserve()`.  The key must not have
  /// passed (see `passed`); the event then fires exactly where it would
  /// have had it been scheduled when the key was issued.
  EventId schedule_reserved(Key key, Callback cb);

  /// True once dispatch has reached \p key: an event at \p key would have
  /// fired (or be firing right now).  Between runs, `run_before(limit)`
  /// leaves dispatch just before everything at `limit` and `run_until(h)`
  /// just after everything at `h`.
  [[nodiscard]] bool passed(const Key& key) const noexcept { return !(frontier_ < key); }

  /// True if the event is still pending.
  [[nodiscard]] bool pending(EventId id) const noexcept {
    const std::uint32_t slot = unpack_slot(id);
    return slot < slots_.size() && slots_[slot].gen == unpack_gen(id);
  }

  /// Run until the event queue drains or `stop()` is called.
  void run();

  /// Run until simulated time would exceed \p horizon.  Events at exactly
  /// \p horizon still fire; the clock is left at min(horizon, last event).
  /// A wall-clock driver (rt::WallClock) uses this as its dispatch
  /// primitive: advance the kernel to "wall now", firing everything due.
  void run_until(Time horizon);

  /// Run every event *strictly earlier* than \p limit, then advance the
  /// clock to \p limit without firing anything at it.  The conservative-PDES
  /// window loop runs each partition kernel through `[now, limit)` and uses
  /// the exclusive bound to keep window-boundary events (barrier-time global
  /// operations vs. same-instant kernel events) in one canonical order at
  /// every partition count.
  void run_before(Time limit);

  /// Instant of the earliest pending event (reserved keys included), or
  /// `Time::max()` when there is none — the deadline a wall-clock driver
  /// sleeps toward.  Settles the heap top (hence non-const).
  [[nodiscard]] Time next_event_time() noexcept;

  /// Request that `run()` return after the current event completes.
  void stop() noexcept { stopped_ = true; }

  /// Number of events executed so far (diagnostic).
  [[nodiscard]] std::uint64_t events_executed() const noexcept { return executed_; }

  /// Number of events currently pending (excludes cancelled).
  [[nodiscard]] std::size_t events_pending() const noexcept { return live_; }

  /// Physical queue entries (heap and lanes), live + tombstoned (diagnostic;
  /// the compaction regression test asserts this stays proportional to
  /// `events_pending`).
  [[nodiscard]] std::size_t heap_entries() const noexcept;

 private:
  struct Entry {
    Time at;
    std::uint64_t seq;   ///< (priority << 48) | issue counter; see `Key`.
    std::uint32_t slot;  ///< Slot-table index backing this event's id.
    std::uint32_t gen;   ///< Generation at scheduling; stale => tombstone.
  };
  static_assert(sizeof(Entry) == 24, "heap entries must stay memcpy-cheap");

  /// One event slot: the owning storage for a pending event's callback, the
  /// generation that stamps its id, and the event's authoritative key.  A
  /// heap entry whose seq differs from its live slot's was moved later by
  /// `reschedule` and is re-keyed when it surfaces.  Slots are recycled
  /// through a free list; the generation advances on every fire/cancel so
  /// stale ids can never alias a reused slot.
  struct Slot {
    std::uint32_t gen = 1;
    Key key;
    Callback cb;
  };

  static constexpr std::uint64_t kCounterMask = (std::uint64_t{1} << 48) - 1;
  static constexpr std::uint64_t kAfterAll = ~std::uint64_t{0};

  static constexpr EventId pack(std::uint32_t slot, std::uint32_t gen) noexcept {
    return (static_cast<EventId>(slot) << 32) | gen;
  }
  static constexpr std::uint32_t unpack_slot(EventId id) noexcept {
    return static_cast<std::uint32_t>(id >> 32);
  }
  static constexpr std::uint32_t unpack_gen(EventId id) noexcept {
    return static_cast<std::uint32_t>(id);
  }
  static bool before(const Entry& a, const Entry& b) noexcept {
    return a.at != b.at ? a.at < b.at : a.seq < b.seq;
  }

  /// The 2^48 counter outlasts any realistic run by orders of magnitude.
  std::uint64_t next_seq(Priority prio) noexcept {
    return (static_cast<std::uint64_t>(prio) << 48) | (next_seq_++ & kCounterMask);
  }

  [[nodiscard]] bool entry_live(const Entry& e) const noexcept {
    return slots_[e.slot].gen == e.gen;
  }

  /// Advance the slot's generation, invalidating every id and heap entry
  /// that carries the old one.
  void bump_gen(std::uint32_t slot) noexcept {
    if (++slots_[slot].gen == 0) slots_[slot].gen = 1;  // skip reserved gen 0
  }

  /// Invalidate the slot's id and make the slot available for reuse.
  /// Called exactly once per fire or cancel.
  void retire_slot(std::uint32_t slot) noexcept {
    bump_gen(slot);
    free_slots_.push_back(slot);
  }

  /// A FIFO lane.  Events scheduled at one fixed delay from the clock (a
  /// periodic tick re-arming itself) arrive in key order, so they can queue
  /// in O(1) instead of sifting through the heap.  A lane holds only
  /// entries in ascending key order; `delay` merely picks which lane a new
  /// entry tries, and an empty lane is free for any delay.
  struct Lane {
    Time delay;
    std::vector<Entry> q;
    std::size_t head = 0;
    [[nodiscard]] bool empty() const noexcept { return head == q.size(); }
    [[nodiscard]] std::size_t size() const noexcept { return q.size() - head; }
    void pop() noexcept;
  };
  static constexpr std::size_t kLanes = 4;
  static constexpr std::size_t kFromHeap = kLanes;  ///< `next_from_` value.

  EventId insert(Key key, Callback cb);
  /// Queue an entry: onto the lane for its delay when that keeps the lane
  /// in order (claiming an empty lane if none has that delay), else into
  /// the heap.
  void enqueue(const Entry& e);
  void push_entry(const Entry& e);
  void sift_down(std::size_t hole, Entry e) noexcept;
  /// Remove the heap top and insert \p e in one pass.
  void replace_top(Entry e) noexcept;
  void pop_top() noexcept;
  /// Find the next event to fire — the least of the heap top and the lane
  /// heads — dropping tombstones and re-keying rescheduled entries on the
  /// way; records where it sits in `next_from_`.  Null when none is pending.
  const Entry* settle_next() noexcept;
  /// Fire the event `settle_next` just found.
  void fire_next();
  void maybe_compact();
  void prune_reserved() noexcept;
  void advance_frontier(const Key& k) noexcept {
    if (frontier_ < k) frontier_ = k;
  }

  Time now_{};
  /// The furthest point dispatch has reached: the greatest key fired so far
  /// or boundary a run left behind (see `passed`).  A running maximum, so
  /// an event inserted below it at the current instant (a lower priority
  /// than the one firing) cannot pull it back over a key already passed.
  Key frontier_{};
  bool stopped_{false};
  std::uint64_t next_seq_{0};
  std::uint64_t executed_{0};
  std::size_t live_{0};  ///< Non-tombstoned entries in `heap_`.
  std::vector<Entry> heap_;
  std::array<Lane, kLanes> lanes_;
  std::size_t next_from_{kFromHeap};
  std::vector<Slot> slots_;                ///< Callback + generation per slot.
  std::vector<std::uint32_t> free_slots_;  ///< Retired slots ready for reuse.
  /// Keys issued by `reserve()` that dispatch may not have passed yet
  /// (pruned lazily); they bound `next_event_time()` and `run()`'s clock.
  std::vector<Key> reserved_;
  std::size_t reserved_prune_at_{64};
};

}  // namespace lamsdlc
