#include "lamsdlc/core/simulator.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace lamsdlc {

EventId Simulator::schedule_at(Time at, Priority prio, Callback cb) {
  if (at < now_) {
    throw std::invalid_argument("Simulator::schedule_at: time is in the past");
  }
  return insert(Key{at, next_seq(prio)}, std::move(cb));
}

Simulator::Key Simulator::reserve(Time at) {
  if (!(now_ < at)) {
    throw std::invalid_argument("Simulator::reserve: time is not in the future");
  }
  const Key key{at, next_seq(kDefaultPriority)};
  if (reserved_.size() >= reserved_prune_at_) {
    prune_reserved();
    reserved_prune_at_ = std::max<std::size_t>(64, 2 * reserved_.size());
  }
  reserved_.push_back(key);
  return key;
}

EventId Simulator::schedule_reserved(Key key, Callback cb) {
  if (passed(key)) {
    throw std::logic_error("Simulator::schedule_reserved: key already passed");
  }
  return insert(key, std::move(cb));
}

EventId Simulator::insert(Key key, Callback cb) {
  if (!cb) {
    throw std::invalid_argument("Simulator::schedule_at: empty callback");
  }
  std::uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  Slot& s = slots_[slot];
  s.key = key;
  s.cb = std::move(cb);
  enqueue(Entry{key.at, key.seq, slot, s.gen});
  ++live_;
  return pack(slot, s.gen);
}

void Simulator::enqueue(const Entry& e) {
  const Time delay = e.at - now_;
  Lane* spare = nullptr;
  for (Lane& lane : lanes_) {
    if (lane.empty()) {
      if (spare == nullptr) spare = &lane;
    } else if (lane.delay == delay) {
      if (before(lane.q.back(), e)) {
        lane.q.push_back(e);
      } else {
        push_entry(e);  // e.g. a lower priority at the same instant
      }
      return;
    }
  }
  if (spare == nullptr) {
    push_entry(e);
    return;
  }
  spare->delay = delay;
  spare->q.push_back(e);
}

void Simulator::Lane::pop() noexcept {
  if (++head == q.size()) {
    q.clear();
    head = 0;
  } else if (head >= 1024 && 2 * head >= q.size()) {
    // A lane that never drains (a periodic tick) reclaims its consumed
    // prefix now and then: amortized O(1) per entry.
    q.erase(q.begin(), q.begin() + static_cast<std::ptrdiff_t>(head));
    head = 0;
  }
}

std::size_t Simulator::heap_entries() const noexcept {
  std::size_t n = heap_.size();
  for (const Lane& lane : lanes_) n += lane.size();
  return n;
}

bool Simulator::cancel(EventId id) {
  if (!pending(id)) return false;
  const std::uint32_t slot = unpack_slot(id);
  // O(1): invalidate the id and destroy the callback now (its captures are
  // released immediately); the 24-byte heap entry is a tombstone, reclaimed
  // when it surfaces at the top — or by compaction below.
  slots_[slot].cb = Callback{};
  retire_slot(slot);
  --live_;
  maybe_compact();
  return true;
}

EventId Simulator::reschedule(EventId id, Time at) {
  if (!pending(id)) return 0;
  if (at < now_) {
    throw std::invalid_argument("Simulator::reschedule: time is in the past");
  }
  const std::uint32_t slot = unpack_slot(id);
  Slot& s = slots_[slot];
  // Same priority bits, fresh issue counter: the key a cancel + schedule_at
  // pair would produce.
  const Key key{at, (s.key.seq & ~kCounterMask) | (next_seq_++ & kCounterMask)};
  if (!(at < s.key.at)) {
    // Not earlier, and the counter only grows, so the new key sorts after
    // the old one.  The heap entry (whose key never exceeds the slot's) can
    // stay where it is: it surfaces no later than the event is due, and is
    // re-keyed then (settle_next).
    s.key = key;
    return id;
  }
  // Earlier: the entry must move up.  Give the event a new generation and
  // a fresh entry; the old entry is left as a tombstone.
  bump_gen(slot);
  s.key = key;
  enqueue(Entry{key.at, key.seq, slot, s.gen});
  maybe_compact();
  return pack(slot, s.gen);
}

void Simulator::push_entry(const Entry& e) {
  // Hole-based sift-up in a 4-ary heap: parents slide down into the hole
  // until the new entry's position is found, then it is written once.
  heap_.push_back(e);
  std::size_t hole = heap_.size() - 1;
  while (hole > 0) {
    const std::size_t parent = (hole - 1) / 4;
    if (!before(e, heap_[parent])) break;
    heap_[hole] = heap_[parent];
    hole = parent;
  }
  heap_[hole] = e;
}

void Simulator::sift_down(std::size_t hole, Entry e) noexcept {
  const std::size_t n = heap_.size();
  for (;;) {
    const std::size_t first = 4 * hole + 1;
    if (first >= n) break;
    const std::size_t last = std::min(first + 4, n);
    std::size_t best = first;
    for (std::size_t c = first + 1; c < last; ++c) {
      if (before(heap_[c], heap_[best])) best = c;
    }
    if (!before(heap_[best], e)) break;
    heap_[hole] = heap_[best];
    hole = best;
  }
  heap_[hole] = e;
}

void Simulator::replace_top(Entry e) noexcept {
  // Floyd's bottom-up variant: walk the hole from the root to a leaf along
  // the least child (3 compares per level, none against \p e), then sift
  // \p e up from there.  Both callers insert an entry that belongs near the
  // bottom (the heap's last entry, or a timer pushed a timeout later), so
  // the climb back is short.  Keys are unique, so the top — and with it the
  // dispatch order — is exactly what a top-down sift would give.
  const std::size_t n = heap_.size();
  std::size_t hole = 0;
  for (;;) {
    const std::size_t first = 4 * hole + 1;
    if (first >= n) break;
    const std::size_t last = std::min(first + 4, n);
    std::size_t best = first;
    for (std::size_t c = first + 1; c < last; ++c) {
      if (before(heap_[c], heap_[best])) best = c;
    }
    heap_[hole] = heap_[best];
    hole = best;
  }
  while (hole > 0) {
    const std::size_t parent = (hole - 1) / 4;
    if (!before(e, heap_[parent])) break;
    heap_[hole] = heap_[parent];
    hole = parent;
  }
  heap_[hole] = e;
}

void Simulator::pop_top() noexcept {
  const Entry last = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) replace_top(last);
}

const Simulator::Entry* Simulator::settle_next() noexcept {
  for (;;) {
    const Entry* next = heap_.empty() ? nullptr : &heap_.front();
    std::size_t from = kFromHeap;
    for (std::size_t i = 0; i < kLanes; ++i) {
      const Lane& lane = lanes_[i];
      if (!lane.empty() && (next == nullptr || before(lane.q[lane.head], *next))) {
        next = &lane.q[lane.head];
        from = i;
      }
    }
    if (next == nullptr) return nullptr;
    const Entry e = *next;
    const Slot& s = slots_[e.slot];
    if (s.gen == e.gen && s.key.seq == e.seq) {
      next_from_ = from;
      return next;
    }
    if (s.gen != e.gen) {
      // Tombstone of a cancelled or moved-earlier event.
      if (from == kFromHeap) {
        pop_top();
      } else {
        lanes_[from].pop();
      }
      continue;
    }
    // Rescheduled later since this entry was queued: re-key it, in place
    // at the heap top, or by moving it from its lane into the heap.
    const Entry rekeyed{s.key.at, s.key.seq, e.slot, e.gen};
    if (from == kFromHeap) {
      replace_top(rekeyed);
    } else {
      lanes_[from].pop();
      push_entry(rekeyed);
    }
  }
}

void Simulator::maybe_compact() {
  // A timer moved earlier in a loop strands every old entry near the bottom
  // of the heap, where lazy reclaim never reaches.  Once tombstones outnumber
  // live events, sweep them out, re-key what stays, and re-heapify: O(heap)
  // work paid at most every O(heap) tombstones, so the heap stays within 2x
  // of the live population.
  const std::size_t tombstones = heap_entries() - live_;
  if (tombstones <= live_ || tombstones < 64) return;
  // Everything goes back into the heap: re-keying can reorder a lane.
  for (Lane& lane : lanes_) {
    heap_.insert(heap_.end(), lane.q.begin() + static_cast<std::ptrdiff_t>(lane.head),
                 lane.q.end());
    lane.q.clear();
    lane.head = 0;
  }
  std::erase_if(heap_, [this](const Entry& e) { return !entry_live(e); });
  for (Entry& e : heap_) {
    const Key& k = slots_[e.slot].key;
    e.at = k.at;
    e.seq = k.seq;
  }
  if (heap_.size() < 2) return;
  for (std::size_t i = (heap_.size() - 2) / 4 + 1; i-- > 0;) {
    sift_down(i, heap_[i]);  // bottom-up heapify from the last parent
  }
}

void Simulator::prune_reserved() noexcept {
  std::erase_if(reserved_, [this](const Key& k) { return passed(k); });
}

void Simulator::fire_next() {
  const Entry e = next_from_ == kFromHeap ? heap_.front()
                                          : lanes_[next_from_].q[lanes_[next_from_].head];
  if (next_from_ == kFromHeap) {
    pop_top();
  } else {
    lanes_[next_from_].pop();
  }
  Callback cb = std::move(slots_[e.slot].cb);
  retire_slot(e.slot);  // fired: the id is now stale, the slot reusable
  --live_;
  now_ = e.at;
  advance_frontier(Key{e.at, e.seq});
  ++executed_;
  cb();
}

void Simulator::run() {
  stopped_ = false;
  while (!stopped_ && settle_next() != nullptr) {
    fire_next();
  }
  if (stopped_) return;
  // Drained: every reserved key has come due too, so the clock ends where
  // the last of them would have fired.
  for (const Key& k : reserved_) {
    if (!passed(k)) now_ = std::max(now_, k.at);
  }
  reserved_.clear();
  advance_frontier(Key{now_, kAfterAll});
}

Time Simulator::next_event_time() noexcept {
  const Entry* next = settle_next();
  Time t = next != nullptr ? next->at : Time::max();
  prune_reserved();
  for (const Key& k : reserved_) t = std::min(t, k.at);
  return t;
}

void Simulator::run_until(Time horizon) {
  stopped_ = false;
  while (!stopped_) {
    const Entry* next = settle_next();
    if (next == nullptr || horizon < next->at) break;
    fire_next();
  }
  if (!stopped_ && !(horizon < now_)) {
    now_ = horizon;
    advance_frontier(Key{horizon, kAfterAll});
  }
}

void Simulator::run_before(Time limit) {
  stopped_ = false;
  while (!stopped_) {
    const Entry* next = settle_next();
    if (next == nullptr || !(next->at < limit)) break;
    fire_next();
  }
  if (!stopped_ && now_ < limit) {
    now_ = limit;
    advance_frontier(Key{limit, 0});
  }
}

std::ostream& operator<<(std::ostream& os, Time t) {
  const std::int64_t ps = t.ps();
  if (ps % 1'000'000'000'000 == 0) return os << ps / 1'000'000'000'000 << "s";
  if (ps % 1'000'000'000 == 0) return os << ps / 1'000'000'000 << "ms";
  if (ps % 1'000'000 == 0) return os << ps / 1'000'000 << "us";
  if (ps % 1'000 == 0) return os << ps / 1'000 << "ns";
  return os << ps << "ps";
}

}  // namespace lamsdlc
