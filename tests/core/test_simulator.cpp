#include "lamsdlc/core/simulator.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

namespace lamsdlc {
namespace {

using namespace lamsdlc::literals;

TEST(Simulator, StartsAtZero) {
  Simulator sim;
  EXPECT_EQ(sim.now(), Time{});
  EXPECT_EQ(sim.events_executed(), 0u);
  EXPECT_EQ(sim.events_pending(), 0u);
}

TEST(Simulator, RunsEventsInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(3_ms, [&] { order.push_back(3); });
  sim.schedule_at(1_ms, [&] { order.push_back(1); });
  sim.schedule_at(2_ms, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), 3_ms);
}

TEST(Simulator, EqualTimesFireInSchedulingOrder) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.schedule_at(5_ms, [&order, i] { order.push_back(i); });
  }
  sim.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(Simulator, ScheduleInIsRelative) {
  Simulator sim;
  Time seen{};
  sim.schedule_at(2_ms, [&] {
    sim.schedule_in(3_ms, [&] { seen = sim.now(); });
  });
  sim.run();
  EXPECT_EQ(seen, 5_ms);
}

TEST(Simulator, SchedulingInPastThrows) {
  Simulator sim;
  sim.schedule_at(10_ms, [] {});
  sim.run();
  EXPECT_THROW(sim.schedule_at(5_ms, [] {}), std::invalid_argument);
}

TEST(Simulator, EmptyCallbackThrows) {
  Simulator sim;
  EXPECT_THROW(sim.schedule_at(1_ms, Simulator::Callback{}),
               std::invalid_argument);
}

TEST(Simulator, CancelPreventsExecution) {
  Simulator sim;
  bool ran = false;
  const EventId id = sim.schedule_at(1_ms, [&] { ran = true; });
  EXPECT_TRUE(sim.pending(id));
  EXPECT_TRUE(sim.cancel(id));
  EXPECT_FALSE(sim.pending(id));
  sim.run();
  EXPECT_FALSE(ran);
}

TEST(Simulator, CancelIsIdempotentAndSafeAfterFire) {
  Simulator sim;
  const EventId id = sim.schedule_at(1_ms, [] {});
  sim.run();
  EXPECT_FALSE(sim.cancel(id));
  EXPECT_FALSE(sim.cancel(id));
  EXPECT_FALSE(sim.cancel(0));  // reserved id
}

TEST(Simulator, StopHaltsAfterCurrentEvent) {
  Simulator sim;
  int count = 0;
  sim.schedule_at(1_ms, [&] {
    ++count;
    sim.stop();
  });
  sim.schedule_at(2_ms, [&] { ++count; });
  sim.run();
  EXPECT_EQ(count, 1);
  sim.run();  // resumes
  EXPECT_EQ(count, 2);
}

TEST(Simulator, RunUntilStopsAtHorizon) {
  Simulator sim;
  int count = 0;
  for (int i = 1; i <= 10; ++i) {
    sim.schedule_at(Time::milliseconds(i), [&] { ++count; });
  }
  sim.run_until(5_ms);
  EXPECT_EQ(count, 5);  // events at exactly the horizon fire
  EXPECT_EQ(sim.now(), 5_ms);
  sim.run_until(20_ms);
  EXPECT_EQ(count, 10);
  EXPECT_EQ(sim.now(), 20_ms);  // clock advances to the idle horizon
}

TEST(Simulator, RunUntilSkipsCancelledEvents) {
  Simulator sim;
  bool ran = false;
  const EventId id = sim.schedule_at(1_ms, [&] { ran = true; });
  sim.cancel(id);
  sim.run_until(2_ms);
  EXPECT_FALSE(ran);
  EXPECT_EQ(sim.now(), 2_ms);
}

TEST(Simulator, EventsCanScheduleMoreEvents) {
  Simulator sim;
  int depth = 0;
  std::function<void()> chain = [&] {
    if (++depth < 100) sim.schedule_in(1_us, chain);
  };
  sim.schedule_in(1_us, chain);
  sim.run();
  EXPECT_EQ(depth, 100);
  EXPECT_EQ(sim.now(), Time::microseconds(100));
  EXPECT_EQ(sim.events_executed(), 100u);
}

TEST(Simulator, PendingCountTracksQueue) {
  Simulator sim;
  const EventId a = sim.schedule_at(1_ms, [] {});
  sim.schedule_at(2_ms, [] {});
  EXPECT_EQ(sim.events_pending(), 2u);
  sim.cancel(a);
  EXPECT_EQ(sim.events_pending(), 1u);
  sim.run();
  EXPECT_EQ(sim.events_pending(), 0u);
}

TEST(Simulator, CancelInsideCallbackOfSameTime) {
  // An event firing at time T may cancel a sibling also scheduled at T.
  Simulator sim;
  bool second_ran = false;
  EventId second{};
  sim.schedule_at(1_ms, [&] { sim.cancel(second); });
  second = sim.schedule_at(1_ms, [&] { second_ran = true; });
  sim.run();
  EXPECT_FALSE(second_ran);
}

TEST(Simulator, StaleIdIsHarmlessAfterSlotReuse) {
  // Cancelling (or firing) retires an id's generation; a later event that
  // reuses the same physical slot must be invisible to the stale id.
  Simulator sim;
  const EventId a = sim.schedule_at(1_ms, [] {});
  ASSERT_TRUE(sim.cancel(a));
  bool ran = false;
  const EventId b = sim.schedule_at(2_ms, [&] { ran = true; });  // reuses slot
  EXPECT_FALSE(sim.pending(a));
  EXPECT_FALSE(sim.cancel(a));  // must not hit b
  EXPECT_TRUE(sim.pending(b));
  sim.run();
  EXPECT_TRUE(ran);
}

TEST(Simulator, TimerRearmLoopKeepsHeapBounded) {
  // The tombstone regression: a timer re-armed in a loop (cancel + far-future
  // re-schedule) used to strand every cancelled entry in the queue until its
  // due time.  Compaction must keep the physical heap within a constant
  // factor of the live population.
  Simulator sim;
  EventId timer = sim.schedule_at(Time::seconds_int(3600), [] {});
  for (int i = 0; i < 100'000; ++i) {
    ASSERT_TRUE(sim.cancel(timer));
    timer = sim.schedule_at(Time::seconds_int(3600 + i % 60), [] {});
  }
  EXPECT_EQ(sim.events_pending(), 1u);
  // One live event; allow compaction slack (2x live + sweep threshold).
  EXPECT_LE(sim.heap_entries(), 130u);
  ASSERT_TRUE(sim.cancel(timer));
  sim.run();
  EXPECT_EQ(sim.events_executed(), 0u);
}

TEST(Simulator, RescheduleRearmLoopLeavesNoTombstones) {
  // The same re-arm loop through reschedule(): a deadline that only moves
  // later is updated in place, so the heap never holds a dead entry.
  Simulator sim;
  sim.schedule_at(Time::seconds_int(7200), [] {});  // an unrelated bystander
  int fired = 0;
  EventId timer = sim.schedule_at(Time::seconds_int(3600), [&] { ++fired; });
  for (int i = 0; i < 100'000; ++i) {
    const EventId moved =
        sim.reschedule(timer, Time::seconds_int(3600) + Time::microseconds(i));
    ASSERT_EQ(moved, timer);  // same event, same id
    ASSERT_EQ(sim.heap_entries(), sim.events_pending());
  }
  EXPECT_EQ(sim.events_pending(), 2u);
  sim.run_until(Time::seconds_int(3600));
  EXPECT_EQ(fired, 0);  // moved past the old deadline
  sim.run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.events_executed(), 2u);
}

TEST(Simulator, EarlierRescheduleStaysBounded) {
  // Moving a deadline earlier leaves a tombstone behind (the entry must move
  // up the heap); compaction keeps those bounded like cancels.
  Simulator sim;
  EventId timer = sim.schedule_at(Time::seconds_int(7200), [] {});
  for (int i = 0; i < 100'000; ++i) {
    timer = sim.reschedule(timer, Time::seconds_int(7200) - Time::microseconds(i + 1));
    ASSERT_TRUE(sim.pending(timer));
  }
  EXPECT_EQ(sim.events_pending(), 1u);
  EXPECT_LE(sim.heap_entries(), 130u);
  sim.run();
  EXPECT_EQ(sim.events_executed(), 1u);
}

TEST(Simulator, RescheduleKeysLikeCancelPlusSchedule) {
  // Same-instant FIFO: a rescheduled event goes behind everything already
  // scheduled at its new instant, and keeps its priority.
  Simulator sim;
  std::vector<int> order;
  const EventId a = sim.schedule_at(1_ms, [&] { order.push_back(0); });
  sim.schedule_at(2_ms, [&] { order.push_back(1); });
  const EventId c =
      sim.schedule_at(3_ms, Simulator::Priority{7}, [&] { order.push_back(2); });
  sim.schedule_at(2_ms, Simulator::Priority{9}, [&] { order.push_back(3); });
  EXPECT_EQ(sim.reschedule(a, 2_ms), a);  // later: in place
  EXPECT_NE(sim.reschedule(c, 2_ms), c);  // earlier: a new id
  EXPECT_FALSE(sim.pending(c));
  sim.run();
  // Priority 7 first, then 9, then the default-priority pair in FIFO order
  // (1 was scheduled at 2 ms before 0 was moved there).
  EXPECT_EQ(order, (std::vector<int>{2, 3, 1, 0}));
  EXPECT_EQ(sim.reschedule(a, 5_ms), 0u);  // fired: nothing to move
}

TEST(Simulator, ReservedKeyHoldsItsPlaceInTheOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(1_ms, [&] { order.push_back(0); });
  const Simulator::Key k = sim.reserve(1_ms);
  sim.schedule_at(1_ms, [&] { order.push_back(2); });
  EXPECT_FALSE(sim.passed(k));
  sim.run_before(1_ms);  // leaves dispatch just before everything at 1 ms
  EXPECT_FALSE(sim.passed(k));
  sim.schedule_at(1_ms, [&] {
    order.push_back(3);
    EXPECT_TRUE(sim.passed(k));  // fires after the reserved key
  });
  sim.schedule_reserved(k, [&] { order.push_back(1); });
  sim.run_until(1_ms);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_TRUE(sim.passed(k));
  EXPECT_THROW(sim.schedule_reserved(k, [] {}), std::logic_error);
}

TEST(Simulator, UnmaterializedReservationCountsAsAPendingInstant) {
  Simulator sim;
  sim.schedule_at(1_ms, [] {});
  const Simulator::Key k = sim.reserve(4_ms);
  EXPECT_EQ(sim.next_event_time(), 1_ms);
  sim.run_before(2_ms);
  EXPECT_EQ(sim.next_event_time(), 4_ms);
  sim.run();  // drains to where the reserved key would have fired
  EXPECT_EQ(sim.now(), 4_ms);
  EXPECT_TRUE(sim.passed(k));
  EXPECT_EQ(sim.next_event_time(), Time::max());
}

TEST(Simulator, CallbackCapturesAreReleasedOnCancel) {
  // cancel() destroys the callback eagerly, so captured resources (buffers,
  // shared_ptrs) do not linger until the tombstone surfaces.
  Simulator sim;
  auto token = std::make_shared<int>(42);
  std::weak_ptr<int> watch = token;
  const EventId id = sim.schedule_at(Time::seconds_int(3600),
                                     [t = std::move(token)] { (void)*t; });
  EXPECT_FALSE(watch.expired());
  sim.cancel(id);
  EXPECT_TRUE(watch.expired());
}

TEST(InlineFunction, SmallCapturesStayInline) {
  int x = 0;
  core::InlineFunction<48> f{[&x] { ++x; }};
  EXPECT_TRUE(static_cast<bool>(f));
  EXPECT_TRUE(f.is_inline());
  f();
  EXPECT_EQ(x, 1);
  // Moving transfers the callable; the source becomes empty.
  core::InlineFunction<48> g{std::move(f)};
  g();
  EXPECT_EQ(x, 2);
  EXPECT_FALSE(static_cast<bool>(f));
}

TEST(InlineFunction, FatCapturesFallBackToHeap) {
  std::array<std::uint64_t, 16> big{};  // 128 bytes > 48-byte buffer
  big[7] = 99;
  std::uint64_t seen = 0;
  core::InlineFunction<48> f{[big, &seen] { seen = big[7]; }};
  EXPECT_FALSE(f.is_inline());
  f();
  EXPECT_EQ(seen, 99u);
  core::InlineFunction<48> g{std::move(f)};  // heap move is a pointer swap
  g = core::InlineFunction<48>{};            // assignment destroys the callable
  EXPECT_FALSE(static_cast<bool>(g));
}

TEST(Simulator, SameInstantPriorityOrdersBeforeFifo) {
  Simulator sim;
  std::vector<int> order;
  // Scheduled last, lowest priority: must still fire first at the instant.
  sim.schedule_at(5_ms, [&] { order.push_back(2); });  // default priority
  sim.schedule_at(5_ms, [&] { order.push_back(3); });  // default priority
  sim.schedule_at(5_ms, Simulator::Priority{7}, [&] { order.push_back(1); });
  sim.schedule_at(5_ms, Simulator::Priority{3}, [&] { order.push_back(0); });
  // Above-default priority fires after everything else at the instant.
  sim.schedule_at(5_ms, Simulator::Priority{0xFFFF},
                  [&] { order.push_back(4); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Simulator, PriorityDoesNotReorderAcrossTimes) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(2_ms, Simulator::Priority{0xFFFF}, [&] { order.push_back(0); });
  sim.schedule_at(3_ms, Simulator::Priority{0}, [&] { order.push_back(1); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1}));
}

TEST(Simulator, RunBeforeIsExclusiveAndAdvancesClock) {
  Simulator sim;
  std::vector<int> fired;
  sim.schedule_at(1_ms, [&] { fired.push_back(1); });
  sim.schedule_at(2_ms, [&] { fired.push_back(2); });
  sim.schedule_at(3_ms, [&] { fired.push_back(3); });
  sim.run_before(2_ms);
  // The 2 ms event must NOT fire; the clock still lands exactly at 2 ms.
  EXPECT_EQ(fired, (std::vector<int>{1}));
  EXPECT_EQ(sim.now(), 2_ms);
  // Scheduling *at* the current instant stays legal after run_before.
  sim.schedule_at(2_ms, [&] { fired.push_back(4); });
  sim.run_before(3_ms);
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 4}));
  EXPECT_EQ(sim.now(), 3_ms);
  sim.run_before(10_ms);  // empty-window advance with the 3 ms event fired
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 4, 3}));
  EXPECT_EQ(sim.now(), 10_ms);
}

TEST(Simulator, ManyEventsStressOrdering) {
  Simulator sim;
  Time last{};
  bool monotone = true;
  for (int i = 0; i < 10'000; ++i) {
    // Deterministic pseudo-shuffled times.
    const auto t = Time::microseconds((i * 7919) % 10'000);
    sim.schedule_at(t, [&, t] {
      if (sim.now() < last) monotone = false;
      last = sim.now();
      (void)t;
    });
  }
  sim.run();
  EXPECT_TRUE(monotone);
  EXPECT_EQ(sim.events_executed(), 10'000u);
}

}  // namespace
}  // namespace lamsdlc
