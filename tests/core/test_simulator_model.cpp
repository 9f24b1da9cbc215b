/// \file test_simulator_model.cpp
/// \brief Differential property test: the kernel against a tiny reference.
///
/// The reference keeps every event — reserved keys included — in an ordered
/// set of (instant, priority|seq) keys with the plainest semantics: a
/// reschedule is an erase plus an insert under a fresh sequence number, and
/// a reserved key is a no-op event that fires silently unless it was
/// materialized.  Seeded random scripts drive both with the same operations
/// (schedule, cancel, earlier and later reschedules, reserve, late
/// materialization, `passed` queries, same-instant collisions across
/// priorities, and `run_before` / `run_until` / `run` boundaries), from the
/// top level and from inside firing callbacks.  Every firing, clock reading
/// and query answer goes into a transcript; the two transcripts must match.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <iterator>
#include <map>
#include <random>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "lamsdlc/core/simulator.hpp"

namespace lamsdlc {
namespace {

using Priority = Simulator::Priority;

/// The operations a script issues, by label; each backend maps labels to
/// its own handles.
class Backend {
 public:
  virtual ~Backend() = default;
  virtual void schedule(int label, Time at, Priority prio) = 0;
  virtual void cancel(int label) = 0;
  virtual void reschedule(int label, Time at) = 0;
  virtual void reserve(int label, Time at) = 0;
  /// Materialize reserved \p label unless its key has passed; returns
  /// whether it was materialized.
  virtual bool materialize(int label) = 0;
  virtual bool passed(int label) = 0;
  virtual Time now() = 0;
  virtual Time next_event_time() = 0;
  virtual void run_before(Time limit) = 0;
  virtual void run_until(Time horizon) = 0;
  virtual void run() = 0;

  std::vector<std::string> log;
  std::function<void(int)> on_fire;

 protected:
  void fired(int label) {
    log.push_back("fire " + std::to_string(label) + " @" +
                  std::to_string(now().ps()));
    on_fire(label);
  }
};

class KernelBackend final : public Backend {
 public:
  void schedule(int label, Time at, Priority prio) override {
    ids_[label] = sim_.schedule_at(at, prio, [this, label] { fired(label); });
  }
  void cancel(int label) override { sim_.cancel(ids_[label]); }
  void reschedule(int label, Time at) override {
    const EventId moved = sim_.reschedule(ids_[label], at);
    if (moved != 0) ids_[label] = moved;
  }
  void reserve(int label, Time at) override { keys_[label] = sim_.reserve(at); }
  bool materialize(int label) override {
    if (sim_.passed(keys_[label])) return false;
    sim_.schedule_reserved(keys_[label], [this, label] { fired(label); });
    return true;
  }
  bool passed(int label) override { return sim_.passed(keys_[label]); }
  Time now() override { return sim_.now(); }
  Time next_event_time() override { return sim_.next_event_time(); }
  void run_before(Time limit) override { sim_.run_before(limit); }
  void run_until(Time horizon) override { sim_.run_until(horizon); }
  void run() override { sim_.run(); }

  [[nodiscard]] const Simulator& sim() const { return sim_; }

 private:
  Simulator sim_;
  std::map<int, EventId> ids_;
  std::map<int, Simulator::Key> keys_;
};

class ModelBackend final : public Backend {
 public:
  void schedule(int label, Time at, Priority prio) override {
    prio_[label] = prio;
    insert(label, at, prio, /*real=*/true);
  }
  void cancel(int label) override {
    const auto it = where_.find(label);
    if (it == where_.end()) return;
    queue_.erase(it->second);
    where_.erase(it);
  }
  void reschedule(int label, Time at) override {
    if (!where_.contains(label)) return;  // not pending: nothing happens
    cancel(label);
    insert(label, at, prio_[label], /*real=*/true);
  }
  void reserve(int label, Time at) override {
    insert(label, at, Simulator::kDefaultPriority, /*real=*/false);
  }
  bool materialize(int label) override {
    const auto it = where_.find(label);
    if (it == where_.end()) return false;  // the silent event already fired
    queue_.erase(it->second);
    std::get<3>(it->second) = true;
    queue_.insert(it->second);
    return true;
  }
  bool passed(int label) override { return !where_.contains(label); }
  Time now() override { return now_; }
  Time next_event_time() override {
    return queue_.empty() ? Time::max() : std::get<0>(*queue_.begin());
  }
  void run_before(Time limit) override {
    while (!queue_.empty() && std::get<0>(*queue_.begin()) < limit) pop();
    if (now_ < limit) now_ = limit;
  }
  void run_until(Time horizon) override {
    while (!queue_.empty() && !(horizon < std::get<0>(*queue_.begin()))) pop();
    if (now_ < horizon) now_ = horizon;
  }
  void run() override {
    while (!queue_.empty()) pop();
  }

 private:
  /// (instant, priority << 48 | seq, label, real).
  using Entry = std::tuple<Time, std::uint64_t, int, bool>;

  void insert(int label, Time at, Priority prio, bool real) {
    const Entry e{at, (std::uint64_t{prio} << 48) | seq_++, label, real};
    queue_.insert(e);
    where_[label] = e;
  }
  void pop() {
    const Entry e = *queue_.begin();
    queue_.erase(queue_.begin());
    where_.erase(std::get<2>(e));
    now_ = std::get<0>(e);
    if (std::get<3>(e)) fired(std::get<2>(e));
  }

  std::set<Entry> queue_;
  std::map<int, Entry> where_;
  std::map<int, Priority> prio_;
  std::uint64_t seq_ = 0;
  Time now_{};
};

/// A seeded random script.  Its own state (which labels exist) evolves
/// identically on both backends as long as they fire identically.
class Script {
 public:
  /// \p churn: rare run boundaries and long delays, so cancelled and
  /// moved-earlier entries pile up far enough to trigger compaction.
  Script(Backend& b, std::uint64_t seed, bool churn = false)
      : b_{b}, seed_{seed}, churn_{churn} {
    b_.on_fire = [this](int label) { on_fire(label); };
  }

  void run(int steps) {
    std::mt19937_64 rng{seed_};
    for (int i = 0; i < steps; ++i) {
      const auto pick = rng() % (churn_ ? 1000 : 100);
      if (pick < 8) {
        const Time limit = b_.now() + offset(rng);
        b_.run_before(limit);
        b_.log.push_back("run_before -> " + std::to_string(b_.now().ps()));
      } else if (pick < 16) {
        const Time horizon = b_.now() + offset(rng);
        b_.run_until(horizon);
        b_.log.push_back("run_until -> " + std::to_string(b_.now().ps()));
      } else if (pick < 17) {
        b_.run();
        b_.log.push_back("run -> " + std::to_string(b_.now().ps()));
      } else {
        op(rng);
      }
    }
    b_.run();
    b_.log.push_back("end " + std::to_string(b_.now().ps()));
  }

 private:
  /// Offsets cluster on a few instants so same-instant collisions (and
  /// collisions with run boundaries) are common; repeated offsets also
  /// exercise the kernel's fixed-delay lanes.
  Time offset(std::mt19937_64& rng) const {
    static constexpr std::int64_t kUs[] = {0, 0, 1, 1, 2, 3, 5, 8, 40};
    static constexpr std::int64_t kChurnUs[] = {0, 1, 3, 40, 900, 5000};
    return churn_ ? Time::microseconds(kChurnUs[rng() % std::size(kChurnUs)])
                  : Time::microseconds(kUs[rng() % std::size(kUs)]);
  }

  void on_fire(int label) {
    std::mt19937_64 rng{seed_ * 0x9E3779B97F4A7C15ull + static_cast<std::uint64_t>(label)};
    const auto ops = rng() % 3;
    for (std::uint64_t i = 0; i < ops; ++i) op(rng);
  }

  void op(std::mt19937_64& rng) {
    auto pick = rng() % 100;
    // Churn: half the schedules and most reschedules become cancels.
    if (churn_ && pick >= 15 && pick < 55) pick = 30;
    const Time at = b_.now() + offset(rng);
    if (pick < (churn_ ? 15 : 30) || timers_.empty()) {
      static constexpr Priority kPrio[] = {Simulator::kDefaultPriority,
                                           Simulator::kDefaultPriority, 0x10,
                                           0xFFFF};
      const int label = next_label_++;
      timers_.push_back(label);
      b_.schedule(label, at, kPrio[rng() % std::size(kPrio)]);
    } else if (pick < 42) {
      // Recent labels are the likeliest to be pending.
      const std::size_t k = timers_.size();
      b_.cancel(timers_[k - 1 - rng() % std::min<std::size_t>(k, 8)]);
    } else if (pick < 62) {
      // Later or earlier than the current deadline, as it happens.
      b_.reschedule(timers_[rng() % timers_.size()], at);
    } else if (pick < 74) {
      // Reserved keys lie strictly in the future (Simulator::reserve).
      const int label = next_label_++;
      reserved_.push_back(label);
      b_.reserve(label, at + Time::microseconds(1));
    } else if (pick < 86 && !reserved_.empty()) {
      const std::size_t k = rng() % reserved_.size();
      const int label = reserved_[k];
      reserved_.erase(reserved_.begin() + static_cast<std::ptrdiff_t>(k));
      b_.log.push_back("materialize " + std::to_string(label) + " " +
                       std::to_string(b_.materialize(label)));
    } else if (pick < 94 && !reserved_.empty()) {
      const int label = reserved_[rng() % reserved_.size()];
      b_.log.push_back("passed " + std::to_string(label) + " " +
                       std::to_string(b_.passed(label)));
    } else {
      b_.log.push_back("next " + std::to_string(b_.next_event_time().ps()));
    }
  }

  Backend& b_;
  std::uint64_t seed_;
  bool churn_;
  int next_label_ = 0;
  std::vector<int> timers_;    ///< Every scheduled label, fired or not.
  std::vector<int> reserved_;  ///< Reserved labels not yet materialized.
};

void expect_same_transcripts(std::uint64_t seeds, int steps, bool churn) {
  for (std::uint64_t seed = 1; seed <= seeds; ++seed) {
    KernelBackend kernel;
    ModelBackend model;
    Script{kernel, seed, churn}.run(steps);
    Script{model, seed, churn}.run(steps);
    ASSERT_GT(kernel.log.size(), 50u);
    const auto diverge =
        std::mismatch(kernel.log.begin(), kernel.log.end(), model.log.begin(),
                      model.log.end());
    ASSERT_TRUE(diverge.first == kernel.log.end() &&
                diverge.second == model.log.end())
        << "seed " << seed << " diverges at transcript line "
        << (diverge.first - kernel.log.begin()) << ": kernel \""
        << (diverge.first == kernel.log.end() ? "<end>" : *diverge.first)
        << "\" vs reference \""
        << (diverge.second == model.log.end() ? "<end>" : *diverge.second)
        << "\"";
    EXPECT_EQ(kernel.sim().events_pending(), 0u) << "seed " << seed;
  }
}

TEST(SimulatorModel, RandomScriptsMatchReferenceOrder) {
  expect_same_transcripts(300, 400, /*churn=*/false);
}

TEST(SimulatorModel, TombstoneChurnMatchesReferenceOrder) {
  expect_same_transcripts(40, 4000, /*churn=*/true);
}

}  // namespace
}  // namespace lamsdlc
