#include "sim/scheduler.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <iterator>
#include <map>
#include <set>
#include <stdexcept>
#include <utility>
#include <vector>

#include "common/rng.h"

namespace splicer::sim {
namespace {

/// Router-timer event carrying `tag` in its `a` field.
EngineEvent tagged(std::uint64_t tag) {
  return EngineEvent{.kind = EngineEvent::Kind::kRouterTimer, .a = tag};
}

/// Records every event it receives (tag and fire time, in dispatch order)
/// and optionally reacts to it, so handlers can schedule follow-up events
/// from inside a run.
class Recorder final : public EventSink {
 public:
  explicit Recorder(Scheduler& scheduler) : scheduler_(scheduler) {
    scheduler_.set_sink(this);
  }
  void handle_event(const EngineEvent& event) override {
    events.push_back(event);
    tags.push_back(event.a);
    times.push_back(scheduler_.now());
    if (react) react(event.a);
  }

  std::vector<EngineEvent> events;
  std::vector<std::uint64_t> tags;
  std::vector<Time> times;
  std::function<void(std::uint64_t)> react;

 private:
  Scheduler& scheduler_;
};

TEST(Scheduler, FiresInTimeOrder) {
  Scheduler s;
  Recorder rec(s);
  s.at(3.0, tagged(3));
  s.at(1.0, tagged(1));
  s.at(2.0, tagged(2));
  s.run();
  EXPECT_EQ(rec.tags, (std::vector<std::uint64_t>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(s.now(), 3.0);
}

TEST(Scheduler, TiesBreakBySchedulingOrder) {
  Scheduler s;
  Recorder rec(s);
  s.at(1.0, tagged(1));
  s.at(1.0, tagged(2));
  s.at(1.0, tagged(3));
  s.run();
  EXPECT_EQ(rec.tags, (std::vector<std::uint64_t>{1, 2, 3}));
}

TEST(Scheduler, AfterIsRelative) {
  Scheduler s;
  Recorder rec(s);
  rec.react = [&](std::uint64_t tag) {
    if (tag == 1) s.after(2.5, tagged(2));
  };
  s.at(5.0, tagged(1));
  s.run();
  ASSERT_EQ(rec.times.size(), 2u);
  EXPECT_DOUBLE_EQ(rec.times[1], 7.5);
}

TEST(Scheduler, PastTimesClampToNow) {
  Scheduler s;
  Recorder rec(s);
  rec.react = [&](std::uint64_t tag) {
    if (tag == 1) s.at(1.0, tagged(2));  // in the past
  };
  s.at(5.0, tagged(1));
  s.run();
  ASSERT_EQ(rec.times.size(), 2u);
  EXPECT_DOUBLE_EQ(rec.times[1], 5.0);
}

TEST(Scheduler, CancelPreventsExecution) {
  Scheduler s;
  Recorder rec(s);
  const auto id = s.at(1.0, tagged(1));
  EXPECT_TRUE(s.cancel(id));
  s.run();
  EXPECT_TRUE(rec.events.empty());
}

TEST(Scheduler, CancelTwiceReturnsFalse) {
  Scheduler s;
  Recorder rec(s);
  const auto id = s.at(1.0, tagged(1));
  EXPECT_TRUE(s.cancel(id));
  EXPECT_FALSE(s.cancel(id));
  EXPECT_FALSE(s.cancel(9999));  // unknown id
}

TEST(Scheduler, RunUntilStopsEarly) {
  Scheduler s;
  Recorder rec(s);
  s.at(1.0, tagged(1));
  s.at(2.0, tagged(2));
  s.at(10.0, tagged(3));
  const std::size_t executed = s.run(5.0);
  EXPECT_EQ(executed, 2u);
  EXPECT_EQ(rec.events.size(), 2u);
  EXPECT_EQ(s.pending(), 1u);
}

TEST(Scheduler, MaxEventsLimit) {
  Scheduler s;
  Recorder rec(s);
  for (int i = 0; i < 10; ++i) s.at(i, tagged(static_cast<std::uint64_t>(i)));
  s.run(Scheduler::kForever, 4);
  EXPECT_EQ(rec.events.size(), 4u);
}

TEST(Scheduler, PendingCountsLiveEvents) {
  Scheduler s;
  Recorder rec(s);
  EXPECT_TRUE(s.empty());
  const auto a = s.at(1.0, tagged(1));
  s.at(2.0, tagged(2));
  EXPECT_EQ(s.pending(), 2u);
  s.cancel(a);
  EXPECT_EQ(s.pending(), 1u);
  s.run();
  EXPECT_TRUE(s.empty());
}

TEST(Scheduler, StepExecutesExactlyOne) {
  Scheduler s;
  Recorder rec(s);
  s.at(1.0, tagged(1));
  s.at(2.0, tagged(2));
  EXPECT_TRUE(s.step());
  EXPECT_EQ(rec.events.size(), 1u);
  EXPECT_TRUE(s.step());
  EXPECT_FALSE(s.step());
}

TEST(Scheduler, AtNextBoundaryCoalescesOntoEpochGrid) {
  Scheduler s;
  Recorder rec(s);
  rec.react = [&](std::uint64_t tag) {
    if (tag != 1) return;
    // Both requests from inside one epoch land on the same boundary.
    s.at_next_boundary(0.010, tagged(2));
    s.at_next_boundary(0.010, tagged(3));
  };
  s.at(0.013, tagged(1));
  s.run();
  ASSERT_EQ(rec.times.size(), 3u);
  EXPECT_NEAR(rec.times[1], 0.020, 1e-12);
  // Coalescing requires the two boundary timestamps to be bit-identical.
  EXPECT_EQ(rec.times[1], rec.times[2]);
}

TEST(Scheduler, AtNextBoundaryIsStrictlyAfterNow) {
  Scheduler s;
  Recorder rec(s);
  rec.react = [&](std::uint64_t tag) {
    // Exactly on a boundary: the next one must be chosen, not this one.
    if (tag == 1) s.at_next_boundary(0.010, tagged(2));
  };
  s.at(0.020, tagged(1));
  s.run();
  ASSERT_EQ(rec.times.size(), 2u);
  EXPECT_NEAR(rec.times[1], 0.030, 1e-12);
  EXPECT_GT(rec.times[1], 0.020);
}

TEST(Scheduler, AtNextBoundaryRejectsNonPositivePeriod) {
  Scheduler s;
  Recorder rec(s);
  EXPECT_THROW(s.at_next_boundary(0.0, tagged(1)), std::invalid_argument);
}

TEST(Scheduler, RunCountsOnlyRealExecutions) {
  Scheduler s;
  Recorder rec(s);
  s.at(1.0, tagged(1));
  const auto cancelled = s.at(2.0, tagged(2));
  s.at(3.0, tagged(3));
  EXPECT_TRUE(s.cancel(cancelled));
  // Cancelled events are skipped without being counted as executed.
  EXPECT_EQ(s.run(), 2u);
}

TEST(Scheduler, EventsScheduledDuringRunExecute) {
  Scheduler s;
  Recorder rec(s);
  rec.react = [&](std::uint64_t tag) {
    if (tag == 1) s.at(1.5, tagged(2));
  };
  s.at(1.0, tagged(1));
  s.at(2.0, tagged(3));
  s.run();
  EXPECT_EQ(rec.tags, (std::vector<std::uint64_t>{1, 2, 3}));
}

TEST(Scheduler, TypedEventsDispatchThroughSinkInOrder) {
  Scheduler s;
  Recorder rec(s);
  s.at(2.0, EngineEvent{.kind = EngineEvent::Kind::kArriveNext,
                        .channel = 7,
                        .aux = 1,
                        .a = 42,
                        .b = 5});
  s.at(1.0, EngineEvent{.kind = EngineEvent::Kind::kAttemptHop, .a = 9});
  s.after(0.5, EngineEvent{.kind = EngineEvent::Kind::kDeadline, .a = 3});
  s.run();
  ASSERT_EQ(rec.events.size(), 3u);
  EXPECT_EQ(rec.events[0].kind, EngineEvent::Kind::kDeadline);
  EXPECT_EQ(rec.events[0].a, 3u);
  EXPECT_EQ(rec.events[1].kind, EngineEvent::Kind::kAttemptHop);
  EXPECT_EQ(rec.events[2].kind, EngineEvent::Kind::kArriveNext);
  EXPECT_EQ(rec.events[2].channel, 7u);
  EXPECT_EQ(rec.events[2].aux, 1u);
  EXPECT_EQ(rec.events[2].a, 42u);
  EXPECT_EQ(rec.events[2].b, 5u);
}

TEST(Scheduler, TypedEventWithoutSinkThrows) {
  Scheduler s;
  EXPECT_THROW(s.at(1.0, EngineEvent{.kind = EngineEvent::Kind::kFlush}),
               std::logic_error);
}

TEST(Scheduler, TypedEventWithKindNoneIsRejectedAtScheduleTime) {
  // kNone marks an unset event: it must fail loudly up front instead of
  // reaching the sink at fire time.
  Scheduler s;
  Recorder rec(s);
  EXPECT_THROW(s.at(1.0, EngineEvent{}), std::invalid_argument);
  EXPECT_TRUE(s.empty());
}

// ---- Eager cancellation / pool generations ---------------------------------

TEST(Scheduler, CancelAfterFireReturnsFalseAndKeepsAccounting) {
  // Regression: the tombstone scheduler accepted a cancel() of an already-
  // fired id, inserting a never-collected tombstone and corrupting
  // pending()/empty(). The generation counter now detects it.
  Scheduler s;
  Recorder rec(s);
  const auto fired = s.at(1.0, tagged(1));
  s.at(2.0, tagged(2));
  EXPECT_TRUE(s.step());  // fires the first event
  EXPECT_FALSE(s.cancel(fired));
  EXPECT_EQ(s.pending(), 1u);  // untouched by the stale cancel
  EXPECT_FALSE(s.empty());
  EXPECT_EQ(s.run(), 1u);
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.pending(), 0u);
}

TEST(Scheduler, GenerationReuseInvalidatesOldIds) {
  Scheduler s;
  Recorder rec(s);
  const auto first = s.at(1.0, tagged(1));
  EXPECT_TRUE(s.cancel(first));
  // The pool slot is recycled; the old id must not cancel the new event.
  const auto second = s.at(1.0, tagged(2));
  EXPECT_NE(first, second);
  EXPECT_FALSE(s.cancel(first));
  EXPECT_EQ(s.pending(), 1u);
  s.run();
  EXPECT_EQ(rec.tags, (std::vector<std::uint64_t>{2}));
  EXPECT_FALSE(s.cancel(second));  // fired: detected stale
}

TEST(Scheduler, CancelRemovesEagerly) {
  Scheduler s;
  Recorder rec(s);
  std::vector<Scheduler::EventId> ids;
  for (int i = 0; i < 10; ++i) {
    ids.push_back(s.at(1.0 + i, tagged(static_cast<std::uint64_t>(i))));
  }
  // Cancel from the middle of the heap; pending must track exactly.
  EXPECT_TRUE(s.cancel(ids[4]));
  EXPECT_TRUE(s.cancel(ids[9]));
  EXPECT_TRUE(s.cancel(ids[0]));
  EXPECT_EQ(s.pending(), 7u);
  EXPECT_EQ(s.run(), 7u);
  EXPECT_TRUE(s.empty());
}

TEST(Scheduler, DrainWithInterleavedCancelsIsDeterministic) {
  // The same schedule/cancel/step sequence must produce the identical
  // firing order on independent schedulers (the substrate of the N-thread
  // ParallelRunner bit-identity guarantee).
  const auto run_once = [] {
    Scheduler s;
    Recorder rec(s);
    common::Rng rng(1234);
    std::vector<Scheduler::EventId> live;
    for (int round = 0; round < 50; ++round) {
      for (int i = 0; i < 20; ++i) {
        const double when = rng.uniform(0.0, 100.0);
        const std::uint64_t tag =
            static_cast<std::uint64_t>(round) * 100 + static_cast<std::uint64_t>(i);
        live.push_back(s.at(when, tagged(tag)));
      }
      // Cancel a random half of the still-known ids (stale ones no-op).
      for (int i = 0; i < 10; ++i) {
        s.cancel(live[rng.index(live.size())]);
      }
      s.run(Scheduler::kForever, 5);  // interleave partial drains
    }
    s.run();
    return rec.tags;
  };
  const auto a = run_once();
  const auto b = run_once();
  EXPECT_FALSE(a.empty());
  EXPECT_EQ(a, b);
}

TEST(Scheduler, PoolStressReusesSlotsConsistently) {
  // ASan food for the free list: heavy schedule/cancel/fire churn over a
  // small time window forces constant slot recycling and heap growth.
  Scheduler s;
  Recorder rec(s);
  common::Rng rng(99);
  std::vector<Scheduler::EventId> ids;
  std::size_t cancelled = 0;
  for (int round = 0; round < 200; ++round) {
    for (int i = 0; i < 50; ++i) {
      ids.push_back(s.after(rng.uniform(0.0, 2.0), tagged(ids.size())));
    }
    for (int i = 0; i < 25; ++i) {
      if (s.cancel(ids[rng.index(ids.size())])) ++cancelled;
    }
    s.run(s.now() + 0.5);
  }
  s.run();
  EXPECT_EQ(rec.events.size() + cancelled, 200u * 50u);
  EXPECT_TRUE(s.empty());
}

// ---- Reference model -------------------------------------------------------

/// The queue's specification: a std::set ordered by (when, seq), with the
/// scheduler's clamping and sequence numbering. Every operation the
/// scheduler supports has a one-line counterpart here.
class ReferenceQueue {
 public:
  std::uint64_t schedule(Time when, std::uint64_t tag) {
    when = when < now_ ? now_ : when;
    const std::uint64_t seq = next_seq_++;
    queue_.emplace(when, seq);
    entries_[seq] = {when, tag};
    return seq;
  }
  bool cancel(std::uint64_t seq) {
    const auto it = entries_.find(seq);
    if (it == entries_.end()) return false;
    queue_.erase({it->second.first, seq});
    entries_.erase(it);
    return true;
  }
  /// Pops the earliest event: sets now and returns its tag.
  std::uint64_t pop() {
    const auto [when, seq] = *queue_.begin();
    queue_.erase(queue_.begin());
    now_ = when;
    const std::uint64_t tag = entries_.at(seq).second;
    entries_.erase(seq);
    return tag;
  }
  [[nodiscard]] bool empty() const { return queue_.empty(); }
  [[nodiscard]] std::size_t pending() const { return queue_.size(); }
  [[nodiscard]] Time next_event_time() const {
    return queue_.empty() ? Scheduler::kForever : queue_.begin()->first;
  }
  [[nodiscard]] Time now() const { return now_; }

 private:
  Time now_ = 0.0;
  std::uint64_t next_seq_ = 1;
  std::set<std::pair<Time, std::uint64_t>> queue_;
  std::map<std::uint64_t, std::pair<Time, std::uint64_t>> entries_;  // seq -> (when, tag)
};

TEST(Scheduler, MatchesReferenceModelUnderRandomOperations) {
  // Fixed delays (one FIFO lane each, including walk-back style sums and a
  // zero delay for same-instant ties), negative delays (clamped), random
  // delays (one lane each until the lane cap, then the heap) and absolute
  // times (the heap), interleaved with cancels and partial drains. After
  // every operation the scheduler must agree with the std::set model on
  // the events fired, now(), pending(), empty() and next_event_time().
  constexpr double kHop = 0.01;
  const std::vector<double> fixed_delays = {kHop, kHop + kHop, kHop + kHop + kHop,
                                            0.0, 0.25};
  constexpr std::uint64_t kChildTag = std::uint64_t{1} << 40;
  // Delay group of an event: an index into fixed_delays, or kOther.
  constexpr std::size_t kOther = ~std::size_t{0};
  enum class State { kLive, kFired, kCancelled };
  struct Record {
    Scheduler::EventId id = 0;
    std::uint64_t seq = 0;
    std::size_t group = kOther;
    State state = State::kLive;
  };
  std::map<std::uint64_t, Record> records;  // by tag

  Scheduler s;
  Recorder rec(s);
  ReferenceQueue ref;
  std::vector<std::uint64_t> ref_tags;
  // Every fifth top-level event schedules a child one hop later from
  // inside its handler, on both sides, so lanes also fill mid-run.
  const auto reacts = [&](std::uint64_t tag) { return tag < kChildTag && tag % 5 == 0; };
  rec.react = [&](std::uint64_t tag) {
    if (reacts(tag)) records[tag + kChildTag].id = s.after(kHop, tagged(tag + kChildTag));
  };
  const auto ref_pop = [&] {
    const std::uint64_t tag = ref.pop();
    ref_tags.push_back(tag);
    if (reacts(tag)) {
      Record& child = records[tag + kChildTag];
      child.seq = ref.schedule(ref.now() + kHop, tag + kChildTag);
      child.group = 0;
    }
  };
  const auto ref_run = [&](Time until, std::size_t max_events) {
    std::size_t executed = 0;
    while (executed < max_events && !ref.empty() &&
           ref.next_event_time() <= until) {
      ref_pop();
      ++executed;
    }
    return executed;
  };
  const auto live_in_group = [&](std::size_t group) {
    std::vector<std::uint64_t> tags;  // ascending seq = lane order
    for (const auto& [tag, r] : records) {
      if (r.state == State::kLive && r.group == group) tags.push_back(tag);
    }
    std::sort(tags.begin(), tags.end(), [&](std::uint64_t a, std::uint64_t b) {
      return records[a].seq < records[b].seq;
    });
    return tags;
  };
  const auto cancel_both = [&](std::uint64_t tag) {
    Record& r = records.at(tag);
    const bool expected = r.state == State::kLive;
    EXPECT_EQ(s.cancel(r.id), expected) << "tag " << tag;
    EXPECT_EQ(ref.cancel(r.seq), expected) << "tag " << tag;
    if (expected) r.state = State::kCancelled;
  };

  common::Rng rng(2024);
  std::uint64_t next_tag = 1;
  std::size_t fired_checked = 0;
  for (int op = 0; op < 20000; ++op) {
    const double roll = rng.uniform01();
    if (roll < 0.30) {  // after() with a fixed delay
      const std::size_t group = rng.index(fixed_delays.size());
      const std::uint64_t tag = next_tag++;
      Record& r = records[tag];
      r.group = group;
      r.id = s.after(fixed_delays[group], tagged(tag));
      r.seq = ref.schedule(ref.now() + fixed_delays[group], tag);
    } else if (roll < 0.38) {  // after() with a random or negative delay
      const double delay = rng.bernoulli(0.2) ? -rng.uniform(0.0, 1.0)
                                              : rng.uniform(0.0, 1.0);
      const std::uint64_t tag = next_tag++;
      Record& r = records[tag];
      r.id = s.after(delay, tagged(tag));
      r.seq = ref.schedule(ref.now() + delay, tag);
    } else if (roll < 0.48) {  // at(): past, present, future, or tied
      // with the lane events an after() of a fixed delay would create
      const double when =
          rng.bernoulli(0.5)
              ? ref.now() + rng.uniform(-0.5, 1.0)
              : ref.now() + fixed_delays[rng.index(fixed_delays.size())];
      const std::uint64_t tag = next_tag++;
      Record& r = records[tag];
      r.id = s.at(when, tagged(tag));
      r.seq = ref.schedule(when, tag);
    } else if (roll < 0.54) {  // cancel a lane head or a mid-lane event
      const auto lane = live_in_group(rng.index(fixed_delays.size()));
      if (!lane.empty()) {
        cancel_both(rng.bernoulli(0.5) ? lane.front() : lane[lane.size() / 2]);
      }
    } else if (roll < 0.58) {  // cancel any known id: live, fired or stale
      if (!records.empty()) {
        auto it = records.begin();
        std::advance(it, static_cast<std::ptrdiff_t>(rng.index(records.size())));
        cancel_both(it->first);
      }
    } else if (roll < 0.59) {  // an id that was never issued
      EXPECT_FALSE(s.cancel((std::uint64_t{7} << 32) | 0xfffffu));
    } else if (roll < 0.75) {
      EXPECT_EQ(s.step(), !ref.empty());
      if (!ref.empty()) ref_pop();
    } else if (roll < 0.90) {
      const Time until = ref.now() + rng.uniform(0.0, 0.1);
      EXPECT_EQ(s.run(until), ref_run(until, Scheduler::kUnlimited));
    } else {
      const std::size_t max_events = rng.index(8);
      EXPECT_EQ(s.run(Scheduler::kForever, max_events),
                ref_run(Scheduler::kForever, max_events));
    }
    // Fired events: same tags in the same order on both sides.
    ASSERT_EQ(rec.tags.size(), ref_tags.size()) << "op " << op;
    for (; fired_checked < ref_tags.size(); ++fired_checked) {
      ASSERT_EQ(rec.tags[fired_checked], ref_tags[fired_checked]) << "op " << op;
      records.at(ref_tags[fired_checked]).state = State::kFired;
    }
    ASSERT_EQ(s.now(), ref.now()) << "op " << op;
    ASSERT_EQ(s.pending(), ref.pending()) << "op " << op;
    ASSERT_EQ(s.empty(), ref.empty()) << "op " << op;
    ASSERT_EQ(s.next_event_time(), ref.next_event_time()) << "op " << op;
  }
  EXPECT_EQ(s.run(), ref_run(Scheduler::kForever, Scheduler::kUnlimited));
  EXPECT_EQ(rec.tags, ref_tags);
  EXPECT_TRUE(s.empty());
  EXPECT_GT(rec.tags.size(), 5000u);
}

}  // namespace
}  // namespace splicer::sim
