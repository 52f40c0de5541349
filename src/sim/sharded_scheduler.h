#pragma once

// Barrier-synchronous facade over N per-shard Schedulers.
//
// Each shard owns a full Scheduler (typed event pool, FIFO delay lanes and a
// 4-ary heap) and runs lock-free within a barrier window; shards communicate
// only through per-(source, destination) mailbox lanes that are drained
// while every shard is parked at the barrier. That single-writer/drain-at-
// barrier discipline is the whole concurrency story: during a parallel
// phase, lane (s, d) is appended to exclusively by the worker running shard
// s, and the coordinator thread reads it only after the pool's wait() (whose
// mutex hand-off establishes the happens-before edge). No atomics, no locks
// on the simulation hot path — and, crucially, the simulation outcome is a
// pure function of the event streams, never of thread interleaving:
//
//   * Within a window a shard sees only its own scheduler, so its event
//     order is the sequential (when, seq) order regardless of what other
//     shards do.
//   * Mail is delivered at the barrier in a fixed (destination, source,
//     emission) order, and a message whose timestamp has already passed is
//     clamped to the barrier time — delivery quantisation onto the barrier
//     grid, the same contract the batched settlement grid already imposes.
//
// Hence: N-shard runs are bit-identical for fixed N, and a 1-shard run
// (one scheduler, no mail) is bit-identical to driving that scheduler's
// run() directly, because Scheduler::run(until) only advances time to
// events it actually fires — windowing cannot change the stream.

#include <cstddef>
#include <cstdint>
#include <vector>

#ifdef SPLICER_AUDIT
#include <atomic>
#include <memory>
#endif

#include "sim/engine_event.h"
#include "sim/scheduler.h"
#include "sim/thread_pool.h"

namespace splicer::sim {

class ShardedScheduler {
 public:
  /// Hooks the drive loop needs from the owner of the shards (the
  /// sharded engine, or a test harness). run_shard() is invoked
  /// concurrently for distinct shards; everything else runs on the
  /// coordinator thread while the workers are parked.
  class ShardRunner {
   public:
    /// Parallel phase: advance shard `shard` to `until` (inclusive).
    /// Returns the number of events executed.
    virtual std::size_t run_shard(std::size_t shard, Time until) = 0;

    /// Serial phase, after the mailboxes for this barrier have been
    /// drained. Deliver rich cross-shard messages, inject new arrivals due
    /// in the next window, and so on.
    virtual void on_barrier(Time barrier) = 0;

    /// Serial phase, after the window end has been fixed but before any
    /// shard runs. Receives the exact window end, so work that must exist
    /// as scheduler events before the window executes (source arrivals,
    /// lookahead injection) can be materialised for everything due at or
    /// before `window_end` — even when drive() fast-forwards over several
    /// empty periods in one window.
    virtual void before_window(Time window_end) { (void)window_end; }

    /// Earliest pending work the schedulers cannot see (e.g. the next
    /// undelivered source arrival). kForever when there is none.
    [[nodiscard]] virtual Time next_work_time() const { return Scheduler::kForever; }

    /// Absolute time past which pending events are abandoned, mirroring the
    /// sequential engine's deadline-driven hard stop. May grow between
    /// windows as new work is discovered. kForever disables the stop.
    [[nodiscard]] virtual Time hard_stop() const { return Scheduler::kForever; }

   protected:
    ~ShardRunner() = default;
  };

  /// The facade references, but does not own, the shard schedulers: each
  /// engine keeps its own Scheduler, the facade coordinates them.
  /// `barrier_period` must be > 0; align it with the settlement epoch so
  /// the two quantisation grids coincide.
  ShardedScheduler(std::vector<Scheduler*> shards, Time barrier_period);

  [[nodiscard]] std::size_t shard_count() const noexcept { return shards_.size(); }
  [[nodiscard]] Time barrier_period() const noexcept { return period_; }
  [[nodiscard]] Scheduler& shard(std::size_t i) { return *shards_[i]; }

  /// Posts a typed event from shard `from` to shard `to`, due at absolute
  /// time `when`. Callable only from the worker currently running shard
  /// `from` (or from the coordinator between windows): lane (from, to) has
  /// exactly one writer at any moment. The event is scheduled on the
  /// destination at the next barrier, at max(when, barrier).
  void post(std::size_t from, std::size_t to, Time when, const EngineEvent& event);

  /// True while any lane holds undelivered mail.
  [[nodiscard]] bool mail_pending() const noexcept;

  /// Earliest pending event across all shard schedulers (kForever if none).
  [[nodiscard]] Time next_event_time() const noexcept;

  /// Drains every lane into its destination scheduler in (destination,
  /// source, emission) order, clamping each event to fire no earlier than
  /// `barrier`. Called by drive() at each barrier; exposed for tests.
  void drain_mailboxes(Time barrier);

  /// Runs the barrier loop to completion: repeatedly pick the next window
  /// end (fast-forwarding over empty epochs to the earliest pending event,
  /// clamped to the runner's hard stop), run every shard to it in parallel
  /// on `pool`, then drain mail and call the runner's barrier hook. Shard
  /// i is pinned to worker i % pool.thread_count(). Stops when no work
  /// remains at or before the hard stop. Returns total events executed.
  std::uint64_t drive(ThreadPool& pool, ShardRunner& runner);

  /// Barriers completed and cross-shard messages delivered so far.
  [[nodiscard]] std::uint64_t barriers() const noexcept { return barriers_; }
  [[nodiscard]] std::uint64_t messages_delivered() const noexcept {
    return messages_delivered_;
  }

  /// BSP critical path in events: the sum over windows of the busiest
  /// shard's event count. With one worker per shard, wall time tracks this
  /// rather than the total — total / critical_path is the parallel speedup
  /// the partition admits on enough cores, independent of the host
  /// (stragglers at each barrier are fully accounted).
  [[nodiscard]] std::uint64_t critical_path_events() const noexcept {
    return critical_path_events_;
  }

 private:
  struct Mail {
    Time when;
    EngineEvent event;
  };

  [[nodiscard]] std::vector<Mail>& lane(std::size_t from, std::size_t to) {
    return lanes_[from * shards_.size() + to];
  }

#ifdef SPLICER_AUDIT
  // Dynamic witness for the single-writer lane contract (SPLICER_AUDIT
  // builds): the first post() from source shard `from` in a phase claims
  // that shard's lanes for its thread; a post from any other thread before
  // the next reset throws. drive() resets ownership at each parallel/serial
  // phase boundary. The atomics exist only in audit builds — the release
  // hot path stays lock- and atomic-free.
  void audit_reset_lane_owners() noexcept;
  void audit_check_lane_writer(std::size_t from);
  std::unique_ptr<std::atomic<std::uint64_t>[]> audit_lane_owner_;
#endif

  std::vector<Scheduler*> shards_;
  Time period_;
  std::vector<std::vector<Mail>> lanes_;  // [from * N + to], single writer
  std::uint64_t barriers_ = 0;
  std::uint64_t messages_delivered_ = 0;
  std::uint64_t critical_path_events_ = 0;
};

}  // namespace splicer::sim
