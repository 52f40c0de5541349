#pragma once

// Deterministic discrete-event scheduler. Events fire in (time, sequence)
// order, so two events at the same timestamp execute in scheduling order -
// runs are bit-reproducible given the same seed and call sequence. This is
// the substitute substrate for the paper's LND-testnet deployment (see
// DESIGN.md substitution table).
//
// Hot-path representation: events live in a free-list pool (stable slots,
// no per-event allocation) and wait in one of two kinds of queue:
//
//   * FIFO lanes, one per distinct after() delay (up to kMaxLanes, keyed by
//     the delay's exact bits; finite delays >= 0 only). now() never
//     decreases and IEEE addition is monotone, so now() + delay never
//     decreases either: appending keeps a lane sorted by (time, sequence),
//     and a lane push is O(1). The engine's fixed-delay streams (hop
//     arrivals, walk-back acks at k hop delays, congestion marks) are most
//     of a run's events and never touch a heap. An at() time not after
//     now() is the same event as after(0) and joins the zero-delay lane.
//   * An index-based 4-ary min-heap for everything else (future at()
//     times, boundary events, varying delays, lane overflow), moving
//     4-byte slot indices with the ordering key inlined.
//
// A small binary heap over the lane heads tracks the earliest lane; step()
// fires whichever of its top and the 4-ary heap's top comes first, so pops
// follow exactly the (time, sequence) order a single heap would give.
// Every event is a typed EngineEvent, dispatched through the registered
// EventSink. EventIds encode (slot, generation): cancel() removes a heap
// event eagerly and releases a lane event's slot at once, leaving a
// tombstone in the lane that is skipped when it reaches the front (a
// cancelled lane head leaves immediately, so every lane head is live).
// pending(), empty() and next_event_time() count only live events, and
// cancelling an already-fired id is a detected no-op (the generation has
// moved on).

#include <array>
#include <cstdint>
#include <vector>

#include "sim/engine_event.h"

namespace splicer::sim {

using Time = double;  // seconds

class Scheduler {
 public:
  using EventId = std::uint64_t;

  [[nodiscard]] Time now() const noexcept { return now_; }

  /// Registers the event receiver. Required before scheduling any event.
  void set_sink(EventSink* sink) noexcept { sink_ = sink; }

  /// Schedules at absolute time (clamped to now if in the past, which is
  /// after(0): such an event takes the zero-delay lane).
  EventId at(Time when, const EngineEvent& event);

  /// Schedules `delay` seconds from now (delay < 0 clamps to 0). Fires at
  /// exactly at(now() + delay, event)'s time and order; a finite delay
  /// >= 0 queues the event in that delay's FIFO lane instead of the heap
  /// (a negative one reaches the zero-delay lane through at()).
  EventId after(Time delay, const EngineEvent& event);

  /// Schedules at the next strict multiple of `period` after now — the
  /// coalescing point for per-epoch batched work: every request made inside
  /// one epoch lands on the same boundary timestamp. period must be > 0.
  EventId at_next_boundary(Time period, const EngineEvent& event);

  /// Cancels a pending event; returns false if already fired/cancelled.
  /// The pool slot is recycled at once (the slot's generation counter
  /// invalidates the old id); a heap event leaves the heap immediately, a
  /// lane event leaves a tombstone that pending() no longer counts.
  bool cancel(EventId id);

  [[nodiscard]] bool empty() const noexcept { return pending() == 0; }
  [[nodiscard]] std::size_t pending() const noexcept {
    return heap_.size() + lane_live_;
  }

  /// Timestamp of the next pending event, or kForever when empty. The
  /// sharded facade uses this to fast-forward across empty barrier epochs.
  [[nodiscard]] Time next_event_time() const noexcept {
    Time next = heap_.empty() ? kForever : heap_[0].when;
    if (!lane_heads_.empty() && lane_heads_[0].when < next) {
      next = lane_heads_[0].when;
    }
    return next;
  }

  /// Executes the next event; returns false if none remain.
  bool step();

  /// Runs until the queue drains, `until` is passed, or `max_events` fire.
  /// Returns the number of events executed.
  std::size_t run(Time until = kForever, std::size_t max_events = kUnlimited);

  static constexpr Time kForever = 1e100;
  static constexpr std::size_t kUnlimited = ~std::size_t{0};

 private:
  static constexpr std::uint32_t kNullIndex = 0xffffffffu;
  /// At most this many distinct after() delays get a FIFO lane; later
  /// delays fall back to the heap. The engine uses one per hop count of a
  /// walk-back plus the mark threshold, far below the cap.
  static constexpr std::uint32_t kMaxLanes = 64;
  /// Open-addressed delay -> lane table, twice kMaxLanes so a probe
  /// sequence always reaches a free entry.
  static constexpr std::uint32_t kLaneTableSize = 2 * kMaxLanes;

  struct Node {
    Time when = 0.0;
    std::uint64_t seq = 0;           // (when, seq) is the firing order
    std::uint32_t generation = 1;    // bumped on release; validates EventIds
    std::uint32_t heap_pos = kNullIndex;  // kNullIndex unless in the heap
    std::uint32_t next_free = kNullIndex;
    std::uint32_t lane = kNullIndex;      // kNullIndex unless in a lane
    EngineEvent event;
  };
  static_assert(sizeof(Node) == 64, "lane id must fit the former padding");

  [[nodiscard]] static constexpr std::uint32_t slot_of(EventId id) noexcept {
    return static_cast<std::uint32_t>(id);
  }
  [[nodiscard]] static constexpr std::uint32_t generation_of(EventId id) noexcept {
    return static_cast<std::uint32_t>(id >> 32);
  }
  [[nodiscard]] EventId id_of(std::uint32_t slot) const noexcept {
    return (static_cast<EventId>(pool_[slot].generation) << 32) | slot;
  }

  /// Throws unless a sink is set and the event has a kind.
  void check_schedulable(const EngineEvent& event) const;
  /// Pops a pool slot (growing the pool if the free list is empty) and
  /// stamps it with `when` and the next sequence number.
  std::uint32_t acquire_node(Time when);
  /// Returns a slot to the free list; bumps its generation so any EventId
  /// still pointing at it is detected as stale.
  void release_node(std::uint32_t slot);

  /// Heap and lane entry with the ordering key inlined: comparisons stay
  /// in the contiguous heap / lane arrays instead of chasing pool nodes.
  struct HeapEntry {
    Time when;
    std::uint64_t seq;
    std::uint32_t slot;
  };
  /// lane_heads_ entry: a lane's front key and the lane id.
  struct LaneHead {
    Time when;
    std::uint64_t seq;
    std::uint32_t lane;
  };

  /// (when, seq) order over HeapEntry and LaneHead alike.
  template <class A, class B>
  [[nodiscard]] static bool fires_before(const A& a, const B& b) noexcept {
    if (a.when != b.when) return a.when < b.when;
    return a.seq < b.seq;
  }

  void heap_push(std::uint32_t slot);
  void heap_remove(std::uint32_t pos);
  void sift_up(std::uint32_t pos);
  void sift_down(std::uint32_t pos);

  /// One after() delay's pending events in firing order: a power-of-two
  /// ring buffer, cancelled entries included until they reach the front.
  struct Lane {
    std::vector<HeapEntry> ring;
    std::uint32_t front = 0;     // ring index of the first entry
    std::uint32_t size = 0;      // entries, tombstones included
    std::uint32_t head_pos = kNullIndex;  // position in lane_heads_
  };
  struct LaneKey {
    std::uint64_t delay_bits = 0;
    std::uint32_t lane = kNullIndex;  // kNullIndex = unused table entry
  };

  /// The lane for `delay`, opening one if there is room; kNullIndex when
  /// the delay must go to the heap (negative, non-finite, or no lane left).
  std::uint32_t lane_for(Time delay);
  [[nodiscard]] bool lane_entry_live(const HeapEntry& entry) const noexcept {
    const Node& node = pool_[entry.slot];
    return node.seq == entry.seq && node.lane != kNullIndex;
  }
  void lane_push(std::uint32_t lane, const HeapEntry& entry);
  /// Drops the lane's front entry and any tombstones behind it, then
  /// updates (or removes) the lane's entry in lane_heads_.
  void lane_pop_front(std::uint32_t lane);

  // Binary min-heap over the front entries of the non-empty lanes.
  void heads_sift_up(std::uint32_t pos);
  void heads_sift_down(std::uint32_t pos);
  void heads_remove(std::uint32_t pos);

  /// Fires the earliest pending event (the heap top or the earliest lane
  /// head). Requires !empty().
  void fire_next();

#ifdef SPLICER_AUDIT
  // Dynamic witness for the queue-order invariant (SPLICER_AUDIT builds):
  // pops must be monotone in (when, seq) — the firing order the frozen fig7
  // baseline depends on — and no earlier than the heap top or any lane
  // head. Every ~4096 mutations the full 4-ary heap property and pool
  // heap_pos back-pointers, the sorted order and live fronts of every
  // lane, the lane-head heap against the lane fronts, and the live counts
  // against pending() are re-validated.
  void audit_check_pop(const HeapEntry& top);
  void audit_validate() const;
  void audit_on_mutation() {
    if ((++audit_mutations_ & 0xfffu) == 0) audit_validate();
  }
  Time audit_last_when_ = -kForever;
  std::uint64_t audit_last_seq_ = 0;
  std::uint64_t audit_mutations_ = 0;
#endif

  Time now_ = 0.0;
  std::uint64_t next_seq_ = 1;
  EventSink* sink_ = nullptr;
  std::vector<Node> pool_;
  std::uint32_t free_head_ = kNullIndex;
  std::vector<HeapEntry> heap_;  // 4-ary min-heap keyed by (when, seq)
  std::vector<Lane> fifo_lanes_;
  std::array<LaneKey, kLaneTableSize> lane_table_{};
  std::vector<LaneHead> lane_heads_;  // binary min-heap over lane fronts
  std::size_t lane_live_ = 0;  // live (uncancelled) events across all lanes
};

}  // namespace splicer::sim
