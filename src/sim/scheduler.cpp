#include "sim/scheduler.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <stdexcept>

namespace splicer::sim {

std::uint32_t Scheduler::acquire_node(Time when) {
  std::uint32_t slot;
  if (free_head_ != kNullIndex) {
    slot = free_head_;
    free_head_ = pool_[slot].next_free;
    pool_[slot].next_free = kNullIndex;
  } else {
    slot = static_cast<std::uint32_t>(pool_.size());
    pool_.emplace_back();
  }
  Node& node = pool_[slot];
  node.when = when < now_ ? now_ : when;
  node.seq = next_seq_++;
  return slot;
}

void Scheduler::release_node(std::uint32_t slot) {
  Node& node = pool_[slot];
  ++node.generation;  // invalidate outstanding EventIds for this slot
  node.heap_pos = kNullIndex;
  node.lane = kNullIndex;  // turns a lane entry still naming it into a tombstone
  node.event = EngineEvent{};
  node.next_free = free_head_;
  free_head_ = slot;
}

void Scheduler::check_schedulable(const EngineEvent& event) const {
  if (sink_ == nullptr) {
    throw std::logic_error("Scheduler: event scheduled without a sink");
  }
  if (event.kind == EngineEvent::Kind::kNone) {
    // kNone marks an unset event; no sink can act on it, so reject it at
    // the scheduling site rather than at fire time.
    throw std::invalid_argument("Scheduler: event with kind kNone");
  }
}

Scheduler::EventId Scheduler::at(Time when, const EngineEvent& event) {
  // A time not after now fires at now: the same event as after(0).
  if (when <= now_) return after(0.0, event);
  check_schedulable(event);
  const std::uint32_t slot = acquire_node(when);
  pool_[slot].event = event;
  heap_push(slot);
  return id_of(slot);
}

Scheduler::EventId Scheduler::after(Time delay, const EngineEvent& event) {
  check_schedulable(event);
  const std::uint32_t lane = lane_for(delay);
  if (lane == kNullIndex) return at(now_ + delay, event);
  const std::uint32_t slot = acquire_node(now_ + delay);
  Node& node = pool_[slot];
  node.event = event;
  node.lane = lane;
  lane_push(lane, HeapEntry{node.when, node.seq, slot});
  return id_of(slot);
}

std::uint32_t Scheduler::lane_for(Time delay) {
  // NaN fails the comparison and infinite delays use the heap; at()
  // clamps a negative delay onto the zero-delay lane.
  if (!(delay >= 0.0) || !std::isfinite(delay)) return kNullIndex;
  const auto bits = std::bit_cast<std::uint64_t>(delay);
  constexpr std::uint32_t kMask = kLaneTableSize - 1;
  static_assert((kLaneTableSize & kMask) == 0, "table size is a power of two");
  // Fibonacci hashing onto the table's index bits.
  auto pos = static_cast<std::uint32_t>((bits * 0x9E3779B97F4A7C15ull) >> 57) & kMask;
  for (;; pos = (pos + 1) & kMask) {
    LaneKey& key = lane_table_[pos];
    if (key.lane == kNullIndex) break;
    if (key.delay_bits == bits) return key.lane;
  }
  if (fifo_lanes_.size() >= kMaxLanes) return kNullIndex;
  lane_table_[pos] = LaneKey{bits, static_cast<std::uint32_t>(fifo_lanes_.size())};
  fifo_lanes_.emplace_back();
  return lane_table_[pos].lane;
}

void Scheduler::lane_push(std::uint32_t lane, const HeapEntry& entry) {
  Lane& l = fifo_lanes_[lane];
  const auto capacity = static_cast<std::uint32_t>(l.ring.size());
  if (l.size == capacity) {
    // Full: unroll into a ring twice the size, front at index 0.
    // SPLICER_LINT_ALLOW(hotpath-alloc): amortised ring growth — doubles
    // only when a lane outgrows every earlier peak, so a run allocates
    // O(log peak) times per lane.
    std::vector<HeapEntry> grown(capacity == 0 ? 16 : 2 * capacity);
    for (std::uint32_t i = 0; i < l.size; ++i) {
      grown[i] = l.ring[(l.front + i) & (capacity - 1)];
    }
    l.ring.swap(grown);
    l.front = 0;
  }
  const auto mask = static_cast<std::uint32_t>(l.ring.size()) - 1;
  l.ring[(l.front + l.size) & mask] = entry;
  ++lane_live_;
  if (l.size++ == 0) {
    l.head_pos = static_cast<std::uint32_t>(lane_heads_.size());
    lane_heads_.push_back(LaneHead{entry.when, entry.seq, lane});
    heads_sift_up(l.head_pos);
  }
#ifdef SPLICER_AUDIT
  audit_on_mutation();
#endif
}

void Scheduler::lane_pop_front(std::uint32_t lane) {
  Lane& l = fifo_lanes_[lane];
  const auto mask = static_cast<std::uint32_t>(l.ring.size()) - 1;
  do {
    l.front = (l.front + 1) & mask;
    --l.size;
  } while (l.size > 0 && !lane_entry_live(l.ring[l.front]));
  if (l.size == 0) {
    heads_remove(l.head_pos);
    l.head_pos = kNullIndex;
    l.front = 0;
  } else {
    // The new front sorts no earlier than the old one: only sift down.
    const HeapEntry& front = l.ring[l.front];
    lane_heads_[l.head_pos] = LaneHead{front.when, front.seq, lane};
    heads_sift_down(l.head_pos);
  }
#ifdef SPLICER_AUDIT
  audit_on_mutation();
#endif
}

void Scheduler::heads_sift_up(std::uint32_t pos) {
  const LaneHead entry = lane_heads_[pos];
  while (pos > 0) {
    const std::uint32_t parent = (pos - 1) / 2;
    if (!fires_before(entry, lane_heads_[parent])) break;
    lane_heads_[pos] = lane_heads_[parent];
    fifo_lanes_[lane_heads_[pos].lane].head_pos = pos;
    pos = parent;
  }
  lane_heads_[pos] = entry;
  fifo_lanes_[entry.lane].head_pos = pos;
}

void Scheduler::heads_sift_down(std::uint32_t pos) {
  const LaneHead entry = lane_heads_[pos];
  const auto size = static_cast<std::uint32_t>(lane_heads_.size());
  for (;;) {
    std::uint32_t child = 2 * pos + 1;
    if (child >= size) break;
    if (child + 1 < size && fires_before(lane_heads_[child + 1], lane_heads_[child])) {
      ++child;
    }
    if (!fires_before(lane_heads_[child], entry)) break;
    lane_heads_[pos] = lane_heads_[child];
    fifo_lanes_[lane_heads_[pos].lane].head_pos = pos;
    pos = child;
  }
  lane_heads_[pos] = entry;
  fifo_lanes_[entry.lane].head_pos = pos;
}

void Scheduler::heads_remove(std::uint32_t pos) {
  const LaneHead last = lane_heads_.back();
  lane_heads_.pop_back();
  if (pos == lane_heads_.size()) return;
  lane_heads_[pos] = last;
  fifo_lanes_[last.lane].head_pos = pos;
  heads_sift_down(pos);
  heads_sift_up(fifo_lanes_[last.lane].head_pos);
}

namespace {
[[nodiscard]] Time next_boundary_after(Time now, Time period) {
  if (period <= 0) {
    throw std::invalid_argument("Scheduler::at_next_boundary: period <= 0");
  }
  // Strictly after now: a flush that runs exactly on boundary k*period and
  // generates new work must coalesce that work onto boundary (k+1)*period.
  Time when = (std::floor(now / period) + 1.0) * period;
  while (when <= now) when += period;  // guard against rounding at huge t/period
  return when;
}
}  // namespace

Scheduler::EventId Scheduler::at_next_boundary(Time period,
                                               const EngineEvent& event) {
  return at(next_boundary_after(now_, period), event);
}

bool Scheduler::cancel(EventId id) {
  const std::uint32_t slot = slot_of(id);
  if (slot >= pool_.size()) return false;
  Node& node = pool_[slot];
  // A stale generation (or a free slot) means the event already fired or
  // was cancelled: report failure without touching any accounting.
  if (node.generation != generation_of(id)) return false;
  if (node.heap_pos != kNullIndex) {
    heap_remove(node.heap_pos);
    release_node(slot);
    return true;
  }
  const std::uint32_t lane = node.lane;
  if (lane == kNullIndex) return false;
  // Releasing the slot turns its lane entry into a tombstone; a cancelled
  // front leaves at once so the lane head (and next_event_time()) stays
  // live.
  release_node(slot);
  --lane_live_;
  const Lane& l = fifo_lanes_[lane];
  if (l.ring[l.front].slot == slot) lane_pop_front(lane);
  return true;
}

#ifdef SPLICER_AUDIT
void Scheduler::audit_check_pop(const HeapEntry& top) {
  const bool monotone =
      top.when > audit_last_when_ ||
      (top.when == audit_last_when_ && top.seq > audit_last_seq_);
  if (!monotone) {
    throw std::logic_error(
        "Scheduler audit: non-monotone (when, seq) pop — queue order broken");
  }
  if (top.when < now_) {
    throw std::logic_error("Scheduler audit: popped event is in the past");
  }
  // The merged pop must be the earliest of the heap top and every lane
  // head, checked against the lanes themselves, not the lane-head heap.
  if (!heap_.empty() && fires_before(heap_[0], top)) {
    throw std::logic_error("Scheduler audit: popped past the heap top");
  }
  for (const Lane& lane : fifo_lanes_) {
    if (lane.size > 0 && fires_before(lane.ring[lane.front], top)) {
      throw std::logic_error("Scheduler audit: popped past a lane head");
    }
  }
  audit_last_when_ = top.when;
  audit_last_seq_ = top.seq;
}

void Scheduler::audit_validate() const {
  const auto size = static_cast<std::uint32_t>(heap_.size());
  for (std::uint32_t pos = 0; pos < size; ++pos) {
    const HeapEntry& entry = heap_[pos];
    if (pos > 0 && fires_before(entry, heap_[(pos - 1) / 4])) {
      throw std::logic_error(
          "Scheduler audit: 4-ary heap property violated");
    }
    const Node& node = pool_[entry.slot];
    if (node.heap_pos != pos || node.when != entry.when ||
        node.seq != entry.seq || node.lane != kNullIndex) {
      throw std::logic_error(
          "Scheduler audit: heap entry / pool back-pointer mismatch");
    }
  }
  std::size_t live = 0;
  std::size_t non_empty = 0;
  for (std::uint32_t id = 0; id < fifo_lanes_.size(); ++id) {
    const Lane& lane = fifo_lanes_[id];
    if (lane.size == 0) {
      if (lane.head_pos != kNullIndex) {
        throw std::logic_error("Scheduler audit: empty lane in the head heap");
      }
      continue;
    }
    ++non_empty;
    const auto mask = static_cast<std::uint32_t>(lane.ring.size()) - 1;
    for (std::uint32_t i = 0; i < lane.size; ++i) {
      const HeapEntry& entry = lane.ring[(lane.front + i) & mask];
      if (i > 0 &&
          !fires_before(lane.ring[(lane.front + i - 1) & mask], entry)) {
        throw std::logic_error("Scheduler audit: lane not sorted by (when, seq)");
      }
      if (!lane_entry_live(entry)) {
        if (i == 0) throw std::logic_error("Scheduler audit: dead lane head");
        continue;
      }
      const Node& node = pool_[entry.slot];
      if (node.lane != id || node.when != entry.when ||
          node.heap_pos != kNullIndex) {
        throw std::logic_error(
            "Scheduler audit: lane entry / pool back-pointer mismatch");
      }
      ++live;
    }
    const HeapEntry& front = lane.ring[lane.front];
    if (lane.head_pos >= lane_heads_.size()) {
      throw std::logic_error("Scheduler audit: non-empty lane not in the head heap");
    }
    const LaneHead& head = lane_heads_[lane.head_pos];
    if (head.lane != id || head.when != front.when || head.seq != front.seq) {
      throw std::logic_error(
          "Scheduler audit: head heap entry does not match the lane front");
    }
  }
  if (non_empty != lane_heads_.size()) {
    throw std::logic_error("Scheduler audit: head heap size != non-empty lanes");
  }
  for (std::uint32_t pos = 1; pos < lane_heads_.size(); ++pos) {
    if (fires_before(lane_heads_[pos], lane_heads_[(pos - 1) / 2])) {
      throw std::logic_error("Scheduler audit: head heap property violated");
    }
  }
  if (live != lane_live_ || heap_.size() + live != pending()) {
    throw std::logic_error("Scheduler audit: live counts do not sum to pending()");
  }
}
#endif

void Scheduler::fire_next() {
  std::uint32_t slot;
  if (!lane_heads_.empty() &&
      (heap_.empty() || fires_before(lane_heads_[0], heap_[0]))) {
    const std::uint32_t lane = lane_heads_[0].lane;
    const Lane& l = fifo_lanes_[lane];
#ifdef SPLICER_AUDIT
    audit_check_pop(l.ring[l.front]);
#endif
    slot = l.ring[l.front].slot;
    --lane_live_;
    lane_pop_front(lane);
  } else {
#ifdef SPLICER_AUDIT
    audit_check_pop(heap_[0]);
#endif
    slot = heap_[0].slot;
    heap_remove(0);
  }
  Node& node = pool_[slot];
  now_ = node.when;
  // Copy the payload out before releasing: the handler may schedule new
  // events, which can recycle this slot or grow the pool.
  const EngineEvent event = node.event;
  release_node(slot);
  sink_->handle_event(event);
}

bool Scheduler::step() {
  if (empty()) return false;
  fire_next();
  return true;
}

std::size_t Scheduler::run(Time until, std::size_t max_events) {
  std::size_t executed = 0;
  while (executed < max_events && !empty()) {
    if (next_event_time() > until) break;
    fire_next();
    ++executed;
  }
  return executed;
}

void Scheduler::heap_push(std::uint32_t slot) {
  const Node& node = pool_[slot];
  pool_[slot].heap_pos = static_cast<std::uint32_t>(heap_.size());
  heap_.push_back(HeapEntry{node.when, node.seq, slot});
  sift_up(pool_[slot].heap_pos);
#ifdef SPLICER_AUDIT
  audit_on_mutation();
#endif
}

void Scheduler::heap_remove(std::uint32_t pos) {
  const HeapEntry last = heap_.back();
  heap_.pop_back();
  if (pos == heap_.size()) {
#ifdef SPLICER_AUDIT
    audit_on_mutation();
#endif
    return;  // removed the tail entry
  }
  heap_[pos] = last;
  pool_[last.slot].heap_pos = pos;
  // The moved entry may violate the heap property in either direction.
  sift_down(pos);
  sift_up(pool_[last.slot].heap_pos);
#ifdef SPLICER_AUDIT
  audit_on_mutation();
#endif
}

void Scheduler::sift_up(std::uint32_t pos) {
  const HeapEntry entry = heap_[pos];
  while (pos > 0) {
    const std::uint32_t parent = (pos - 1) / 4;
    if (!fires_before(entry, heap_[parent])) break;
    heap_[pos] = heap_[parent];
    pool_[heap_[pos].slot].heap_pos = pos;
    pos = parent;
  }
  heap_[pos] = entry;
  pool_[entry.slot].heap_pos = pos;
}

void Scheduler::sift_down(std::uint32_t pos) {
  const HeapEntry entry = heap_[pos];
  const std::uint32_t size = static_cast<std::uint32_t>(heap_.size());
  for (;;) {
    const std::uint32_t first_child = pos * 4 + 1;
    if (first_child >= size) break;
    std::uint32_t best = first_child;
    const std::uint32_t last_child =
        std::min(first_child + 3, size - 1);
    for (std::uint32_t c = first_child + 1; c <= last_child; ++c) {
      if (fires_before(heap_[c], heap_[best])) best = c;
    }
    if (!fires_before(heap_[best], entry)) break;
    heap_[pos] = heap_[best];
    pool_[heap_[pos].slot].heap_pos = pos;
    pos = best;
  }
  heap_[pos] = entry;
  pool_[entry.slot].heap_pos = pos;
}

}  // namespace splicer::sim
