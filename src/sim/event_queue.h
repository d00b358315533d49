// Pending-event set of the discrete-event simulator.
//
// Events live in-place in a slab of reusable slots; a 4-ary min-heap of
// 24-byte entries keyed on EventKey orders them deterministically. Schedule,
// pop and cancellation are O(log n) and eager: a cancelled event leaves the
// heap at once, so the index never holds dead entries and its storage tracks
// live events. Periodic timers never enter it one-by-one — the Simulator's
// cohort wheel parks them and keeps one tick per occupied window here — so
// the heap stays small and cache-resident even for 100k-host fleets. The
// wheel follows the same rule for memory: a retired cohort keeps at most a
// small fixed member buffer, so its storage tracks armed occurrences rather
// than past bursts. See DESIGN.md §14.
//
// An EventId is a generation-tagged handle {slot, gen}: cancellation
// validates the handle with one O(1) slot comparison (no hashing) and
// recycles the slot immediately — so a schedule/cancel churn workload
// (failure-detection timers are cancelled far more often than they fire)
// runs in O(live events) memory.
//
// The sort key is supplied by the caller (the Simulator), not generated
// here: under sharded execution the same logical event may be inserted into
// different queues depending on the shard count, so ordering must come from
// a canonical key — (when, destination lane, creator-scoped order) — that is
// itself shard-count-invariant. See simulator.h for the key construction.
#pragma once

#include <compare>
#include <cstdint>
#include <vector>

#include "sim/event_payload.h"
#include "sim/inline_callback.h"
#include "sim/time.h"
#include "util/assert.h"

namespace brisa::sim {

/// Generation-tagged event handle. Value type: cheap to copy, cheap to
/// store, and stale copies are harmless (generation mismatch = no-op).
struct EventId {
  std::uint32_t slot = 0;
  std::uint32_t gen = 0;

  /// False only for default-constructed / kInvalidEventId handles; an id
  /// whose event already fired is still "valid" but no longer live.
  [[nodiscard]] constexpr bool valid() const { return gen != 0; }

  constexpr auto operator<=>(const EventId&) const = default;
};

inline constexpr EventId kInvalidEventId{};

/// Canonical, shard-count-invariant sort key.
///   when  — absolute fire time;
///   lane  — destination lane (0 = global/control, h+1 = host h); at equal
///           times, control events run before host events;
///   order — (creator lane << 40) | per-creator sequence number. Unique per
///           event, and invariant because each lane's execution order is
///           itself invariant (induction over windows).
struct EventKey {
  TimePoint when;
  std::uint32_t lane = 0;
  std::uint64_t order = 0;
};

class EventQueue {
 public:
  using Callback = InlineCallback;

  /// Schedules `fn` under `key`; returns a cancellable id.
  EventId schedule(const EventKey& key, Callback fn);

  /// Like schedule(), with a capture-free liveness gate checked at fire
  /// time; a failing gate skips the callback (it still counts as fired).
  EventId schedule_gated(const EventKey& key, GatePredicate gate,
                         const void* ctx, std::uint32_t arg, Callback fn);

  /// Schedules a typed network delivery (no closure, no allocation).
  EventId schedule_deliver(const EventKey& key, const DeliverEvent& event);

  /// Inserts an already-built payload (the mailbox flush path: cross-shard
  /// events arrive with their payload and gate packed into a Mail).
  EventId schedule_payload(const EventKey& key, EventPayload payload,
                           GatePredicate gate, const void* ctx,
                           std::uint32_t arg);

  /// Schedules a periodic-cohort tick (owner-dispatched at pop; see
  /// TickEvent). Ticks are queue-internal bookkeeping, not simulation
  /// events: they are excluded from size()/peak/scheduled_total() so the
  /// observable counters stay identical to the queue-resident-timer scheme.
  EventId schedule_tick(const EventKey& key, const TickEvent& tick);

  /// Pending kTick events (pop() decrements; nothing else removes a tick).
  [[nodiscard]] std::size_t tick_pending() const { return tick_pending_; }

  // Convenience overloads for standalone use (tests, benchmarks): plain
  // FIFO-at-equal-times ordering on lane 0 via an internal counter. The
  // Simulator never uses these — it supplies canonical keys.
  EventId schedule(TimePoint when, Callback fn) {
    return schedule(EventKey{when, 0, fallback_order_++}, std::move(fn));
  }
  EventId schedule_gated(TimePoint when, GatePredicate gate, const void* ctx,
                         std::uint32_t arg, Callback fn) {
    return schedule_gated(EventKey{when, 0, fallback_order_++}, gate, ctx,
                          arg, std::move(fn));
  }
  EventId schedule_deliver(TimePoint when, const DeliverEvent& event) {
    return schedule_deliver(EventKey{when, 0, fallback_order_++}, event);
  }
  /// Cancels a pending event. Cancelling an already-fired, stale, or invalid
  /// id is a harmless no-op (protocols race timers against message
  /// arrivals). Returns whether a live event was actually cancelled.
  bool cancel(EventId id);

  /// True while the event behind `id` is still pending.
  [[nodiscard]] bool live(EventId id) const;

  [[nodiscard]] bool empty() const { return size_() == 0; }
  [[nodiscard]] std::size_t size() const { return size_(); }

  /// Time of the earliest live event; TimePoint::max() when empty.
  [[nodiscard]] TimePoint next_time() const;

  /// Full canonical key of the earliest live event. Queue must be non-empty.
  /// The Simulator merges this against its periodic wheel's front key.
  [[nodiscard]] EventKey next_key() const;

  struct Fired {
    TimePoint time;
    std::uint32_t lane = 0;  ///< destination lane from the event's key
    EventPayload payload;
    GatePredicate gate = nullptr;
    const void* gate_ctx = nullptr;
    std::uint32_t gate_arg = 0;

    /// Executes a callback (honoring the gate) or delivery payload.
    /// Periodic ticks are dispatched by the owner, not here.
    void run();
  };

  /// Removes and returns the earliest live event. Queue must be non-empty.
  Fired pop();

  /// Drops every pending event (owned delivery references are released) and
  /// resets the standalone FIFO counter, so a cleared queue reused by a new
  /// experiment orders TimePoint-overload events exactly like a fresh one.
  void clear();

  /// Releases index and slab capacity back to the allocator. Cheap, safe at
  /// any time; most effective on an empty queue (between experiment phases
  /// or sweep cells), where every internal vector is deallocated outright.
  void shrink();

  // --- Telemetry ------------------------------------------------------------

  /// Total events ever scheduled into this queue (monotone).
  [[nodiscard]] std::uint64_t scheduled_total() const {
    return scheduled_total_;
  }

  /// Events cancelled before firing (monotone).
  [[nodiscard]] std::uint64_t cancelled_total() const {
    return cancelled_total_;
  }

  /// Slots currently allocated in the slab — the memory high-water mark in
  /// units of events. Bounded by peak concurrent events, not by churn.
  [[nodiscard]] std::size_t slab_capacity() const { return slots_.size(); }

  /// Highest number of simultaneously pending events seen.
  [[nodiscard]] std::size_t peak_pending() const { return peak_pending_; }

  /// Slot indices must fit in 26 bits: the Simulator packs a 6-bit queue
  /// index into the high bits of EventId::slot to route cancels.
  static constexpr std::uint32_t kSlotIndexBits = 26;

 private:
  static constexpr std::uint32_t kNullIndex = 0xffffffff;

  struct Slot {
    TimePoint when;
    EventPayload payload;
    GatePredicate gate = nullptr;
    const void* gate_ctx = nullptr;
    std::uint32_t gate_arg = 0;
    std::uint32_t gen = 1;
    std::uint32_t heap_pos = kNullIndex;
    std::uint32_t next_free = kNullIndex;
  };

  /// Heap entries carry their full sort key next to the slot index, so sift
  /// compares read the heap array itself — contiguous, four children in at
  /// most two cache lines — instead of chasing a payload-sized Slot per
  /// comparison. At sweep scale (10k–100k pending events) the slab is
  /// megabytes, and those dependent loads were the dominant cost of every
  /// push/pop. 24 bytes per entry.
  struct HeapEntry {
    TimePoint when;
    std::uint64_t order = 0;
    std::uint32_t lane = 0;
    std::uint32_t slot = 0;
  };
  static_assert(sizeof(HeapEntry) == 24, "heap entry layout");

  /// (when, lane, order) lexicographic order: the heap invariant.
  [[nodiscard]] static bool before(const HeapEntry& a, const HeapEntry& b) {
    if (a.when != b.when) return a.when < b.when;
    if (a.lane != b.lane) return a.lane < b.lane;
    return a.order < b.order;
  }

  /// Live user-visible events: pending ticks are index residents but not
  /// simulation events, so they are netted out of every size/peak reading.
  [[nodiscard]] std::size_t size_() const {
    return heap_.size() - tick_pending_;
  }

  EventId acquire_slot(const EventKey& key, bool tick = false);
  void release_slot(std::uint32_t index);
  void heap_insert(HeapEntry entry);
  void heap_remove(std::uint32_t pos);
  void sift_up(std::uint32_t pos, HeapEntry entry);
  void sift_down(std::uint32_t pos, HeapEntry entry);

  std::vector<Slot> slots_;
  std::uint32_t free_head_ = kNullIndex;
  /// Starting generation for slots grown after a full shrink(): the highest
  /// generation the discarded slab had reached. Keeps stale EventIds from
  /// before the shrink strictly below any regrown slot's generation (the
  /// ABA guard); 1 until the first full shrink, so behavior is unchanged
  /// when shrink() never runs.
  std::uint32_t gen_floor_ = 1;
  std::uint64_t scheduled_total_ = 0;
  std::uint64_t cancelled_total_ = 0;
  std::uint64_t fallback_order_ = 0;  ///< TimePoint-overload FIFO counter
  std::size_t peak_pending_ = 0;
  std::size_t tick_pending_ = 0;  ///< kTick events currently in the index

  std::vector<HeapEntry> heap_;  ///< 4-ary min-heap keyed on EventKey
};

// --- Hot-path definitions ----------------------------------------------------
//
// schedule/pop/cancel run once per simulated event; keeping them — sift
// loops included — in the header lets the Simulator's
// and Network's per-event code fold the slab bookkeeping, constant key
// fields, and the index update into the call site instead of paying a
// cross-TU call per event.

inline void EventQueue::sift_up(std::uint32_t pos, HeapEntry entry) {
  while (pos > 0) {
    const std::uint32_t parent = (pos - 1) / 4;
    if (!before(entry, heap_[parent])) break;
    heap_[pos] = heap_[parent];
    slots_[heap_[pos].slot].heap_pos = pos;
    pos = parent;
  }
  heap_[pos] = entry;
  slots_[entry.slot].heap_pos = pos;
}

inline void EventQueue::sift_down(std::uint32_t pos, HeapEntry entry) {
  const std::uint32_t size = static_cast<std::uint32_t>(heap_.size());
  while (true) {
    const std::uint32_t first_child = pos * 4 + 1;
    if (first_child >= size) break;
    std::uint32_t best = first_child;
    const std::uint32_t last_child =
        first_child + 3 < size ? first_child + 3 : size - 1;
    for (std::uint32_t child = first_child + 1; child <= last_child; ++child) {
      if (before(heap_[child], heap_[best])) best = child;
    }
    if (!before(heap_[best], entry)) break;
    heap_[pos] = heap_[best];
    slots_[heap_[pos].slot].heap_pos = pos;
    pos = best;
  }
  heap_[pos] = entry;
  slots_[entry.slot].heap_pos = pos;
}

inline void EventQueue::heap_remove(std::uint32_t pos) {
  BRISA_ASSERT(pos < heap_.size());
  const std::uint32_t last = static_cast<std::uint32_t>(heap_.size()) - 1;
  const HeapEntry moved = heap_[last];
  heap_.pop_back();
  if (pos == last) return;  // removed the tail entry itself
  sift_down(pos, moved);
  sift_up(slots_[moved.slot].heap_pos, moved);
}

inline EventId EventQueue::acquire_slot(const EventKey& key, bool tick) {
  std::uint32_t index;
  if (free_head_ != kNullIndex) {
    index = free_head_;
    free_head_ = slots_[index].next_free;
  } else {
    index = static_cast<std::uint32_t>(slots_.size());
    BRISA_ASSERT_MSG(index < (1u << kSlotIndexBits), "event slab exhausted");
    slots_.emplace_back();
    // Start at the generation floor shrink() recorded, so handles issued
    // before a full shrink can never alias a slot regrown after it.
    slots_.back().gen = gen_floor_;
  }
  Slot& slot = slots_[index];
  slot.when = key.when;
  slot.gate = nullptr;
  slot.gate_ctx = nullptr;
  slot.gate_arg = 0;
  slot.next_free = kNullIndex;
  heap_insert(HeapEntry{key.when, key.order, key.lane, index});
  if (tick) {
    ++tick_pending_;  // invisible to the user-facing counters
  } else {
    ++scheduled_total_;
    const std::size_t pending = size_();
    if (pending > peak_pending_) peak_pending_ = pending;
  }
  return EventId{index, slot.gen};
}

inline void EventQueue::release_slot(std::uint32_t index) {
  Slot& slot = slots_[index];
  // Bumping the generation invalidates every outstanding handle to this
  // slot; 0 is reserved for kInvalidEventId, so skip it on wraparound.
  slot.gen = slot.gen + 1 == 0 ? 1 : slot.gen + 1;
  slot.heap_pos = kNullIndex;
  slot.payload.discard();
  slot.next_free = free_head_;
  free_head_ = index;
}

inline void EventQueue::heap_insert(HeapEntry entry) {
  const auto pos = static_cast<std::uint32_t>(heap_.size());
  heap_.push_back(entry);
  sift_up(pos, entry);
}

inline EventId EventQueue::schedule(const EventKey& key, Callback fn) {
  const EventId id = acquire_slot(key);
  slots_[id.slot].payload = EventPayload(std::move(fn));
  return id;
}

inline EventId EventQueue::schedule_gated(const EventKey& key,
                                          GatePredicate gate, const void* ctx,
                                          std::uint32_t arg, Callback fn) {
  const EventId id = acquire_slot(key);
  Slot& slot = slots_[id.slot];
  slot.payload = EventPayload(std::move(fn));
  slot.gate = gate;
  slot.gate_ctx = ctx;
  slot.gate_arg = arg;
  return id;
}

inline EventId EventQueue::schedule_deliver(const EventKey& key,
                                            const DeliverEvent& event) {
  BRISA_ASSERT(event.sink != nullptr);
  const EventId id = acquire_slot(key);
  slots_[id.slot].payload = EventPayload(event);
  return id;
}


inline EventId EventQueue::schedule_tick(const EventKey& key,
                                         const TickEvent& tick) {
  const EventId id = acquire_slot(key, /*tick=*/true);
  slots_[id.slot].payload = EventPayload(tick);
  return id;
}

inline EventId EventQueue::schedule_payload(const EventKey& key,
                                            EventPayload payload,
                                            GatePredicate gate,
                                            const void* ctx,
                                            std::uint32_t arg) {
  const EventId id = acquire_slot(key);
  Slot& slot = slots_[id.slot];
  slot.payload = std::move(payload);
  slot.gate = gate;
  slot.gate_ctx = ctx;
  slot.gate_arg = arg;
  return id;
}

inline bool EventQueue::live(EventId id) const {
  return id.gen != 0 && id.slot < slots_.size() &&
         slots_[id.slot].gen == id.gen;
}

inline bool EventQueue::cancel(EventId id) {
  if (!live(id)) return false;
  heap_remove(slots_[id.slot].heap_pos);
  release_slot(id.slot);
  ++cancelled_total_;
  return true;
}

inline TimePoint EventQueue::next_time() const {
  return heap_.empty() ? TimePoint::max() : heap_[0].when;
}

inline EventKey EventQueue::next_key() const {
  BRISA_ASSERT_MSG(!heap_.empty(), "next_key() on empty event queue");
  return EventKey{heap_[0].when, heap_[0].lane, heap_[0].order};
}

inline EventQueue::Fired EventQueue::pop() {
  BRISA_ASSERT_MSG(!heap_.empty(), "pop() on empty event queue");
  const std::uint32_t index = heap_[0].slot;
  const std::uint32_t lane = heap_[0].lane;
  Slot& slot = slots_[index];
  Fired fired;
  fired.time = slot.when;
  fired.lane = lane;
  // Move the payload out before releasing: the caller runs it after pop()
  // returns, and by then the slot may have been reused by a reschedule.
  fired.payload = std::move(slot.payload);
  fired.gate = slot.gate;
  fired.gate_ctx = slot.gate_ctx;
  fired.gate_arg = slot.gate_arg;
  heap_remove(0);
  if (fired.payload.kind() == EventPayload::Kind::kTick) --tick_pending_;
  release_slot(index);
  return fired;
}

}  // namespace brisa::sim
