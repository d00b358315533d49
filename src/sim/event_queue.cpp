#include "sim/event_queue.h"

#include <algorithm>

#include "util/assert.h"

namespace brisa::sim {

// --- Public API -------------------------------------------------------------

void EventQueue::Fired::run() {
  switch (payload.kind()) {
    case EventPayload::Kind::kCallback:
      payload.run_callback(gate, gate_ctx, gate_arg);
      return;
    case EventPayload::Kind::kDeliver:
      payload.run_deliver();
      return;
    case EventPayload::Kind::kTick:
      BRISA_UNREACHABLE("ticks are dispatched by their owner, not run()");
    case EventPayload::Kind::kNone:
      BRISA_UNREACHABLE("run() on an empty event");
  }
}

void EventQueue::clear() {
  // Releasing a slot only touches the slab and, for kDeliver payloads, the
  // drop_token refcount release — neither re-enters the index — so dropping
  // every pending event is a straight sweep.
  for (const HeapEntry& entry : heap_) release_slot(entry.slot);
  heap_.clear();
  // Standalone reuse: a cleared queue must order TimePoint-overload events
  // like a fresh one, not continue a counter the previous experiment left
  // behind.
  fallback_order_ = 0;
  tick_pending_ = 0;
}

void EventQueue::shrink() {
  if (empty() && tick_pending_ == 0) {
    // No live events: every outstanding handle is already stale (release
    // bumped its generation), so the slab and index storage can go entirely.
    // live() on a shrunk slab fails the slot-bounds check — but slots regrown
    // *after* the swap would restart at gen 1 and alias old handles (a stale
    // EventId{k, 1} would cancel a fresh event on slot k). Raising the floor
    // to the highest generation the old slab reached keeps every regrown
    // slot's generation strictly above any outstanding stale handle: a stale
    // handle's gen is below its slot's post-release gen, which is <= floor.
    for (const Slot& slot : slots_) {
      gen_floor_ = std::max(gen_floor_, slot.gen);
    }
    std::vector<Slot>().swap(slots_);
    free_head_ = kNullIndex;
    heap_ = {};
    return;
  }
  // Best-effort on a live queue: index storage only. The slab itself cannot
  // reallocate here (EventPayload is move-only with a throwing move, and
  // outstanding slot indices must stay valid anyway).
  heap_.shrink_to_fit();
}

}  // namespace brisa::sim
