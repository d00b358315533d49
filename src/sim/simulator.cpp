#include "sim/simulator.h"

#include <algorithm>
#include <chrono>
#include <iterator>

#include "util/assert.h"

namespace brisa::sim {

/// Execution state of the thread currently draining a shard inside a
/// parallel window. Lives on the claiming thread's stack; tls_exec_ points
/// at it so now() / scheduling calls made from event code resolve against
/// the shard clock and lane.
struct Simulator::ExecCtx {
  Simulator* sim = nullptr;
  QueueRt* q = nullptr;
  std::uint32_t qidx = 0;
  std::uint32_t lane = 0;
};

thread_local Simulator::ExecCtx* Simulator::tls_exec_ = nullptr;

Simulator::Simulator(std::uint64_t seed) : rng_(seed) {
  queues_.push_back(std::make_unique<QueueRt>());
  global_ = queues_[0].get();
  lane_seq_.resize(1, 0);
}

Simulator::~Simulator() { stop_workers(); }

// --- Sharding configuration --------------------------------------------------

void Simulator::set_lookahead(Duration lookahead) {
  BRISA_ASSERT_MSG(lookahead >= Duration::zero(), "negative lookahead");
  BRISA_ASSERT_MSG(queues_.size() == 1,
                   "set_lookahead must precede configure_sharding");
  lookahead_ = lookahead;
  // Eight conservative windows per wheel window: wide enough that a host's
  // timers of one phase share a cohort, narrow enough that a cohort drains
  // cache-hot. Width only groups, so it cannot change results.
  const Duration base = lookahead > Duration::zero()
                            ? lookahead
                            : Duration::microseconds(100);
  wheel_width_ = Duration::microseconds(base.us() * 8);
}

void Simulator::configure_sharding(std::uint32_t shards,
                                   std::uint32_t workers) {
  BRISA_ASSERT_MSG(shards >= 1 && shards < (1u << (32 - kQueueIndexShift)),
                   "shard count out of range");
  BRISA_ASSERT_MSG(
      queues_.size() == 1 && global_->queue.scheduled_total() == 0 &&
          global_->active_periodics == 0,
      "configure_sharding must be called before any event is scheduled");
  if (shards == 1) return;
  BRISA_ASSERT_MSG(lookahead_ > Duration::zero(),
                   "sharding requires set_lookahead(> 0)");
  shards_ = shards;
  for (std::uint32_t s = 0; s < shards; ++s) {
    queues_.push_back(std::make_unique<QueueRt>());
  }
  global_ = queues_[0].get();
  for (auto& q : queues_) q->outbox.resize(shards + 1);

  std::uint32_t hw = std::thread::hardware_concurrency();
  if (hw == 0) hw = 1;
  workers_ = workers != 0 ? workers : std::min(shards, hw);
  workers_ = std::min(workers_, shards);
  if (workers_ > 1) {
    barrier_ = std::make_unique<std::barrier<>>(workers_);
    threads_.reserve(workers_ - 1);
    for (std::uint32_t w = 1; w < workers_; ++w) {
      threads_.emplace_back([this, w] { worker_loop(w); });
    }
  }
}

void Simulator::register_host_lanes(std::uint32_t hosts) {
  BRISA_ASSERT_MSG(!exec_active_, "lane registration inside a window");
  if (static_cast<std::size_t>(hosts) + 1 > lane_seq_.size()) {
    lane_seq_.resize(static_cast<std::size_t>(hosts) + 1, 0);
  }
}

void Simulator::stop_workers() {
  if (threads_.empty()) return;
  stop_.store(true, std::memory_order_relaxed);
  barrier_->arrive_and_wait();  // releases workers into the stop check
  for (auto& t : threads_) t.join();
  threads_.clear();
}

// --- Canonical keys and routing ---------------------------------------------

TimePoint Simulator::exec_now() const {
  const ExecCtx* c = tls_exec_;
  return c != nullptr && c->sim == this ? c->q->now : now_;
}

EventKey Simulator::make_key(TimePoint when, std::uint32_t lane) {
  std::uint32_t creator = current_lane_;
  if (exec_active_) {
    const ExecCtx* c = tls_exec_;
    if (c != nullptr && c->sim == this) creator = c->lane;
  }
  if (creator >= lane_seq_.size()) [[unlikely]] {
    // Serial phases may discover new creator lanes (e.g. a delivery to a
    // host that was never registered); windows must not.
    BRISA_ASSERT_MSG(!exec_active_, "unregistered lane used in a window");
    lane_seq_.resize(static_cast<std::size_t>(creator) + 1, 0);
  }
  const std::uint64_t order =
      (static_cast<std::uint64_t>(creator) << kCreatorShift) |
      lane_seq_[creator]++;
  return EventKey{when, lane, order};
}

namespace {
constexpr EventId pack_id(std::uint32_t qidx, EventId raw,
                          std::uint32_t shift) {
  return EventId{(qidx << shift) | raw.slot, raw.gen};
}
}  // namespace

EventId Simulator::post_callback(std::uint32_t lane, TimePoint when,
                                 Callback fn, GatePredicate gate,
                                 const void* ctx, std::uint32_t arg) {
  ExecCtx* c = exec_active_ ? tls_exec_ : nullptr;
  BRISA_ASSERT_MSG(when >= (c != nullptr ? c->q->now : now_),
                   "cannot schedule events in the past");
  const EventKey key = make_key(when, lane);
  const std::uint32_t qidx = qidx_of_lane(lane);
  if (c != nullptr && qidx != c->qidx) {
    BRISA_ASSERT_MSG(lane != 0,
                     "global-lane schedule from inside a parallel window");
    BRISA_ASSERT_MSG(when >= window_end_,
                     "cross-shard event inside the lookahead window");
    auto& box = c->q->outbox[qidx];
    box.emplace_back();
    Mail& m = box.back();
    m.key = key;
    m.payload = EventPayload(std::move(fn));
    m.gate = gate;
    m.gate_ctx = ctx;
    m.gate_arg = arg;
    return kInvalidEventId;
  }
  QueueRt& q = qidx == 0 ? *global_ : *queues_[qidx];
  const EventId raw =
      gate != nullptr
          ? q.queue.schedule_gated(key, gate, ctx, arg, std::move(fn))
          : q.queue.schedule(key, std::move(fn));
  return pack_id(qidx, raw, kQueueIndexShift);
}

EventId Simulator::post_deliver(std::uint32_t lane, TimePoint when,
                                const DeliverEvent& event) {
  ExecCtx* c = exec_active_ ? tls_exec_ : nullptr;
  BRISA_ASSERT_MSG(when >= (c != nullptr ? c->q->now : now_),
                   "cannot schedule events in the past");
  const EventKey key = make_key(when, lane);
  const std::uint32_t qidx = qidx_of_lane(lane);
  if (c != nullptr && qidx != c->qidx) {
    BRISA_ASSERT_MSG(when >= window_end_,
                     "cross-shard delivery inside the lookahead window");
    auto& box = c->q->outbox[qidx];
    box.emplace_back();
    Mail& m = box.back();
    m.key = key;
    m.payload = EventPayload(event);
    return kInvalidEventId;
  }
  QueueRt& q = qidx == 0 ? *global_ : *queues_[qidx];
  return pack_id(qidx, q.queue.schedule_deliver(key, event),
                 kQueueIndexShift);
}

// --- Scheduling API ----------------------------------------------------------

EventId Simulator::at(TimePoint when, Callback fn) {
  return post_callback(0, when, std::move(fn), nullptr, nullptr, 0);
}

EventId Simulator::after(Duration delay, Callback fn) {
  BRISA_ASSERT_MSG(delay >= Duration::zero(), "negative delay");
  return post_callback(0, now() + delay, std::move(fn), nullptr, nullptr, 0);
}

EventId Simulator::at_host(std::uint32_t host, TimePoint when, Callback fn) {
  return post_callback(host + 1, when, std::move(fn), nullptr, nullptr, 0);
}

EventId Simulator::after_host(std::uint32_t host, Duration delay,
                              Callback fn) {
  BRISA_ASSERT_MSG(delay >= Duration::zero(), "negative delay");
  return post_callback(host + 1, now() + delay, std::move(fn), nullptr,
                       nullptr, 0);
}

EventId Simulator::after_host_gated(std::uint32_t host, Duration delay,
                                    GatePredicate gate, const void* ctx,
                                    std::uint32_t arg, Callback fn) {
  BRISA_ASSERT_MSG(delay >= Duration::zero(), "negative delay");
  return post_callback(host + 1, now() + delay, std::move(fn), gate, ctx, arg);
}

EventId Simulator::at_deliver(TimePoint when, const DeliverEvent& event) {
  return post_deliver(event.to + 1, when, event);
}

void Simulator::cancel(EventId id) {
  if (!id.valid()) return;
  const std::uint32_t qidx = id.slot >> kQueueIndexShift;
  if (qidx >= queues_.size()) return;  // stale handle from another config
  if (exec_active_) {
    const ExecCtx* c = tls_exec_;
    BRISA_ASSERT_MSG(c != nullptr && c->sim == this && qidx == c->qidx,
                     "cross-shard cancel from inside a parallel window");
  }
  queues_[qidx]->queue.cancel(EventId{id.slot & kSlotIndexMask, id.gen});
}

// --- Periodic timers ---------------------------------------------------------

PeriodicId Simulator::acquire_periodic(QueueRt& q, std::uint32_t qidx) {
  std::uint32_t slot;
  if (q.periodic_free_head != kNullIndex) {
    slot = q.periodic_free_head;
    q.periodic_free_head = q.periodics[slot].next_free;
  } else {
    slot = static_cast<std::uint32_t>(q.periodics.size());
    BRISA_ASSERT_MSG(slot < (1u << kQueueIndexShift), "periodic slab full");
    q.periodics.emplace_back();
    // Start at the floor shrink() recorded so PeriodicIds issued before a
    // slab shrink can never alias a slot regrown after it.
    q.periodics.back().gen = q.periodic_gen_floor;
  }
  (void)qidx;
  Periodic& p = q.periodics[slot];
  p.armed = true;
  p.next_free = kNullIndex;
  ++q.active_periodics;
  return PeriodicId{slot, p.gen};
}

void Simulator::release_periodic(QueueRt& q, std::uint32_t slot) {
  Periodic& p = q.periodics[slot];
  BRISA_ASSERT(p.armed);
  p.gen = p.gen + 1 == 0 ? 1 : p.gen + 1;
  p.armed = false;
  p.occ_armed = false;
  p.fn.reset();
  p.gate = nullptr;
  p.next_free = q.periodic_free_head;
  q.periodic_free_head = slot;
  --q.active_periodics;
}

PeriodicId Simulator::start_periodic(std::uint32_t lane, Duration period,
                                     GatePredicate gate, const void* ctx,
                                     std::uint32_t arg, Callback fn) {
  BRISA_ASSERT_MSG(period > Duration::zero(),
                   "periodic timer needs period > 0");
  const std::uint32_t qidx = qidx_of_lane(lane);
  ExecCtx* c = exec_active_ ? tls_exec_ : nullptr;
  if (c != nullptr) {
    // A window may only create timers on the executing shard (hosts create
    // their own timers; cross-shard timer creation has no use case).
    BRISA_ASSERT_MSG(c->sim == this && qidx == c->qidx,
                     "cross-shard periodic from inside a parallel window");
  }
  QueueRt& q = *queues_[qidx];
  const PeriodicId raw = acquire_periodic(q, qidx);
  Periodic& p = q.periodics[raw.slot];
  p.period = period;
  p.fn = std::move(fn);
  p.gate = gate;
  p.gate_ctx = ctx;
  p.gate_arg = arg;
  p.lane = lane;
  const TimePoint first = (c != nullptr ? q.now : now_) + period;
  // The key draw sits exactly where the queue-resident tick drew its key, so
  // the per-lane sequence numbering — and every downstream order — is
  // identical to the old scheme.
  wheel_arm(q, raw.slot, raw.gen, lane, make_key(first, lane));
  return PeriodicId{(qidx << kQueueIndexShift) | raw.slot, raw.gen};
}

PeriodicId Simulator::every(Duration period, Callback fn) {
  return start_periodic(0, period, nullptr, nullptr, 0, std::move(fn));
}

PeriodicId Simulator::every_host(std::uint32_t host, Duration period,
                                 Callback fn) {
  return start_periodic(host + 1, period, nullptr, nullptr, 0, std::move(fn));
}

PeriodicId Simulator::every_host_gated(std::uint32_t host, Duration period,
                                       GatePredicate gate, const void* ctx,
                                       std::uint32_t arg, Callback fn) {
  return start_periodic(host + 1, period, gate, ctx, arg, std::move(fn));
}

void Simulator::cancel_periodic(PeriodicId id) {
  if (!periodic_live(id)) return;
  const std::uint32_t qidx = id.slot >> kQueueIndexShift;
  const std::uint32_t slot = id.slot & kSlotIndexMask;
  if (exec_active_) {
    const ExecCtx* c = tls_exec_;
    BRISA_ASSERT_MSG(c != nullptr && c->sim == this && qidx == c->qidx,
                     "cross-shard periodic cancel from a parallel window");
  }
  QueueRt& q = *queues_[qidx];
  Periodic& p = q.periodics[slot];
  if (p.occ_armed) {
    // The wheel entry stays behind and decays by generation mismatch; only
    // the counters move, mirroring the old eager queue-cancel.
    p.occ_armed = false;
    --q.wheel_armed;
    ++q.wheel_cancelled;
  }
  release_periodic(q, slot);
}

bool Simulator::periodic_live(PeriodicId id) const {
  if (id.gen == 0) return false;
  const std::uint32_t qidx = id.slot >> kQueueIndexShift;
  if (qidx >= queues_.size()) return false;
  const std::uint32_t slot = id.slot & kSlotIndexMask;
  const QueueRt& q = *queues_[qidx];
  return slot < q.periodics.size() && q.periodics[slot].armed &&
         q.periodics[slot].gen == id.gen;
}

// --- Periodic-tick wheel -----------------------------------------------------

/// (Re)schedules `ci`'s tick at its current front member's exact canonical
/// key, superseding any outstanding tick (generation bump — the stale event
/// decays to a no-op at pop). The front may itself be a cancelled member:
/// dispatch validates and re-aims, so a stale aim costs one invisible pop,
/// never an ordering violation (the live front's key is always later).
void Simulator::wheel_schedule_tick(QueueRt& q, std::uint32_t ci) {
  WheelCohort& c = q.wheel[ci];
  const WheelMember& m = c.members[c.cursor];
  ++c.tick_gen;
  q.queue.schedule_tick(EventKey{m.when, m.lane, m.order},
                        TickEvent{ci, c.tick_gen, m.order});
}

void Simulator::wheel_retire(QueueRt& q, std::uint32_t ci) {
  WheelCohort& c = q.wheel[ci];
  q.wheel_index.erase(c.win);
  // Keep a small buffer for the freelist's next tenant, but hand anything a
  // burst grew back to the allocator: otherwise every cohort slot a burst
  // of same-phase timers ever passed through pins its peak forever.
  if (c.members.capacity() > kWheelRetainedMembers) {
    std::vector<WheelMember>().swap(c.members);
  } else {
    c.members.clear();
  }
  c.cursor = 0;
  // tick_gen is intentionally NOT reset: it stays monotone across slot
  // reuse so a dead tick can never match a later tenant's live one.
  c.in_use = false;
  c.next_free = q.wheel_free_head;
  q.wheel_free_head = ci;
}

void Simulator::wheel_arm(QueueRt& q, std::uint32_t slot, std::uint32_t gen,
                          std::uint32_t lane, const EventKey& key) {
  Periodic& p = q.periodics[slot];
  p.occ_armed = true;
  ++q.wheel_scheduled;
  ++q.wheel_armed;
  q.wheel_armed_peak = std::max(q.wheel_armed_peak, q.wheel_armed);

  const WheelMember m{key.when, key.order, lane, slot, gen};
  const std::int64_t win = key.when.us() / wheel_width_.us();
  const auto it = q.wheel_index.find(win);
  if (it != q.wheel_index.end()) {
    // The window already has a cohort: join it at the member's canonical
    // position. Fires proceed in key order and re-arm one period ahead, so
    // same-period re-arms land in ascending order — the append fast path;
    // mixed periods occasionally pay a lower_bound insert.
    const std::uint32_t ci = it->second;
    WheelCohort& c = q.wheel[ci];
    if (c.members.empty() || member_less(c.members.back(), m)) {
      c.members.push_back(m);
      if (c.cursor + 1 == c.members.size()) wheel_schedule_tick(q, ci);
      return;
    }
    const auto at = std::lower_bound(
        c.members.begin() + static_cast<std::ptrdiff_t>(c.cursor),
        c.members.end(), m, member_less);
    const bool new_front =
        at == c.members.begin() + static_cast<std::ptrdiff_t>(c.cursor);
    c.members.insert(at, m);
    // An earlier front invalidates the pending tick's aim; re-aim eagerly
    // so the new member cannot fire late.
    if (new_front) wheel_schedule_tick(q, ci);
    return;
  }
  // First occurrence in this window.
  std::uint32_t ci;
  if (q.wheel_free_head != kNullIndex) {
    ci = q.wheel_free_head;
    q.wheel_free_head = q.wheel[ci].next_free;
  } else {
    ci = static_cast<std::uint32_t>(q.wheel.size());
    q.wheel.emplace_back();
  }
  WheelCohort& c = q.wheel[ci];
  c.in_use = true;
  c.next_free = kNullIndex;
  c.win = win;
  c.cursor = 0;
  c.members.push_back(m);
  q.wheel_index.emplace(win, ci);
  wheel_schedule_tick(q, ci);
}

void Simulator::fire_wheel_member(QueueRt& q, const WheelMember& m) {
  Callback fn;
  {
    Periodic& p = q.periodics[m.slot];
    BRISA_ASSERT(p.armed && p.gen == m.gen && p.occ_armed);
    p.occ_armed = false;
    --q.wheel_armed;
    if (p.gate != nullptr && !p.gate(p.gate_ctx, p.gate_arg)) {
      release_periodic(q, m.slot);
      return;
    }
    // Run the closure from the stack: it may create or cancel periodic
    // timers, which can grow the slab or retire this very slot.
    fn = std::move(p.fn);
  }
  fn();
  Periodic& p = q.periodics[m.slot];
  if (!p.armed || p.gen != m.gen) return;  // cancelled itself inside fn
  if (p.gate != nullptr && !p.gate(p.gate_ctx, p.gate_arg)) {
    release_periodic(q, m.slot);
    return;
  }
  p.fn = std::move(fn);
  const TimePoint next = (exec_active_ ? q.now : now_) + p.period;
  wheel_arm(q, m.slot, m.gen, p.lane, make_key(next, p.lane));
}

/// Dispatches a popped cohort tick. Returns whether a member actually fired
/// — dead/superseded ticks and pure skims are invisible: no counters, no
/// clock movement, no user code. Exactly one live tick exists per in-use
/// cohort, so this is the only place a cursor advances or a cohort drains.
bool Simulator::wheel_tick(QueueRt& q, const TickEvent& t) {
  if (t.cohort >= q.wheel.size()) return false;  // wheel cleared under it
  {
    WheelCohort& c = q.wheel[t.cohort];
    if (!c.in_use || c.tick_gen != t.gen) return false;  // superseded
    // Skim cancelled occurrences (the cancel already counted them).
    while (c.cursor < c.members.size()) {
      const WheelMember& m = c.members[c.cursor];
      if (m.slot < q.periodics.size()) {
        const Periodic& p = q.periodics[m.slot];
        if (p.armed && p.gen == m.gen && p.occ_armed) break;
      }
      ++c.cursor;
    }
    if (c.cursor == c.members.size()) {
      wheel_retire(q, t.cohort);  // every remaining member had decayed
      return false;
    }
    if (c.members[c.cursor].order != t.order) {
      // The skim moved the front past the member this tick was aimed at;
      // queue events between the two keys must run first, so re-aim
      // instead of firing early.
      wheel_schedule_tick(q, t.cohort);
      return false;
    }
  }
  // References are re-taken after the callback: it may arm new timers and
  // grow q.wheel under us.
  const WheelMember m = q.wheel[t.cohort].members[q.wheel[t.cohort].cursor];
  ++q.wheel[t.cohort].cursor;
  ExecCtx* ec = exec_active_ ? tls_exec_ : nullptr;
  if (ec != nullptr && ec->sim == this) {
    ec->lane = m.lane;
  } else {
    current_lane_ = m.lane;
  }
  fire_wheel_member(q, m);
  WheelCohort& c = q.wheel[t.cohort];
  if (c.cursor < c.members.size()) {
    // The next member's key is strictly larger than the one just fired, so
    // interleaved queue events between the two run in canonical order.
    wheel_schedule_tick(q, t.cohort);
  } else {
    wheel_retire(q, t.cohort);
  }
  return true;
}

// --- Run loop ----------------------------------------------------------------

std::uint64_t Simulator::run_single(TimePoint limit, bool drain) {
  QueueRt& g = *global_;
  std::uint64_t fired_count = 0;
  for (;;) {
    const TimePoint t = g.queue.next_time();
    if (t == TimePoint::max() || (!drain && t > limit)) break;
    BRISA_ASSERT_MSG(t >= now_, "event queue went backwards");
    EventQueue::Fired event = g.queue.pop();
    if (event.payload.kind() == EventPayload::Kind::kTick) {
      // The clock only moves if the tick fires a member: a decayed tick is
      // as invisible as the cancellation that killed it.
      const TimePoint before = now_;
      now_ = event.time;
      if (wheel_tick(g, event.payload.tick())) {
        ++fired_count;
      } else {
        now_ = before;
      }
    } else {
      now_ = event.time;
      current_lane_ = event.lane;
      event.run();
      ++fired_count;
    }
  }
  current_lane_ = 0;
  if (!drain && now_ < limit) now_ = limit;
  events_fired_ += fired_count;
  return fired_count;
}

std::uint64_t Simulator::run_sharded(TimePoint limit, bool drain) {
  std::uint64_t fired_count = 0;
  for (;;) {
    const TimePoint tg = global_->queue.next_time();
    TimePoint th = TimePoint::max();
    for (std::uint32_t s = 1; s <= shards_; ++s) {
      th = std::min(th, queues_[s]->queue.next_time());
    }
    const TimePoint tmin = std::min(tg, th);
    if (tmin == TimePoint::max()) break;
    if (!drain && tmin > limit) break;
    if (tg <= th) {
      // Serial step: one global-lane event runs alone and may touch any
      // state (membership changes, churn, harness bookkeeping).
      BRISA_ASSERT_MSG(tg >= now_, "event queue went backwards");
      EventQueue::Fired event = global_->queue.pop();
      if (event.payload.kind() == EventPayload::Kind::kTick) {
        const TimePoint before = now_;
        now_ = event.time;
        if (wheel_tick(*global_, event.payload.tick())) {
          ++fired_count;
          ++serial_events_;
        } else {
          now_ = before;
        }
      } else {
        now_ = event.time;
        current_lane_ = 0;
        event.run();
        ++fired_count;
        ++serial_events_;
      }
    } else {
      // Parallel window: [th, w_end) with w_end capped by the next global
      // event, the lookahead, and (for bounded runs) limit + 1us so events
      // at exactly `limit` still fire.
      TimePoint w_end = th + lookahead_;
      if (tg < w_end) w_end = tg;
      if (!drain && limit < TimePoint::max() &&
          limit + Duration::microseconds(1) < w_end) {
        w_end = limit + Duration::microseconds(1);
      }
      fired_count += run_window(th, w_end);
    }
  }
  if (!drain && now_ < limit) now_ = limit;
  events_fired_ += fired_count;
  return fired_count;
}

std::uint64_t Simulator::run_window(TimePoint w_start, TimePoint w_end) {
  window_start_ = w_start;
  window_end_ = w_end;
  process_ticket_.store(0, std::memory_order_relaxed);
  flush_ticket_.store(0, std::memory_order_relaxed);
  exec_active_ = true;
  ++windows_;
  if (workers_ > 1) {
    // Three barrier phases per window: release, end-of-processing (no queue
    // may be mutated by its mailbox until its owner stops draining it), and
    // end-of-flush.
    barrier_->arrive_and_wait();
    process_shards(0);
    const auto t0 = std::chrono::steady_clock::now();
    barrier_->arrive_and_wait();
    flush_shards();
    barrier_->arrive_and_wait();
    const auto t1 = std::chrono::steady_clock::now();
    queues_[1]->barrier_wait_us += static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(t1 - t0)
            .count());
  } else {
    process_shards(0);
    flush_shards();
  }
  exec_active_ = false;
  std::uint64_t fired = 0;
  for (std::uint32_t s = 1; s <= shards_; ++s) {
    QueueRt& q = *queues_[s];
    fired += q.window_fired;
    if (q.window_fired > 0 && q.window_last > now_) now_ = q.window_last;
    q.window_fired = 0;
  }
  return fired;
}

void Simulator::process_shards(std::uint32_t widx) {
  const TimePoint w_end = window_end_;
  for (;;) {
    const std::uint32_t s =
        process_ticket_.fetch_add(1, std::memory_order_relaxed);
    if (s >= shards_) return;
    QueueRt& q = *queues_[s + 1];
    if (s % workers_ != widx) ++q.steals;
    ExecCtx ctx{this, &q, s + 1, 0};
    tls_exec_ = &ctx;
    std::uint64_t n = 0;
    for (;;) {
      const TimePoint t = q.queue.next_time();
      if (t == TimePoint::max() || t >= w_end) break;
      EventQueue::Fired event = q.queue.pop();
      if (event.payload.kind() == EventPayload::Kind::kTick) {
        const TimePoint before = q.now;
        q.now = event.time;
        if (wheel_tick(q, event.payload.tick())) {
          ++n;
        } else {
          q.now = before;
        }
      } else {
        q.now = event.time;
        ctx.lane = event.lane;
        event.run();
        ++n;
      }
    }
    tls_exec_ = nullptr;
    q.window_fired = n;
    if (n > 0) q.window_last = q.now;
    q.events_fired += n;
    ++q.windows;
  }
}

void Simulator::flush_shards() {
  for (;;) {
    const std::uint32_t d =
        flush_ticket_.fetch_add(1, std::memory_order_relaxed);
    if (d >= shards_) return;
    QueueRt& dst = *queues_[d + 1];
    for (std::uint32_t s = 0; s < shards_; ++s) {
      auto& box = queues_[s + 1]->outbox[d + 1];
      for (Mail& m : box) {
        // Heap order comes from the canonical key, so insertion order (which
        // source shard flushed first) cannot affect results.
        dst.queue.schedule_payload(m.key, std::move(m.payload), m.gate,
                                   m.gate_ctx, m.gate_arg);
        ++dst.mailbox_in;
      }
      box.clear();
    }
  }
}

void Simulator::worker_loop(std::uint32_t widx) {
  // Barrier waits are attributed to the worker's home shard (thread w ->
  // shard w+1): a long wait means this thread's claims finished early.
  QueueRt& home = *queues_[widx + 1];
  for (;;) {
    auto t0 = std::chrono::steady_clock::now();
    barrier_->arrive_and_wait();
    home.barrier_wait_us += static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - t0)
            .count());
    if (stop_.load(std::memory_order_relaxed)) return;
    process_shards(widx);
    barrier_->arrive_and_wait();
    flush_shards();
    barrier_->arrive_and_wait();
  }
}

std::uint64_t Simulator::run_until(TimePoint limit) {
  return shards_ == 1 ? run_single(limit, false) : run_sharded(limit, false);
}

std::uint64_t Simulator::run() {
  // Unlike run_until, draining leaves the clock on the last event fired.
  return shards_ == 1 ? run_single(TimePoint::max(), true)
                      : run_sharded(TimePoint::max(), true);
}

void Simulator::clear() {
  BRISA_ASSERT_MSG(!exec_active_, "clear() inside a parallel window");
  for (auto& qp : queues_) {
    QueueRt& q = *qp;
    q.queue.clear();
    for (std::uint32_t slot = 0;
         slot < static_cast<std::uint32_t>(q.periodics.size()); ++slot) {
      if (q.periodics[slot].armed) release_periodic(q, slot);
    }
    // Dropped occurrences are not cancels, matching queue.clear() semantics.
    // Pending ticks died with queue.clear(), so tick generations may reset.
    q.wheel.clear();
    q.wheel_index.clear();
    q.wheel_free_head = kNullIndex;
    q.wheel_armed = 0;
    for (auto& box : q.outbox) box.clear();
  }
}

void Simulator::shrink() {
  BRISA_ASSERT_MSG(!exec_active_, "shrink() inside a parallel window");
  for (auto& qp : queues_) {
    QueueRt& q = *qp;
    q.queue.shrink();
    if (q.queue.tick_pending() == 0) {
      // Every in-use cohort keeps one live tick pending, so zero pending
      // ticks means no cohorts at all (and no dead ticks that could match a
      // reset generation) — the wheel storage can go entirely.
      std::vector<WheelCohort>().swap(q.wheel);
      std::unordered_map<std::int64_t, std::uint32_t, WheelKeyHash>().swap(
          q.wheel_index);
      q.wheel_free_head = kNullIndex;
    }
    if (q.active_periodics == 0) {
      // Stale PeriodicIds bounds-check against the (now empty) slab — but
      // slots regrown later would restart at gen 1 and alias old handles.
      // Record the highest generation the old slab reached so regrown slots
      // start strictly above every outstanding stale handle (release bumped
      // each slot past any handle it ever issued).
      for (const Periodic& p : q.periodics) {
        q.periodic_gen_floor = std::max(q.periodic_gen_floor, p.gen);
      }
      std::vector<Periodic>().swap(q.periodics);
      q.periodic_free_head = kNullIndex;
    }
  }
}

std::size_t Simulator::pending_events() const {
  std::size_t pending = 0;
  for (const auto& q : queues_) pending += q->queue.size() + q->wheel_armed;
  return pending;
}

Simulator::Stats Simulator::stats() const {
  Stats s;
  s.events_fired = events_fired_;
  for (const auto& qp : queues_) {
    const QueueRt& q = *qp;
    s.events_scheduled += q.queue.scheduled_total() + q.wheel_scheduled;
    s.events_cancelled += q.queue.cancelled_total() + q.wheel_cancelled;
    s.pending_events += q.queue.size() + q.wheel_armed;
    s.event_slab_slots += q.queue.slab_capacity();
    s.peak_pending_events += q.queue.peak_pending() + q.wheel_armed_peak;
    s.active_periodics += q.active_periodics;
    for (const WheelCohort& c : q.wheel) {
      s.wheel_member_slots += c.members.capacity();
    }
  }
  s.callback_heap_fallbacks =
      InlineCallback::heap_fallbacks() - heap_fallbacks_at_ctor_;
  if (shards_ > 1) {
    s.serial_events = serial_events_;
    s.windows = windows_;
    s.shards.resize(shards_);
    for (std::uint32_t i = 0; i < shards_; ++i) {
      const QueueRt& q = *queues_[i + 1];
      s.shards[i] = Stats::Shard{q.events_fired, q.windows, q.mailbox_in,
                                 q.steals, q.barrier_wait_us};
    }
  }
  return s;
}

}  // namespace brisa::sim
