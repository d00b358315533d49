// The discrete-event simulator: a virtual clock driving per-shard event
// queues under a conservative time-window protocol.
//
// Determinism is the property every experiment in the paper reproduction
// depends on, so parallelism is *conservative*: hosts are partitioned across
// N shards (lane 0 is the global/control lane, lane h+1 is host h), each
// shard owns an event queue, and execution alternates between
//
//   * serial steps — the earliest pending event is a global-lane event, so
//     it runs alone on the coordinating thread and may touch anything; and
//   * parallel windows [w, w+W) — every shard drains its own queue up to the
//     window end concurrently; W derives from the minimum cross-host latency
//     (set_lookahead), so an event can only affect another shard at least W
//     in the future. Cross-shard schedules land in a per-destination mailbox
//     that is flushed at the window barrier.
//
// Every event carries a canonical key (see EventKey) whose creator-scoped
// sequence number is attributed per lane, which makes the *order* of events
// — and therefore every result — byte-identical for any shard count,
// including shards=1 (the default, which keeps the classic single-queue
// fast path). See DESIGN.md §13.
//
// Periodic timers are slab-allocated per queue and batched into a cohort
// wheel: each armed occurrence is one 32-byte member of a (period, due)
// cohort — every host firing the same interval in the same phase shares one
// cohort, so a million keep-alive timers cost thousands of cohorts instead
// of a million pending events. Each cohort is represented in the event
// queue by exactly ONE tick event, scheduled at the cohort's front-member
// canonical key; popping the tick fires one member and reschedules (same
// instant, next member) or retires the cohort. Ordering therefore comes from
// the queue itself, so results stay byte-identical to the queue-resident
// scheme (DESIGN.md §14). A retired cohort keeps at most a small fixed
// member buffer for its next tenant, so wheel storage tracks the armed
// occurrences, not the largest burst ever seen. The handle returned by
// every() is a generation-tagged value — stale handles are harmless, and
// cancellation is O(1) validation; the armed occurrence decays lazily in
// its cohort.
#pragma once

#include <atomic>
#include <barrier>
#include <cstdint>
#include <memory>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "sim/event_queue.h"
#include "sim/rng.h"
#include "sim/time.h"

namespace brisa::sim {

/// Generation-tagged handle to a periodic timer (value type; see EventId).
struct PeriodicId {
  std::uint32_t slot = 0;
  std::uint32_t gen = 0;

  [[nodiscard]] constexpr bool valid() const { return gen != 0; }

  constexpr auto operator<=>(const PeriodicId&) const = default;
};

inline constexpr PeriodicId kInvalidPeriodicId{};

class Simulator {
 public:
  explicit Simulator(std::uint64_t seed);
  ~Simulator();

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current virtual time. Inside a parallel window this is the executing
  /// shard's clock (thread-local); otherwise the global clock.
  [[nodiscard]] TimePoint now() const {
    return exec_active_ ? exec_now() : now_;
  }

  /// Root RNG; components should `split()` their own stream from it. Must
  /// only be drawn from setup code and global-lane (serial) events — never
  /// from host-lane events, which race under sharding. Host-lane code uses
  /// per-host CounterRng streams (see net::Network).
  [[nodiscard]] Rng& rng() { return rng_; }

  // --- Sharding configuration ----------------------------------------------

  /// Minimum cross-host interaction latency: the conservative window length.
  /// Must be set (same value!) for every shard count a run is compared
  /// across, because cross-shard notice delays quantize to it. Also sizes
  /// the periodic wheel's windows (eight lookaheads each); that width only
  /// groups timers, so it never changes results.
  void set_lookahead(Duration lookahead);
  [[nodiscard]] Duration lookahead() const { return lookahead_; }

  /// Splits host lanes across `shards` queues (must be called before any
  /// event is scheduled; requires set_lookahead(>0) first when shards > 1).
  /// `workers` caps the thread pool (0 = min(shards, hardware cores));
  /// results never depend on it — only wall-clock does.
  void configure_sharding(std::uint32_t shards, std::uint32_t workers = 0);
  [[nodiscard]] std::uint32_t shards() const { return shards_; }

  /// Releases empty event-queue slabs, wheel storage, and retired periodic
  /// slabs back to the allocator (between sweep cells; see
  /// EventQueue::shrink). Live state is never dropped.
  void shrink();

  /// True while host-lane events are executing in parallel. Serial-only
  /// operations (membership changes, root-RNG draws) assert against this.
  [[nodiscard]] bool in_parallel_phase() const { return exec_active_; }

  /// Declares host lanes [0, hosts) so parallel phases never grow the
  /// creator-sequence table. Serial-phase scheduling auto-grows it.
  void register_host_lanes(std::uint32_t hosts);

  // --- Global-lane scheduling (serial steps) --------------------------------

  /// Schedules a callback at an absolute virtual time (must be >= now).
  EventId at(TimePoint when, Callback fn);

  /// Schedules a callback `delay` after the current time.
  EventId after(Duration delay, Callback fn);

  /// Schedules a repeating callback every `period`, first firing at
  /// now + period. The returned handle cancels the whole timer when passed
  /// to `cancel_periodic` (including from inside the callback itself).
  PeriodicId every(Duration period, Callback fn);

  // --- Host-lane scheduling --------------------------------------------------
  // The event runs on host `host`'s lane. From a parallel window, targeting
  // another shard requires when >= the current window's end (guaranteed by
  // the network's lookahead floor) and routes through a mailbox — in that
  // case the returned id is kInvalidEventId (cross-shard events cannot be
  // cancelled; only own-lane timers are).

  EventId at_host(std::uint32_t host, TimePoint when, Callback fn);
  EventId after_host(std::uint32_t host, Duration delay, Callback fn);
  /// Gated variants: `gate` is evaluated at fire time and a false result
  /// skips the callback; for a periodic timer it retires the timer. Protocol
  /// timers use this for "host still alive?" without wrapping the closure
  /// (see net::Process).
  EventId after_host_gated(std::uint32_t host, Duration delay,
                           GatePredicate gate, const void* ctx,
                           std::uint32_t arg, Callback fn);
  PeriodicId every_host(std::uint32_t host, Duration period, Callback fn);
  PeriodicId every_host_gated(std::uint32_t host, Duration period,
                              GatePredicate gate, const void* ctx,
                              std::uint32_t arg, Callback fn);

  /// Schedules a typed network delivery on the destination host's lane
  /// (event.to routes it).
  EventId at_deliver(TimePoint when, const DeliverEvent& event);

  /// Cancels a periodic timer. Stale or invalid handles are a no-op. From a
  /// parallel window, only the executing shard's own timers may be
  /// cancelled.
  void cancel_periodic(PeriodicId id);

  /// True while the periodic timer behind `id` is still armed.
  [[nodiscard]] bool periodic_live(PeriodicId id) const;

  void cancel(EventId id);

  /// Runs events until the queue is empty or `limit` is reached; the clock
  /// ends at min(limit, last event time). Returns number of events fired.
  std::uint64_t run_until(TimePoint limit);

  /// Runs until the queue drains completely.
  std::uint64_t run();

  /// Drops every pending event and periodic timer (used between experiment
  /// phases).
  void clear();

  [[nodiscard]] std::uint64_t events_fired() const { return events_fired_; }
  [[nodiscard]] std::size_t pending_events() const;

  /// Event-core counters for benchmarks and experiment reports. Cheap to
  /// collect; all counters are monotone except the instantaneous gauges.
  struct Stats {
    std::uint64_t events_fired = 0;
    std::uint64_t events_scheduled = 0;   ///< monotone across slot reuse
    std::uint64_t events_cancelled = 0;
    /// Closures too big to inline since this simulator was constructed
    /// (delta of the thread-wide InlineCallback counter).
    std::uint64_t callback_heap_fallbacks = 0;
    std::size_t pending_events = 0;       ///< gauge
    std::size_t event_slab_slots = 0;     ///< gauge: peak concurrent footprint
    std::size_t peak_pending_events = 0;
    std::size_t active_periodics = 0;     ///< gauge
    /// Gauge: member slots the periodic wheel holds allocated, live and
    /// free cohorts alike. Tracks armed occurrences, not past bursts.
    std::size_t wheel_member_slots = 0;

    /// Per-shard execution counters (empty when shards == 1).
    struct Shard {
      std::uint64_t events = 0;       ///< host-lane events fired (determ.)
      std::uint64_t windows = 0;      ///< parallel windows joined (determ.)
      std::uint64_t mailbox_in = 0;   ///< cross-shard events received (det.)
      std::uint64_t steals = 0;       ///< processed by a non-home worker
      std::uint64_t barrier_wait_us = 0;  ///< wall-clock wait (diagnostic)
    };
    std::vector<Shard> shards;
    std::uint64_t serial_events = 0;  ///< global-lane events under sharding
    std::uint64_t windows = 0;        ///< parallel windows executed

    /// Compares the deterministic, shard-count-invariant counters only —
    /// determinism golden tests compare whole runs across shard counts.
    /// Excluded: steals/barrier waits (worker scheduling, wall clock) and
    /// peak_pending_events (a per-queue occupancy peak, so it depends on how
    /// hosts are partitioned even though every event fires identically).
    bool operator==(const Stats& o) const {
      return events_fired == o.events_fired &&
             events_scheduled == o.events_scheduled &&
             events_cancelled == o.events_cancelled &&
             callback_heap_fallbacks == o.callback_heap_fallbacks &&
             pending_events == o.pending_events &&
             active_periodics == o.active_periodics;
    }
  };
  [[nodiscard]] Stats stats() const;

  /// The global-lane queue (and, when shards == 1, the only queue).
  [[nodiscard]] const EventQueue& queue() const { return global_->queue; }

 private:
  static constexpr std::uint32_t kNullIndex = 0xffffffff;
  static constexpr std::uint32_t kQueueIndexShift = EventQueue::kSlotIndexBits;
  static constexpr std::uint32_t kSlotIndexMask =
      (1u << kQueueIndexShift) - 1u;
  /// Hosts are mapped onto shards in blocks of 64, so per-host arrays
  /// (counters, RNG streams) that neighbours write stay a block apart.
  static constexpr std::uint32_t kShardBlockHosts = 64;
  static constexpr std::uint32_t kCreatorShift = 40;  ///< order layout
  /// Member capacity a retired wheel cohort may keep for its next tenant;
  /// anything larger goes back to the allocator at retirement.
  static constexpr std::size_t kWheelRetainedMembers = 32;

  struct Periodic {
    Duration period;
    Callback fn;
    GatePredicate gate = nullptr;
    const void* gate_ctx = nullptr;
    std::uint32_t gate_arg = 0;
    std::uint32_t lane = 0;
    std::uint32_t gen = 1;
    std::uint32_t next_free = kNullIndex;
    bool armed = false;
    /// An occurrence of this timer sits in the wheel (false while the
    /// callback itself runs, mirroring the old in-flight tick). Cancelling
    /// leaves the wheel entry behind to decay by generation mismatch.
    bool occ_armed = false;
  };

  // --- Periodic-tick wheel ---------------------------------------------------
  // One cohort per occupied time window: timer occurrences due within the
  // same `wheel_width_`-wide slice of simulated time share one cohort,
  // regardless of interval or exact phase. Each member carries its own
  // exact canonical key (when, lane, order); the batch is kept sorted in
  // that order, so draining a cohort front-to-back IS queue order. The
  // cohort's queue presence is one kTick event aimed at the front member's
  // exact key; a popped tick fires one member, then reschedules at the next
  // member's key (strictly larger — interleaved queue events run in
  // canonical order by construction) or retires the cohort when drained.
  // The pending-event set thus holds one entry per occupied window instead
  // of one per timer, which is what keeps a 100k-host fleet's queue — and
  // its slab — cache-resident. Window width only groups; it can never
  // change ordering, so any width yields byte-identical runs. Cancelled
  // occurrences go stale in place (generation mismatch) and are skimmed —
  // invisibly — at tick dispatch; a skim that moves the front reschedules
  // the tick instead of firing early (the tick's pinned member order
  // detects it).

  struct WheelMember {
    TimePoint when;           ///< exact due instant
    std::uint64_t order = 0;  ///< EventKey::order drawn at arm time
    std::uint32_t lane = 0;
    std::uint32_t slot = 0;   ///< periodic slab slot
    std::uint32_t gen = 0;    ///< slab generation at arm time
  };

  struct WheelCohort {
    std::int64_t win = 0;  ///< index key: floor(front due / wheel_width_)
    std::vector<WheelMember> members;  ///< sorted by key; live from cursor
    std::size_t cursor = 0;
    /// Generation of the cohort's live tick. Rescheduling bumps it, so a
    /// superseded tick decays to a no-op at pop; it survives retirement
    /// (monotone across slot reuse) so a dead tick can never match a new
    /// tenant's live one.
    std::uint32_t tick_gen = 0;
    std::uint32_t next_free = kNullIndex;
    bool in_use = false;
  };

  /// Hash for the window-index key (a window ordinal).
  struct WheelKeyHash {
    std::size_t operator()(std::int64_t k) const {
      const std::uint64_t x =
          static_cast<std::uint64_t>(k) * 0x9E3779B97F4A7C15ull;
      return static_cast<std::size_t>(x ^ (x >> 32));
    }
  };

  /// Canonical EventKey order over members.
  static constexpr bool member_less(const WheelMember& a,
                                    const WheelMember& b) {
    if (a.when != b.when) return a.when < b.when;
    return a.lane != b.lane ? a.lane < b.lane : a.order < b.order;
  }

  /// A cross-shard event parked until the destination's next window.
  struct Mail {
    EventKey key;
    EventPayload payload;
    GatePredicate gate = nullptr;
    const void* gate_ctx = nullptr;
    std::uint32_t gate_arg = 0;
  };

  /// Everything one shard touches while a window runs, cache-line-aligned so
  /// two shards never contend on a line. Exactly one thread works a given
  /// QueueRt inside a window (ticket claiming); the window barriers publish
  /// the results to the coordinator.
  struct alignas(64) QueueRt {
    EventQueue queue;
    TimePoint now = TimePoint::origin();

    // Periodic-timer slab (timers whose lane maps to this queue).
    std::vector<Periodic> periodics;
    std::uint32_t periodic_free_head = kNullIndex;
    std::size_t active_periodics = 0;
    /// Starting generation for slots grown after shrink() dropped the slab:
    /// the highest generation the discarded slab reached, so stale
    /// PeriodicIds can never alias a regrown slot (mirrors
    /// EventQueue::gen_floor_).
    std::uint32_t periodic_gen_floor = 1;

    // Tick wheel for this queue's periodic occurrences, indexed by
    // occupied window ordinal.
    std::vector<WheelCohort> wheel;
    std::unordered_map<std::int64_t, std::uint32_t, WheelKeyHash> wheel_index;
    std::uint32_t wheel_free_head = kNullIndex;
    std::size_t wheel_armed = 0;       ///< armed occurrences (gauge)
    std::size_t wheel_armed_peak = 0;
    // Monotone mirrors of what the queue's scheduled/cancelled counters
    // recorded when occurrences were queue events, so Stats stay comparable.
    std::uint64_t wheel_scheduled = 0;
    std::uint64_t wheel_cancelled = 0;

    /// Outgoing cross-shard events, indexed by destination queue.
    std::vector<std::vector<Mail>> outbox;

    // Counters (see Stats::Shard).
    std::uint64_t events_fired = 0;
    std::uint64_t windows = 0;
    std::uint64_t mailbox_in = 0;
    std::uint64_t steals = 0;
    std::uint64_t barrier_wait_us = 0;

    // Per-window scratch, written by the claiming worker, read by the
    // coordinator after the window barrier.
    std::uint64_t window_fired = 0;
    TimePoint window_last = TimePoint::origin();
  };
  static_assert(alignof(QueueRt) == 64, "shard state must be line-aligned");
  static_assert(sizeof(QueueRt) % 64 == 0, "shard state must tile lines");

  struct ExecCtx;  // per-thread execution state (defined in .cpp)
  static thread_local ExecCtx* tls_exec_;

  [[nodiscard]] std::uint32_t qidx_of_lane(std::uint32_t lane) const {
    if (lane == 0 || shards_ == 1) return 0;
    return 1 + ((lane - 1) / kShardBlockHosts) % shards_;
  }

  [[nodiscard]] TimePoint exec_now() const;
  EventKey make_key(TimePoint when, std::uint32_t lane);
  EventId post_callback(std::uint32_t lane, TimePoint when, Callback fn,
                        GatePredicate gate, const void* ctx,
                        std::uint32_t arg);
  EventId post_deliver(std::uint32_t lane, TimePoint when,
                       const DeliverEvent& event);
  PeriodicId start_periodic(std::uint32_t lane, Duration period,
                            GatePredicate gate, const void* ctx,
                            std::uint32_t arg, Callback fn);

  PeriodicId acquire_periodic(QueueRt& q, std::uint32_t qidx);
  void release_periodic(QueueRt& q, std::uint32_t slot);

  // Wheel operations (per queue; thread-safe because exactly one thread
  // works a QueueRt at a time, same as the event queue itself).
  void wheel_arm(QueueRt& q, std::uint32_t slot, std::uint32_t gen,
                 std::uint32_t lane, const EventKey& key);
  bool wheel_tick(QueueRt& q, const TickEvent& tick);
  void wheel_schedule_tick(QueueRt& q, std::uint32_t ci);
  void fire_wheel_member(QueueRt& q, const WheelMember& m);
  void wheel_retire(QueueRt& q, std::uint32_t ci);

  std::uint64_t run_single(TimePoint limit, bool drain);
  std::uint64_t run_sharded(TimePoint limit, bool drain);
  std::uint64_t run_window(TimePoint w_start, TimePoint w_end);
  void process_shards(std::uint32_t widx);
  void flush_shards();
  void worker_loop(std::uint32_t widx);
  void stop_workers();

  TimePoint now_ = TimePoint::origin();
  Rng rng_;
  std::vector<std::unique_ptr<QueueRt>> queues_;  ///< [0] = global lane
  QueueRt* global_ = nullptr;                     ///< cached queues_[0]
  std::uint32_t shards_ = 1;
  std::uint32_t workers_ = 1;
  Duration lookahead_ = Duration::zero();
  /// Periodic-wheel window width: eight conservative windows (eight times
  /// the 100us fallback when no lookahead is set).
  Duration wheel_width_ = Duration::microseconds(800);

  /// Creator lane of the event being dispatched (serial / shards=1 path;
  /// parallel windows use the thread-local ExecCtx instead).
  std::uint32_t current_lane_ = 0;
  /// Per-creator-lane sequence numbers for EventKey::order. A lane's counter
  /// is only ever advanced by the lane's own execution (or serially), so the
  /// numbering is shard-count-invariant.
  std::vector<std::uint64_t> lane_seq_;

  bool exec_active_ = false;  ///< a parallel window is running

  std::uint64_t events_fired_ = 0;
  std::uint64_t serial_events_ = 0;
  std::uint64_t windows_ = 0;
  std::uint64_t heap_fallbacks_at_ctor_ = InlineCallback::heap_fallbacks();

  // Worker pool (only when shards > 1 resolves to > 1 worker).
  std::vector<std::thread> threads_;
  std::unique_ptr<std::barrier<>> barrier_;
  std::atomic<std::uint32_t> process_ticket_{0};
  std::atomic<std::uint32_t> flush_ticket_{0};
  std::atomic<bool> stop_{false};
  TimePoint window_start_ = TimePoint::origin();
  TimePoint window_end_ = TimePoint::origin();
};

}  // namespace brisa::sim
