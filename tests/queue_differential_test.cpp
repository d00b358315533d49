// Differential test of the pending-event set (the 4-ary heap) against a
// sorted-reference model.
//
// The contract under test: the heap is an *exact* min-extractor over the
// canonical EventKey order — the pop sequence, cancel semantics and
// counters match a std::multiset driven in lockstep for any
// schedule/cancel/pop churn, including equal-time key ties and far-future
// keys. Every simulation result's determinism rests on it (DESIGN.md §14).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <set>
#include <vector>

#include "sim/event_queue.h"

namespace brisa::sim {
namespace {

struct RefKey {
  std::int64_t when_us;
  std::uint32_t lane;
  std::uint64_t order;

  bool operator<(const RefKey& o) const {
    if (when_us != o.when_us) return when_us < o.when_us;
    if (lane != o.lane) return lane < o.lane;
    return order < o.order;
  }
  bool operator==(const RefKey& o) const {
    return when_us == o.when_us && lane == o.lane && order == o.order;
  }
};

EventKey to_event_key(const RefKey& k) {
  return EventKey{TimePoint::from_us(k.when_us), k.lane, k.order};
}

/// The queue plus the reference, driven in lockstep.
struct Pair {
  EventQueue queue;
  std::multiset<RefKey> reference;
  std::vector<EventId> ids;
  std::vector<RefKey> keys;  ///< parallel to ids
  std::vector<bool> live;
  std::uint64_t cancelled = 0;
  std::size_t peak = 0;

  void schedule(const RefKey& k) {
    ids.push_back(queue.schedule(to_event_key(k), [] {}));
    reference.insert(k);
    keys.push_back(k);
    live.push_back(true);
    peak = std::max(peak, reference.size());
  }

  /// Cancels the tracked event at `index`; queue and reference must agree
  /// on whether a live event was removed.
  void cancel(std::size_t index) {
    ASSERT_EQ(queue.cancel(ids[index]), live[index]);
    if (live[index]) {
      auto it = reference.find(keys[index]);
      ASSERT_TRUE(it != reference.end());
      reference.erase(it);
      live[index] = false;
      ++cancelled;
    }
    ASSERT_FALSE(queue.live(ids[index]));
  }

  /// Pops the minimum and checks it against the reference.
  void pop_and_check() {
    ASSERT_FALSE(reference.empty());
    const RefKey expect = *reference.begin();
    reference.erase(reference.begin());

    ASSERT_FALSE(queue.empty());
    const EventKey key = queue.next_key();
    ASSERT_EQ(key.when.us(), expect.when_us);
    ASSERT_EQ(key.lane, expect.lane);
    ASSERT_EQ(key.order, expect.order);
    ASSERT_EQ(queue.next_time().us(), expect.when_us);

    EventQueue::Fired fired = queue.pop();
    ASSERT_EQ(fired.time.us(), expect.when_us);
    ASSERT_EQ(fired.lane, expect.lane);
    // Mark the popped entry dead in the tracker; its id is now stale.
    for (std::size_t i = 0; i < keys.size(); ++i) {
      if (live[i] && keys[i] == expect) {
        live[i] = false;
        ASSERT_FALSE(queue.live(ids[i]));
        break;
      }
    }
  }

  void check_counters() const {
    EXPECT_EQ(queue.size(), reference.size());
    EXPECT_EQ(queue.empty(), reference.empty());
    EXPECT_EQ(queue.scheduled_total(), keys.size());
    EXPECT_EQ(queue.cancelled_total(), cancelled);
    EXPECT_EQ(queue.peak_pending(), peak);
  }
};

TEST(QueueDifferential, EqualTimeTiesFollowCanonicalKeyOrder) {
  Pair t;
  // All at the same instant: only (lane, order) break the tie.
  const std::int64_t when = 1'000;
  t.schedule({when, 3, 7});
  t.schedule({when, 0, 9});
  t.schedule({when, 3, 2});
  t.schedule({when, 1, 5});
  t.schedule({when, 0, 1});
  while (!t.reference.empty()) t.pop_and_check();
  t.check_counters();
}

TEST(QueueDifferential, FarFutureKeysInterleaveWithNearTerm) {
  // Keys seconds apart, then near-term keys scheduled behind the drained
  // front: the heap must order both populations exactly.
  Pair t;
  std::uint64_t order = 0;
  for (int i = 0; i < 200; ++i) {
    t.schedule({static_cast<std::int64_t>(i) * 37'003, 1, order++});
  }
  // Interleave: drain half, then add near-term events ahead of the
  // remaining far-future ones.
  for (int i = 0; i < 100; ++i) t.pop_and_check();
  const std::int64_t now = 100 * 37'003;
  for (int i = 0; i < 50; ++i) {
    t.schedule({now + i, 2, order++});
  }
  while (!t.reference.empty()) t.pop_and_check();
  t.check_counters();
}

TEST(QueueDifferential, RandomizedChurnMatchesReference) {
  std::mt19937_64 rng(0xb415a);
  for (int round = 0; round < 4; ++round) {
    Pair t;
    std::int64_t now = 0;
    std::uint64_t order = 0;
    for (int step = 0; step < 20'000; ++step) {
      const std::uint64_t roll = rng() % 100;
      if (roll < 55 || t.reference.empty()) {
        // Bursty horizon: mostly near-term, occasionally far future, with
        // deliberate repeats of the same `when` to generate ties.
        std::int64_t delta = static_cast<std::int64_t>(rng() % 400);
        if (rng() % 16 == 0) delta = static_cast<std::int64_t>(rng() % 3'000'000);
        if (rng() % 4 == 0) delta = 0;
        t.schedule({now + delta, static_cast<std::uint32_t>(rng() % 5),
                    order++});
      } else if (roll < 75) {
        const std::size_t index = rng() % t.keys.size();
        t.cancel(index);
      } else {
        now = t.reference.begin()->when_us;  // clock follows the pop
        t.pop_and_check();
      }
    }
    while (!t.reference.empty()) t.pop_and_check();
    t.check_counters();
  }
}

TEST(QueueDifferential, GatedEventsHonorTheirGate) {
  static bool gate_open;
  gate_open = false;
  const GatePredicate gate = [](const void*, std::uint32_t) {
    return gate_open;
  };
  EventQueue q;
  int ran = 0;
  q.schedule_gated(EventKey{TimePoint::from_us(5), 0, 0}, gate, nullptr, 0,
                   [&ran] { ++ran; });
  q.schedule_gated(EventKey{TimePoint::from_us(6), 0, 1}, gate, nullptr, 0,
                   [&ran] { ++ran; });
  gate_open = false;
  q.pop().run();  // gate closed: skipped
  gate_open = true;
  q.pop().run();  // gate open: runs
  EXPECT_EQ(ran, 1);
}

TEST(QueueDifferential, ClearResetsStandaloneFifoOrder) {
  // The TimePoint convenience overloads break same-time ties with an
  // internal FIFO counter. After clear(), a reused queue must order a fresh
  // experiment's events exactly like a new queue would — the counter leak
  // this pins was observable as cross-run ordering drift in standalone
  // harnesses that reuse one queue.
  EventQueue q;
  std::vector<int> log;
  const auto run_once = [&q, &log] {
    for (int i = 0; i < 4; ++i) {
      q.schedule(TimePoint::from_us(100), [&log, i] { log.push_back(i); });
    }
    q.schedule(TimePoint::from_us(50), [&log] { log.push_back(99); });
    while (!q.empty()) q.pop().run();
  };
  run_once();
  const std::vector<int> first = log;
  q.clear();
  log.clear();
  run_once();
  EXPECT_EQ(log, first);
  EXPECT_EQ(log.front(), 99);
}

TEST(QueueDifferential, ShrinkReleasesEmptyQueueStorage) {
  EventQueue q;
  std::vector<EventId> ids;
  for (int i = 0; i < 10'000; ++i) {
    ids.push_back(q.schedule(TimePoint::from_us(i * 11), [] {}));
  }
  for (int i = 0; i < 5'000; ++i) {
    q.cancel(ids[static_cast<std::size_t>(i) * 2]);
  }
  while (!q.empty()) q.pop();
  EXPECT_GT(q.slab_capacity(), 0u);
  q.shrink();
  EXPECT_EQ(q.slab_capacity(), 0u);
  // Stale handles against the shrunk slab stay harmless.
  EXPECT_FALSE(q.cancel(ids[1]));
  // The queue is still fully usable afterwards.
  int ran = 0;
  q.schedule(TimePoint::from_us(5), [&ran] { ++ran; });
  q.pop().run();
  EXPECT_EQ(ran, 1);
}

// ABA regression: a handle issued before a full shrink() must never cancel
// an event scheduled after it. The shrink drops the slab; without the
// generation floor, the regrown slot restarts at gen 1 — exactly the stale
// handle's generation — and the stale cancel would kill the fresh event.
TEST(QueueDifferential, ShrinkThenRearmKeepsStaleHandlesInert) {
  EventQueue q;
  const EventId stale = q.schedule(TimePoint::from_us(10), [] {});
  q.pop().run();  // releases the slot, bumping its generation past stale's
  q.shrink();     // full path: slab dropped
  EXPECT_EQ(q.slab_capacity(), 0u);

  int ran = 0;
  const EventId fresh =
      q.schedule(TimePoint::from_us(20), [&ran] { ++ran; });
  ASSERT_EQ(fresh.slot, stale.slot) << "slot not regrown, test is vacuous";
  EXPECT_GT(fresh.gen, stale.gen);
  EXPECT_FALSE(q.cancel(stale));
  ASSERT_FALSE(q.empty()) << "stale cancel killed the fresh event";
  q.pop().run();
  EXPECT_EQ(ran, 1);

  // And the fresh handle itself still validates normally.
  const EventId again = q.schedule(TimePoint::from_us(30), [] {});
  EXPECT_TRUE(q.cancel(again));
  EXPECT_FALSE(q.cancel(fresh));  // already fired
}

}  // namespace
}  // namespace brisa::sim
