// Regression tests for the slab-backed event core and the message arena:
// bounded memory under schedule/cancel churn (the old lazy-tombstone queue
// grew without bound), generation-tagged handle safety across slot reuse,
// typed delivery ownership, periodic-timer determinism, and message-pool
// recycling.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "net/message.h"
#include "net/message_pool.h"
#include "sim/event_queue.h"
#include "sim/simulator.h"

namespace brisa::sim {
namespace {

TEST(EventCore, CancelChurnDoesNotGrowMemory) {
  EventQueue queue;
  // One live event at a time, churned 200k times: the slab must stay at a
  // couple of slots, not accumulate a tombstone per cancelled event.
  for (std::int64_t i = 0; i < 200'000; ++i) {
    const EventId id =
        queue.schedule(TimePoint::from_us(1'000'000 + i), []() {});
    ASSERT_TRUE(queue.cancel(id));
  }
  EXPECT_TRUE(queue.empty());
  EXPECT_LE(queue.slab_capacity(), 4u);
  EXPECT_EQ(queue.scheduled_total(), 200'000u);
  EXPECT_EQ(queue.cancelled_total(), 200'000u);
}

TEST(EventCore, FailureDetectorChurnBoundedByLiveSet) {
  // The failure-detection pattern: n armed timers, each repeatedly
  // disarmed and re-armed. Slab capacity must track n, not total churn.
  constexpr std::size_t kTimers = 512;
  EventQueue queue;
  Rng rng(3);
  std::vector<EventId> ids(kTimers);
  for (std::size_t i = 0; i < kTimers; ++i) {
    ids[i] = queue.schedule(
        TimePoint::from_us(1 + static_cast<std::int64_t>(rng.uniform(1000))),
        []() {});
  }
  for (int round = 0; round < 10'000; ++round) {
    const std::size_t j = rng.uniform(kTimers);
    queue.cancel(ids[j]);
    ids[j] = queue.schedule(
        TimePoint::from_us(1 + static_cast<std::int64_t>(rng.uniform(1000))),
        []() {});
  }
  EXPECT_EQ(queue.size(), kTimers);
  EXPECT_LE(queue.slab_capacity(), kTimers + 1);
  EXPECT_EQ(queue.peak_pending(), kTimers);
}

TEST(EventCore, StaleHandleAfterSlotReuseIsHarmless) {
  EventQueue queue;
  const EventId first = queue.schedule(TimePoint::from_us(10), []() {});
  ASSERT_TRUE(queue.cancel(first));
  // The slot is recycled by the next schedule; the stale handle must not
  // be able to cancel the new occupant.
  bool fired = false;
  const EventId second =
      queue.schedule(TimePoint::from_us(20), [&]() { fired = true; });
  EXPECT_EQ(second.slot, first.slot);
  EXPECT_NE(second.gen, first.gen);
  EXPECT_FALSE(queue.cancel(first));
  EXPECT_FALSE(queue.live(first));
  EXPECT_TRUE(queue.live(second));
  queue.pop().run();
  EXPECT_TRUE(fired);
  EXPECT_FALSE(queue.live(second));  // fired ids are no longer live
}

TEST(EventCore, GatedCallbackSkippedWhenGateFails) {
  EventQueue queue;
  static bool gate_open;
  gate_open = true;
  const auto gate = [](const void*, std::uint32_t) { return gate_open; };
  int fired = 0;
  queue.schedule_gated(TimePoint::from_us(1), gate, nullptr, 0,
                       [&]() { ++fired; });
  queue.schedule_gated(TimePoint::from_us(2), gate, nullptr, 0,
                       [&]() { ++fired; });
  queue.pop().run();
  EXPECT_EQ(fired, 1);
  gate_open = false;
  queue.pop().run();
  EXPECT_EQ(fired, 1);
}

class CountingSink : public DeliverEvent::Sink {
 public:
  void on_deliver(const DeliverEvent& event) override {
    ++delivered;
    last_token = event.token;
  }
  int delivered = 0;
  void* last_token = nullptr;
};

/// drop_token target: counts releases into the int the token points at.
void count_drop(void* token) { ++*static_cast<int*>(token); }

TEST(EventCore, DeliverEventOwnershipExactlyOnce) {
  EventQueue queue;
  CountingSink sink;
  int drops_a = 0, drops_b = 0, drops_c = 0;

  DeliverEvent event;
  event.sink = &sink;
  event.drop_token = &count_drop;

  event.token = &drops_a;
  queue.schedule_deliver(TimePoint::from_us(1), event);
  event.token = &drops_b;
  const EventId cancelled = queue.schedule_deliver(TimePoint::from_us(2), event);
  event.token = &drops_c;
  queue.schedule_deliver(TimePoint::from_us(3), event);

  queue.cancel(cancelled);
  EXPECT_EQ(drops_b, 1);  // cancel released its token

  queue.pop().run();
  EXPECT_EQ(sink.delivered, 1);
  EXPECT_EQ(sink.last_token, &drops_a);
  EXPECT_EQ(drops_a, 0);  // fired events hand the token to the sink instead

  queue.clear();  // released without firing
  EXPECT_EQ(drops_c, 1);
  EXPECT_EQ(sink.delivered, 1);
}

TEST(EventCore, PendingDeliveriesReleasedAtQueueDestructionWithoutSink) {
  // Harnesses destroy the network (the sink) before the simulator; pending
  // deliveries must release their tokens without touching the sink object.
  int drops = 0;
  {
    EventQueue queue;
    DeliverEvent event;
    event.sink = reinterpret_cast<DeliverEvent::Sink*>(0x1);  // dead sink
    event.token = &drops;
    event.drop_token = &count_drop;
    queue.schedule_deliver(TimePoint::from_us(1), event);
  }
  EXPECT_EQ(drops, 1);
}

TEST(EventCore, PeriodicDeterministicAcrossSeeds) {
  const auto run_once = [](std::uint64_t seed) {
    Simulator simulator(seed);
    Rng rng = simulator.rng().split(17);
    std::uint64_t checksum = 0;
    simulator.every(Duration::milliseconds(10), [&]() {
      checksum = checksum * 31 +
                 static_cast<std::uint64_t>(simulator.now().us());
      // Periodic work racing one-shot timers, as protocols do.
      simulator.after(
          Duration::microseconds(
              static_cast<std::int64_t>(rng.uniform(5'000)) + 1),
          [&]() { checksum ^= rng.next_u64(); });
    });
    simulator.run_until(TimePoint::origin() + Duration::seconds(1));
    return std::pair{checksum, simulator.events_fired()};
  };
  EXPECT_EQ(run_once(7), run_once(7));
  EXPECT_NE(run_once(7).first, run_once(8).first);
}

TEST(EventCore, PeriodicSlotReuseKeepsStaleHandlesInert) {
  Simulator simulator(1);
  int first_count = 0, second_count = 0;
  const PeriodicId first =
      simulator.every(Duration::seconds(1), [&]() { ++first_count; });
  simulator.cancel_periodic(first);
  const PeriodicId second =
      simulator.every(Duration::seconds(1), [&]() { ++second_count; });
  EXPECT_EQ(second.slot, first.slot);  // slot recycled
  simulator.cancel_periodic(first);    // stale: must not kill `second`
  simulator.run_until(TimePoint::origin() + Duration::seconds(3));
  EXPECT_EQ(first_count, 0);
  EXPECT_EQ(second_count, 3);
}

// ABA regression, periodic flavor: a PeriodicId issued before
// Simulator::shrink() dropped the periodic slab must stay inert after the
// slab regrows. Without the per-queue generation floor, the regrown slot
// restarts at gen 1 — the stale handle's generation — and the stale
// cancel_periodic would kill the fresh timer.
TEST(EventCore, ShrinkThenRearmKeepsStalePeriodicIdsInert) {
  Simulator simulator(1);
  int stale_count = 0;
  const PeriodicId stale =
      simulator.every(Duration::seconds(1), [&]() { ++stale_count; });
  simulator.run_until(TimePoint::origin() + Duration::seconds(2));
  simulator.cancel_periodic(stale);
  // Drain the cohort's dead tick so shrink() can take the full path.
  simulator.run_until(TimePoint::origin() + Duration::seconds(4));
  simulator.shrink();
  EXPECT_FALSE(simulator.periodic_live(stale));
  simulator.cancel_periodic(stale);  // bounds-checks against the empty slab

  int fresh_count = 0;
  const PeriodicId fresh =
      simulator.every(Duration::seconds(1), [&]() { ++fresh_count; });
  ASSERT_EQ(fresh.slot, stale.slot) << "slot not regrown, test is vacuous";
  EXPECT_GT(fresh.gen, stale.gen);
  EXPECT_TRUE(simulator.periodic_live(fresh));
  simulator.cancel_periodic(stale);  // stale: must not kill `fresh`
  EXPECT_TRUE(simulator.periodic_live(fresh));
  // The rearmed cohort actually fires.
  simulator.run_until(TimePoint::origin() + Duration::seconds(7));
  EXPECT_EQ(stale_count, 2);
  EXPECT_EQ(fresh_count, 3);
}

TEST(EventCore, ClearRetiresPeriodics) {
  Simulator simulator(1);
  int count = 0;
  const PeriodicId id =
      simulator.every(Duration::seconds(1), [&]() { ++count; });
  simulator.clear();
  EXPECT_FALSE(simulator.periodic_live(id));
  simulator.run_until(TimePoint::origin() + Duration::seconds(5));
  EXPECT_EQ(count, 0);
  EXPECT_EQ(simulator.stats().active_periodics, 0u);
}

// A burst of same-phase periodic timers grows the cohorts it passes
// through to thousands of members. Once the burst is cancelled, the wheel
// must hand that storage back: retained member slots follow the armed
// occurrences, not the largest cohort the run has ever seen.
TEST(EventCore, WheelMemberStorageTracksArmedOccurrences) {
  Simulator simulator(1);
  const Duration period = Duration::milliseconds(100);
  std::vector<PeriodicId> ids;
  std::uint64_t fired = 0;
  for (int i = 0; i < 5'000; ++i) {
    ids.push_back(simulator.every(period, [&fired]() { ++fired; }));
  }
  const auto run_periods = [&](int n) {
    simulator.run_until(simulator.now() + Duration::milliseconds(100 * n));
  };
  run_periods(50);
  EXPECT_EQ(fired, 50u * 5'000u);
  Simulator::Stats stats = simulator.stats();
  EXPECT_EQ(stats.pending_events, 5'000u);
  EXPECT_LE(stats.wheel_member_slots, 4u * stats.pending_events);

  for (std::size_t i = 10; i < ids.size(); ++i) {
    simulator.cancel_periodic(ids[i]);
  }
  fired = 0;
  run_periods(50);
  EXPECT_EQ(fired, 50u * 10u);
  stats = simulator.stats();
  EXPECT_EQ(stats.pending_events, 10u);
  EXPECT_GT(stats.wheel_member_slots, 0u);
  EXPECT_LE(stats.wheel_member_slots, 8u * stats.pending_events);
}

TEST(EventCore, SimulatorStatsCounters) {
  Simulator simulator(1);
  const EventId keep = simulator.after(Duration::seconds(2), []() {});
  static_cast<void>(keep);
  const EventId gone = simulator.after(Duration::seconds(3), []() {});
  simulator.after(Duration::seconds(1), []() {});
  simulator.cancel(gone);
  simulator.run_until(TimePoint::origin() + Duration::seconds(1));
  const Simulator::Stats stats = simulator.stats();
  EXPECT_EQ(stats.events_scheduled, 3u);
  EXPECT_EQ(stats.events_cancelled, 1u);
  EXPECT_EQ(stats.events_fired, 1u);
  EXPECT_EQ(stats.pending_events, 1u);
  EXPECT_GE(stats.peak_pending_events, 2u);
}

TEST(EventCore, LargeClosuresFallBackToHeapAndStillRun) {
  const std::uint64_t before = InlineCallback::heap_fallbacks();
  struct Big {
    unsigned char bytes[2 * InlineCallback::kInlineBytes] = {};
  };
  Big big;
  big.bytes[0] = 42;
  int seen = 0;
  InlineCallback cb([big, &seen]() { seen = big.bytes[0]; });
  EXPECT_EQ(InlineCallback::heap_fallbacks(), before + 1);
  cb();
  EXPECT_EQ(seen, 42);

  // Small closures stay inline.
  InlineCallback small([&seen]() { seen = 7; });
  EXPECT_EQ(InlineCallback::heap_fallbacks(), before + 1);
  small();
  EXPECT_EQ(seen, 7);
}

}  // namespace
}  // namespace brisa::sim

namespace brisa::net {
namespace {

class PoolProbe final : public Message {
 public:
  explicit PoolProbe(int value) : value_(value) {}
  [[nodiscard]] MessageKind kind() const override {
    return MessageKind::kTestPing;
  }
  [[nodiscard]] std::size_t wire_size() const override { return 8; }
  [[nodiscard]] int value() const { return value_; }

 private:
  int value_;
};

TEST(MessagePool, RecyclesStorageAcrossMessages) {
  const MessagePoolStats before = message_pool_stats();
  const Message* first_addr = nullptr;
  {
    const MessagePtr m = make_message<PoolProbe>(1);
    first_addr = m.get();
    EXPECT_EQ(static_cast<const PoolProbe&>(*m).value(), 1);
  }
  // The block went back to the pool; the next message of the same type
  // reuses it instead of hitting the allocator.
  {
    const MessagePtr m = make_message<PoolProbe>(2);
    EXPECT_EQ(m.get(), first_addr);
    EXPECT_EQ(static_cast<const PoolProbe&>(*m).value(), 2);
  }
  const MessagePoolStats after = message_pool_stats();
  EXPECT_EQ(after.allocated - before.allocated, 1u);
  EXPECT_GE(after.reused - before.reused, 1u);
  EXPECT_EQ(after.recycled - before.recycled, 2u);
}

TEST(MessagePool, SharedReferencesKeepMessageAlive) {
  const MessagePoolStats before = message_pool_stats();
  MessagePtr a = make_message<PoolProbe>(9);
  MessagePtr b = a;            // fan-out shares the object
  const MessagePtr c = std::move(a);
  EXPECT_EQ(a, nullptr);
  a = nullptr;                 // releasing a moved-from ref is a no-op
  EXPECT_EQ(static_cast<const PoolProbe&>(*b).value(), 9);
  b = nullptr;
  EXPECT_EQ(message_pool_stats().recycled, before.recycled);  // c still holds
  EXPECT_EQ(static_cast<const PoolProbe&>(*c).value(), 9);
}

TEST(MessagePool, DetachAttachRoundTrip) {
  MessagePtr m = make_message<PoolProbe>(5);
  const Message* raw = m.detach();
  EXPECT_EQ(m, nullptr);
  const MessagePtr back = MessageRef::attach(raw);
  EXPECT_EQ(static_cast<const PoolProbe&>(*back).value(), 5);
}

}  // namespace
}  // namespace brisa::net
