// Simulator substrate micro-benchmarks: event-queue throughput, RNG speed,
// and end-to-end message cost through the transport. These bound how large a
// BRISA deployment the simulator can handle per wall-clock second. One
// protocol benchmark (BM_BrisaBootstrap) prices the overlay bootstrap per
// stream count.
#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "membership/messages.h"
#include "net/latency.h"
#include "net/message_pool.h"
#include "net/network.h"
#include "net/transport.h"
#include "sim/event_queue.h"
#include "sim/rng.h"
#include "sim/simulator.h"
#include "workload/brisa_system.h"

namespace {

using namespace brisa;

/// Raw pending-set throughput (DESIGN.md §14): the 64-deep schedule/pop
/// cycle every simulated instant runs through.
void BM_EventQueueScheduleAndPop(benchmark::State& state) {
  sim::EventQueue queue;
  sim::Rng rng(1);
  std::int64_t t = 0;
  for (auto _ : state) {
    for (int i = 0; i < 64; ++i) {
      queue.schedule(sim::TimePoint::from_us(
                         t + static_cast<std::int64_t>(rng.uniform(1000))),
                     []() {});
    }
    for (int i = 0; i < 64; ++i) {
      auto fired = queue.pop();
      benchmark::DoNotOptimize(fired.time);
    }
    t += 1000;
  }
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_EventQueueScheduleAndPop);

void BM_EventQueueCancellation(benchmark::State& state) {
  sim::EventQueue queue;
  for (auto _ : state) {
    std::vector<sim::EventId> ids;
    ids.reserve(64);
    for (int i = 0; i < 64; ++i) {
      ids.push_back(queue.schedule(sim::TimePoint::from_us(i), []() {}));
    }
    for (const sim::EventId id : ids) queue.cancel(id);
    benchmark::DoNotOptimize(queue.empty());
  }
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_EventQueueCancellation);

void BM_RngNextU64(benchmark::State& state) {
  sim::Rng rng(7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.next_u64());
  }
}
BENCHMARK(BM_RngNextU64);

void BM_RngUniform(benchmark::State& state) {
  sim::Rng rng(7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.uniform(17));
  }
}
BENCHMARK(BM_RngUniform);

void BM_RngExponential(benchmark::State& state) {
  sim::Rng rng(7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.exponential(10.0));
  }
}
BENCHMARK(BM_RngExponential);

void BM_PlanetLabLatencySample(benchmark::State& state) {
  net::PlanetLabLatencyModel model;
  sim::CounterRng rng(3);
  std::uint32_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        model.sample(net::NodeId(i % 200), net::NodeId((i + 7) % 200), rng));
    ++i;
  }
}
BENCHMARK(BM_PlanetLabLatencySample);

/// Full round trip: send a message over an established transport connection
/// and drain the simulator — the dominant inner loop of every experiment.
void BM_TransportMessageRoundtrip(benchmark::State& state) {
  class Sink : public net::TransportHandler {
   public:
    void on_connection_up(net::ConnectionId, net::NodeId, bool) override {}
    void on_connection_down(net::ConnectionId, net::NodeId,
                            net::CloseReason) override {}
    void on_message(net::ConnectionId, net::NodeId,
                    net::MessagePtr) override {
      ++received;
    }
    std::uint64_t received = 0;
  };

  sim::Simulator simulator(1);
  net::Network network(simulator, std::make_unique<net::ClusterLatencyModel>());
  net::Transport transport(network);
  const net::NodeId a = network.add_host();
  const net::NodeId b = network.add_host();
  Sink sink_a, sink_b;
  transport.bind(a, &sink_a);
  transport.bind(b, &sink_b);
  const net::ConnectionId conn = transport.connect(a, b);
  simulator.run();

  for (auto _ : state) {
    transport.send(conn, a,
                   net::make_message<membership::HpvKeepAlive>(1, nullptr),
                   net::TrafficClass::kMembership);
    simulator.run();
  }
  benchmark::DoNotOptimize(sink_b.received);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TransportMessageRoundtrip);

/// Timer-cancel-heavy churn at N pending events: the failure-detection
/// pattern (timers armed per peer, cancelled on keep-alive, re-armed) that
/// dominates membership-layer event traffic at scale.
void BM_EventQueueTimerChurn(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  sim::EventQueue queue;
  sim::Rng rng(42);
  std::vector<sim::EventId> ids(n);
  std::int64_t now_us = 0;
  for (std::size_t i = 0; i < n; ++i) {
    ids[i] = queue.schedule(
        sim::TimePoint::from_us(
            now_us + 1 + static_cast<std::int64_t>(rng.uniform(1'000'000))),
        []() {});
  }
  for (auto _ : state) {
    for (int k = 0; k < 64; ++k) {
      const std::size_t j = rng.uniform(n);
      queue.cancel(ids[j]);  // disarmed before firing: the common case
      ids[j] = queue.schedule(
          sim::TimePoint::from_us(
              now_us + 1 +
              static_cast<std::int64_t>(rng.uniform(1'000'000))),
          []() {});
    }
    now_us += 64;
    while (!queue.empty() &&
           queue.next_time() <= sim::TimePoint::from_us(now_us)) {
      auto fired = queue.pop();
      benchmark::DoNotOptimize(fired.time);
    }
  }
  state.SetItemsProcessed(state.iterations() * 64);
}
// The 1M-pending cell is the BRISA 1M-node sweep's working set: timers
// spread over a 1 s horizon.
BENCHMARK(BM_EventQueueTimerChurn)->Arg(10'000)->Arg(100'000)->Arg(1'000'000);

/// End-to-end simulator event rate at N hosts: every host runs a periodic
/// timer that fires a datagram at a random peer — periodic dispatch, message
/// allocation, NIC/CPU modeling, and queue pressure in one number. This is
/// the events-per-second figure that bounds sweep sizes.
void BM_SimEventRate(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  sim::Simulator simulator(1);
  net::Network network(simulator, std::make_unique<net::ClusterLatencyModel>(),
                       net::Network::cluster_config());
  class Sink : public net::Network::DatagramHandler {
   public:
    void on_datagram(net::NodeId, net::MessagePtr) override { ++received; }
    std::uint64_t received = 0;
  };
  Sink sink;
  std::vector<net::NodeId> hosts;
  hosts.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const net::NodeId id = network.add_host();
    network.bind_datagram_handler(id, &sink);
    hosts.push_back(id);
  }
  sim::Rng rng = simulator.rng().split(99);
  for (std::size_t i = 0; i < n; ++i) {
    simulator.after(
        sim::Duration::microseconds(static_cast<std::int64_t>(i % 100'000)),
        [&simulator, &network, &hosts, &rng, i]() {
          simulator.every(
              sim::Duration::milliseconds(100),
              [&network, &hosts, &rng, i]() {
                const net::NodeId to = hosts[rng.uniform(hosts.size())];
                network.send_datagram(
                    hosts[i], to,
                    net::make_message<membership::HpvKeepAlive>(1, nullptr),
                    net::TrafficClass::kMembership);
              });
        });
  }
  simulator.run_until(simulator.now() + sim::Duration::milliseconds(200));
  const std::uint64_t fired_before = simulator.events_fired();
  const std::uint64_t fallbacks_before = sim::InlineCallback::heap_fallbacks();
  const std::uint64_t pool_alloc_before = net::message_pool_stats().allocated;
  const std::uint64_t pool_made_before =
      net::message_pool_stats().messages_created();
  for (auto _ : state) {
    simulator.run_until(simulator.now() + sim::Duration::milliseconds(10));
  }
  benchmark::DoNotOptimize(sink.received);
  state.SetItemsProcessed(
      static_cast<std::int64_t>(simulator.events_fired() - fired_before));
  // Allocation counters ride along in the JSON output so the perf
  // trajectory records *why* a run got faster or slower.
  const auto& pool = net::message_pool_stats();
  state.counters["callback_heap_fallbacks"] = static_cast<double>(
      sim::InlineCallback::heap_fallbacks() - fallbacks_before);
  state.counters["message_heap_allocs"] =
      static_cast<double>(pool.allocated - pool_alloc_before);
  state.counters["messages_created"] =
      static_cast<double>(pool.messages_created() - pool_made_before);
  state.counters["event_slab_slots"] =
      static_cast<double>(simulator.stats().event_slab_slots);
}
BENCHMARK(BM_SimEventRate)
    ->Arg(1'000)
    ->Arg(10'000)
    ->Arg(100'000)
    ->Unit(benchmark::kMillisecond);

/// The same workload through the sharded executor (arg = shard count) with
/// host-lane periodics and per-host counter RNG streams — the shape every
/// system harness uses under `[run] shards`. Results are byte-identical to
/// any other shard count by construction; this measures what the
/// window/mailbox machinery costs (or wins) in wall-clock and cpu-seconds.
void BM_SimEventRateSharded(benchmark::State& state) {
  const auto shards = static_cast<std::uint32_t>(state.range(0));
  const std::size_t n = 10'000;
  sim::Simulator simulator(1);
  auto latency = std::make_unique<net::ClusterLatencyModel>();
  // Mirror SystemBase::prepare: lookahead, then sharding.
  simulator.set_lookahead(latency->min_flight());
  if (shards > 1) simulator.configure_sharding(shards);
  net::Network network(simulator, std::move(latency),
                       net::Network::cluster_config());
  class Sink : public net::Network::DatagramHandler {
   public:
    void on_datagram(net::NodeId, net::MessagePtr) override { ++received; }
    std::uint64_t received = 0;
  };
  Sink sink;
  std::vector<net::NodeId> hosts;
  hosts.reserve(n);
  // Host-lane events must not draw from the root RNG (it races under
  // sharding); each host gets its own counter stream, drawn only by its
  // own lane.
  std::vector<sim::CounterRng> host_rng;
  host_rng.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const net::NodeId id = network.add_host();
    network.bind_datagram_handler(id, &sink);
    hosts.push_back(id);
    host_rng.push_back(sim::CounterRng::keyed(99, i));
  }
  for (std::size_t i = 0; i < n; ++i) {
    const auto host = static_cast<std::uint32_t>(i);
    simulator.after(
        sim::Duration::microseconds(static_cast<std::int64_t>(i % 100'000)),
        [&simulator, &network, &hosts, &host_rng, host]() {
          simulator.every_host(
              host, sim::Duration::milliseconds(100),
              [&network, &hosts, &host_rng, host]() {
                const std::size_t peer = static_cast<std::size_t>(
                    host_rng[host].next_u64() % hosts.size());
                network.send_datagram(
                    hosts[host], hosts[peer],
                    net::make_message<membership::HpvKeepAlive>(1, nullptr),
                    net::TrafficClass::kMembership);
              });
        });
  }
  simulator.run_until(simulator.now() + sim::Duration::milliseconds(200));
  const std::uint64_t fired_before = simulator.events_fired();
  for (auto _ : state) {
    simulator.run_until(simulator.now() + sim::Duration::milliseconds(10));
  }
  benchmark::DoNotOptimize(sink.received);
  state.SetItemsProcessed(
      static_cast<std::int64_t>(simulator.events_fired() - fired_before));
  const sim::Simulator::Stats stats = simulator.stats();
  state.counters["windows"] = static_cast<double>(stats.windows);
  state.counters["serial_events"] = static_cast<double>(stats.serial_events);
  double mailbox_in = 0;
  for (const auto& shard : stats.shards) {
    mailbox_in += static_cast<double>(shard.mailbox_in);
  }
  state.counters["mailbox_in"] = mailbox_in;
}
BENCHMARK(BM_SimEventRateSharded)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond)
    ->MeasureProcessCPUTime();

/// Message arena throughput: steady-state make/release must be a pointer
/// pop + placement-new, not an allocator round trip.
void BM_MessagePoolMakeRelease(benchmark::State& state) {
  for (auto _ : state) {
    net::MessagePtr m = net::make_message<membership::HpvKeepAlive>(
        1, std::make_shared<const std::vector<membership::AppWatermark>>(
               std::vector<membership::AppWatermark>{
                   {net::kDefaultStream, 2, 3}}));
    benchmark::DoNotOptimize(m.get());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MessagePoolMakeRelease);

/// Construction plus bootstrap() of 150 BRISA nodes running N streams each:
/// joins, shuffles and the keep-alives that carry one progress entry per
/// stream, with no stream traffic. The micro view of perfbench topics'
/// setup_s (same join spread and stabilization).
void BM_BrisaBootstrap(benchmark::State& state) {
  workload::BrisaSystem::Config config;
  config.num_nodes = 150;
  config.num_streams = static_cast<std::size_t>(state.range(0));
  config.join_spread = sim::Duration::seconds(30);
  config.stabilization = sim::Duration::seconds(20);
  std::uint64_t events = 0;
  for (auto _ : state) {
    workload::BrisaSystem system(config);
    system.bootstrap();
    events += system.simulator().events_fired();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
}
BENCHMARK(BM_BrisaBootstrap)->Arg(1)->Arg(32)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
