// Testbed presets: the paper's cluster (§III: 15 machines, 1 Gbps switched)
// and PlanetLab (§III: ≤200 globally distributed, resource-starved nodes),
// as simulator configurations. See DESIGN.md §3 for the substitution
// rationale.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "net/fault.h"
#include "net/latency.h"
#include "net/network.h"
#include "net/transport.h"
#include "util/flat_seq_map.h"
#include "workload/churn.h"
#include "workload/topology_gen.h"

namespace brisa::workload {

enum class TestbedKind { kCluster, kPlanetLab };

[[nodiscard]] const char* to_string(TestbedKind kind);
[[nodiscard]] TestbedKind parse_testbed(const std::string& name);

[[nodiscard]] net::Network::Config testbed_network_config(TestbedKind kind);
[[nodiscard]] std::unique_ptr<net::LatencyModel> testbed_latency(
    TestbedKind kind);

/// Replaces the testbed's latency model (and optionally its network
/// resource preset) with an arbitrary one — how scenarios select the
/// clustered-WAN and fat-tree models that TestbedKind does not name. The
/// factory is a copyable std::function so system Configs stay value types.
struct TopologyOverride {
  std::function<std::unique_ptr<net::LatencyModel>()> latency;
  /// When unset, the testbed's network preset still applies.
  std::optional<net::Network::Config> network;
  /// Generated overlay graph (barabasi-albert / watts-strogatz /
  /// degree-capped models). When set, system harnesses seed bootstrap
  /// contacts and views from graph edges so the emergent overlay follows
  /// the generated structure; unset leaves bootstrap untouched.
  std::shared_ptr<const TopologyGraph> graph;
};

/// One simulated testbed: the simulator, network and transport, in
/// construction order. Hand-wired experiments (a few nodes built by hand)
/// run on a Testbed directly; the protocol harnesses run on SystemBase.
class Testbed {
 public:
  /// `limits` rides into Network::Config (rate-control thresholds and the
  /// tx_usage() classifier); a default Limits keeps the network byte-exact.
  /// `shards` partitions the host population across that many event lanes
  /// (see sim/simulator.h); 1 keeps the classic serial loop. The simulator's
  /// conservative lookahead is always set to the latency model's min_flight(),
  /// so per-seed results are identical for every shard count.
  Testbed(std::uint64_t seed, TestbedKind testbed,
          const std::optional<TopologyOverride>& topology = std::nullopt,
          const net::Limits& limits = {}, std::uint32_t shards = 1);
  virtual ~Testbed() = default;

  Testbed(const Testbed&) = delete;
  Testbed& operator=(const Testbed&) = delete;

  [[nodiscard]] sim::Simulator& simulator() { return simulator_; }
  [[nodiscard]] net::Network& network() { return network_; }
  [[nodiscard]] net::Transport& transport() { return transport_; }
  [[nodiscard]] TestbedKind testbed() const { return testbed_; }

  void run_for(sim::Duration duration) {
    simulator_.run_until(simulator_.now() + duration);
  }
  void run_until(sim::TimePoint when) { simulator_.run_until(when); }

  /// Takes ownership of a fault plan and installs it on the network (times
  /// must already be absolute). Replaces any previous plan.
  void install_fault_plan(net::FaultPlan plan);

 private:
  /// Runs inside the network_ member-initializer so the simulator's
  /// lookahead/sharding are configured *before* the Network constructor
  /// inspects simulator.shards() (message refcount mode, lane registration).
  static std::unique_ptr<net::LatencyModel> prepare(
      sim::Simulator& simulator, std::unique_ptr<net::LatencyModel> latency,
      std::uint32_t shards);

 protected:
  TestbedKind testbed_;
  sim::Simulator simulator_;
  net::Network network_;
  net::Transport transport_;
  std::unique_ptr<net::FaultPlan> fault_plan_;
};

/// Common base of the four protocol harnesses (BRISA and the §III-D
/// baselines): the one bootstrap / stream / measure / churn surface the
/// reports drive every protocol through. workload::make_system() builds
/// one from a scenario.
class SystemBase : public Testbed {
 public:
  using Testbed::Testbed;

  // --- Protocol surface ---------------------------------------------------
  /// Creates the population, lets everyone join, and runs the simulator
  /// until the structure has settled.
  virtual void bootstrap() = 0;
  /// Injects `count` stream-0 messages at `rate_per_s` from the source and
  /// runs until `grace` after the last injection. Each harness also offers
  /// a three-argument overload with its customary grace.
  virtual void run_stream(std::size_t count, double rate_per_s,
                          std::size_t payload_bytes, sim::Duration grace) = 0;
  /// Injects one message on `stream` at its source; false when the source
  /// host is down.
  virtual bool publish(net::StreamId stream, std::size_t payload_bytes) = 0;
  [[nodiscard]] virtual net::NodeId source_id(net::StreamId stream) const = 0;
  /// The population delivery is measured over (the source included).
  [[nodiscard]] virtual std::vector<net::NodeId> receivers() const = 0;
  /// Node `id`'s seq -> delivery instant map on `stream`.
  [[nodiscard]] virtual const util::FlatSeqMap<sim::TimePoint>&
  delivery_times(net::NodeId id, net::StreamId stream) const = 0;
  [[nodiscard]] virtual std::uint64_t duplicates(
      net::NodeId id, net::StreamId stream) const = 0;
  /// Store evictions under a `[limits]` bound, summed over receivers() and
  /// streams.
  [[nodiscard]] virtual std::uint64_t store_evictions() const = 0;
  /// Callbacks for a ChurnDriver.
  [[nodiscard]] virtual ChurnHooks churn_hooks() = 0;
  /// True when every receiver present for the whole run_stream() stream
  /// delivered every message of it.
  [[nodiscard]] virtual bool complete_delivery() const = 0;
  /// Messages run_stream() injected.
  [[nodiscard]] virtual std::uint64_t messages_sent() const = 0;

 protected:
  /// The churn hooks every system shares: suspend/resume and fault-plan
  /// installation. Derived systems add spawn/population/kill.
  void fill_fault_hooks(ChurnHooks& hooks);
};

}  // namespace brisa::workload
