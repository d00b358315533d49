// Testbed presets: the paper's cluster (§III: 15 machines, 1 Gbps switched)
// and PlanetLab (§III: ≤200 globally distributed, resource-starved nodes),
// as simulator configurations. See DESIGN.md §3 for the substitution
// rationale.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>

#include "net/fault.h"
#include "net/latency.h"
#include "net/network.h"
#include "net/transport.h"
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

/// Common base for the per-protocol system harnesses: owns the simulator,
/// network and transport in construction order.
class SystemBase {
 public:
  /// `limits` rides into Network::Config (rate-control thresholds and the
  /// tx_usage() classifier); a default Limits keeps the network byte-exact.
  /// `shards` partitions the host population across that many event lanes
  /// (see sim/simulator.h); 1 keeps the classic serial loop. The simulator's
  /// conservative lookahead is always set to the latency model's min_flight(),
  /// so per-seed results are identical for every shard count.
  SystemBase(std::uint64_t seed, TestbedKind testbed,
             const std::optional<TopologyOverride>& topology = std::nullopt,
             const net::Limits& limits = {}, std::uint32_t shards = 1);
  virtual ~SystemBase() = default;

  SystemBase(const SystemBase&) = delete;
  SystemBase& operator=(const SystemBase&) = delete;

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

  /// Churn/fault driver callbacks every system shares: suspend/resume and
  /// plan installation. Derived systems add spawn/population/kill.
  void fill_fault_hooks(ChurnHooks& hooks);

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

}  // namespace brisa::workload
