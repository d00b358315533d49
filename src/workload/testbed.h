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

#include "net/delivery_log.h"
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

/// The Config fields every protocol harness shares. Each protocol's Config
/// extends it and names its own stabilization default.
struct SystemConfig {
  explicit SystemConfig(sim::Duration stabilization_default)
      : stabilization(stabilization_default) {}

  std::uint64_t seed = 1;
  std::size_t num_nodes = 512;
  TestbedKind testbed = TestbedKind::kCluster;
  /// When set, replaces the testbed's latency model / network preset
  /// (scenario-selected topologies: clustered-wan, fat-tree, ...).
  std::optional<TopologyOverride> topology;
  /// Concurrent streams (topics) 0..num_streams-1, every node active on
  /// all of them.
  std::size_t num_streams = 1;
  /// Bootstrap joins spread over this window (the paper's trace uses one
  /// join per second; experiments without churn compress it).
  sim::Duration join_spread = sim::Duration::seconds(50);
  /// Settling time after the last join before measurements start.
  sim::Duration stabilization;
  /// Event-lane shards (sim/simulator.h); 1 = classic serial loop. Results
  /// are byte-identical for every value.
  std::uint32_t shards = 1;
};

/// Common base of the four protocol harnesses (BRISA and the §III-D
/// baselines): the one bootstrap / stream / measure / churn surface the
/// reports drive every protocol through, and the body behind it — the
/// stream schedule, the node registry and the churn plumbing. A harness
/// adds only what its protocol does differently: how it builds and joins
/// its nodes, how a source injects, and where a node keeps its stats.
/// workload::make_system() builds one from a scenario.
class SystemBase : public Testbed {
 public:
  /// Which nodes complete_delivery() requires to hold every message of the
  /// run_stream() stream. receivers() is every node under kEveryNode and
  /// the alive members otherwise.
  enum class Completeness {
    /// Every node built, dead or alive (the tree).
    kEveryNode,
    /// Alive nodes, late joiners included (gossip, TAG).
    kAlive,
    /// Alive nodes created before the stream started (BRISA): late
    /// joiners legitimately miss earlier messages.
    kAliveSinceStreamStart,
  };

  /// What differs between the harnesses inside this shared body
  /// (DESIGN.md §10). Each harness states its values in its constructor.
  struct Rules {
    /// Grace of the three-argument run_stream().
    sim::Duration grace;
    Completeness completeness = Completeness::kAlive;
    /// Churn neither spawns nor kills, and the sources stay in the churn
    /// population (the tree, built once by its coordinator). Fault scripts
    /// still suspend nodes.
    bool fixed_population = false;
  };

  SystemBase(const SystemConfig& config, const net::Limits& limits,
             const Rules& rules);

  // --- Protocol surface (each harness) ------------------------------------
  /// Creates the population, lets everyone join, and runs the simulator
  /// until the structure has settled.
  virtual void bootstrap() = 0;
  /// Node `id`'s deliveries and duplicates on `stream`.
  [[nodiscard]] virtual const net::DeliveryLog& delivery_log(
      net::NodeId id, net::StreamId stream) const = 0;
  /// Store evictions of node `id` on `stream` under a `[limits]` bound; 0
  /// for a protocol that relays without a store (the tree).
  [[nodiscard]] virtual std::uint64_t evictions(net::NodeId /*id*/,
                                                net::StreamId /*stream*/) const {
    return 0;
  }
  /// Churn arrival: builds one more node that joins the running system and
  /// returns its id. A fixed population (Rules) never spawns, so the tree
  /// does not override it.
  virtual net::NodeId spawn_node();

  // --- Shared body ----------------------------------------------------------
  /// Injects `count` stream-0 messages at `rate_per_s` through publish()
  /// and runs until `grace` after the last injection. Messages whose
  /// source host is down are skipped and not counted as sent.
  void run_stream(std::size_t count, double rate_per_s,
                  std::size_t payload_bytes, sim::Duration grace);
  /// run_stream() with the harness's customary grace (Rules::grace).
  void run_stream(std::size_t count, double rate_per_s,
                  std::size_t payload_bytes) {
    run_stream(count, rate_per_s, payload_bytes, rules_.grace);
  }
  /// Injects one message on `stream` at its source; false when the source
  /// host is down.
  bool publish(net::StreamId stream, std::size_t payload_bytes);
  /// Messages run_stream() injected.
  [[nodiscard]] std::uint64_t messages_sent() const { return sent_; }

  [[nodiscard]] net::NodeId source_id(
      net::StreamId stream = net::kDefaultStream) const {
    return sources_.at(stream);
  }
  /// Per-stream source nodes, indexed by StreamId (set by bootstrap()).
  [[nodiscard]] const std::vector<net::NodeId>& source_ids() const {
    return sources_;
  }
  /// Every protocol node ever built, dead ones included (their stats
  /// survive for post-mortem aggregation), in ascending id order.
  [[nodiscard]] std::vector<net::NodeId> all_ids() const;
  /// The alive protocol nodes, in ascending id order.
  [[nodiscard]] std::vector<net::NodeId> member_ids() const;
  /// The population delivery is measured over (the source included):
  /// all_ids() under Completeness::kEveryNode, member_ids() otherwise.
  [[nodiscard]] std::vector<net::NodeId> receivers() const;
  /// evictions() summed over member_ids() and streams.
  [[nodiscard]] std::uint64_t store_evictions() const;
  /// True when every node the harness's Completeness rule counts delivered
  /// every message of the run_stream() stream.
  [[nodiscard]] bool complete_delivery() const;

  /// Crashes `node` for good; experiments keep the sources alive.
  void kill_node(net::NodeId node);
  /// Callbacks for a ChurnDriver: spawn_node() / kill_node() over the alive
  /// members minus the sources, plus suspend/resume and fault-plan
  /// installation.
  [[nodiscard]] ChurnHooks churn_hooks();

 protected:
  /// Adds a host and registers it as a protocol node; the harness then
  /// builds the node's protocol objects on it.
  net::NodeId add_node();
  /// Bootstrap join instant of the i-th of num_nodes, relative to now:
  /// i / num_nodes x join_spread.
  [[nodiscard]] sim::Duration join_offset(std::size_t i) const;
  /// One message on `stream` at its alive `source`.
  virtual void inject(net::NodeId source, net::StreamId stream,
                      std::size_t payload_bytes) = 0;

  /// Per-stream sources; bootstrap() fills one entry per stream.
  std::vector<net::NodeId> sources_;

 private:
  struct Member {
    net::NodeId id;
    sim::TimePoint created_at;
  };

  [[nodiscard]] bool is_source(net::NodeId id) const;

  SystemConfig common_;
  Rules rules_;
  /// Creation order, which is ascending id order (hosts are numbered as
  /// they are added).
  std::vector<Member> registry_;
  std::uint64_t sent_ = 0;
  sim::TimePoint stream_started_at_;
};

}  // namespace brisa::workload
