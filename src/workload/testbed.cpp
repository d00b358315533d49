#include "workload/testbed.h"

#include <algorithm>
#include <stdexcept>

#include "util/assert.h"

namespace brisa::workload {

const char* to_string(TestbedKind kind) {
  switch (kind) {
    case TestbedKind::kCluster:
      return "cluster";
    case TestbedKind::kPlanetLab:
      return "planetlab";
  }
  return "?";
}

TestbedKind parse_testbed(const std::string& name) {
  if (name == "cluster") return TestbedKind::kCluster;
  if (name == "planetlab") return TestbedKind::kPlanetLab;
  throw std::invalid_argument("unknown testbed: " + name);
}

net::Network::Config testbed_network_config(TestbedKind kind) {
  switch (kind) {
    case TestbedKind::kCluster:
      return net::Network::cluster_config();
    case TestbedKind::kPlanetLab:
      return net::Network::planetlab_config();
  }
  return {};
}

std::unique_ptr<net::LatencyModel> testbed_latency(TestbedKind kind) {
  switch (kind) {
    case TestbedKind::kCluster:
      return net::make_cluster_latency();
    case TestbedKind::kPlanetLab:
      return net::make_planetlab_latency();
  }
  return nullptr;
}

namespace {

net::Network::Config with_limits(net::Network::Config config,
                                 const net::Limits& limits) {
  config.limits = limits;
  return config;
}

}  // namespace

std::unique_ptr<net::LatencyModel> Testbed::prepare(
    sim::Simulator& simulator, std::unique_ptr<net::LatencyModel> latency,
    std::uint32_t shards) {
  // Lookahead is set unconditionally (including shards == 1) so cross-host
  // flight floors are identical for every shard count — the basis of the
  // byte-identical-results guarantee.
  simulator.set_lookahead(latency->min_flight());
  if (shards > 1) simulator.configure_sharding(shards);
  return latency;
}

Testbed::Testbed(std::uint64_t seed, TestbedKind testbed,
                 const std::optional<TopologyOverride>& topology,
                 const net::Limits& limits, std::uint32_t shards)
    : testbed_(testbed),
      simulator_(seed),
      network_(simulator_,
               prepare(simulator_,
                       topology && topology->latency
                           ? topology->latency()
                           : testbed_latency(testbed),
                       shards),
               with_limits(topology && topology->network
                               ? *topology->network
                               : testbed_network_config(testbed),
                           limits)),
      transport_(network_) {}

void Testbed::install_fault_plan(net::FaultPlan plan) {
  fault_plan_ = std::make_unique<net::FaultPlan>(std::move(plan));
  network_.install_fault_plan(fault_plan_.get());
}

SystemBase::SystemBase(const SystemConfig& config, const net::Limits& limits,
                       const Rules& rules)
    : Testbed(config.seed, config.testbed, config.topology, limits,
              config.shards),
      common_(config),
      rules_(rules) {}

net::NodeId SystemBase::spawn_node() {
  BRISA_UNREACHABLE("a fixed population spawns no nodes");
}

void SystemBase::run_stream(std::size_t count, double rate_per_s,
                            std::size_t payload_bytes, sim::Duration grace) {
  BRISA_ASSERT_MSG(!sources_.empty(), "run_stream before bootstrap");
  stream_started_at_ = simulator_.now();
  const auto gap = sim::Duration::from_seconds(1.0 / rate_per_s);
  for (std::size_t i = 0; i < count; ++i) {
    simulator_.after(gap * static_cast<std::int64_t>(i),
                     [this, payload_bytes]() {
                       if (publish(net::kDefaultStream, payload_bytes)) {
                         ++sent_;
                       }
                     });
  }
  simulator_.run_until(stream_started_at_ +
                       gap * static_cast<std::int64_t>(count) + grace);
}

bool SystemBase::publish(net::StreamId stream, std::size_t payload_bytes) {
  BRISA_ASSERT_MSG(stream < sources_.size(),
                   "publish before bootstrap, or on an unknown stream");
  const net::NodeId source = sources_[stream];
  if (!network_.alive(source)) return false;
  inject(source, stream, payload_bytes);
  return true;
}

net::NodeId SystemBase::add_node() {
  const net::NodeId id = network_.add_host();
  // perfbench intersects member lists with std::set_intersection, which
  // needs them sorted.
  BRISA_ASSERT(registry_.empty() || registry_.back().id < id);
  registry_.push_back({id, simulator_.now()});
  return id;
}

sim::Duration SystemBase::join_offset(std::size_t i) const {
  return sim::Duration::microseconds(static_cast<std::int64_t>(
      static_cast<double>(i) / static_cast<double>(common_.num_nodes) *
      static_cast<double>(common_.join_spread.us())));
}

std::vector<net::NodeId> SystemBase::all_ids() const {
  std::vector<net::NodeId> out;
  out.reserve(registry_.size());
  for (const Member& member : registry_) out.push_back(member.id);
  return out;
}

std::vector<net::NodeId> SystemBase::member_ids() const {
  std::vector<net::NodeId> out;
  for (const Member& member : registry_) {
    if (network_.alive(member.id)) out.push_back(member.id);
  }
  return out;
}

std::vector<net::NodeId> SystemBase::receivers() const {
  return rules_.completeness == Completeness::kEveryNode ? all_ids()
                                                         : member_ids();
}

std::uint64_t SystemBase::store_evictions() const {
  std::uint64_t total = 0;
  for (const net::NodeId id : member_ids()) {
    for (std::size_t s = 0; s < common_.num_streams; ++s) {
      total += evictions(id, static_cast<net::StreamId>(s));
    }
  }
  return total;
}

bool SystemBase::complete_delivery() const {
  for (const Member& member : registry_) {
    if (rules_.completeness != Completeness::kEveryNode &&
        !network_.alive(member.id)) {
      continue;
    }
    if (rules_.completeness == Completeness::kAliveSinceStreamStart &&
        member.created_at > stream_started_at_) {
      continue;
    }
    if (delivery_log(member.id, net::kDefaultStream).delivered < sent_) {
      return false;
    }
  }
  return true;
}

bool SystemBase::is_source(net::NodeId id) const {
  return std::find(sources_.begin(), sources_.end(), id) != sources_.end();
}

void SystemBase::kill_node(net::NodeId node) {
  BRISA_ASSERT_MSG(!is_source(node), "experiments keep the sources alive");
  network_.kill(node);
}

ChurnHooks SystemBase::churn_hooks() {
  ChurnHooks hooks;
  if (rules_.fixed_population) {
    hooks.spawn = [] {};
    hooks.kill = [](net::NodeId) {};
    hooks.population = [this] { return member_ids(); };
  } else {
    hooks.spawn = [this] { spawn_node(); };
    hooks.kill = [this](net::NodeId node) { kill_node(node); };
    hooks.population = [this] {
      std::vector<net::NodeId> members = member_ids();
      std::erase_if(members,
                    [this](net::NodeId id) { return is_source(id); });
      return members;
    };
  }
  hooks.suspend = [this](net::NodeId node) { network_.suspend(node); };
  hooks.resume = [this](net::NodeId node) { network_.resume(node); };
  hooks.install_fault_plan = [this](net::FaultPlan plan) {
    install_fault_plan(std::move(plan));
  };
  return hooks;
}

}  // namespace brisa::workload
