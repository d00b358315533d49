#include "workload/testbed.h"

#include <stdexcept>

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

void SystemBase::fill_fault_hooks(ChurnHooks& hooks) {
  hooks.suspend = [this](net::NodeId node) { network_.suspend(node); };
  hooks.resume = [this](net::NodeId node) { network_.resume(node); };
  hooks.install_fault_plan = [this](net::FaultPlan plan) {
    install_fault_plan(std::move(plan));
  };
}

}  // namespace brisa::workload
