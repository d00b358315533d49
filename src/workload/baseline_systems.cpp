#include "workload/baseline_systems.h"

#include <algorithm>

#include "util/assert.h"

namespace brisa::workload {

// --- SimpleTreeSystem ---------------------------------------------------------

SimpleTreeSystem::SimpleTreeSystem(Config config)
    : SystemBase(config, config.limits,
                 {.grace = sim::Duration::seconds(10),
                  .completeness = Completeness::kEveryNode,
                  .fixed_population = true}),
      config_(config) {}

void SimpleTreeSystem::bootstrap() {
  BRISA_ASSERT(config_.num_nodes >= 2);
  coordinator_id_ = network_.add_host();
  coordinator_ = std::make_unique<baselines::SimpleTreeCoordinator>(
      network_, coordinator_id_);

  const net::NodeId root = add_node();
  auto root_node = std::make_unique<baselines::SimpleTreeNode>(
      network_, transport_, root, coordinator_id_, config_.num_streams);
  root_node->start_as_root();
  coordinator_->register_root(root);
  nodes_.emplace(root, std::move(root_node));
  sources_.assign(config_.num_streams, root);

  for (std::size_t i = 1; i < config_.num_nodes; ++i) {
    const net::NodeId id = add_node();
    auto node_ptr = std::make_unique<baselines::SimpleTreeNode>(
        network_, transport_, id, coordinator_id_, config_.num_streams);
    baselines::SimpleTreeNode* raw = node_ptr.get();
    nodes_.emplace(id, std::move(node_ptr));
    simulator_.after(join_offset(i), [raw]() { raw->join(); });
  }
  simulator_.run_until(simulator_.now() + config_.join_spread +
                       config_.stabilization);
}

void SimpleTreeSystem::inject(net::NodeId source, net::StreamId stream,
                              std::size_t payload_bytes) {
  node(source).broadcast(stream, payload_bytes);
}

baselines::SimpleTreeNode& SimpleTreeSystem::node(net::NodeId id) {
  const auto it = nodes_.find(id);
  BRISA_ASSERT_MSG(it != nodes_.end(), "unknown SimpleTree node");
  return *it->second;
}

// --- SimpleGossipSystem ----------------------------------------------------------

SimpleGossipSystem::SimpleGossipSystem(Config config)
    : SystemBase(config, config.gossip.limits,
                 {.grace = sim::Duration::seconds(15),
                  .completeness = Completeness::kAlive}),
      config_(config) {
  if (config_.fanout == 0) {
    config_.fanout = gossip_fanout_for(config_.num_nodes);
  }
}

net::NodeId SimpleGossipSystem::create_node() {
  const net::NodeId id = add_node();
  baselines::SimpleGossip::Config cfg = config_.gossip;
  cfg.fanout = config_.fanout;
  cfg.num_streams = config_.num_streams;
  nodes_.emplace(id, std::make_unique<baselines::SimpleGossip>(network_, id,
                                                               cfg));
  return id;
}

void SimpleGossipSystem::bootstrap() {
  BRISA_ASSERT(config_.num_nodes >= 2);
  std::vector<net::NodeId> population;
  population.reserve(config_.num_nodes);
  for (std::size_t i = 0; i < config_.num_nodes; ++i) {
    population.push_back(create_node());
  }
  // Seed each Cyclon view with a random sample of the population (the usual
  // simulator bootstrap for proactive PSS protocols); shuffles then mix the
  // views toward uniformity during the stabilization window. A generated
  // overlay instead seeds each view from the node's graph neighbors, so the
  // gossip exchange pattern starts on (and then mixes from) the generated
  // structure.
  const TopologyGraph* graph =
      config_.topology && config_.topology->graph != nullptr
          ? config_.topology->graph.get()
          : nullptr;
  sim::Rng boot_rng = simulator_.rng().split(0x6B007);
  // Tiny populations cannot fill the requested view with distinct non-self
  // peers; clamp so the rejection loop below terminates.
  const std::size_t view_target =
      std::min(config_.bootstrap_view, population.size() - 1);
  for (const net::NodeId id : population) {
    std::vector<net::NodeId> seeds;
    if (graph != nullptr && id.index() < graph->nodes()) {
      for (const std::uint32_t v : graph->neighbors(id.index())) {
        if (seeds.size() >= view_target) break;
        seeds.push_back(population[v]);
      }
    }
    while (seeds.size() < view_target) {
      const net::NodeId candidate = boot_rng.pick(population);
      if (candidate == id) continue;
      if (std::find(seeds.begin(), seeds.end(), candidate) != seeds.end()) {
        continue;
      }
      seeds.push_back(candidate);
    }
    node(id).bootstrap(seeds);
  }
  sources_.assign(config_.num_streams, boot_rng.pick(population));
  simulator_.run_until(simulator_.now() + config_.stabilization);
}

void SimpleGossipSystem::inject(net::NodeId source, net::StreamId stream,
                                std::size_t payload_bytes) {
  node(source).broadcast(stream, payload_bytes);
}

net::NodeId SimpleGossipSystem::spawn_node() {
  const std::vector<net::NodeId> members = member_ids();
  BRISA_ASSERT(!members.empty());
  const net::NodeId id = create_node();
  node(id).join(simulator_.rng().split(id.index()).pick(members));
  return id;
}

baselines::SimpleGossip& SimpleGossipSystem::node(net::NodeId id) {
  const auto it = nodes_.find(id);
  BRISA_ASSERT_MSG(it != nodes_.end(), "unknown SimpleGossip node");
  return *it->second;
}

// --- TagSystem ----------------------------------------------------------------------

TagSystem::TagSystem(Config config)
    : SystemBase(config, config.tag.limits,
                 {.grace = sim::Duration::seconds(30),
                  .completeness = Completeness::kAlive}),
      config_(config) {
  config_.tag.num_streams = config_.num_streams;
}

net::NodeId TagSystem::create_node() {
  const net::NodeId id = add_node();
  nodes_.emplace(id, std::make_unique<baselines::TagNode>(
                         network_, transport_, id, source_id(), config_.tag));
  return id;
}

void TagSystem::bootstrap() {
  BRISA_ASSERT(config_.num_nodes >= 2);
  const net::NodeId head = add_node();
  sources_.assign(config_.num_streams, head);
  nodes_.emplace(head, std::make_unique<baselines::TagNode>(
                           network_, transport_, head, head, config_.tag));
  node(head).start_as_head();

  for (std::size_t i = 1; i < config_.num_nodes; ++i) {
    const net::NodeId id = create_node();
    simulator_.after(join_offset(i), [this, id]() {
      if (network_.alive(id)) node(id).join();
    });
  }
  simulator_.run_until(simulator_.now() + config_.join_spread +
                       config_.stabilization);
}

void TagSystem::inject(net::NodeId source, net::StreamId stream,
                       std::size_t payload_bytes) {
  node(source).broadcast(stream, payload_bytes);
}

net::NodeId TagSystem::spawn_node() {
  const net::NodeId id = create_node();
  node(id).join();
  return id;
}

baselines::TagNode& TagSystem::node(net::NodeId id) {
  const auto it = nodes_.find(id);
  BRISA_ASSERT_MSG(it != nodes_.end(), "unknown TAG node");
  return *it->second;
}

}  // namespace brisa::workload
