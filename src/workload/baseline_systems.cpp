#include "workload/baseline_systems.h"

#include <algorithm>

#include "util/assert.h"

namespace brisa::workload {

// --- SimpleTreeSystem ---------------------------------------------------------

SimpleTreeSystem::SimpleTreeSystem(Config config)
    : SystemBase(config.seed, config.testbed, config.topology, config.limits,
                 config.shards),
      config_(config) {}

void SimpleTreeSystem::bootstrap() {
  BRISA_ASSERT(config_.num_nodes >= 2);
  coordinator_id_ = network_.add_host();
  coordinator_ = std::make_unique<baselines::SimpleTreeCoordinator>(
      network_, coordinator_id_);

  root_ = network_.add_host();
  auto root_node = std::make_unique<baselines::SimpleTreeNode>(
      network_, transport_, root_, coordinator_id_, config_.num_streams);
  root_node->start_as_root();
  coordinator_->register_root(root_);
  nodes_.emplace(root_, std::move(root_node));

  for (std::size_t i = 1; i < config_.num_nodes; ++i) {
    const net::NodeId id = network_.add_host();
    auto node_ptr = std::make_unique<baselines::SimpleTreeNode>(
        network_, transport_, id, coordinator_id_, config_.num_streams);
    baselines::SimpleTreeNode* raw = node_ptr.get();
    nodes_.emplace(id, std::move(node_ptr));
    const auto offset = sim::Duration::microseconds(
        static_cast<std::int64_t>(static_cast<double>(i) /
                                  static_cast<double>(config_.num_nodes) *
                                  static_cast<double>(config_.join_spread.us())));
    simulator_.after(offset, [raw]() { raw->join(); });
  }
  simulator_.run_until(simulator_.now() + config_.join_spread +
                       config_.stabilization);
}

void SimpleTreeSystem::run_stream(std::size_t count, double rate_per_s,
                                  std::size_t payload_bytes,
                                  sim::Duration grace) {
  const auto gap = sim::Duration::from_seconds(1.0 / rate_per_s);
  const sim::TimePoint start = simulator_.now();
  for (std::size_t i = 0; i < count; ++i) {
    simulator_.after(gap * static_cast<std::int64_t>(i),
                     [this, payload_bytes]() {
                       node(root_).broadcast(payload_bytes);
                       ++sent_;
                     });
  }
  simulator_.run_until(start + gap * static_cast<std::int64_t>(count) + grace);
}

bool SimpleTreeSystem::publish(net::StreamId stream,
                               std::size_t payload_bytes) {
  if (!network_.alive(root_)) return false;
  node(root_).broadcast(stream, payload_bytes);
  return true;
}

ChurnHooks SimpleTreeSystem::churn_hooks() {
  ChurnHooks hooks;
  hooks.spawn = [] {};
  hooks.kill = [](net::NodeId) {};
  hooks.population = [this] {
    std::vector<net::NodeId> alive;
    for (const auto& [id, rec] : nodes_) {
      if (network_.alive(id)) alive.push_back(id);
    }
    return alive;
  };
  fill_fault_hooks(hooks);
  return hooks;
}

baselines::SimpleTreeNode& SimpleTreeSystem::node(net::NodeId id) {
  const auto it = nodes_.find(id);
  BRISA_ASSERT_MSG(it != nodes_.end(), "unknown SimpleTree node");
  return *it->second;
}

std::vector<net::NodeId> SimpleTreeSystem::all_ids() const {
  std::vector<net::NodeId> out;
  out.reserve(nodes_.size());
  for (const auto& [id, rec] : nodes_) out.push_back(id);
  return out;
}

bool SimpleTreeSystem::complete_delivery() const {
  for (const auto& [id, rec] : nodes_) {
    if (rec->stats().delivery_time.size() < sent_) return false;
  }
  return true;
}

// --- SimpleGossipSystem ----------------------------------------------------------

SimpleGossipSystem::SimpleGossipSystem(Config config)
    : SystemBase(config.seed, config.testbed, config.topology,
                 config.gossip.limits, config.shards),
      config_(config) {
  if (config_.fanout == 0) {
    config_.fanout = gossip_fanout_for(config_.num_nodes);
  }
}

net::NodeId SimpleGossipSystem::create_node() {
  const net::NodeId id = network_.add_host();
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
  source_ = boot_rng.pick(population);
  simulator_.run_until(simulator_.now() + config_.stabilization);
}

void SimpleGossipSystem::run_stream(std::size_t count, double rate_per_s,
                                    std::size_t payload_bytes,
                                    sim::Duration grace) {
  stream_started_at_ = simulator_.now();
  const auto gap = sim::Duration::from_seconds(1.0 / rate_per_s);
  for (std::size_t i = 0; i < count; ++i) {
    simulator_.after(gap * static_cast<std::int64_t>(i),
                     [this, payload_bytes]() {
                       if (!network_.alive(source_)) return;
                       node(source_).broadcast(payload_bytes);
                       ++sent_;
                     });
  }
  simulator_.run_until(stream_started_at_ +
                       gap * static_cast<std::int64_t>(count) + grace);
}

bool SimpleGossipSystem::publish(net::StreamId stream,
                                 std::size_t payload_bytes) {
  if (!network_.alive(source_)) return false;
  node(source_).broadcast(stream, payload_bytes);
  return true;
}

net::NodeId SimpleGossipSystem::spawn_node() {
  const std::vector<net::NodeId> members = member_ids();
  BRISA_ASSERT(!members.empty());
  const net::NodeId id = create_node();
  node(id).join(simulator_.rng().split(id.index()).pick(members));
  return id;
}

void SimpleGossipSystem::kill_node(net::NodeId id) {
  BRISA_ASSERT_MSG(id != source_, "experiments keep the source alive");
  network_.kill(id);
}

ChurnHooks SimpleGossipSystem::churn_hooks() {
  ChurnHooks hooks;
  hooks.spawn = [this]() { spawn_node(); };
  hooks.population = [this]() {
    std::vector<net::NodeId> members = member_ids();
    members.erase(std::remove(members.begin(), members.end(), source_),
                  members.end());
    return members;
  };
  hooks.kill = [this](net::NodeId id) { kill_node(id); };
  fill_fault_hooks(hooks);
  return hooks;
}

baselines::SimpleGossip& SimpleGossipSystem::node(net::NodeId id) {
  const auto it = nodes_.find(id);
  BRISA_ASSERT_MSG(it != nodes_.end(), "unknown SimpleGossip node");
  return *it->second;
}

std::vector<net::NodeId> SimpleGossipSystem::all_ids() const {
  std::vector<net::NodeId> out;
  out.reserve(nodes_.size());
  for (const auto& [id, rec] : nodes_) out.push_back(id);
  return out;
}

std::vector<net::NodeId> SimpleGossipSystem::member_ids() const {
  std::vector<net::NodeId> out;
  for (const auto& [id, rec] : nodes_) {
    if (network_.alive(id)) out.push_back(id);
  }
  return out;
}

std::uint64_t SimpleGossipSystem::store_evictions() const {
  std::uint64_t evictions = 0;
  for (const net::NodeId id : member_ids()) {
    for (std::size_t s = 0; s < config_.num_streams; ++s) {
      evictions += nodes_.at(id)->evictions(static_cast<net::StreamId>(s));
    }
  }
  return evictions;
}

bool SimpleGossipSystem::complete_delivery() const {
  for (const auto& [id, rec] : nodes_) {
    if (!network_.alive(id)) continue;
    if (rec->stats().delivery_time.size() < sent_) return false;
  }
  return true;
}

// --- TagSystem ----------------------------------------------------------------------

TagSystem::TagSystem(Config config)
    : SystemBase(config.seed, config.testbed, config.topology,
                 config.tag.limits, config.shards),
      config_(config) {
  config_.tag.num_streams = config_.num_streams;
}

net::NodeId TagSystem::create_node() {
  const net::NodeId id = network_.add_host();
  nodes_.emplace(id, std::make_unique<baselines::TagNode>(
                         network_, transport_, id, head_, config_.tag));
  return id;
}

void TagSystem::bootstrap() {
  BRISA_ASSERT(config_.num_nodes >= 2);
  head_ = network_.add_host();
  nodes_.emplace(head_, std::make_unique<baselines::TagNode>(
                            network_, transport_, head_, head_, config_.tag));
  node(head_).start_as_head();

  for (std::size_t i = 1; i < config_.num_nodes; ++i) {
    const net::NodeId id = create_node();
    const auto offset = sim::Duration::microseconds(
        static_cast<std::int64_t>(static_cast<double>(i) /
                                  static_cast<double>(config_.num_nodes) *
                                  static_cast<double>(config_.join_spread.us())));
    simulator_.after(offset, [this, id]() {
      if (network_.alive(id)) node(id).join();
    });
  }
  simulator_.run_until(simulator_.now() + config_.join_spread +
                       config_.stabilization);
}

void TagSystem::run_stream(std::size_t count, double rate_per_s,
                           std::size_t payload_bytes, sim::Duration grace) {
  stream_started_at_ = simulator_.now();
  const auto gap = sim::Duration::from_seconds(1.0 / rate_per_s);
  for (std::size_t i = 0; i < count; ++i) {
    simulator_.after(gap * static_cast<std::int64_t>(i),
                     [this, payload_bytes]() {
                       node(head_).broadcast(payload_bytes);
                       ++sent_;
                     });
  }
  simulator_.run_until(stream_started_at_ +
                       gap * static_cast<std::int64_t>(count) + grace);
}

bool TagSystem::publish(net::StreamId stream, std::size_t payload_bytes) {
  if (!network_.alive(head_)) return false;
  node(head_).broadcast(stream, payload_bytes);
  return true;
}

net::NodeId TagSystem::spawn_node() {
  const net::NodeId id = create_node();
  node(id).join();
  return id;
}

void TagSystem::kill_node(net::NodeId id) {
  BRISA_ASSERT_MSG(id != head_, "experiments keep the head/source alive");
  network_.kill(id);
}

ChurnHooks TagSystem::churn_hooks() {
  ChurnHooks hooks;
  hooks.spawn = [this]() { spawn_node(); };
  hooks.population = [this]() {
    std::vector<net::NodeId> members = member_ids();
    members.erase(std::remove(members.begin(), members.end(), head_),
                  members.end());
    return members;
  };
  hooks.kill = [this](net::NodeId id) { kill_node(id); };
  fill_fault_hooks(hooks);
  return hooks;
}

baselines::TagNode& TagSystem::node(net::NodeId id) {
  const auto it = nodes_.find(id);
  BRISA_ASSERT_MSG(it != nodes_.end(), "unknown TAG node");
  return *it->second;
}

std::vector<net::NodeId> TagSystem::all_ids() const {
  std::vector<net::NodeId> out;
  out.reserve(nodes_.size());
  for (const auto& [id, rec] : nodes_) out.push_back(id);
  return out;
}

std::vector<net::NodeId> TagSystem::member_ids() const {
  std::vector<net::NodeId> out;
  for (const auto& [id, rec] : nodes_) {
    if (network_.alive(id)) out.push_back(id);
  }
  return out;
}

std::uint64_t TagSystem::store_evictions() const {
  std::uint64_t evictions = 0;
  for (const net::NodeId id : member_ids()) {
    for (std::size_t s = 0; s < config_.num_streams; ++s) {
      evictions += nodes_.at(id)->evictions(static_cast<net::StreamId>(s));
    }
  }
  return evictions;
}

bool TagSystem::complete_delivery() const {
  for (const auto& [id, rec] : nodes_) {
    if (!network_.alive(id)) continue;
    if (rec->stats().delivery_time.size() < sent_) return false;
  }
  return true;
}

}  // namespace brisa::workload
