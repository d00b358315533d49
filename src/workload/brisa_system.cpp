#include "workload/brisa_system.h"

#include <algorithm>

#include "util/assert.h"

namespace brisa::workload {

BrisaSystem::BrisaSystem(Config config)
    : SystemBase(config, config.brisa.limits,
                 {.grace = sim::Duration::seconds(10),
                  .completeness = Completeness::kAliveSinceStreamStart}),
      config_(config) {
  BRISA_ASSERT(config_.num_streams >= 1);
}

net::NodeId BrisaSystem::create_node() {
  const net::NodeId id = add_node();
  NodeRec rec;
  rec.hyparview = std::make_unique<membership::HyParView>(
      network_, transport_, id, config_.hyparview);
  rec.engine = std::make_unique<core::BrisaEngine>(network_, *rec.hyparview,
                                                   id, config_.brisa);
  for (std::size_t s = 0; s < config_.num_streams; ++s) {
    rec.engine->add_stream(static_cast<net::StreamId>(s));
  }
  nodes_.emplace(id, std::move(rec));
  return id;
}

void BrisaSystem::bootstrap() {
  BRISA_ASSERT_MSG(sources_.empty(), "bootstrap() called twice");
  BRISA_ASSERT(config_.num_nodes >= 2);
  BRISA_ASSERT_MSG(config_.num_streams <= config_.num_nodes,
                   "need at least one node per stream source");

  // First node starts the overlay; the rest join through a random earlier
  // node, spread over the join window.
  std::vector<net::NodeId> population;
  const net::NodeId first = create_node();
  hyparview(first).start();
  population.push_back(first);

  // A generated overlay pins each join to a graph edge: the contact is a
  // random lower-index neighbor (every generator guarantees one exists), so
  // the emergent HyParView views follow the generated structure.
  const TopologyGraph* graph =
      config_.topology && config_.topology->graph != nullptr
          ? config_.topology->graph.get()
          : nullptr;
  sim::Rng boot_rng = simulator_.rng().split(0xB007);
  std::vector<net::NodeId> contacts;
  for (std::size_t i = 1; i < config_.num_nodes; ++i) {
    const net::NodeId id = create_node();
    net::NodeId contact = population.front();
    if (graph != nullptr && i < graph->nodes()) {
      contacts.clear();
      for (const std::uint32_t v : graph->neighbors(
               static_cast<std::uint32_t>(i))) {
        if (v < i) contacts.push_back(population[v]);
      }
      BRISA_ASSERT_MSG(!contacts.empty(),
                       "generated topology left a node without a lower-index "
                       "neighbor");
      contact = boot_rng.pick(contacts);
    } else {
      contact = boot_rng.pick(population);
    }
    population.push_back(id);
    simulator_.after(join_offset(i), [this, id, contact]() {
      if (network_.alive(id)) hyparview(id).join(contact);
    });
  }

  // Pick the stream-0 source.
  if (config_.source_index >= 0) {
    BRISA_ASSERT(static_cast<std::size_t>(config_.source_index) <
                 population.size());
    sources_.push_back(population[static_cast<std::size_t>(
        config_.source_index)]);
  } else {
    sources_.push_back(boot_rng.pick(population));
  }
  // Further streams source at distinct randomly chosen nodes: the K
  // concurrent publishers of a multi-topic workload.
  while (sources_.size() < config_.num_streams) {
    const net::NodeId candidate = boot_rng.pick(population);
    if (std::find(sources_.begin(), sources_.end(), candidate) !=
        sources_.end()) {
      continue;
    }
    sources_.push_back(candidate);
  }
  for (std::size_t s = 0; s < sources_.size(); ++s) {
    brisa(sources_[s], static_cast<net::StreamId>(s)).become_source();
  }

  simulator_.run_until(simulator_.now() + config_.join_spread +
                       config_.stabilization);
}

void BrisaSystem::inject(net::NodeId source, net::StreamId stream,
                         std::size_t payload_bytes) {
  brisa(source, stream).broadcast(payload_bytes);
}

net::NodeId BrisaSystem::spawn_node() {
  const std::vector<net::NodeId> members = member_ids();
  BRISA_ASSERT_MSG(!members.empty(), "cannot join an empty system");
  const net::NodeId id = create_node();
  const net::NodeId contact = simulator_.rng().split(id.index()).pick(members);
  hyparview(id).join(contact);
  return id;
}

core::Brisa& BrisaSystem::brisa(net::NodeId node) {
  return brisa(node, net::kDefaultStream);
}

core::Brisa& BrisaSystem::brisa(net::NodeId node, net::StreamId stream) {
  return engine(node).stream(stream);
}

core::BrisaEngine& BrisaSystem::engine(net::NodeId node) {
  const auto it = nodes_.find(node);
  BRISA_ASSERT_MSG(it != nodes_.end(), "unknown node");
  return *it->second.engine;
}

membership::HyParView& BrisaSystem::hyparview(net::NodeId node) {
  const auto it = nodes_.find(node);
  BRISA_ASSERT_MSG(it != nodes_.end(), "unknown node");
  return *it->second.hyparview;
}

std::vector<analysis::StructureEdge> BrisaSystem::structure_edges(
    net::StreamId stream) const {
  std::vector<analysis::StructureEdge> edges;
  for (const auto& [id, rec] : nodes_) {
    if (!network_.alive(id)) continue;
    for (const net::NodeId parent : rec.engine->stream(stream).parents()) {
      edges.push_back({parent, id});
    }
  }
  return edges;
}

}  // namespace brisa::workload
