// Deployment harnesses for the three comparison protocols of §III-D. Each
// fills in the SystemBase protocol surface (how it builds, joins and feeds
// its nodes) that BrisaSystem fills in too, so the reports drive all four
// protocols through one body (workload::make_system()).
#pragma once

#include <cmath>
#include <map>
#include <memory>
#include <vector>

#include "baselines/simple_gossip.h"
#include "baselines/simple_tree.h"
#include "baselines/tag.h"
#include "workload/testbed.h"

namespace brisa::workload {

/// The static tree: every node, the root included, counts for delivery,
/// and churn leaves its population alone (Rules::fixed_population).
class SimpleTreeSystem final : public SystemBase {
 public:
  struct Config : SystemConfig {
    Config() : SystemConfig(sim::Duration::seconds(10)) {}
    /// Network-level bandwidth discipline (the tree relays without a store,
    /// so only the rate-control/instrumentation half applies here).
    net::Limits limits;
  };

  explicit SimpleTreeSystem(Config config);

  void bootstrap() override;

  [[nodiscard]] baselines::SimpleTreeNode& node(net::NodeId id);
  [[nodiscard]] const util::FlatSeqMap<sim::TimePoint>& delivery_times(
      net::NodeId id, net::StreamId stream) const override {
    return nodes_.at(id)->stats(stream).delivery_time;
  }
  [[nodiscard]] std::uint64_t duplicates(
      net::NodeId id, net::StreamId stream) const override {
    return nodes_.at(id)->stats(stream).duplicates;
  }

 private:
  void inject(net::NodeId source, net::StreamId stream,
              std::size_t payload_bytes) override;

  Config config_;
  std::unique_ptr<baselines::SimpleTreeCoordinator> coordinator_;
  net::NodeId coordinator_id_;
  std::map<net::NodeId, std::unique_ptr<baselines::SimpleTreeNode>> nodes_;
};

class SimpleGossipSystem final : public SystemBase {
 public:
  struct Config : SystemConfig {
    Config() : SystemConfig(sim::Duration::seconds(20)) {}
    /// 0 = the paper's ln(N).
    std::size_t fanout = 0;
    baselines::SimpleGossip::Config gossip;
    /// Size of the random seed view handed to bootstrap members.
    std::size_t bootstrap_view = 8;
  };

  explicit SimpleGossipSystem(Config config);

  void bootstrap() override;
  net::NodeId spawn_node() override;

  [[nodiscard]] baselines::SimpleGossip& node(net::NodeId id);
  [[nodiscard]] const util::FlatSeqMap<sim::TimePoint>& delivery_times(
      net::NodeId id, net::StreamId stream) const override {
    return nodes_.at(id)->stats(stream).delivery_time;
  }
  [[nodiscard]] std::uint64_t duplicates(
      net::NodeId id, net::StreamId stream) const override {
    return nodes_.at(id)->stats(stream).duplicates;
  }
  [[nodiscard]] std::uint64_t evictions(
      net::NodeId id, net::StreamId stream) const override {
    return nodes_.at(id)->evictions(stream);
  }

 private:
  net::NodeId create_node();
  void inject(net::NodeId source, net::StreamId stream,
              std::size_t payload_bytes) override;

  Config config_;
  std::map<net::NodeId, std::unique_ptr<baselines::SimpleGossip>> nodes_;
};

class TagSystem final : public SystemBase {
 public:
  struct Config : SystemConfig {
    Config() : SystemConfig(sim::Duration::seconds(20)) {}
    baselines::TagNode::Config tag;
  };

  explicit TagSystem(Config config);

  void bootstrap() override;
  net::NodeId spawn_node() override;

  [[nodiscard]] baselines::TagNode& node(net::NodeId id);
  [[nodiscard]] const util::FlatSeqMap<sim::TimePoint>& delivery_times(
      net::NodeId id, net::StreamId stream) const override {
    return nodes_.at(id)->stats(stream).delivery_time;
  }
  [[nodiscard]] std::uint64_t duplicates(
      net::NodeId id, net::StreamId stream) const override {
    return nodes_.at(id)->stats(stream).duplicates;
  }
  [[nodiscard]] std::uint64_t evictions(
      net::NodeId id, net::StreamId stream) const override {
    return nodes_.at(id)->evictions(stream);
  }

 private:
  net::NodeId create_node();
  void inject(net::NodeId source, net::StreamId stream,
              std::size_t payload_bytes) override;

  Config config_;
  std::map<net::NodeId, std::unique_ptr<baselines::TagNode>> nodes_;
};

/// ceil(ln N): the paper's SimpleGossip fanout.
[[nodiscard]] inline std::size_t gossip_fanout_for(std::size_t n) {
  return static_cast<std::size_t>(
      std::ceil(std::log(static_cast<double>(n))));
}

}  // namespace brisa::workload
