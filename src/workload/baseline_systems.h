// Deployment harnesses for the three comparison protocols of §III-D. Each
// implements the SystemBase protocol surface (bootstrap / stream / measure /
// churn) that BrisaSystem implements too, so the reports drive all four
// protocols through one interface (workload::make_system()).
#pragma once

#include <cmath>
#include <map>
#include <memory>
#include <vector>

#include "baselines/simple_gossip.h"
#include "baselines/simple_tree.h"
#include "baselines/tag.h"
#include "workload/churn.h"
#include "workload/testbed.h"

namespace brisa::workload {

class SimpleTreeSystem final : public SystemBase {
 public:
  struct Config {
    std::uint64_t seed = 1;
    std::size_t num_nodes = 512;
    TestbedKind testbed = TestbedKind::kCluster;
    /// When set, replaces the testbed's latency model / network preset.
    std::optional<TopologyOverride> topology;
    /// Concurrent streams (topics), all rooted at the tree root.
    std::size_t num_streams = 1;
    sim::Duration join_spread = sim::Duration::seconds(50);
    sim::Duration stabilization = sim::Duration::seconds(10);
    /// Network-level bandwidth discipline (the tree relays without a store,
    /// so only the rate-control/instrumentation half applies here).
    net::Limits limits;
    /// Event-lane shards (sim/simulator.h); 1 = classic serial loop.
    std::uint32_t shards = 1;
  };

  explicit SimpleTreeSystem(Config config);

  void bootstrap() override;
  void run_stream(std::size_t count, double rate_per_s,
                  std::size_t payload_bytes, sim::Duration grace) override;
  /// run_stream() with this harness's customary 10 s grace.
  void run_stream(std::size_t count, double rate_per_s,
                  std::size_t payload_bytes) {
    run_stream(count, rate_per_s, payload_bytes, sim::Duration::seconds(10));
  }
  bool publish(net::StreamId stream, std::size_t payload_bytes) override;
  /// SimpleTree has no spawn/kill API: spawn/kill are no-ops and
  /// population() is the alive nodes, which is all a fault script
  /// (drop/partition/crash/slow) needs.
  [[nodiscard]] ChurnHooks churn_hooks() override;

  [[nodiscard]] net::NodeId source_id(net::StreamId) const override {
    return root_;
  }
  [[nodiscard]] net::NodeId source_id() const { return root_; }
  [[nodiscard]] net::NodeId coordinator_id() const { return coordinator_id_; }
  [[nodiscard]] baselines::SimpleTreeNode& node(net::NodeId id);
  [[nodiscard]] std::vector<net::NodeId> all_ids() const;
  /// all_ids(): the static tree counts every node it built.
  [[nodiscard]] std::vector<net::NodeId> receivers() const override {
    return all_ids();
  }
  [[nodiscard]] const util::FlatSeqMap<sim::TimePoint>& delivery_times(
      net::NodeId id, net::StreamId stream) const override {
    return nodes_.at(id)->stats(stream).delivery_time;
  }
  [[nodiscard]] std::uint64_t duplicates(
      net::NodeId id, net::StreamId stream) const override {
    return nodes_.at(id)->stats(stream).duplicates;
  }
  /// Always 0: the tree relays without a store.
  [[nodiscard]] std::uint64_t store_evictions() const override { return 0; }
  [[nodiscard]] std::uint64_t messages_sent() const override { return sent_; }
  [[nodiscard]] bool complete_delivery() const override;

 private:
  Config config_;
  std::unique_ptr<baselines::SimpleTreeCoordinator> coordinator_;
  net::NodeId coordinator_id_;
  std::map<net::NodeId, std::unique_ptr<baselines::SimpleTreeNode>> nodes_;
  net::NodeId root_;
  std::uint64_t sent_ = 0;
};

class SimpleGossipSystem final : public SystemBase {
 public:
  struct Config {
    std::uint64_t seed = 1;
    std::size_t num_nodes = 512;
    TestbedKind testbed = TestbedKind::kCluster;
    /// When set, replaces the testbed's latency model / network preset.
    std::optional<TopologyOverride> topology;
    /// 0 = the paper's ln(N).
    std::size_t fanout = 0;
    /// Concurrent streams (topics), all injected at the source node.
    std::size_t num_streams = 1;
    baselines::SimpleGossip::Config gossip;
    sim::Duration join_spread = sim::Duration::seconds(50);
    sim::Duration stabilization = sim::Duration::seconds(20);
    /// Size of the random seed view handed to bootstrap members.
    std::size_t bootstrap_view = 8;
    /// Event-lane shards (sim/simulator.h); 1 = classic serial loop.
    std::uint32_t shards = 1;
  };

  explicit SimpleGossipSystem(Config config);

  void bootstrap() override;
  void run_stream(std::size_t count, double rate_per_s,
                  std::size_t payload_bytes, sim::Duration grace) override;
  /// run_stream() with this harness's customary 15 s grace.
  void run_stream(std::size_t count, double rate_per_s,
                  std::size_t payload_bytes) {
    run_stream(count, rate_per_s, payload_bytes, sim::Duration::seconds(15));
  }
  bool publish(net::StreamId stream, std::size_t payload_bytes) override;

  net::NodeId spawn_node();
  void kill_node(net::NodeId node);
  [[nodiscard]] ChurnHooks churn_hooks() override;

  [[nodiscard]] net::NodeId source_id(net::StreamId) const override {
    return source_;
  }
  [[nodiscard]] net::NodeId source_id() const { return source_; }
  [[nodiscard]] baselines::SimpleGossip& node(net::NodeId id);
  [[nodiscard]] std::vector<net::NodeId> all_ids() const;
  [[nodiscard]] std::vector<net::NodeId> member_ids() const;
  [[nodiscard]] std::vector<net::NodeId> receivers() const override {
    return member_ids();
  }
  [[nodiscard]] const util::FlatSeqMap<sim::TimePoint>& delivery_times(
      net::NodeId id, net::StreamId stream) const override {
    return nodes_.at(id)->stats(stream).delivery_time;
  }
  [[nodiscard]] std::uint64_t duplicates(
      net::NodeId id, net::StreamId stream) const override {
    return nodes_.at(id)->stats(stream).duplicates;
  }
  [[nodiscard]] std::uint64_t store_evictions() const override;
  [[nodiscard]] std::uint64_t messages_sent() const override { return sent_; }
  [[nodiscard]] bool complete_delivery() const override;

 private:
  net::NodeId create_node();

  Config config_;
  std::map<net::NodeId, std::unique_ptr<baselines::SimpleGossip>> nodes_;
  net::NodeId source_;
  std::uint64_t sent_ = 0;
  sim::TimePoint stream_started_at_;
};

class TagSystem final : public SystemBase {
 public:
  struct Config {
    std::uint64_t seed = 1;
    std::size_t num_nodes = 512;
    TestbedKind testbed = TestbedKind::kCluster;
    /// When set, replaces the testbed's latency model / network preset.
    std::optional<TopologyOverride> topology;
    /// Concurrent streams (topics), all injected at the list head.
    std::size_t num_streams = 1;
    baselines::TagNode::Config tag;
    sim::Duration join_spread = sim::Duration::seconds(50);
    sim::Duration stabilization = sim::Duration::seconds(20);
    /// Event-lane shards (sim/simulator.h); 1 = classic serial loop.
    std::uint32_t shards = 1;
  };

  explicit TagSystem(Config config);

  void bootstrap() override;
  void run_stream(std::size_t count, double rate_per_s,
                  std::size_t payload_bytes, sim::Duration grace) override;
  /// run_stream() with this harness's customary 30 s grace.
  void run_stream(std::size_t count, double rate_per_s,
                  std::size_t payload_bytes) {
    run_stream(count, rate_per_s, payload_bytes, sim::Duration::seconds(30));
  }
  bool publish(net::StreamId stream, std::size_t payload_bytes) override;

  net::NodeId spawn_node();
  void kill_node(net::NodeId node);
  [[nodiscard]] ChurnHooks churn_hooks() override;

  [[nodiscard]] net::NodeId source_id(net::StreamId) const override {
    return head_;
  }
  [[nodiscard]] net::NodeId source_id() const { return head_; }
  [[nodiscard]] baselines::TagNode& node(net::NodeId id);
  [[nodiscard]] std::vector<net::NodeId> all_ids() const;
  [[nodiscard]] std::vector<net::NodeId> member_ids() const;
  [[nodiscard]] std::vector<net::NodeId> receivers() const override {
    return member_ids();
  }
  [[nodiscard]] const util::FlatSeqMap<sim::TimePoint>& delivery_times(
      net::NodeId id, net::StreamId stream) const override {
    return nodes_.at(id)->stats(stream).delivery_time;
  }
  [[nodiscard]] std::uint64_t duplicates(
      net::NodeId id, net::StreamId stream) const override {
    return nodes_.at(id)->stats(stream).duplicates;
  }
  [[nodiscard]] std::uint64_t store_evictions() const override;
  [[nodiscard]] std::uint64_t messages_sent() const override { return sent_; }
  [[nodiscard]] bool complete_delivery() const override;

 private:
  net::NodeId create_node();

  Config config_;
  std::map<net::NodeId, std::unique_ptr<baselines::TagNode>> nodes_;
  net::NodeId head_;
  std::uint64_t sent_ = 0;
  sim::TimePoint stream_started_at_;
};

/// ceil(ln N): the paper's SimpleGossip fanout.
[[nodiscard]] inline std::size_t gossip_fanout_for(std::size_t n) {
  return static_cast<std::size_t>(
      std::ceil(std::log(static_cast<double>(n))));
}

}  // namespace brisa::workload
