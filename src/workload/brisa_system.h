// A full BRISA deployment: HyParView + a BrisaEngine (forest of per-stream
// BRISA instances) on every simulated host, plus the bootstrap,
// stream-injection, and churn plumbing every experiment in §III shares.
#pragma once

#include <map>
#include <memory>
#include <vector>

#include "analysis/dot_export.h"
#include "core/brisa.h"
#include "membership/hyparview.h"
#include "workload/churn.h"
#include "workload/testbed.h"

namespace brisa::workload {

class BrisaSystem final : public SystemBase {
 public:
  struct Config {
    std::uint64_t seed = 1;
    std::size_t num_nodes = 512;
    TestbedKind testbed = TestbedKind::kCluster;
    /// When set, replaces the testbed's latency model / network preset
    /// (scenario-selected topologies: clustered-wan, fat-tree, ...).
    std::optional<TopologyOverride> topology;
    membership::HyParView::Config hyparview;
    /// Per-stream protocol configuration, applied to every stream.
    core::Brisa::Config brisa;
    /// Concurrent streams (topics) 0..num_streams-1, every node active on
    /// all of them; each stream gets its own source node and emerges its own
    /// structure over the one shared overlay.
    std::size_t num_streams = 1;
    /// Bootstrap joins spread over this window (the paper's trace uses one
    /// join per second; experiments without churn compress it).
    sim::Duration join_spread = sim::Duration::seconds(50);
    /// Settling time after the last join before measurements start.
    sim::Duration stabilization = sim::Duration::seconds(30);
    /// Stream-0 source: index into the bootstrap population, or -1 for the
    /// paper's "randomly chosen node". Further streams source at distinct
    /// randomly chosen nodes.
    std::int32_t source_index = -1;
    /// Event-lane shards (sim/simulator.h); 1 = classic serial loop. Results
    /// are byte-identical for every value.
    std::uint32_t shards = 1;
  };

  explicit BrisaSystem(Config config);

  /// Creates the bootstrap population, lets everyone join, and runs the
  /// simulator until the overlay has settled.
  void bootstrap() override;

  /// Injects `count` messages at `rate_per_s` from the stream-0 source and
  /// runs the simulator until `grace` after the last injection. (Multi-stream
  /// workloads drive all sources through a PubSubDriver instead.)
  void run_stream(std::size_t count, double rate_per_s,
                  std::size_t payload_bytes, sim::Duration grace) override;
  /// run_stream() with this harness's customary 10 s grace.
  void run_stream(std::size_t count, double rate_per_s,
                  std::size_t payload_bytes) {
    run_stream(count, rate_per_s, payload_bytes, sim::Duration::seconds(10));
  }

  /// Injects one message on `stream` at its source; false when the source
  /// host is currently down.
  bool publish(net::StreamId stream, std::size_t payload_bytes) override;

  /// Churn operations (usable directly or through churn_hooks()).
  net::NodeId spawn_node();
  void kill_node(net::NodeId node);
  [[nodiscard]] ChurnHooks churn_hooks() override;

  // --- Accessors ---------------------------------------------------------
  [[nodiscard]] net::NodeId source_id() const { return sources_[0]; }
  [[nodiscard]] net::NodeId source_id(net::StreamId stream) const override {
    return sources_[stream];
  }
  [[nodiscard]] const std::vector<net::NodeId>& source_ids() const {
    return sources_;
  }
  /// Stream 0 of the node's forest (the single-stream view every paper
  /// experiment uses).
  [[nodiscard]] core::Brisa& brisa(net::NodeId node);
  [[nodiscard]] core::Brisa& brisa(net::NodeId node, net::StreamId stream);
  [[nodiscard]] core::BrisaEngine& engine(net::NodeId node);
  [[nodiscard]] membership::HyParView& hyparview(net::NodeId node);
  /// All protocol nodes ever created (including dead ones — their stats
  /// survive for post-mortem aggregation).
  [[nodiscard]] std::vector<net::NodeId> all_ids() const;
  /// Alive members only.
  [[nodiscard]] std::vector<net::NodeId> member_ids() const;
  [[nodiscard]] std::vector<net::NodeId> receivers() const override {
    return member_ids();
  }
  [[nodiscard]] const util::FlatSeqMap<sim::TimePoint>& delivery_times(
      net::NodeId id, net::StreamId stream) const override {
    return nodes_.at(id).engine->stream(stream).stats().delivery_time;
  }
  [[nodiscard]] std::uint64_t duplicates(
      net::NodeId id, net::StreamId stream) const override {
    return nodes_.at(id).engine->stream(stream).stats().duplicates;
  }
  [[nodiscard]] std::uint64_t store_evictions() const override;
  [[nodiscard]] const Config& config() const { return config_; }
  [[nodiscard]] std::uint64_t messages_sent() const override { return sent_; }

  // --- Structure extraction (Figs 6-8) ------------------------------------
  [[nodiscard]] std::vector<analysis::StructureEdge> structure_edges(
      net::StreamId stream = net::kDefaultStream) const;

  /// True when every alive member that was present for the whole
  /// run_stream() stream delivered every message (stream 0).
  [[nodiscard]] bool complete_delivery() const override;

 private:
  struct NodeRec {
    std::unique_ptr<membership::HyParView> hyparview;
    std::unique_ptr<core::BrisaEngine> engine;
    sim::TimePoint created_at;
  };

  net::NodeId create_node();

  Config config_;
  std::map<net::NodeId, NodeRec> nodes_;
  /// Per-stream source nodes, indexed by StreamId.
  std::vector<net::NodeId> sources_;
  std::uint64_t sent_ = 0;
  sim::TimePoint stream_started_at_;
  bool bootstrapped_ = false;
};

}  // namespace brisa::workload
