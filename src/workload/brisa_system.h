// A full BRISA deployment: HyParView + a BrisaEngine (forest of per-stream
// BRISA instances) on every simulated host, plus the bootstrap,
// overlay join and stream sources every experiment in §III uses; the
// stream schedule, node registry and churn plumbing come from SystemBase.
#pragma once

#include <map>
#include <memory>
#include <vector>

#include "analysis/dot_export.h"
#include "core/brisa.h"
#include "membership/hyparview.h"
#include "workload/testbed.h"

namespace brisa::workload {

class BrisaSystem final : public SystemBase {
 public:
  struct Config : SystemConfig {
    Config() : SystemConfig(sim::Duration::seconds(30)) {}
    membership::HyParView::Config hyparview;
    /// Per-stream protocol configuration, applied to every stream. Each
    /// stream gets its own source node and emerges its own structure over
    /// the one shared overlay.
    core::Brisa::Config brisa;
    /// Stream-0 source: index into the bootstrap population, or -1 for the
    /// paper's "randomly chosen node". Further streams source at distinct
    /// randomly chosen nodes.
    std::int32_t source_index = -1;
  };

  explicit BrisaSystem(Config config);

  /// Creates the bootstrap population, lets everyone join, and runs the
  /// simulator until the overlay has settled.
  void bootstrap() override;
  net::NodeId spawn_node() override;

  // --- Accessors ---------------------------------------------------------
  /// Stream 0 of the node's forest (the single-stream view every paper
  /// experiment uses).
  [[nodiscard]] core::Brisa& brisa(net::NodeId node);
  [[nodiscard]] core::Brisa& brisa(net::NodeId node, net::StreamId stream);
  [[nodiscard]] core::BrisaEngine& engine(net::NodeId node);
  [[nodiscard]] membership::HyParView& hyparview(net::NodeId node);
  [[nodiscard]] const util::FlatSeqMap<sim::TimePoint>& delivery_times(
      net::NodeId id, net::StreamId stream) const override {
    return nodes_.at(id).engine->stream(stream).stats().delivery_time;
  }
  [[nodiscard]] std::uint64_t duplicates(
      net::NodeId id, net::StreamId stream) const override {
    return nodes_.at(id).engine->stream(stream).stats().duplicates;
  }
  [[nodiscard]] std::uint64_t evictions(
      net::NodeId id, net::StreamId stream) const override {
    return nodes_.at(id).engine->stream(stream).stats().buffer_evictions;
  }
  [[nodiscard]] const Config& config() const { return config_; }

  // --- Structure extraction (Figs 6-8) ------------------------------------
  [[nodiscard]] std::vector<analysis::StructureEdge> structure_edges(
      net::StreamId stream = net::kDefaultStream) const;

 private:
  struct NodeRec {
    std::unique_ptr<membership::HyParView> hyparview;
    std::unique_ptr<core::BrisaEngine> engine;
  };

  net::NodeId create_node();
  void inject(net::NodeId source, net::StreamId stream,
              std::size_t payload_bytes) override;

  Config config_;
  std::map<net::NodeId, NodeRec> nodes_;
};

}  // namespace brisa::workload
