// HyParView tests: join mechanics, view invariants (bidirectionality, size
// bounds), overlay connectivity, failure replacement, the expansion-factor
// eviction rule, shuffles, keep-alive RTT estimation, and app-message
// passthrough. Includes parameterized connectivity sweeps.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <queue>
#include <set>
#include <vector>

#include "membership/hyparview.h"
#include "net/message_pool.h"
#include "net/latency.h"
#include "sim/simulator.h"

namespace brisa::membership {
namespace {

class TestPing final : public net::Message {
 public:
  explicit TestPing(int tag) : tag_(tag) {}
  [[nodiscard]] net::MessageKind kind() const override {
    return net::MessageKind::kTestPing;
  }
  [[nodiscard]] std::size_t wire_size() const override { return 8; }
  [[nodiscard]] int tag() const { return tag_; }

 private:
  int tag_;
};

class RecordingListener : public PssListener {
 public:
  void on_neighbor_up(net::NodeId peer) override { ups.push_back(peer); }
  void on_neighbor_down(net::NodeId peer, NeighborLossReason reason) override {
    downs.emplace_back(peer, reason);
  }
  void on_app_message(net::NodeId from, net::MessagePtr message) override {
    messages.emplace_back(from, std::move(message));
  }
  std::vector<net::NodeId> ups;
  std::vector<std::pair<net::NodeId, NeighborLossReason>> downs;
  std::vector<std::pair<net::NodeId, net::MessagePtr>> messages;
};

/// A small overlay harness: N HyParView instances over one network.
class Overlay {
 public:
  Overlay(std::size_t n, HyParView::Config config, std::uint64_t seed = 17)
      : simulator_(seed),
        network_(simulator_, std::make_unique<net::ClusterLatencyModel>()),
        transport_(network_) {
    for (std::size_t i = 0; i < n; ++i) {
      const net::NodeId id = network_.add_host();
      nodes_.emplace(id, std::make_unique<HyParView>(network_, transport_, id,
                                                     config));
      ids_.push_back(id);
    }
    nodes_.at(ids_[0])->start();
    sim::Rng rng = simulator_.rng().split(0xfeed);
    for (std::size_t i = 1; i < n; ++i) {
      const net::NodeId contact =
          ids_[static_cast<std::size_t>(rng.uniform(i))];
      const net::NodeId joiner = ids_[i];
      simulator_.after(sim::Duration::milliseconds(static_cast<std::int64_t>(
                           50 * i)),
                       [this, joiner, contact]() {
                         nodes_.at(joiner)->join(contact);
                       });
    }
  }

  void settle(sim::Duration extra = sim::Duration::seconds(30)) {
    simulator_.run_until(simulator_.now() + extra);
  }

  [[nodiscard]] HyParView& node(net::NodeId id) { return *nodes_.at(id); }
  [[nodiscard]] const std::vector<net::NodeId>& ids() const { return ids_; }
  [[nodiscard]] sim::Simulator& simulator() { return simulator_; }
  [[nodiscard]] net::Network& network() { return network_; }

  /// Number of alive nodes reachable from the first alive node.
  [[nodiscard]] std::size_t reachable_count() {
    net::NodeId start;
    for (const net::NodeId id : ids_) {
      if (network_.alive(id)) {
        start = id;
        break;
      }
    }
    if (!start.valid()) return 0;
    std::set<net::NodeId> visited{start};
    std::queue<net::NodeId> frontier;
    frontier.push(start);
    while (!frontier.empty()) {
      const net::NodeId current = frontier.front();
      frontier.pop();
      for (const net::NodeId next : nodes_.at(current)->view()) {
        if (!network_.alive(next)) continue;
        if (visited.insert(next).second) frontier.push(next);
      }
    }
    return visited.size();
  }

 private:
  sim::Simulator simulator_;
  net::Network network_;
  net::Transport transport_;
  std::map<net::NodeId, std::unique_ptr<HyParView>> nodes_;
  std::vector<net::NodeId> ids_;
};

TEST(HyParView, JoinPopulatesViews) {
  Overlay overlay(16, {});
  overlay.settle();
  for (const net::NodeId id : overlay.ids()) {
    EXPECT_GE(overlay.node(id).active_count(), 1u) << id;
  }
}

TEST(HyParView, LinksAreBidirectional) {
  Overlay overlay(32, {});
  overlay.settle();
  for (const net::NodeId id : overlay.ids()) {
    for (const net::NodeId peer : overlay.node(id).view()) {
      const std::vector<net::NodeId> back = overlay.node(peer).view();
      EXPECT_NE(std::find(back.begin(), back.end(), id), back.end())
          << peer << " does not list " << id;
    }
  }
}

TEST(HyParView, ViewSizesWithinExpansionBound) {
  HyParView::Config config;
  config.active_size = 4;
  config.expansion_factor = 2.0;
  Overlay overlay(64, config);
  overlay.settle();
  for (const net::NodeId id : overlay.ids()) {
    EXPECT_LE(overlay.node(id).active_count(), 8u) << id;
    EXPECT_GE(overlay.node(id).active_count(), 1u) << id;
  }
}

TEST(HyParView, OverlayIsConnected) {
  Overlay overlay(64, {});
  overlay.settle();
  EXPECT_EQ(overlay.reachable_count(), 64u);
}

TEST(HyParView, PassiveViewsFillThroughShuffles) {
  Overlay overlay(48, {});
  overlay.settle(sim::Duration::seconds(60));
  std::size_t with_passive = 0;
  for (const net::NodeId id : overlay.ids()) {
    if (!overlay.node(id).passive_view().empty()) ++with_passive;
    EXPECT_LE(overlay.node(id).passive_view().size(),
              overlay.node(id).config().passive_size);
  }
  EXPECT_GT(with_passive, 40u);
}

TEST(HyParView, PassiveViewExcludesActiveAndSelf) {
  Overlay overlay(48, {});
  overlay.settle(sim::Duration::seconds(60));
  for (const net::NodeId id : overlay.ids()) {
    const std::vector<net::NodeId> active = overlay.node(id).view();
    for (const net::NodeId passive : overlay.node(id).passive_view()) {
      EXPECT_NE(passive, id);
      EXPECT_EQ(std::find(active.begin(), active.end(), passive),
                active.end());
    }
  }
}

TEST(HyParView, FailedNeighborsAreReplaced) {
  Overlay overlay(48, {});
  overlay.settle(sim::Duration::seconds(60));
  // Kill a quarter of the nodes.
  sim::Rng rng(5);
  std::set<net::NodeId> killed;
  while (killed.size() < 12) {
    const net::NodeId victim = rng.pick(overlay.ids());
    if (killed.insert(victim).second) overlay.network().kill(victim);
  }
  overlay.settle(sim::Duration::seconds(30));
  // Survivors: no dead nodes in views; overlay reconnected.
  for (const net::NodeId id : overlay.ids()) {
    if (killed.count(id) > 0) continue;
    for (const net::NodeId peer : overlay.node(id).view()) {
      EXPECT_EQ(killed.count(peer), 0u)
          << id << " still lists dead " << peer;
    }
    EXPECT_GE(overlay.node(id).active_count(), 1u) << id;
  }
  EXPECT_EQ(overlay.reachable_count(), 48u - 12u);
}

TEST(HyParView, KeepaliveMeasuresRtt) {
  Overlay overlay(8, {});
  overlay.settle(sim::Duration::seconds(30));
  const net::NodeId id = overlay.ids()[0];
  std::size_t with_rtt = 0;
  for (const net::NodeId peer : overlay.node(id).view()) {
    const sim::Duration rtt = overlay.node(id).rtt_estimate(peer);
    if (rtt == sim::Duration::max()) continue;
    ++with_rtt;
    // Cluster RTT: ~2 × 150 us base + jitter + processing.
    EXPECT_GT(rtt, sim::Duration::microseconds(200));
    EXPECT_LT(rtt, sim::Duration::milliseconds(50));
  }
  EXPECT_GE(with_rtt, 1u);
}

TEST(HyParView, AppMessagesReachListener) {
  Overlay overlay(8, {});
  overlay.settle();
  const net::NodeId a = overlay.ids()[0];
  ASSERT_FALSE(overlay.node(a).view().empty());
  const net::NodeId b = overlay.node(a).view()[0];
  RecordingListener listener;
  overlay.node(b).set_listener(&listener);
  EXPECT_TRUE(overlay.node(a).send_app(b, net::make_message<TestPing>(7),
                                       net::TrafficClass::kData));
  overlay.settle(sim::Duration::seconds(1));
  ASSERT_EQ(listener.messages.size(), 1u);
  EXPECT_EQ(listener.messages[0].first, a);
  EXPECT_EQ(static_cast<const TestPing&>(*listener.messages[0].second).tag(),
            7);
}

TEST(HyParView, SendAppToNonNeighborFails) {
  Overlay overlay(8, {});
  overlay.settle();
  const net::NodeId a = overlay.ids()[0];
  EXPECT_FALSE(overlay.node(a).send_app(a, net::make_message<TestPing>(0),
                                        net::TrafficClass::kData));
}

TEST(HyParView, ListenerSeesNeighborEvents) {
  sim::Simulator simulator(3);
  net::Network network(simulator,
                       std::make_unique<net::ClusterLatencyModel>());
  net::Transport transport(network);
  const net::NodeId a = network.add_host();
  const net::NodeId b = network.add_host();
  HyParView node_a(network, transport, a, {});
  HyParView node_b(network, transport, b, {});
  RecordingListener listener_a;
  node_a.set_listener(&listener_a);
  node_a.start();
  node_b.join(a);
  simulator.run_until(simulator.now() + sim::Duration::seconds(5));
  ASSERT_EQ(listener_a.ups.size(), 1u);
  EXPECT_EQ(listener_a.ups[0], b);
  network.kill(b);
  simulator.run_until(simulator.now() + sim::Duration::seconds(10));
  ASSERT_EQ(listener_a.downs.size(), 1u);
  EXPECT_EQ(listener_a.downs[0].first, b);
  EXPECT_EQ(listener_a.downs[0].second, NeighborLossReason::kFailed);
}

TEST(HyParView, CapacityComputation) {
  sim::Simulator simulator(3);
  net::Network network(simulator,
                       std::make_unique<net::ClusterLatencyModel>());
  net::Transport transport(network);
  HyParView::Config config;
  config.active_size = 4;
  config.expansion_factor = 2.0;
  HyParView node(network, transport, network.add_host(), config);
  EXPECT_EQ(node.capacity(), 8u);
  config.expansion_factor = 1.0;
  HyParView node2(network, transport, network.add_host(), config);
  EXPECT_EQ(node2.capacity(), 4u);
}

TEST(HyParView, ExpansionFactorOneKeepsViewsAtTarget) {
  HyParView::Config config;
  config.active_size = 4;
  config.expansion_factor = 1.0;
  Overlay overlay(48, config);
  overlay.settle(sim::Duration::seconds(60));
  for (const net::NodeId id : overlay.ids()) {
    EXPECT_LE(overlay.node(id).active_count(), 4u) << id;
  }
  EXPECT_EQ(overlay.reachable_count(), 48u);
}

// --- Parameterized connectivity sweep -----------------------------------------

struct SweepParam {
  std::size_t nodes;
  std::size_t view;
  std::uint64_t seed;
};

class HyParViewSweep : public ::testing::TestWithParam<SweepParam> {};

TEST_P(HyParViewSweep, OverlayConnectedAndBounded) {
  const SweepParam param = GetParam();
  HyParView::Config config;
  config.active_size = param.view;
  config.passive_size = param.view * 6;
  Overlay overlay(param.nodes, config, param.seed);
  overlay.settle(sim::Duration::seconds(60));
  EXPECT_EQ(overlay.reachable_count(), param.nodes);
  for (const net::NodeId id : overlay.ids()) {
    EXPECT_GE(overlay.node(id).active_count(), 1u);
    EXPECT_LE(overlay.node(id).active_count(), overlay.node(id).capacity());
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, HyParViewSweep,
    ::testing::Values(SweepParam{16, 3, 1}, SweepParam{32, 4, 2},
                      SweepParam{64, 4, 3}, SweepParam{64, 8, 4},
                      SweepParam{96, 5, 5}, SweepParam{128, 4, 6}),
    [](const ::testing::TestParamInfo<SweepParam>& info) {
      return "n" + std::to_string(info.param.nodes) + "_v" +
             std::to_string(info.param.view) + "_s" +
             std::to_string(info.param.seed);
    });

}  // namespace
}  // namespace brisa::membership
