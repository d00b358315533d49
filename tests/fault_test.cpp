// Fault-injection layer tests: FaultPlan rule semantics (windows, group
// matching, symmetry), Network/Transport interpretation (drops, partitions,
// retransmission masking, crash/recovery), the churn-DSL fault statements
// (round-trip and diagnostics), full-system fault scenarios, and the
// determinism golden check (same seed + scenario => byte-identical stats).
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "analysis/stats.h"
#include "net/fault.h"
#include "net/latency.h"
#include "net/message_pool.h"
#include "net/network.h"
#include "net/transport.h"
#include "workload/brisa_system.h"
#include "workload/churn.h"

namespace brisa {
namespace {

using net::FaultPlan;
using net::LinkVerdict;
using net::NodeGroup;
using net::NodeId;

sim::TimePoint at_s(double s) {
  return sim::TimePoint::origin() + sim::Duration::from_seconds(s);
}

class TestPayload final : public net::Message {
 public:
  explicit TestPayload(std::size_t bytes) : bytes_(bytes) {}
  [[nodiscard]] net::MessageKind kind() const override {
    return net::MessageKind::kTestPayload;
  }
  [[nodiscard]] std::size_t wire_size() const override { return bytes_; }

 private:
  std::size_t bytes_;
};

// --- FaultPlan rule semantics ------------------------------------------------

TEST(FaultPlan, LossAppliesOnlyInsideWindow) {
  FaultPlan plan;
  plan.add_loss({at_s(10), at_s(20), 1.0, NodeGroup::all(), NodeGroup::all()});
  sim::CounterRng rng(1);
  EXPECT_EQ(plan.link_verdict(at_s(5), NodeId(0), NodeId(1), rng),
            LinkVerdict::kDeliver);
  EXPECT_EQ(plan.link_verdict(at_s(10), NodeId(0), NodeId(1), rng),
            LinkVerdict::kDrop);
  EXPECT_EQ(plan.link_verdict(at_s(19.999), NodeId(0), NodeId(1), rng),
            LinkVerdict::kDrop);
  // Half-open window: inactive at its end point.
  EXPECT_EQ(plan.link_verdict(at_s(20), NodeId(0), NodeId(1), rng),
            LinkVerdict::kDeliver);
}

TEST(FaultPlan, LossRestrictedToGroups) {
  FaultPlan plan;
  plan.add_loss({at_s(0), at_s(100), 1.0, NodeGroup::range(0, 3),
                 NodeGroup::range(4, 7)});
  sim::CounterRng rng(1);
  // Crossing links drop in both directions; intra-group links are clean.
  EXPECT_EQ(plan.link_verdict(at_s(1), NodeId(0), NodeId(5), rng),
            LinkVerdict::kDrop);
  EXPECT_EQ(plan.link_verdict(at_s(1), NodeId(5), NodeId(0), rng),
            LinkVerdict::kDrop);
  EXPECT_EQ(plan.link_verdict(at_s(1), NodeId(0), NodeId(1), rng),
            LinkVerdict::kDeliver);
  EXPECT_EQ(plan.link_verdict(at_s(1), NodeId(5), NodeId(6), rng),
            LinkVerdict::kDeliver);
  EXPECT_EQ(plan.link_verdict(at_s(1), NodeId(0), NodeId(9), rng),
            LinkVerdict::kDeliver);
}

TEST(FaultPlan, PartitionIsSymmetricAndWindowed) {
  FaultPlan plan;
  plan.add_partition({at_s(10), at_s(30), NodeGroup::range(0, 1),
                      NodeGroup::range(2, 3)});
  sim::CounterRng rng(1);
  EXPECT_TRUE(plan.partitioned(at_s(10), NodeId(0), NodeId(2)));
  EXPECT_TRUE(plan.partitioned(at_s(10), NodeId(2), NodeId(0)));
  EXPECT_FALSE(plan.partitioned(at_s(10), NodeId(0), NodeId(1)));
  EXPECT_FALSE(plan.partitioned(at_s(9.999), NodeId(0), NodeId(2)));
  EXPECT_FALSE(plan.partitioned(at_s(30), NodeId(0), NodeId(2)));
  EXPECT_EQ(plan.link_verdict(at_s(15), NodeId(1), NodeId(3), rng),
            LinkVerdict::kBlackhole);
}

TEST(FaultPlan, SlowFactorsCompound) {
  FaultPlan plan;
  plan.add_slow({at_s(0), at_s(10), 2.0, NodeGroup::all(), NodeGroup::all()});
  plan.add_slow({at_s(5), at_s(10), 3.0, NodeGroup::single(0),
                 NodeGroup::all()});
  EXPECT_DOUBLE_EQ(plan.latency_factor(at_s(1), NodeId(0), NodeId(1)), 2.0);
  EXPECT_DOUBLE_EQ(plan.latency_factor(at_s(6), NodeId(0), NodeId(1)), 6.0);
  EXPECT_DOUBLE_EQ(plan.latency_factor(at_s(6), NodeId(1), NodeId(2)), 2.0);
  EXPECT_DOUBLE_EQ(plan.latency_factor(at_s(11), NodeId(0), NodeId(1)), 1.0);
}

TEST(FaultPlan, ShiftedRebasesEveryRule) {
  FaultPlan plan;
  plan.add_loss({at_s(1), at_s(2), 0.5, NodeGroup::all(), NodeGroup::all()});
  plan.add_partition({at_s(3), at_s(4), NodeGroup::single(0),
                      NodeGroup::single(1)});
  plan.add_slow({at_s(5), at_s(6), 2.0, NodeGroup::all(), NodeGroup::all()});
  plan.add_crash({at_s(7), 2, sim::Duration::seconds(1)});
  const FaultPlan shifted = plan.shifted(sim::Duration::seconds(100));
  EXPECT_EQ(shifted.losses()[0].from, at_s(101));
  EXPECT_EQ(shifted.losses()[0].to, at_s(102));
  EXPECT_EQ(shifted.partitions()[0].from, at_s(103));
  EXPECT_EQ(shifted.slows()[0].to, at_s(106));
  EXPECT_EQ(shifted.crashes()[0].at, at_s(107));
  EXPECT_EQ(shifted.crashes()[0].duration, sim::Duration::seconds(1));
}

// --- Network interpretation --------------------------------------------------

class Collector : public net::Network::DatagramHandler {
 public:
  void on_datagram(NodeId from, net::MessagePtr message) override {
    static_cast<void>(from);
    static_cast<void>(message);
    ++received;
  }
  std::size_t received = 0;
};

struct FaultNetworkFixture : public ::testing::Test {
  FaultNetworkFixture()
      : simulator(7),
        network(simulator, std::make_unique<net::ClusterLatencyModel>()),
        a(network.add_host()),
        b(network.add_host()) {
    network.bind_datagram_handler(a, &ca);
    network.bind_datagram_handler(b, &cb);
  }

  void send_ab(std::size_t bytes = 100) {
    network.send_datagram(a, b, net::make_message<TestPayload>(bytes),
                          net::TrafficClass::kData);
  }

  sim::Simulator simulator;
  net::Network network;
  NodeId a, b;
  Collector ca, cb;
};

TEST_F(FaultNetworkFixture, CertainLossDropsDatagramsAndCounts) {
  FaultPlan plan;
  plan.add_loss({at_s(0), at_s(100), 1.0, NodeGroup::all(), NodeGroup::all()});
  network.install_fault_plan(&plan);
  send_ab();
  simulator.run();
  EXPECT_EQ(cb.received, 0u);
  EXPECT_EQ(network.fault_totals().datagrams_dropped, 1u);
  const auto tc = static_cast<std::size_t>(net::TrafficClass::kData);
  EXPECT_EQ(network.stats(a).dropped_messages[tc], 1u);
  // The packet left the sender: upload is still charged.
  EXPECT_EQ(network.stats(a).up_messages[tc], 1u);
  EXPECT_EQ(network.stats(b).down_messages[tc], 0u);
}

TEST_F(FaultNetworkFixture, LossWindowBoundsAreRespected) {
  FaultPlan plan;
  plan.add_loss({at_s(1), at_s(2), 1.0, NodeGroup::all(), NodeGroup::all()});
  network.install_fault_plan(&plan);
  send_ab();  // before the window
  simulator.run_until(at_s(1.5));
  send_ab();  // inside the window
  simulator.run_until(at_s(3));
  send_ab();  // after the window
  simulator.run();
  EXPECT_EQ(cb.received, 2u);
  EXPECT_EQ(network.fault_totals().datagrams_dropped, 1u);
}

TEST_F(FaultNetworkFixture, PartitionBlackholesBothDirections) {
  FaultPlan plan;
  plan.add_partition({at_s(0), at_s(100), NodeGroup::single(a.index()),
                      NodeGroup::single(b.index())});
  network.install_fault_plan(&plan);
  send_ab();
  network.send_datagram(b, a, net::make_message<TestPayload>(100),
                        net::TrafficClass::kData);
  simulator.run();
  EXPECT_EQ(ca.received, 0u);
  EXPECT_EQ(cb.received, 0u);
  EXPECT_EQ(network.fault_totals().datagrams_blackholed, 2u);
  EXPECT_EQ(network.stats(a).total_blackholed(), 1u);
  EXPECT_EQ(network.stats(b).total_blackholed(), 1u);
}

TEST_F(FaultNetworkFixture, SlowStretchesDatagramLatency) {
  // Two identically seeded networks; the slowed one must deliver later.
  sim::Simulator sim2(7);
  net::Network network2(sim2, std::make_unique<net::ClusterLatencyModel>());
  const NodeId a2 = network2.add_host();
  const NodeId b2 = network2.add_host();
  Collector cb2;
  network2.bind_datagram_handler(b2, &cb2);
  FaultPlan plan;
  plan.add_slow({at_s(0), at_s(100), 10.0, NodeGroup::all(),
                 NodeGroup::all()});
  network2.install_fault_plan(&plan);

  send_ab();
  simulator.run();
  network2.send_datagram(a2, b2, net::make_message<TestPayload>(100),
                         net::TrafficClass::kData);
  sim2.run();
  EXPECT_EQ(cb.received, 1u);
  EXPECT_EQ(cb2.received, 1u);
  EXPECT_GT(sim2.now() - sim::TimePoint::origin(),
            simulator.now() - sim::TimePoint::origin());
}

TEST_F(FaultNetworkFixture, SuspendedHostNeitherSendsNorReceives) {
  network.suspend(b);
  EXPECT_TRUE(network.alive(b));
  EXPECT_FALSE(network.responsive(b));
  send_ab();
  simulator.run();
  EXPECT_EQ(cb.received, 0u);
  EXPECT_EQ(network.fault_totals().rx_suppressed, 1u);

  network.send_datagram(b, a, net::make_message<TestPayload>(100),
                        net::TrafficClass::kData);
  simulator.run();
  EXPECT_EQ(ca.received, 0u);
  const auto tc = static_cast<std::size_t>(net::TrafficClass::kData);
  EXPECT_EQ(network.stats(b).blackholed_messages[tc], 1u);
  // Frozen sender: nothing was transmitted, so no upload charge.
  EXPECT_EQ(network.stats(b).up_messages[tc], 0u);

  network.resume(b);
  EXPECT_TRUE(network.responsive(b));
  send_ab();
  simulator.run();
  EXPECT_EQ(cb.received, 1u);
  EXPECT_EQ(network.fault_totals().suspends, 1u);
  EXPECT_EQ(network.fault_totals().resumes, 1u);
}

TEST_F(FaultNetworkFixture, KillWhileSuspendedStaysDead) {
  network.suspend(b);
  network.kill(b);
  EXPECT_FALSE(network.alive(b));
  network.resume(b);  // resurrection is not a thing
  EXPECT_FALSE(network.alive(b));
  EXPECT_FALSE(network.responsive(b));
}

// --- Transport interpretation ------------------------------------------------

class RecordingHandler : public net::TransportHandler {
 public:
  void on_connection_up(net::ConnectionId, NodeId, bool) override { ++ups; }
  void on_connection_down(net::ConnectionId, NodeId,
                          net::CloseReason reason) override {
    ++downs;
    last_reason = reason;
  }
  void on_message(net::ConnectionId, NodeId, net::MessagePtr) override {
    ++messages;
  }

  std::size_t ups = 0;
  std::size_t downs = 0;
  std::size_t messages = 0;
  net::CloseReason last_reason = net::CloseReason::kLocalClose;
};

struct FaultTransportFixture : public ::testing::Test {
  FaultTransportFixture()
      : simulator(11),
        network(simulator, std::make_unique<net::ClusterLatencyModel>()),
        transport(network),
        a(network.add_host()),
        b(network.add_host()) {
    transport.bind(a, &ha);
    transport.bind(b, &hb);
  }

  net::ConnectionId establish() {
    const net::ConnectionId conn = transport.connect(a, b);
    simulator.run();
    EXPECT_TRUE(transport.established(conn));
    return conn;
  }

  sim::Simulator simulator;
  net::Network network;
  net::Transport transport;
  NodeId a, b;
  RecordingHandler ha, hb;
};

TEST_F(FaultTransportFixture, LossBecomesRetransmissionDelayNotLoss) {
  const net::ConnectionId conn = establish();
  FaultPlan plan;
  plan.add_loss({at_s(0), at_s(1000), 0.3, NodeGroup::all(),
                 NodeGroup::all()});
  network.install_fault_plan(&plan);
  const std::size_t kMessages = 50;
  for (std::size_t i = 0; i < kMessages; ++i) {
    simulator.after(sim::Duration::milliseconds(100 * (i + 1)),
                    [this, conn]() {
                      transport.send(conn, a,
                                     net::make_message<TestPayload>(200),
                                     net::TrafficClass::kData);
                    });
  }
  simulator.run();
  // Reliable transport: every message still arrives, the loss shows up as
  // retransmissions (and their bandwidth), not as missing deliveries.
  EXPECT_EQ(hb.messages, kMessages);
  EXPECT_GT(network.fault_totals().retransmissions, 0u);
  EXPECT_GT(network.fault_totals().segments_dropped, 0u);
  EXPECT_EQ(network.fault_totals().segments_blackholed, 0u);
  EXPECT_TRUE(transport.established(conn));
}

TEST_F(FaultTransportFixture, PartitionBreaksConnectionOnFirstUse) {
  const net::ConnectionId conn = establish();
  FaultPlan plan;
  plan.add_partition({at_s(0), at_s(1000), NodeGroup::single(a.index()),
                      NodeGroup::single(b.index())});
  network.install_fault_plan(&plan);
  EXPECT_TRUE(transport.send(conn, a, net::make_message<TestPayload>(100),
                             net::TrafficClass::kData));
  simulator.run();
  EXPECT_EQ(hb.messages, 0u);
  EXPECT_FALSE(transport.established(conn));
  EXPECT_EQ(ha.downs, 1u);
  EXPECT_EQ(hb.downs, 1u);
  EXPECT_EQ(ha.last_reason, net::CloseReason::kPeerFailure);
  EXPECT_EQ(hb.last_reason, net::CloseReason::kPeerFailure);
}

TEST_F(FaultTransportFixture, ConnectAcrossPartitionIsRefused) {
  FaultPlan plan;
  plan.add_partition({at_s(0), at_s(1000), NodeGroup::single(a.index()),
                      NodeGroup::single(b.index())});
  network.install_fault_plan(&plan);
  transport.connect(a, b);
  simulator.run();
  EXPECT_EQ(ha.ups, 0u);
  EXPECT_EQ(hb.ups, 0u);
  EXPECT_EQ(ha.downs, 1u);
  EXPECT_EQ(ha.last_reason, net::CloseReason::kRefused);
  EXPECT_EQ(transport.open_connections(), 0u);
}

TEST_F(FaultTransportFixture, CrashSeversConnectionsAndResumeNotifies) {
  establish();
  network.suspend(b);
  simulator.run();
  // The live side detects the frozen peer after its detection delay.
  EXPECT_EQ(ha.downs, 1u);
  EXPECT_EQ(ha.last_reason, net::CloseReason::kPeerFailure);
  // The frozen side hears nothing while down...
  EXPECT_EQ(hb.downs, 0u);
  network.resume(b);
  simulator.run();
  // ...and finds its sockets dead when it wakes.
  EXPECT_EQ(hb.downs, 1u);
  EXPECT_EQ(hb.last_reason, net::CloseReason::kPeerFailure);
  EXPECT_EQ(transport.open_connections(), 0u);
}

TEST_F(FaultTransportFixture, ConnectToSuspendedHostIsRefused) {
  network.suspend(b);
  transport.connect(a, b);
  simulator.run();
  EXPECT_EQ(ha.ups, 0u);
  EXPECT_EQ(ha.downs, 1u);
  EXPECT_EQ(ha.last_reason, net::CloseReason::kRefused);
}

// --- DSL parsing -------------------------------------------------------------

TEST(FaultDsl, ParsesEveryStatementKind) {
  const workload::ChurnScript script = workload::ChurnScript::parse(
      "from 10 s to 20 s drop 5% between 0-15 and 16-31\n"
      "from 0 s to 60 s drop 1%\n"
      "at 30 s partition 0-7 from all for 15 s\n"
      "at 45 s crash 4 for 20 s\n"
      "from 5 s to 25 s slow 3x between 2 and all\n"
      "at 100 s stop\n");
  const FaultPlan& plan = script.fault_plan();
  ASSERT_EQ(plan.losses().size(), 2u);
  EXPECT_EQ(plan.losses()[0].from, at_s(10));
  EXPECT_EQ(plan.losses()[0].to, at_s(20));
  EXPECT_DOUBLE_EQ(plan.losses()[0].probability, 0.05);
  EXPECT_EQ(plan.losses()[0].a, NodeGroup::range(0, 15));
  EXPECT_EQ(plan.losses()[0].b, NodeGroup::range(16, 31));
  EXPECT_EQ(plan.losses()[1].a, NodeGroup::all());
  ASSERT_EQ(plan.partitions().size(), 1u);
  EXPECT_EQ(plan.partitions()[0].a, NodeGroup::range(0, 7));
  EXPECT_EQ(plan.partitions()[0].b, NodeGroup::all());
  EXPECT_EQ(plan.partitions()[0].from, at_s(30));
  EXPECT_EQ(plan.partitions()[0].to, at_s(45));
  ASSERT_EQ(plan.crashes().size(), 1u);
  EXPECT_EQ(plan.crashes()[0].at, at_s(45));
  EXPECT_EQ(plan.crashes()[0].count, 4u);
  EXPECT_EQ(plan.crashes()[0].duration, sim::Duration::seconds(20));
  ASSERT_EQ(plan.slows().size(), 1u);
  EXPECT_DOUBLE_EQ(plan.slows()[0].factor, 3.0);
  EXPECT_EQ(plan.slows()[0].a, NodeGroup::single(2));
  // Churn statements coexist.
  EXPECT_EQ(script.stop_time(), at_s(100));
}

TEST(FaultDsl, RoundTripsThroughCanonicalForm) {
  const workload::ChurnScript script = workload::ChurnScript::parse(
      "from 1.5 s to 20 s drop 12.5% between 0-15 and 16-31\n"
      "at 30 s partition 0-7 from 8-63 for 15 s\n"
      "at 45 s crash 4 for 20 s\n"
      "from 5 s to 25 s slow 2x\n");
  const std::string rendered = workload::to_dsl(script.fault_plan());
  const workload::ChurnScript reparsed = workload::ChurnScript::parse(rendered);
  EXPECT_EQ(script.fault_plan(), reparsed.fault_plan());
  // Canonical form is a fixed point.
  EXPECT_EQ(rendered, workload::to_dsl(reparsed.fault_plan()));
}

TEST(FaultDsl, ParsesDutyStatement) {
  const workload::ChurnScript script = workload::ChurnScript::parse(
      "from 5 s to 65 s duty 0-31 up 10 s down 2.5 s\n"
      "from 0 s to 30 s duty all up 4 s down 1 s\n");
  const FaultPlan& plan = script.fault_plan();
  ASSERT_EQ(plan.duties().size(), 2u);
  EXPECT_EQ(plan.duties()[0].group, NodeGroup::range(0, 31));
  EXPECT_EQ(plan.duties()[0].from, at_s(5));
  EXPECT_EQ(plan.duties()[0].to, at_s(65));
  EXPECT_EQ(plan.duties()[0].up, sim::Duration::seconds(10));
  EXPECT_EQ(plan.duties()[0].down, sim::Duration::from_seconds(2.5));
  EXPECT_EQ(plan.duties()[1].group, NodeGroup::all());
  EXPECT_FALSE(plan.empty());
}

TEST(FaultDsl, DutyRoundTripsThroughCanonicalForm) {
  const workload::ChurnScript script = workload::ChurnScript::parse(
      "from 1.5 s to 20 s duty 0-15 up 3 s down 0.5 s\n"
      "from 0 s to 60 s duty all up 30 s down 10 s\n"
      "at 45 s crash 4 for 20 s\n");
  const std::string rendered = workload::to_dsl(script.fault_plan());
  const workload::ChurnScript reparsed = workload::ChurnScript::parse(rendered);
  EXPECT_EQ(script.fault_plan(), reparsed.fault_plan());
  // Canonical form is a fixed point.
  EXPECT_EQ(rendered, workload::to_dsl(reparsed.fault_plan()));
}

TEST(FaultDsl, MalformedDutyDiagnosesWithLineNumbers) {
  const std::vector<std::pair<std::string, std::string>> cases = {
      {"from 1 s to 2 s duty all up 3 s\n", "duty <group> up"},
      {"from 1 s to 2 s duty all down 3 s up 2 s\n", "duty <group> up"},
      {"from 1 s to 2 s duty all up 3 s down 2 s extra\n", "duty <group> up"},
      {"from 1 s to 2 s duty all up 3 x down 2 s\n", "duty <group> up"},
      {"from 1 s to 2 s duty all up 0 s down 2 s\n", "positive"},
      {"from 1 s to 2 s duty all up 3 s down -1 s\n", "positive"},
      {"from 1 s to 2 s duty 7-3 up 3 s down 2 s\n", "range ends"},
      {"from 1 s to 2 s duty all up x s down 2 s\n", "number"},
  };
  for (const auto& [text, needle] : cases) {
    std::string diagnostic;
    const auto script = workload::ChurnScript::try_parse(text, &diagnostic);
    EXPECT_FALSE(script.has_value()) << text;
    EXPECT_NE(diagnostic.find("line 1"), std::string::npos)
        << text << " -> " << diagnostic;
    EXPECT_NE(diagnostic.find(needle), std::string::npos)
        << text << " -> " << diagnostic;
  }
  // Line numbers count from the top of the script.
  std::string diagnostic;
  const auto script = workload::ChurnScript::try_parse(
      "at 10 s stop\n# ok\nfrom 1 s to 2 s duty all up 0 s down 2 s\n",
      &diagnostic);
  EXPECT_FALSE(script.has_value());
  EXPECT_NE(diagnostic.find("line 3"), std::string::npos) << diagnostic;
}

TEST(FaultDsl, MalformedStatementsDiagnoseWithLineNumbers) {
  // One malformed example per statement kind; each must produce a
  // line-numbered diagnostic, never an abort.
  const std::vector<std::pair<std::string, std::string>> cases = {
      {"from 1 s to 2 s join -5\n", "non-negative"},
      {"from 1 s to 2 s join\n", "join"},
      {"from 2 s to 1 s join 5\n", "interval"},
      {"from 1 s to 2 s const churn 150% each 0 s\n", "positive"},
      {"at 1 s set replacement ratio to x%\n", "number"},
      {"at 1 s wiggle\n", "unknown instant action"},
      {"from 1 s to 2 s wobble 5\n", "unknown interval action"},
      {"nonsense statement\n", "unknown statement"},
      {"from 1 s to 2 s drop 150%\n", "within [0%, 100%]"},
      {"from 1 s to 2 s drop -3%\n", "within [0%, 100%]"},
      {"from 1 s to 2 s drop 5% between 0-15\n", "between"},
      {"from 1 s to 2 s drop 5% between 7-3 and all\n", "range ends"},
      {"at 1 s partition 0-7 from 8-15\n", "partition"},
      {"at 1 s partition 0-7 from 8-15 for -2 s\n", "positive"},
      {"at 1 s crash 0 for 5 s\n", "crash count"},
      {"at 1 s crash 3 for 0 s\n", "positive"},
      {"at 1 s crash 2.5 for 5 s\n", "integer"},
      {"from 1 s to 2 s slow 0.5x\n", ">= 1"},
      {"from 1 s to 2 s slow fast\n", "slow"},
      {"from 1 s to 1e999 s drop 5%\n", "out of range"},
  };
  for (const auto& [text, needle] : cases) {
    std::string diagnostic;
    const auto script = workload::ChurnScript::try_parse(text, &diagnostic);
    EXPECT_FALSE(script.has_value()) << text;
    EXPECT_NE(diagnostic.find("line 1"), std::string::npos)
        << text << " -> " << diagnostic;
    EXPECT_NE(diagnostic.find(needle), std::string::npos)
        << text << " -> " << diagnostic;
  }
  // Line numbers count from the top of the script.
  std::string diagnostic;
  const auto script = workload::ChurnScript::try_parse(
      "at 10 s stop\n\n# comment\nat 1 s crash 0 for 5 s\n", &diagnostic);
  EXPECT_FALSE(script.has_value());
  EXPECT_NE(diagnostic.find("line 4"), std::string::npos) << diagnostic;
}

// --- Full-system scenarios ---------------------------------------------------

workload::BrisaSystem::Config small_system_config(std::uint64_t seed,
                                                  std::size_t nodes) {
  workload::BrisaSystem::Config config;
  config.seed = seed;
  config.num_nodes = nodes;
  config.join_spread = sim::Duration::seconds(10);
  config.stabilization = sim::Duration::seconds(25);
  return config;
}

TEST(FaultScenario, CrashedNodesMissTrafficAndRecover) {
  workload::BrisaSystem system(small_system_config(5, 48));
  system.bootstrap();

  workload::ChurnHooks hooks = system.churn_hooks();
  std::vector<NodeId> victims;
  const auto inner_suspend = hooks.suspend;
  hooks.suspend = [&victims, &inner_suspend](NodeId id) {
    victims.push_back(id);
    inner_suspend(id);
  };
  workload::ChurnDriver driver(
      system.simulator(),
      workload::ChurnScript::parse("at 2 s crash 5 for 10 s\nat 60 s stop\n"),
      hooks);
  driver.arm();

  system.run_stream(60, 5.0, 256, sim::Duration::seconds(40));
  EXPECT_EQ(driver.counters().crashes, 5u);
  EXPECT_EQ(driver.counters().recoveries, 5u);
  ASSERT_EQ(victims.size(), 5u);
  // Crashed nodes really were cut off...
  const net::Network::FaultTotals& totals = system.network().fault_totals();
  EXPECT_GT(totals.rx_suppressed + totals.segments_blackholed +
                totals.datagrams_blackholed,
            0u);
  // ...and are responsive again.
  for (const NodeId victim : victims) {
    EXPECT_TRUE(system.network().responsive(victim)) << victim;
  }
  // Members that never crashed got the whole stream despite repairs around
  // the frozen nodes.
  for (const NodeId id : system.member_ids()) {
    if (std::find(victims.begin(), victims.end(), id) != victims.end()) {
      continue;
    }
    EXPECT_EQ(system.brisa(id).stats().delivery_time.size(), 60u) << id;
  }
  // Recovered nodes rejoin the stream: a fresh burst reaches them too.
  std::vector<std::size_t> before;
  before.reserve(victims.size());
  for (const NodeId victim : victims) {
    before.push_back(system.brisa(victim).stats().delivery_time.size());
  }
  system.run_stream(20, 5.0, 256, sim::Duration::seconds(30));
  for (std::size_t i = 0; i < victims.size(); ++i) {
    EXPECT_GE(system.brisa(victims[i]).stats().delivery_time.size(),
              before[i] + 20)
        << victims[i];
  }
}

TEST(FaultScenario, HealedPartitionRestoresDelivery) {
  // Partition two minority groups from each other (the majority stays
  // connected to both), stream through it, heal, and require full recovery.
  workload::BrisaSystem system(small_system_config(7, 64));
  system.bootstrap();
  workload::ChurnDriver driver(
      system.simulator(),
      workload::ChurnScript::parse(
          "at 1 s partition 0-7 from 8-15 for 10 s\nat 60 s stop\n"),
      system.churn_hooks());
  driver.arm();
  system.run_stream(60, 5.0, 256, sim::Duration::seconds(40));
  EXPECT_TRUE(system.complete_delivery());
}

// --- Determinism golden ------------------------------------------------------

struct RunDigest {
  sim::Simulator::Stats sim_stats;
  net::Network::FaultTotals fault_totals;
  std::uint64_t network_messages = 0;
  net::BandwidthStats bandwidth;  ///< summed over all hosts

  bool operator==(const RunDigest&) const = default;
};

RunDigest run_faulted_scenario(std::uint64_t seed) {
  workload::BrisaSystem system(small_system_config(seed, 48));
  system.bootstrap();
  workload::ChurnDriver driver(
      system.simulator(),
      workload::ChurnScript::parse("from 0 s to 30 s drop 10%\n"
                                   "at 5 s partition 0-7 from 8-47 for 5 s\n"
                                   "at 12 s crash 3 for 5 s\n"
                                   "from 10 s to 20 s slow 2x\n"
                                   "at 40 s stop\n"),
      system.churn_hooks());
  driver.arm();
  system.run_stream(50, 5.0, 256, sim::Duration::seconds(25));

  RunDigest digest;
  digest.sim_stats = system.simulator().stats();
  digest.fault_totals = system.network().fault_totals();
  digest.network_messages = system.network().messages_sent();
  for (std::size_t i = 0; i < system.network().host_count(); ++i) {
    const net::BandwidthStats& stats =
        system.network().stats(NodeId(static_cast<std::uint32_t>(i)));
    for (std::size_t tc = 0; tc < net::kTrafficClassCount; ++tc) {
      digest.bandwidth.up_bytes[tc] += stats.up_bytes[tc];
      digest.bandwidth.down_bytes[tc] += stats.down_bytes[tc];
      digest.bandwidth.up_messages[tc] += stats.up_messages[tc];
      digest.bandwidth.down_messages[tc] += stats.down_messages[tc];
      digest.bandwidth.dropped_messages[tc] += stats.dropped_messages[tc];
      digest.bandwidth.blackholed_messages[tc] +=
          stats.blackholed_messages[tc];
    }
  }
  return digest;
}

TEST(FaultDeterminism, IdenticalSeedReproducesIdenticalStats) {
  const RunDigest first = run_faulted_scenario(42);
  const RunDigest second = run_faulted_scenario(42);
  EXPECT_EQ(first.sim_stats, second.sim_stats);
  EXPECT_EQ(first.fault_totals, second.fault_totals);
  EXPECT_EQ(first.network_messages, second.network_messages);
  EXPECT_EQ(first.bandwidth, second.bandwidth);
  // The scenario actually exercised the fault layer.
  EXPECT_GT(first.fault_totals.datagrams_dropped +
                first.fault_totals.segments_dropped,
            0u);
  EXPECT_EQ(first.fault_totals.suspends, 3u);
  EXPECT_EQ(first.fault_totals.resumes, 3u);
}

TEST(FaultDeterminism, DifferentSeedsDiverge) {
  const RunDigest first = run_faulted_scenario(42);
  const RunDigest other = run_faulted_scenario(43);
  EXPECT_FALSE(first == other);
}

// Duty-cycle golden: a 1k-node run with phase-staggered up/down cycles must
// reproduce byte-identical stats for the same seed (the per-node phase
// draws, suspend/resume ordering, and crashed_-guard interactions are all
// on the deterministic path).
struct DutyDigest {
  RunDigest run;
  workload::ChurnDriver::Counters counters;
};

DutyDigest run_duty_scenario(std::uint64_t seed) {
  workload::BrisaSystem system(small_system_config(seed, 1000));
  system.bootstrap();
  workload::ChurnDriver driver(
      system.simulator(),
      workload::ChurnScript::parse(
          "from 2 s to 20 s duty 0-99 up 3 s down 2 s\nat 40 s stop\n"),
      system.churn_hooks());
  driver.arm();
  system.run_stream(30, 5.0, 256, sim::Duration::seconds(20));

  DutyDigest digest;
  digest.run.sim_stats = system.simulator().stats();
  digest.run.fault_totals = system.network().fault_totals();
  digest.run.network_messages = system.network().messages_sent();
  digest.counters = driver.counters();
  return digest;
}

TEST(FaultDeterminism, DutyCycledThousandNodeRunReproduces) {
  const DutyDigest first = run_duty_scenario(11);
  const DutyDigest second = run_duty_scenario(11);
  EXPECT_EQ(first.run.sim_stats, second.run.sim_stats);
  EXPECT_EQ(first.run.fault_totals, second.run.fault_totals);
  EXPECT_EQ(first.run.network_messages, second.run.network_messages);
  EXPECT_EQ(first.counters.crashes, second.counters.crashes);
  EXPECT_EQ(first.counters.recoveries, second.counters.recoveries);
  // The cycle actually ran: ~100 nodes x ~3-4 outages each, and every
  // outage that started also recovered (no node left suspended).
  EXPECT_GT(first.counters.crashes, 100u);
  EXPECT_EQ(first.counters.crashes, first.counters.recoveries);
  EXPECT_EQ(first.run.fault_totals.suspends, first.counters.crashes);
  EXPECT_EQ(first.run.fault_totals.resumes, first.counters.recoveries);
}

// --- analysis::fault_counter_rows -------------------------------------------

TEST(FaultAnalysis, CounterRowsSurfaceFaultActivity) {
  sim::Simulator simulator(3);
  net::Network network(simulator,
                       std::make_unique<net::ClusterLatencyModel>());
  const NodeId a = network.add_host();
  const NodeId b = network.add_host();
  FaultPlan plan;
  plan.add_loss({at_s(0), at_s(100), 1.0, NodeGroup::all(), NodeGroup::all()});
  network.install_fault_plan(&plan);
  network.send_datagram(a, b, net::make_message<TestPayload>(64),
                        net::TrafficClass::kControl);
  simulator.run();
  const std::vector<analysis::CounterRow> rows =
      analysis::fault_counter_rows(network);
  auto value_of = [&rows](const std::string& label) -> std::uint64_t {
    for (const analysis::CounterRow& row : rows) {
      if (row.label == label) return row.value;
    }
    ADD_FAILURE() << "missing row " << label;
    return 0;
  };
  EXPECT_EQ(value_of("datagrams_dropped"), 1u);
  EXPECT_EQ(value_of("dropped_control"), 1u);
  EXPECT_EQ(value_of("dropped_data"), 0u);
  EXPECT_EQ(value_of("suspends"), 0u);
}

}  // namespace
}  // namespace brisa
