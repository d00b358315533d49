// Unit tests for the network substrate: latency models, NIC serialization,
// bandwidth accounting, datagrams, and the reliable transport (connection
// lifecycle, FIFO delivery, failure detection), and the per-stream
// delivery log every protocol records into.
#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <map>
#include <vector>

#include "net/delivery_log.h"
#include "net/latency.h"
#include "net/message.h"
#include "net/message_pool.h"
#include "net/network.h"
#include "net/transport.h"
#include "sim/simulator.h"

namespace brisa::net {
namespace {

class TestPayload final : public Message {
 public:
  explicit TestPayload(std::size_t bytes, int tag = 0)
      : bytes_(bytes), tag_(tag) {}
  [[nodiscard]] MessageKind kind() const override {
    return MessageKind::kTestPayload;
  }
  [[nodiscard]] std::size_t wire_size() const override { return bytes_; }
  [[nodiscard]] int tag() const { return tag_; }

 private:
  std::size_t bytes_;
  int tag_;
};

// --- Latency models -----------------------------------------------------------

TEST(LatencyModels, ClusterBaseIsUniform) {
  ClusterLatencyModel model;
  const NodeId a(0), b(1), c(2);
  EXPECT_EQ(model.base(a, b), model.base(b, c));
  EXPECT_GT(model.base(a, b), sim::Duration::zero());
  EXPECT_LT(model.base(a, b), sim::Duration::milliseconds(2));
}

TEST(LatencyModels, ClusterSampleAddsNonNegativeJitter) {
  ClusterLatencyModel model;
  sim::CounterRng rng(1);
  for (int i = 0; i < 1000; ++i) {
    const sim::Duration sample = model.sample(NodeId(0), NodeId(1), rng);
    EXPECT_GE(sample, model.base(NodeId(0), NodeId(1)));
  }
}

TEST(LatencyModels, PlanetLabBaseIsDeterministicAndSymmetric) {
  PlanetLabLatencyModel model;
  const NodeId a(3), b(77);
  EXPECT_EQ(model.base(a, b), model.base(a, b));
  EXPECT_EQ(model.base(a, b), model.base(b, a));
}

TEST(LatencyModels, PlanetLabHasWideSpread) {
  PlanetLabLatencyModel model;
  std::vector<double> ms;
  for (std::uint32_t i = 0; i < 60; ++i) {
    for (std::uint32_t j = i + 1; j < 60; ++j) {
      ms.push_back(model.base(NodeId(i), NodeId(j)).to_milliseconds());
    }
  }
  const auto [min_it, max_it] = std::minmax_element(ms.begin(), ms.end());
  EXPECT_LT(*min_it, 30.0);   // some nearby pairs
  EXPECT_GT(*max_it, 100.0);  // some far / slow-access pairs
}

TEST(LatencyModels, PlanetLabSlowerThanClusterOnAverage) {
  ClusterLatencyModel cluster;
  PlanetLabLatencyModel planetlab;
  double cluster_total = 0, pl_total = 0;
  int pairs = 0;
  for (std::uint32_t i = 0; i < 20; ++i) {
    for (std::uint32_t j = i + 1; j < 20; ++j) {
      cluster_total += cluster.base(NodeId(i), NodeId(j)).to_milliseconds();
      pl_total += planetlab.base(NodeId(i), NodeId(j)).to_milliseconds();
      ++pairs;
    }
  }
  EXPECT_GT(pl_total / pairs, 20 * cluster_total / pairs);
}

// --- Network ------------------------------------------------------------------

struct NetworkFixture : public ::testing::Test {
  NetworkFixture()
      : simulator(7),
        network(simulator, std::make_unique<ClusterLatencyModel>()) {}

  sim::Simulator simulator;
  Network network;
};

TEST_F(NetworkFixture, HostLifecycle) {
  const NodeId a = network.add_host();
  const NodeId b = network.add_host();
  EXPECT_TRUE(network.alive(a));
  EXPECT_TRUE(network.alive(b));
  EXPECT_EQ(network.alive_count(), 2u);
  network.kill(a);
  EXPECT_FALSE(network.alive(a));
  EXPECT_EQ(network.alive_count(), 1u);
  EXPECT_EQ(network.alive_hosts().size(), 1u);
  EXPECT_EQ(network.alive_hosts()[0], b);
  network.kill(a);  // double kill is a no-op
  EXPECT_EQ(network.alive_count(), 1u);
  EXPECT_FALSE(network.alive(NodeId::invalid()));
  EXPECT_FALSE(network.alive(NodeId(999)));
}

class Collector : public Network::DatagramHandler {
 public:
  void on_datagram(NodeId from, MessagePtr message) override {
    received.emplace_back(from, std::move(message));
  }
  std::vector<std::pair<NodeId, MessagePtr>> received;
};

TEST_F(NetworkFixture, DatagramDelivery) {
  const NodeId a = network.add_host();
  const NodeId b = network.add_host();
  Collector collector;
  network.bind_datagram_handler(b, &collector);
  network.send_datagram(a, b, make_message<TestPayload>(100, 1),
                        TrafficClass::kData);
  simulator.run();
  ASSERT_EQ(collector.received.size(), 1u);
  EXPECT_EQ(collector.received[0].first, a);
  EXPECT_EQ(static_cast<const TestPayload&>(*collector.received[0].second)
                .tag(),
            1);
}

TEST_F(NetworkFixture, DatagramToDeadHostDropped) {
  const NodeId a = network.add_host();
  const NodeId b = network.add_host();
  Collector collector;
  network.bind_datagram_handler(b, &collector);
  network.kill(b);
  network.send_datagram(a, b, make_message<TestPayload>(100),
                        TrafficClass::kData);
  simulator.run();
  EXPECT_TRUE(collector.received.empty());
}

TEST_F(NetworkFixture, BandwidthAccounting) {
  const NodeId a = network.add_host();
  const NodeId b = network.add_host();
  Collector collector;
  network.bind_datagram_handler(b, &collector);
  network.send_datagram(a, b, make_message<TestPayload>(1000),
                        TrafficClass::kData);
  network.send_datagram(a, b, make_message<TestPayload>(50),
                        TrafficClass::kMembership);
  simulator.run();
  const BandwidthStats& up = network.stats(a);
  const BandwidthStats& down = network.stats(b);
  const auto data = static_cast<std::size_t>(TrafficClass::kData);
  const auto mem = static_cast<std::size_t>(TrafficClass::kMembership);
  EXPECT_EQ(up.up_bytes[data], 1000 + kFrameOverheadBytes);
  EXPECT_EQ(up.up_bytes[mem], 50 + kFrameOverheadBytes);
  EXPECT_EQ(up.up_messages[data], 1u);
  EXPECT_EQ(down.down_bytes[data], 1000 + kFrameOverheadBytes);
  EXPECT_EQ(down.total_down_bytes(),
            1050 + 2 * kFrameOverheadBytes);
  network.reset_stats();
  EXPECT_EQ(network.stats(a).total_up_bytes(), 0u);
}

TEST_F(NetworkFixture, NicSerializationQueues) {
  const NodeId a = network.add_host();
  // Two sends back to back: the second completes after the first.
  const sim::TimePoint first =
      network.nic_send(a, 125'000, TrafficClass::kData);
  const sim::TimePoint second =
      network.nic_send(a, 125'000, TrafficClass::kData);
  EXPECT_GT(second, first);
  // 125 KB at 1 Gbps (125 MB/s) is ~1 ms each.
  EXPECT_NEAR(static_cast<double>((second - first).us()), 1000.0, 50.0);
}

TEST(NetworkCpu, ProcessingDelaysDelivery) {
  sim::Simulator simulator(9);
  Network::Config config;
  config.rx_process_mean = sim::Duration::milliseconds(5);
  Network network(simulator, std::make_unique<ClusterLatencyModel>(), config);
  const NodeId a = network.add_host();
  const NodeId b = network.add_host();
  Collector collector;
  network.bind_datagram_handler(b, &collector);
  sim::TimePoint arrival;
  network.send_datagram(a, b, make_message<TestPayload>(10),
                        TrafficClass::kData);
  simulator.run();
  ASSERT_EQ(collector.received.size(), 1u);
  // With a 5 ms mean CPU cost the delivery must land well after the raw
  // ~0.2 ms network latency.
  EXPECT_GT(simulator.now(), sim::TimePoint::from_us(300));
}

// --- Transport ----------------------------------------------------------------

class RecordingHandler : public TransportHandler {
 public:
  struct Event {
    enum Kind { kUp, kDown, kMessage } kind;
    ConnectionId conn;
    NodeId peer;
    CloseReason reason = CloseReason::kLocalClose;
    MessagePtr message;
  };

  void on_connection_up(ConnectionId conn, NodeId peer, bool) override {
    events.push_back({Event::kUp, conn, peer, CloseReason::kLocalClose, {}});
  }
  void on_connection_down(ConnectionId conn, NodeId peer,
                          CloseReason reason) override {
    events.push_back({Event::kDown, conn, peer, reason, {}});
  }
  void on_message(ConnectionId conn, NodeId from, MessagePtr message) override {
    events.push_back({Event::kMessage, conn, from, CloseReason::kLocalClose,
                      std::move(message)});
  }

  [[nodiscard]] std::size_t count(Event::Kind kind) const {
    std::size_t n = 0;
    for (const Event& e : events) {
      if (e.kind == kind) ++n;
    }
    return n;
  }

  std::vector<Event> events;
};

struct TransportFixture : public ::testing::Test {
  TransportFixture()
      : simulator(11),
        network(simulator, std::make_unique<ClusterLatencyModel>()),
        transport(network),
        a(network.add_host()),
        b(network.add_host()) {
    transport.bind(a, &ha);
    transport.bind(b, &hb);
  }

  sim::Simulator simulator;
  Network network;
  Transport transport;
  NodeId a, b;
  RecordingHandler ha, hb;
};

TEST_F(TransportFixture, ConnectEstablishesBothEnds) {
  const ConnectionId conn = transport.connect(a, b);
  simulator.run();
  EXPECT_TRUE(transport.established(conn));
  EXPECT_EQ(ha.count(RecordingHandler::Event::kUp), 1u);
  EXPECT_EQ(hb.count(RecordingHandler::Event::kUp), 1u);
  EXPECT_EQ(transport.peer_of(conn, a), b);
  // The acceptor holds its own half id, delivered in its up-event.
  const ConnectionId b_conn = hb.events.back().conn;
  EXPECT_TRUE(transport.established(b_conn));
  EXPECT_EQ(transport.peer_of(b_conn, b), a);
}

TEST_F(TransportFixture, ConnectToDeadHostRefused) {
  network.kill(b);
  const ConnectionId conn = transport.connect(a, b);
  simulator.run();
  EXPECT_FALSE(transport.established(conn));
  ASSERT_EQ(ha.count(RecordingHandler::Event::kDown), 1u);
  EXPECT_EQ(ha.events.back().reason, CloseReason::kRefused);
}

TEST_F(TransportFixture, SendDeliversInOrder) {
  const ConnectionId conn = transport.connect(a, b);
  simulator.run();
  for (int i = 0; i < 20; ++i) {
    transport.send(conn, a, make_message<TestPayload>(100, i),
                   TrafficClass::kData);
  }
  simulator.run();
  ASSERT_EQ(hb.count(RecordingHandler::Event::kMessage), 20u);
  int expected = 0;
  for (const auto& event : hb.events) {
    if (event.kind != RecordingHandler::Event::kMessage) continue;
    EXPECT_EQ(static_cast<const TestPayload&>(*event.message).tag(),
              expected++);
  }
}

TEST_F(TransportFixture, SendOnUnestablishedConnectionFails) {
  const ConnectionId conn = transport.connect(a, b);
  // Still connecting (no events processed yet).
  EXPECT_FALSE(transport.send(conn, a, make_message<TestPayload>(1),
                              TrafficClass::kData));
  simulator.run();
  EXPECT_TRUE(transport.send(conn, a, make_message<TestPayload>(1),
                             TrafficClass::kData));
  EXPECT_FALSE(transport.send(999, a, make_message<TestPayload>(1),
                              TrafficClass::kData));
}

TEST_F(TransportFixture, GracefulCloseNotifiesPeerOnce) {
  const ConnectionId conn = transport.connect(a, b);
  simulator.run();
  transport.close(conn, a);
  simulator.run();
  EXPECT_FALSE(transport.established(conn));
  ASSERT_EQ(hb.count(RecordingHandler::Event::kDown), 1u);
  EXPECT_EQ(hb.events.back().reason, CloseReason::kRemoteClose);
  EXPECT_EQ(ha.count(RecordingHandler::Event::kDown), 0u);
}

TEST_F(TransportFixture, InFlightMessagesSurviveGracefulClose) {
  const ConnectionId conn = transport.connect(a, b);
  simulator.run();
  // Send then immediately close: the message was "on the wire" first and
  // must still reach b before the FIN.
  transport.send(conn, a, make_message<TestPayload>(64, 42),
                 TrafficClass::kData);
  transport.close(conn, a);
  simulator.run();
  ASSERT_EQ(hb.count(RecordingHandler::Event::kMessage), 1u);
  // Message event must precede the close event.
  bool saw_message = false;
  for (const auto& event : hb.events) {
    if (event.kind == RecordingHandler::Event::kMessage) saw_message = true;
    if (event.kind == RecordingHandler::Event::kDown) {
      EXPECT_TRUE(saw_message);
    }
  }
}

TEST_F(TransportFixture, PeerFailureDetected) {
  [[maybe_unused]] const ConnectionId conn = transport.connect(a, b);
  simulator.run();
  const sim::TimePoint killed_at = simulator.now();
  network.kill(b);
  simulator.run();
  ASSERT_EQ(ha.count(RecordingHandler::Event::kDown), 1u);
  EXPECT_EQ(ha.events.back().reason, CloseReason::kPeerFailure);
  // Detection takes the configured delay, not forever and not instantly.
  const sim::Duration detect = simulator.now() - killed_at;
  EXPECT_GE(detect, network.config().failure_detect_base);
  EXPECT_LT(detect, sim::Duration::seconds(5));
  EXPECT_EQ(transport.open_connections(), 0u);
}

TEST_F(TransportFixture, SendAfterPeerDeathNotDelivered) {
  const ConnectionId conn = transport.connect(a, b);
  simulator.run();
  network.kill(b);
  transport.send(conn, a, make_message<TestPayload>(10),
                 TrafficClass::kData);
  simulator.run();
  EXPECT_EQ(hb.count(RecordingHandler::Event::kMessage), 0u);
}

TEST_F(TransportFixture, DeadHostCannotSend) {
  const ConnectionId conn = transport.connect(a, b);
  simulator.run();
  network.kill(a);
  EXPECT_FALSE(transport.send(conn, a, make_message<TestPayload>(10),
                              TrafficClass::kData));
}

TEST_F(TransportFixture, CloseReasonStrings) {
  EXPECT_STREQ(to_string(CloseReason::kLocalClose), "local-close");
  EXPECT_STREQ(to_string(CloseReason::kRemoteClose), "remote-close");
  EXPECT_STREQ(to_string(CloseReason::kPeerFailure), "peer-failure");
  EXPECT_STREQ(to_string(CloseReason::kRefused), "refused");
}

// --- Delivery log ------------------------------------------------------------

TEST(DeliveryLog, WatermarkWaitsAtTheHoleThenJumpsTheFilledRun) {
  DeliveryLog log;
  const sim::TimePoint t = sim::TimePoint::from_us(7);
  log.record(0, t);
  EXPECT_EQ(log.contiguous_upto(), 1u);
  for (const std::uint64_t seq : {2u, 3u, 5u}) log.record(seq, t);
  EXPECT_EQ(log.contiguous_upto(), 1u);  // hole at 1
  log.record(1, t);
  EXPECT_EQ(log.contiguous_upto(), 4u);  // 1..3 at once; hole at 4
  log.record(4, t);
  EXPECT_EQ(log.contiguous_upto(), 6u);
}

TEST(DeliveryLog, SeenAndCountsFollowTheDeliveryTimeKeys) {
  DeliveryLog log;
  const std::uint64_t order[] = {9, 3, 0, 4, 12, 1};
  std::uint64_t step = 0;
  for (const std::uint64_t seq : order) {
    EXPECT_FALSE(log.seen(seq));
    EXPECT_TRUE(log.receive(seq, sim::TimePoint::from_us(++step)));
    // A second copy is a duplicate and changes no instant.
    EXPECT_FALSE(log.receive(seq, sim::TimePoint::from_us(1000)));
    EXPECT_EQ(log.delivered, log.delivery_time.size());
    EXPECT_EQ(log.duplicates, step);
  }
  for (std::uint64_t seq = 0; seq < 16; ++seq) {
    EXPECT_EQ(log.seen(seq), log.delivery_time.contains(seq)) << seq;
  }
  EXPECT_EQ(log.delivery_time.find(12)->second, sim::TimePoint::from_us(5));
  EXPECT_EQ(log.contiguous_upto(), 2u);
}

TEST(DeliveryLog, InstantsRoundTripThroughTheirSixBytes) {
  // 2^32 + 5 us breaks a 32-bit encoding; 2^48 - 1 us is the last instant
  // that fits. The seqs leave holes and straddle a presence word.
  const std::map<std::uint64_t, std::int64_t> instants = {
      {0, 0},
      {3, 1},
      {64, (std::int64_t{1} << 32) + 5},
      {130, (std::int64_t{1} << 48) - 1}};
  DeliveryLog log;
  for (const auto& [seq, us] : instants) {
    log.record(seq, sim::TimePoint::from_us(us));
  }
  ASSERT_EQ(log.delivery_time.size(), instants.size());
  for (const auto& [seq, us] : instants) {
    const auto it = log.delivery_time.find(seq);
    ASSERT_NE(it, log.delivery_time.end()) << seq;
    EXPECT_EQ(it->second, sim::TimePoint::from_us(us)) << seq;
  }
  auto expected = instants.begin();
  for (const auto& [seq, at] : log.delivery_time) {
    ASSERT_NE(expected, instants.end());
    EXPECT_EQ(seq, expected->first);
    EXPECT_EQ(at, sim::TimePoint::from_us(expected->second)) << seq;
    ++expected;
  }
  EXPECT_EQ(expected, instants.end());
  EXPECT_EQ(std::prev(log.delivery_time.end())->second,
            sim::TimePoint::from_us((std::int64_t{1} << 48) - 1));
}

TEST(DeliveryLogDeathTest, SecondRecordOfOneSeqAborts) {
  DeliveryLog log;
  log.record(3, sim::TimePoint::from_us(1));
  EXPECT_DEATH(log.record(3, sim::TimePoint::from_us(2)),
               "seq delivered twice");
}

TEST(DeliveryLogDeathTest, InstantOutsideFortyEightBitsAborts) {
  DeliveryLog log;
  EXPECT_DEATH(log.record(0, sim::TimePoint::from_us(std::int64_t{1} << 48)),
               "outside 48-bit microseconds");
  EXPECT_DEATH(log.record(0, sim::TimePoint::from_us(-1)),
               "outside 48-bit microseconds");
}

}  // namespace
}  // namespace brisa::net
