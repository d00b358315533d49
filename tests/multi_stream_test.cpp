// Multi-stream engine tests: per-stream isolation over one shared PSS,
// per-engine maintenance ticks and starvation surveillance, the engine's
// keep-alive progress table, demux of unknown streams, partial subscription
// via the PubSubDriver, the
// 8-stream faulted determinism golden (mirrors the PR 2 single-stream
// golden), and a property sweep asserting per-stream reliability under 20%
// loss.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "core/brisa.h"
#include "membership/hyparview.h"
#include "net/fault.h"
#include "net/message_pool.h"
#include "workload/brisa_system.h"
#include "workload/churn.h"
#include "workload/pubsub.h"
#include "workload/testbed.h"

namespace brisa {
namespace {

using net::NodeId;
using net::StreamId;

workload::BrisaSystem::Config multi_config(std::uint64_t seed,
                                           std::size_t nodes,
                                           std::size_t streams) {
  workload::BrisaSystem::Config config;
  config.seed = seed;
  config.num_nodes = nodes;
  config.num_streams = streams;
  config.join_spread = sim::Duration::seconds(10);
  config.stabilization = sim::Duration::seconds(25);
  return config;
}

/// Runs a uniform pub/sub workload and returns the driver (for sent counts
/// and subscription checks).
workload::PubSubDriver run_pubsub(
    workload::BrisaSystem& system, std::size_t streams, std::size_t messages,
    double subscription_fraction = 1.0,
    sim::Duration grace = sim::Duration::seconds(30)) {
  workload::PubSubDriver::Config config;
  config.streams = workload::uniform_streams(streams, messages, 5.0, 512);
  config.subscription_fraction = subscription_fraction;
  workload::PubSubDriver driver(
      system.simulator(), config,
      [&system](StreamId stream, std::size_t bytes) {
        return system.publish(stream, bytes);
      });
  driver.run(grace);
  return driver;
}

// --- Per-stream isolation ----------------------------------------------------

TEST(MultiStream, StreamsDeliverIndependentlyOverSharedSubstrate) {
  workload::BrisaSystem system(multi_config(11, 48, 4));
  system.bootstrap();

  // Distinct sources per stream.
  std::vector<NodeId> sources = system.source_ids();
  ASSERT_EQ(sources.size(), 4u);
  std::sort(sources.begin(), sources.end());
  EXPECT_EQ(std::unique(sources.begin(), sources.end()), sources.end());

  run_pubsub(system, 4, 25);

  // Every stream delivered everything to every non-source member, in its
  // own sequence space.
  for (StreamId stream = 0; stream < 4; ++stream) {
    for (const NodeId id : system.member_ids()) {
      if (id == system.source_id(stream)) continue;
      EXPECT_EQ(system.brisa(id, stream).stats().delivery_time.size(), 25u)
          << "node " << id << " stream " << stream;
    }
  }

  // Each stream emerged its own tree: exactly one parent per stream per
  // node, and the trees are not all identical (different sources force at
  // least different roots).
  for (const NodeId id : system.member_ids()) {
    for (StreamId stream = 0; stream < 4; ++stream) {
      if (id == system.source_id(stream)) continue;
      EXPECT_EQ(system.brisa(id, stream).parents().size(), 1u)
          << "node " << id << " stream " << stream;
    }
  }
}

TEST(MultiStream, SingleStreamConfigMatchesLegacyAccessors) {
  workload::BrisaSystem system(multi_config(3, 32, 1));
  system.bootstrap();
  system.run_stream(20, 5.0, 256);
  EXPECT_TRUE(system.complete_delivery());
  // brisa(id) and brisa(id, 0) are the same stream instance.
  const NodeId node = system.member_ids().front();
  EXPECT_EQ(&system.brisa(node), &system.brisa(node, net::kDefaultStream));
  EXPECT_EQ(system.engine(node).stream_count(), 1u);
}

// --- Engine-level maintenance ------------------------------------------------

TEST(MultiStream, MaintenanceTicksArePerEngineNotPerStream) {
  // The starvation/refine/top-up checks run as engine ticks that walk the
  // streams, so adding streams adds no periodic timers.
  constexpr std::size_t kNodes = 24;
  const auto periodics = [](std::size_t streams, bool prune) {
    workload::BrisaSystem::Config config = multi_config(17, kNodes, streams);
    config.brisa.prune = prune;
    workload::BrisaSystem system(config);
    system.bootstrap();
    return system.simulator().stats().active_periodics;
  };
  const std::size_t one_stream = periodics(1, true);
  EXPECT_EQ(periodics(8, true), one_stream);
  // Flooding streams never hold a parent, so a flooding engine arms no
  // starvation tick: one periodic fewer per node.
  EXPECT_EQ(periodics(8, false), one_stream - kNodes);
}

TEST(MultiStream, StarvationResetRecoversOnlyTheStarvedStream) {
  // C tells its stream-1 parent to stop relaying while still counting it as
  // a parent: stream 1 starves at C until the keep-alive watermarks expose
  // it and the starvation check resets the structure; stream 0 is untouched.
  workload::BrisaSystem system(multi_config(23, 30, 2));
  system.bootstrap();
  std::size_t sent = 0;
  const auto publish_both = [&](std::size_t count) {
    for (std::size_t i = 0; i < count; ++i) {
      system.publish(0, 256);
      system.publish(1, 256);
      ++sent;
      system.run_for(sim::Duration::milliseconds(200));
    }
  };
  publish_both(10);

  NodeId c;
  for (const NodeId id : system.member_ids()) {
    if (id == system.source_id(0) || id == system.source_id(1)) continue;
    if (system.brisa(id, 1).parents().size() == 1) {
      c = id;
      break;
    }
  }
  ASSERT_TRUE(c.valid());
  const NodeId parent = system.brisa(c, 1).parents().front();
  system.hyparview(c).send_app(
      parent,
      net::make_message<core::BrisaDeactivate>(1, core::StructureMode::kTree,
                                               core::PositionInfo{}),
      net::TrafficClass::kControl);

  publish_both(40);
  system.run_for(sim::Duration::seconds(20));

  EXPECT_GE(system.brisa(c, 1).stats().starvation_resets, 1u);
  EXPECT_EQ(system.brisa(c, 0).stats().starvation_resets, 0u);
  EXPECT_EQ(system.brisa(c, 1).stats().delivery_time.size(), sent);
  EXPECT_EQ(system.brisa(c, 0).stats().delivery_time.size(), sent);
}

// --- Keep-alive progress table ------------------------------------------------

TEST(MultiStream, QuietEngineHandsOutOneSnapshot) {
  workload::BrisaSystem system(multi_config(29, 24, 4));
  system.bootstrap();
  const NodeId source = system.source_id(2);
  core::BrisaEngine& engine = system.engine(source);
  const membership::WatermarkSnapshot first = engine.watermark_snapshot();
  ASSERT_NE(first, nullptr);
  ASSERT_EQ(first->size(), 4u);
  // No delivery in between: keep-alives share the same table.
  system.run_for(sim::Duration::seconds(5));
  EXPECT_EQ(engine.watermark_snapshot().get(), first.get());

  // A delivery while `first` is held writes a copy; `first` stays as sent.
  system.brisa(source, 2).broadcast(64);
  const membership::WatermarkSnapshot second = engine.watermark_snapshot();
  EXPECT_NE(second.get(), first.get());
  EXPECT_EQ((*first)[2].watermark, 0u);
  EXPECT_EQ((*second)[2].watermark, 1u);
}

TEST(MultiStream, BroadcastAdvancesOnlyItsOwnProgressEntry) {
  workload::BrisaSystem system(multi_config(31, 24, 4));
  system.bootstrap();
  run_pubsub(system, 4, 5);
  const NodeId source = system.source_id(1);
  core::BrisaEngine& engine = system.engine(source);
  const std::vector<membership::AppWatermark> before =
      *engine.watermark_snapshot();
  const std::uint64_t seq = system.brisa(source, 1).broadcast(64);
  const std::vector<membership::AppWatermark> after =
      *engine.watermark_snapshot();
  ASSERT_EQ(after.size(), before.size());
  for (std::size_t i = 0; i < after.size(); ++i) {
    EXPECT_EQ(after[i].stream, static_cast<StreamId>(i));
    EXPECT_EQ(after[i].aux, before[i].aux) << "stream " << i;
    if (after[i].stream == 1) {
      EXPECT_EQ(after[i].watermark, seq + 1);
      EXPECT_GT(after[i].watermark, before[i].watermark);
    } else {
      EXPECT_EQ(after[i].watermark, before[i].watermark) << "stream " << i;
    }
  }
}

// --- Demux of locally inactive streams --------------------------------------

TEST(MultiStream, EngineDropsMessagesForInactiveStreams) {
  // A hand-built 2-node overlay where only one side runs stream 1: traffic
  // for the missing stream must be ignored, not crash or leak into stream 0.
  workload::Testbed base(5, workload::TestbedKind::kCluster);
  const NodeId a = base.network().add_host();
  const NodeId b = base.network().add_host();
  membership::HyParView pss_a(base.network(), base.transport(), a, {});
  membership::HyParView pss_b(base.network(), base.transport(), b, {});
  core::BrisaEngine engine_a(base.network(), pss_a, a, {});
  core::BrisaEngine engine_b(base.network(), pss_b, b, {});
  engine_a.add_stream(0);
  engine_a.add_stream(1);
  engine_b.add_stream(0);  // b does not run stream 1

  pss_a.start();
  pss_b.join(a);
  base.run_for(sim::Duration::seconds(5));

  engine_a.stream(0).become_source();
  engine_a.stream(1).become_source();
  for (int i = 0; i < 5; ++i) {
    engine_a.stream(0).broadcast(128);
    engine_a.stream(1).broadcast(128);
    base.run_for(sim::Duration::seconds(1));
  }

  EXPECT_EQ(engine_b.stream(0).stats().delivered, 5u);
  EXPECT_EQ(engine_b.find_stream(1), nullptr);
  EXPECT_EQ(engine_b.stream(0).stats().duplicates, 0u);
  EXPECT_EQ(engine_a.stream_ids(), (std::vector<StreamId>{0, 1}));
  EXPECT_EQ(engine_b.stream_ids(), (std::vector<StreamId>{0}));
}

// --- Partial subscription -----------------------------------------------------

TEST(MultiStream, PartialSubscriptionSetsAreDeterministicAndServed) {
  workload::BrisaSystem system(multi_config(21, 64, 4));
  system.bootstrap();
  const workload::PubSubDriver driver = run_pubsub(system, 4, 20, 0.5);

  std::size_t subscribers = 0;
  std::size_t total = 0;
  for (StreamId stream = 0; stream < 4; ++stream) {
    for (const NodeId id : system.member_ids()) {
      if (id == system.source_id(stream)) continue;
      ++total;
      // Deterministic: same (stream, node) decision on every call.
      ASSERT_EQ(driver.subscribed(stream, id), driver.subscribed(stream, id));
      if (!driver.subscribed(stream, id)) continue;
      ++subscribers;
      EXPECT_EQ(system.brisa(id, stream).stats().delivery_time.size(), 20u)
          << "subscriber " << id << " stream " << stream;
    }
  }
  // The thinning really thinned (loose bounds: binomial around 50%).
  EXPECT_GT(subscribers, total / 4);
  EXPECT_LT(subscribers, 3 * total / 4);
}

// --- Determinism golden (8 streams + faults) ---------------------------------

struct MultiRunDigest {
  sim::Simulator::Stats sim_stats;
  net::Network::FaultTotals fault_totals;
  std::uint64_t network_messages = 0;
  std::vector<std::uint64_t> delivered_per_stream;

  bool operator==(const MultiRunDigest&) const = default;
};

MultiRunDigest run_faulted_multi_stream(std::uint64_t seed) {
  workload::BrisaSystem system(multi_config(seed, 48, 8));
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

  workload::PubSubDriver::Config pubsub;
  pubsub.streams = workload::uniform_streams(8, 20, 5.0, 256);
  workload::PubSubDriver pubsub_driver(
      system.simulator(), pubsub,
      [&system](StreamId stream, std::size_t bytes) {
        return system.publish(stream, bytes);
      });
  pubsub_driver.run(sim::Duration::seconds(25));

  MultiRunDigest digest;
  digest.sim_stats = system.simulator().stats();
  digest.fault_totals = system.network().fault_totals();
  digest.network_messages = system.network().messages_sent();
  digest.delivered_per_stream.assign(8, 0);
  for (StreamId stream = 0; stream < 8; ++stream) {
    for (const NodeId id : system.member_ids()) {
      digest.delivered_per_stream[stream] +=
          system.brisa(id, stream).stats().delivered;
    }
  }
  return digest;
}

TEST(MultiStreamDeterminism, IdenticalSeedReproducesIdenticalStats) {
  const MultiRunDigest first = run_faulted_multi_stream(42);
  const MultiRunDigest second = run_faulted_multi_stream(42);
  EXPECT_EQ(first.sim_stats, second.sim_stats);
  EXPECT_EQ(first.fault_totals, second.fault_totals);
  EXPECT_EQ(first.network_messages, second.network_messages);
  EXPECT_EQ(first.delivered_per_stream, second.delivered_per_stream);
  // The scenario really exercised faults and every stream moved data.
  EXPECT_GT(first.fault_totals.datagrams_dropped +
                first.fault_totals.segments_dropped,
            0u);
  for (const std::uint64_t delivered : first.delivered_per_stream) {
    EXPECT_GT(delivered, 0u);
  }
}

TEST(MultiStreamDeterminism, DifferentSeedsDiverge) {
  const MultiRunDigest first = run_faulted_multi_stream(42);
  const MultiRunDigest other = run_faulted_multi_stream(43);
  EXPECT_FALSE(first == other);
}

// --- Property sweep: per-stream reliability under loss ------------------------

struct LossParam {
  std::uint64_t seed;
  std::size_t nodes;
  std::size_t streams;
  core::StructureMode mode;
  std::size_t parents;

  [[nodiscard]] std::string name() const {
    return "s" + std::to_string(seed) + "_n" + std::to_string(nodes) + "_k" +
           std::to_string(streams) +
           (mode == core::StructureMode::kTree ? "_tree" : "_dag") +
           std::to_string(parents);
  }
};

class MultiStreamLossProperties
    : public ::testing::TestWithParam<LossParam> {};

TEST_P(MultiStreamLossProperties, EveryStreamFullyReliableUnder20PctLoss) {
  const LossParam param = GetParam();
  workload::BrisaSystem::Config config =
      multi_config(param.seed, param.nodes, param.streams);
  config.brisa.mode = param.mode;
  config.brisa.num_parents = param.parents;
  workload::BrisaSystem system(config);
  system.bootstrap();

  workload::ChurnDriver driver(
      system.simulator(),
      workload::ChurnScript::parse("from 0 s to 45 s drop 20%\n"
                                   "at 60 s stop\n"),
      system.churn_hooks());
  driver.arm();
  // The injection phase is only ~4 s; the grace must outlive the 45 s loss
  // window so the tail recoveries are measured after the network heals.
  const workload::PubSubDriver pubsub =
      run_pubsub(system, param.streams, 20, 1.0, sim::Duration::seconds(50));

  // Loss really happened.
  const net::Network::FaultTotals& totals = system.network().fault_totals();
  EXPECT_GT(totals.datagrams_dropped + totals.segments_dropped, 0u);

  // Per-stream reliability: every member delivers every stream completely
  // despite 20% uniform loss (TCP-like links mask drops; BRISA repairs the
  // rest), and no stream starves another.
  for (StreamId stream = 0; stream < param.streams; ++stream) {
    const std::uint64_t sent = pubsub.sent(stream);
    ASSERT_EQ(sent, 20u);
    for (const NodeId id : system.member_ids()) {
      if (id == system.source_id(stream)) continue;
      EXPECT_EQ(system.brisa(id, stream).stats().delivery_time.size(), sent)
          << "node " << id << " stream " << stream;
    }
  }
}

TEST(MultiStream, ProgressTableTracksNewestDeliveryUnderLoss) {
  // 20% loss over 8 tree streams: repairs and gap probes pull holes after
  // higher seqs arrived, so the table also sees fills below its watermark.
  workload::BrisaSystem system(multi_config(401, 48, 8));
  system.bootstrap();
  workload::ChurnDriver driver(
      system.simulator(),
      workload::ChurnScript::parse("from 0 s to 45 s drop 20%\n"
                                   "at 60 s stop\n"),
      system.churn_hooks());
  driver.arm();
  run_pubsub(system, 8, 20, 1.0, sim::Duration::seconds(50));

  std::size_t out_of_order = 0;
  std::uint64_t gap_recoveries = 0;
  std::uint64_t retransmissions_received = 0;
  for (const NodeId id : system.all_ids()) {
    for (StreamId stream = 0; stream < 8; ++stream) {
      const core::BrisaStream& s = system.brisa(id, stream);
      gap_recoveries += s.stats().gap_recoveries;
      retransmissions_received += s.stats().retransmissions_received;
      const auto& delivered = s.stats().delivery_time;
      EXPECT_EQ(s.delivered_watermark(),
                delivered.empty() ? 0 : delivered.max_key() + 1)
          << "node " << id << " stream " << stream;
      sim::TimePoint latest;
      for (const auto& [seq, at] : delivered) {
        if (at < latest) ++out_of_order;
        latest = std::max(latest, at);
      }
    }
  }
  EXPECT_GT(out_of_order, 0u);
  // This cell is the one that exercises the gap-probe and retransmit-fill
  // paths (the other loss cells read 0 for both).
  EXPECT_GT(gap_recoveries, 0u);
  EXPECT_GT(retransmissions_received, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, MultiStreamLossProperties,
    ::testing::Values(LossParam{401, 48, 8, core::StructureMode::kTree, 1},
                      LossParam{402, 48, 8, core::StructureMode::kDag, 2},
                      LossParam{403, 64, 4, core::StructureMode::kTree, 1},
                      LossParam{404, 32, 16, core::StructureMode::kTree, 1}),
    [](const ::testing::TestParamInfo<LossParam>& info) {
      return info.param.name();
    });

}  // namespace
}  // namespace brisa
