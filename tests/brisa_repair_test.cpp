// BRISA repair tests (§II-F): soft repair, hard repair with re-activation
// orders, message recovery, and behaviour under scripted churn.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include "workload/brisa_system.h"
#include "workload/churn.h"

namespace brisa::core {
namespace {

workload::BrisaSystem::Config repair_config(std::uint64_t seed = 31,
                                            std::size_t nodes = 48) {
  workload::BrisaSystem::Config config;
  config.seed = seed;
  config.num_nodes = nodes;
  config.join_spread = sim::Duration::seconds(10);
  config.stabilization = sim::Duration::seconds(20);
  return config;
}

/// Finds a non-source node whose parent is not the source and has children.
net::NodeId find_interior_node(workload::BrisaSystem& system) {
  for (const net::NodeId id : system.member_ids()) {
    if (id == system.source_id()) continue;
    const auto& brisa = system.brisa(id);
    if (!brisa.children().empty() && brisa.depth() >= 2) return id;
  }
  return net::NodeId::invalid();
}

TEST(BrisaRepair, ParentFailureTriggersRepairAndDeliveryContinues) {
  workload::BrisaSystem system(repair_config());
  system.bootstrap();
  system.run_stream(20, 5.0, 256);

  const net::NodeId victim = find_interior_node(system);
  ASSERT_TRUE(victim.valid());
  const std::vector<net::NodeId> orphans_to_check =
      system.brisa(victim).children();
  ASSERT_FALSE(orphans_to_check.empty());

  system.kill_node(victim);
  system.run_for(sim::Duration::seconds(10));
  system.run_stream(30, 5.0, 256);

  for (const net::NodeId child : orphans_to_check) {
    if (!system.network().alive(child)) continue;
    const auto& stats = system.brisa(child).stats();
    EXPECT_GE(stats.parents_lost, 1u) << child;
    EXPECT_EQ(stats.orphan_events, stats.soft_repairs + stats.hard_repairs)
        << child;
    EXPECT_EQ(system.brisa(child).parents().size(), 1u) << child;
  }
  EXPECT_TRUE(system.complete_delivery());
}

TEST(BrisaRepair, RepairedTreeRemainsAcyclic) {
  workload::BrisaSystem system(repair_config(33));
  system.bootstrap();
  system.run_stream(20, 5.0, 256);
  // Kill several interior nodes at once.
  for (int round = 0; round < 3; ++round) {
    const net::NodeId victim = find_interior_node(system);
    if (!victim.valid()) break;
    system.kill_node(victim);
    system.run_for(sim::Duration::seconds(5));
  }
  system.run_stream(30, 5.0, 256);

  // Verify parent chains all reach the source (acyclic + connected).
  for (const net::NodeId start : system.member_ids()) {
    if (start == system.source_id()) continue;
    std::set<net::NodeId> seen{start};
    net::NodeId current = start;
    while (current != system.source_id()) {
      const auto parents = system.brisa(current).parents();
      ASSERT_EQ(parents.size(), 1u) << "at " << current;
      current = parents[0];
      ASSERT_TRUE(seen.insert(current).second)
          << "cycle at " << current << " from " << start;
    }
  }
  EXPECT_TRUE(system.complete_delivery());
}

TEST(BrisaRepair, ReparentedPathsDropTheOldPrefix) {
  workload::BrisaSystem system(repair_config(33));
  system.bootstrap();
  system.run_stream(20, 5.0, 256);
  const net::NodeId victim = find_interior_node(system);
  ASSERT_TRUE(victim.valid());
  std::vector<net::NodeId> below;  // every node whose path ran through it
  for (const net::NodeId id : system.member_ids()) {
    if (id != victim && system.brisa(id).path().contains(victim)) {
      below.push_back(id);
    }
  }
  ASSERT_FALSE(below.empty());
  system.kill_node(victim);
  system.run_for(sim::Duration::seconds(10));
  system.run_stream(30, 5.0, 256);

  // Each path is the node's parent chain, read from the source down: the
  // repaired nodes (and their subtrees) rebuilt their cells instead of
  // keeping a prefix through the dead parent.
  for (const net::NodeId id : system.member_ids()) {
    std::vector<net::NodeId> chain{id};
    for (net::NodeId at = id; at != system.source_id();) {
      const auto parents = system.brisa(at).parents();
      ASSERT_EQ(parents.size(), 1u) << "at " << at;
      at = parents[0];
      chain.insert(chain.begin(), at);
      ASSERT_LE(chain.size(), system.member_ids().size())
          << "cycle from " << id;
    }
    EXPECT_EQ(system.brisa(id).path().nodes(), chain) << id;
  }
  for (const net::NodeId id : below) {
    if (!system.network().alive(id)) continue;
    EXPECT_FALSE(system.brisa(id).path().contains(victim)) << id;
  }
  EXPECT_TRUE(system.complete_delivery());
}

TEST(BrisaRepair, MissedMessagesAreRecovered) {
  workload::BrisaSystem system(repair_config(35));
  system.bootstrap();
  system.run_stream(10, 5.0, 256);
  const net::NodeId victim = find_interior_node(system);
  ASSERT_TRUE(victim.valid());
  const auto children = system.brisa(victim).children();
  system.kill_node(victim);
  // Keep streaming *through* the failure window: children will miss
  // messages until repair completes, then recover them from the new parent.
  system.run_stream(40, 5.0, 256);
  system.run_for(sim::Duration::seconds(10));
  for (const net::NodeId child : children) {
    if (!system.network().alive(child)) continue;
    EXPECT_EQ(system.brisa(child).stats().delivery_time.size(),
              system.messages_sent())
        << "child " << child << " missing messages";
  }
  EXPECT_TRUE(system.complete_delivery());
}

TEST(BrisaRepair, RetransmissionsAreServedFromBuffer) {
  workload::BrisaSystem system(repair_config(37));
  system.bootstrap();
  system.run_stream(10, 5.0, 256);
  const net::NodeId victim = find_interior_node(system);
  ASSERT_TRUE(victim.valid());
  system.kill_node(victim);
  system.run_stream(30, 5.0, 256);
  std::uint64_t served = 0, received = 0;
  for (const net::NodeId id : system.member_ids()) {
    served += system.brisa(id).stats().retransmissions_served;
    received += system.brisa(id).stats().retransmissions_received;
  }
  // The repair asked the new parent for missing data at least once.
  EXPECT_GT(served + received, 0u);
}

// The retransmit buffer wraps its ring twice here (12 pushes through a
// 5-entry cap) and must still list the newest arrivals oldest first: that
// order is the order retransmissions are served in.
TEST(BrisaRepair, RetransmitBufferKeepsArrivalOrderAcrossWrap) {
  workload::BrisaSystem::Config config = repair_config(41, 24);
  config.brisa.retransmit_buffer = 5;
  workload::BrisaSystem system(config);
  system.bootstrap();
  system.run_stream(12, 5.0, 256);
  ASSERT_TRUE(system.complete_delivery());
  for (const net::NodeId id : system.member_ids()) {
    const Brisa& brisa = system.brisa(id);
    std::vector<std::pair<sim::TimePoint, std::uint64_t>> arrivals;
    for (const auto& [seq, at] : brisa.stats().delivery_time) {
      arrivals.emplace_back(at, seq);
    }
    std::sort(arrivals.begin(), arrivals.end());
    std::vector<std::uint64_t> newest;
    for (std::size_t i = arrivals.size() - 5; i < arrivals.size(); ++i) {
      newest.push_back(arrivals[i].second);
    }
    EXPECT_EQ(brisa.buffered_seqs(), newest) << "node " << id;
    EXPECT_EQ(brisa.buffered_seqs(),
              (std::vector<std::uint64_t>{7, 8, 9, 10, 11}))
        << "node " << id;
  }
}

TEST(BrisaRepair, ScriptedChurnTreeDeliversEverything) {
  workload::BrisaSystem system(repair_config(39, 64));
  system.bootstrap();

  // 2% churn per 10-second period for 60 seconds, while streaming.
  workload::ChurnScript script = workload::ChurnScript::parse(
      "from 0 s to 0 s join 0\n"
      "at 0 s set replacement ratio to 100%\n"
      "from 0 s to 60 s const churn 2% each 10 s\n"
      "at 60 s stop\n");
  workload::ChurnDriver driver(system.simulator(), script,
                               system.churn_hooks());
  driver.arm();
  system.run_stream(100, 5.0, 256, sim::Duration::seconds(30));

  EXPECT_GT(driver.counters().kills, 0u);
  EXPECT_GT(driver.counters().joins, 0u);
  // All members that lived through the whole stream got every message.
  EXPECT_TRUE(system.complete_delivery());

  std::uint64_t orphans = 0, soft = 0, hard = 0;
  for (const net::NodeId id : system.all_ids()) {
    const auto& stats = system.brisa(id).stats();
    orphans += stats.orphan_events;
    soft += stats.soft_repairs;
    hard += stats.hard_repairs;
  }
  // Repairs happened and most were soft (§III-C expects ~80-95% soft).
  EXPECT_GT(orphans, 0u);
  EXPECT_GE(soft, hard);
}

TEST(BrisaRepair, ScriptedChurnDagHasFewerOrphans) {
  auto tree_config = repair_config(41, 64);
  workload::BrisaSystem tree(tree_config);
  tree.bootstrap();
  workload::ChurnScript script = workload::ChurnScript::parse(
      "from 0 s to 60 s const churn 3% each 10 s\n"
      "at 60 s stop\n");
  workload::ChurnDriver tree_driver(tree.simulator(), script,
                                    tree.churn_hooks());
  tree_driver.arm();
  tree.run_stream(100, 5.0, 256, sim::Duration::seconds(30));

  auto dag_config = repair_config(41, 64);
  dag_config.brisa.mode = StructureMode::kDag;
  dag_config.brisa.num_parents = 2;
  workload::BrisaSystem dag(dag_config);
  dag.bootstrap();
  workload::ChurnDriver dag_driver(dag.simulator(), script,
                                   dag.churn_hooks());
  dag_driver.arm();
  dag.run_stream(100, 5.0, 256, sim::Duration::seconds(30));

  auto count_orphans = [](workload::BrisaSystem& s) {
    std::uint64_t total = 0;
    for (const net::NodeId id : s.all_ids()) {
      total += s.brisa(id).stats().orphan_events;
    }
    return total;
  };
  auto count_parents_lost = [](workload::BrisaSystem& s) {
    std::uint64_t total = 0;
    for (const net::NodeId id : s.all_ids()) {
      total += s.brisa(id).stats().parents_lost;
    }
    return total;
  };
  // Table I shape: the DAG loses parents at least as often (more links) but
  // orphans far less.
  EXPECT_LE(count_orphans(dag), count_orphans(tree));
  EXPECT_GE(count_parents_lost(dag) + 5, count_parents_lost(tree));
}

TEST(BrisaRepair, RepairDelaysAreSmall) {
  workload::BrisaSystem system(repair_config(43, 64));
  system.bootstrap();
  workload::ChurnScript script = workload::ChurnScript::parse(
      "from 0 s to 90 s const churn 3% each 10 s\n"
      "at 90 s stop\n");
  workload::ChurnDriver driver(system.simulator(), script,
                               system.churn_hooks());
  driver.arm();
  system.run_stream(150, 5.0, 256, sim::Duration::seconds(30));

  std::vector<double> soft_ms, hard_ms;
  for (const net::NodeId id : system.all_ids()) {
    const auto& stats = system.brisa(id).stats();
    for (const sim::Duration d : stats.soft_repair_delays) {
      soft_ms.push_back(d.to_milliseconds());
    }
    for (const sim::Duration d : stats.hard_repair_delays) {
      hard_ms.push_back(d.to_milliseconds());
    }
  }
  ASSERT_FALSE(soft_ms.empty());
  for (const double ms : soft_ms) EXPECT_LT(ms, 2000.0);
  // Fig 14: hard repairs complete within tens of milliseconds on a cluster
  // when a neighbor is available; when the PSS view itself was emptied the
  // delay includes membership healing (shuffle/rejoin periods of seconds).
  // Only the worst case is bounded here — the Fig 14 bench reports the
  // distribution at paper scale.
  if (!hard_ms.empty()) {
    std::sort(hard_ms.begin(), hard_ms.end());
    EXPECT_LT(hard_ms.back(), 60'000.0);
  }
}

TEST(BrisaRepair, SourceNeverRepairs) {
  workload::BrisaSystem system(repair_config(45));
  system.bootstrap();
  system.run_stream(20, 5.0, 256);
  // Kill all the source's dissemination children's other links... simply
  // verify the source never considers itself orphaned under churn.
  workload::ChurnScript script = workload::ChurnScript::parse(
      "from 0 s to 30 s const churn 5% each 10 s\nat 30 s stop\n");
  workload::ChurnDriver driver(system.simulator(), script,
                               system.churn_hooks());
  driver.arm();
  system.run_stream(50, 5.0, 256, sim::Duration::seconds(20));
  const auto& stats = system.brisa(system.source_id()).stats();
  EXPECT_EQ(stats.orphan_events, 0u);
  EXPECT_TRUE(system.network().alive(system.source_id()));
}

}  // namespace
}  // namespace brisa::core
