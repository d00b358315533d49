// Workload layer tests: churn DSL parsing (Listing 1 of the paper), the
// churn driver, testbed presets, and the harness contract every protocol
// built through make_system() keeps.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "workload/brisa_system.h"
#include "workload/churn.h"
#include "workload/scenario.h"
#include "workload/testbed.h"

namespace brisa::workload {
namespace {

TEST(ChurnScript, ParsesListingOne) {
  // The paper's Listing 1 with N=512 and X=5.
  const ChurnScript script = ChurnScript::parse(
      "from 1 s to 512 s join 512\n"
      "at 1000 s set replacement ratio to 100%\n"
      "from 1000 s to 1600 s const churn 5% each 60 s\n"
      "at 1600 s stop\n");
  ASSERT_EQ(script.actions().size(), 4u);
  const auto* join = std::get_if<JoinSpan>(&script.actions()[0]);
  ASSERT_NE(join, nullptr);
  EXPECT_EQ(join->count, 512u);
  EXPECT_EQ(join->from, sim::TimePoint::origin() + sim::Duration::seconds(1));
  EXPECT_EQ(join->to, sim::TimePoint::origin() + sim::Duration::seconds(512));
  const auto* set = std::get_if<SetReplacementRatio>(&script.actions()[1]);
  ASSERT_NE(set, nullptr);
  EXPECT_DOUBLE_EQ(set->ratio, 1.0);
  const auto* churn = std::get_if<ConstChurn>(&script.actions()[2]);
  ASSERT_NE(churn, nullptr);
  EXPECT_DOUBLE_EQ(churn->fraction, 0.05);
  EXPECT_EQ(churn->period, sim::Duration::seconds(60));
  const auto* stop = std::get_if<Stop>(&script.actions()[3]);
  ASSERT_NE(stop, nullptr);
  EXPECT_EQ(script.stop_time(),
            sim::TimePoint::origin() + sim::Duration::seconds(1600));
}

TEST(ChurnScript, StandardTraceMatchesListing) {
  const ChurnScript script = ChurnScript::standard_trace(128, 3.0);
  ASSERT_EQ(script.actions().size(), 4u);
  const auto* join = std::get_if<JoinSpan>(&script.actions()[0]);
  ASSERT_NE(join, nullptr);
  EXPECT_EQ(join->count, 128u);
  const auto* churn = std::get_if<ConstChurn>(&script.actions()[2]);
  ASSERT_NE(churn, nullptr);
  EXPECT_DOUBLE_EQ(churn->fraction, 0.03);
}

TEST(ChurnScript, CommentsAndBlankLinesIgnored) {
  const ChurnScript script = ChurnScript::parse(
      "# a comment\n"
      "\n"
      "at 10 s stop # trailing comment\n");
  EXPECT_EQ(script.actions().size(), 1u);
}

TEST(ChurnScript, FractionalTimesAndRates) {
  const ChurnScript script =
      ChurnScript::parse("from 0.5 s to 2.5 s const churn 2.5% each 0.5 s\n");
  const auto* churn = std::get_if<ConstChurn>(&script.actions()[0]);
  ASSERT_NE(churn, nullptr);
  EXPECT_DOUBLE_EQ(churn->fraction, 0.025);
  EXPECT_EQ(churn->period, sim::Duration::milliseconds(500));
}

TEST(ChurnScript, RejectsMalformedLines) {
  EXPECT_THROW(ChurnScript::parse("join 17\n"), std::invalid_argument);
  EXPECT_THROW(ChurnScript::parse("from 1 s to 2 s dance\n"),
               std::invalid_argument);
  EXPECT_THROW(ChurnScript::parse("from 5 s to 2 s join 3\n"),
               std::invalid_argument);
  EXPECT_THROW(ChurnScript::parse("at 1 s set replacement ratio to 1.0\n"),
               std::invalid_argument);
  EXPECT_THROW(ChurnScript::parse("from 1 s to 2 s const churn 5% each 0 s\n"),
               std::invalid_argument);
  EXPECT_THROW(ChurnScript::parse("at x s stop\n"), std::invalid_argument);
}

TEST(ChurnDriver, ExecutesJoinsAndKills) {
  sim::Simulator simulator(1);
  int spawned = 0;
  std::vector<net::NodeId> population;
  for (std::uint32_t i = 0; i < 100; ++i) population.emplace_back(i);
  std::vector<net::NodeId> killed;

  ChurnHooks hooks;
  hooks.spawn = [&]() { ++spawned; };
  hooks.population = [&]() { return population; };
  hooks.kill = [&](net::NodeId id) { killed.push_back(id); };

  const ChurnScript script = ChurnScript::parse(
      "from 0 s to 10 s join 20\n"
      "from 10 s to 70 s const churn 10% each 20 s\n"
      "at 70 s stop\n");
  ChurnDriver driver(simulator, script, hooks);
  driver.arm();
  simulator.run_until(sim::TimePoint::origin() + sim::Duration::seconds(100));

  // 20 bootstrap joins; 3 churn ticks × 10 kills; replacement ratio defaults
  // to 100% so every kill spawns a replacement.
  EXPECT_EQ(driver.counters().kills, 30u);
  EXPECT_EQ(driver.counters().joins, 20u + 30u);
  EXPECT_EQ(spawned, 50);
  EXPECT_EQ(killed.size(), 30u);
}

TEST(ChurnDriver, ReplacementRatioControlsJoins) {
  sim::Simulator simulator(2);
  int spawned = 0;
  std::vector<net::NodeId> population;
  for (std::uint32_t i = 0; i < 100; ++i) population.emplace_back(i);

  ChurnHooks hooks;
  hooks.spawn = [&]() { ++spawned; };
  hooks.population = [&]() { return population; };
  hooks.kill = [&](net::NodeId) {};

  const ChurnScript script = ChurnScript::parse(
      "at 0 s set replacement ratio to 0%\n"
      "from 0 s to 40 s const churn 10% each 20 s\n"
      "at 40 s stop\n");
  ChurnDriver driver(simulator, script, hooks);
  driver.arm();
  simulator.run_until(sim::TimePoint::origin() + sim::Duration::seconds(60));
  EXPECT_EQ(driver.counters().kills, 20u);
  EXPECT_EQ(spawned, 0);
}

TEST(ChurnDriver, RelativeToArmTime) {
  sim::Simulator simulator(3);
  simulator.after(sim::Duration::seconds(100), []() {});
  simulator.run();  // clock now at 100 s
  int spawned = 0;
  ChurnHooks hooks;
  hooks.spawn = [&]() { ++spawned; };
  hooks.population = []() { return std::vector<net::NodeId>{}; };
  hooks.kill = [](net::NodeId) {};
  const ChurnScript script = ChurnScript::parse("from 0 s to 5 s join 5\n");
  ChurnDriver driver(simulator, script, hooks);
  driver.arm();  // script time 0 == simulator time 100 s
  simulator.run();
  EXPECT_EQ(spawned, 5);
  EXPECT_LE(simulator.now(),
            sim::TimePoint::origin() + sim::Duration::seconds(106));
}

TEST(Testbed, Parsing) {
  EXPECT_EQ(parse_testbed("cluster"), TestbedKind::kCluster);
  EXPECT_EQ(parse_testbed("planetlab"), TestbedKind::kPlanetLab);
  EXPECT_THROW(static_cast<void>(parse_testbed("ec2")), std::invalid_argument);
  EXPECT_STREQ(to_string(TestbedKind::kCluster), "cluster");
  EXPECT_STREQ(to_string(TestbedKind::kPlanetLab), "planetlab");
}

TEST(Testbed, ConfigsDiffer) {
  const net::Network::Config cluster = testbed_network_config(
      TestbedKind::kCluster);
  const net::Network::Config planetlab = testbed_network_config(
      TestbedKind::kPlanetLab);
  EXPECT_GT(cluster.upload_Bps, planetlab.upload_Bps);
  EXPECT_LT(cluster.rx_process_mean, planetlab.rx_process_mean);
}

TEST(BrisaSystem, DeterministicAcrossRuns) {
  auto run_once = [](std::uint64_t seed) {
    BrisaSystem::Config config;
    config.seed = seed;
    config.num_nodes = 24;
    config.join_spread = sim::Duration::seconds(5);
    config.stabilization = sim::Duration::seconds(10);
    BrisaSystem system(config);
    system.bootstrap();
    system.run_stream(20, 5.0, 256);
    std::uint64_t signature = 0;
    for (const net::NodeId id : system.member_ids()) {
      const auto& stats = system.brisa(id).stats();
      signature = signature * 1315423911u + stats.delivered * 7 +
                  stats.duplicates;
      for (const net::NodeId parent : system.brisa(id).parents()) {
        signature = signature * 31 + parent.index();
      }
    }
    return signature;
  };
  EXPECT_EQ(run_once(77), run_once(77));
  EXPECT_NE(run_once(77), run_once(78));
}

TEST(BrisaSystem, StructureEdgesMatchParents) {
  BrisaSystem::Config config;
  config.num_nodes = 24;
  config.join_spread = sim::Duration::seconds(5);
  config.stabilization = sim::Duration::seconds(10);
  BrisaSystem system(config);
  system.bootstrap();
  system.run_stream(20, 5.0, 256);
  const auto edges = system.structure_edges();
  // Tree: exactly one edge per non-source member.
  EXPECT_EQ(edges.size(), system.member_ids().size() - 1);
  for (const auto& edge : edges) {
    const auto parents = system.brisa(edge.child).parents();
    EXPECT_EQ(parents.size(), 1u);
    EXPECT_EQ(parents[0], edge.parent);
  }
}

// The SystemBase body holds for all four protocols: one stream schedule,
// one delivery count, and the per-protocol churn-population rule.
class HarnessContract : public ::testing::TestWithParam<const char*> {};

TEST_P(HarnessContract, StreamsCompletelyAndKeepsTheChurnPopulationRule) {
  Scenario scenario;
  scenario.protocol = GetParam();
  scenario.nodes = 24;
  scenario.seed = 5;
  scenario.join_spread_s = 5;
  const std::unique_ptr<SystemBase> system = make_system(scenario);
  system->bootstrap();
  system->run_stream(20, 5.0, 256);

  EXPECT_EQ(system->messages_sent(), 20u);
  const net::NodeId source = system->source_id();
  for (const net::NodeId id : system->receivers()) {
    if (id == source) continue;
    EXPECT_EQ(system->delivery_log(id, net::kDefaultStream).delivered, 20u)
        << "node " << id;
  }
  EXPECT_TRUE(system->complete_delivery());

  // The tree's population is fixed: its root stays in the churn population.
  const std::vector<net::NodeId> population =
      system->churn_hooks().population();
  const bool has_source =
      std::find(population.begin(), population.end(), source) !=
      population.end();
  EXPECT_EQ(has_source, std::string(GetParam()) == "tree");
  EXPECT_EQ(population.size(),
            system->member_ids().size() - (has_source ? 0 : 1));
}

INSTANTIATE_TEST_SUITE_P(Protocols, HarnessContract,
                         ::testing::Values("brisa", "tree", "gossip", "tag"),
                         [](const ::testing::TestParamInfo<const char*>& info) {
                           return std::string(info.param);
                         });

}  // namespace
}  // namespace brisa::workload
