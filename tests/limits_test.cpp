// Bandwidth-discipline ([limits]) coverage: scenario grammar round-trips and
// line-numbered diagnostics, bounded-store eviction determinism, Bloom
// digests, adaptive rate control, and the zero-cost-when-off contract.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "net/limits.h"
#include "workload/baseline_systems.h"
#include "workload/brisa_system.h"
#include "workload/churn.h"
#include "workload/scenario.h"

namespace brisa {
namespace {

// --- Scenario grammar -------------------------------------------------------

TEST(LimitsScenario, RoundTripAndMaterialization) {
  const workload::Scenario s = workload::Scenario::parse(
      "[scenario]\n"
      "name = bounded\n"
      "[limits]\n"
      "store-entries = 16\n"
      "store-bytes   = 65536\n"
      "eviction      = delivered-first\n"
      "bloom-digests = true\n"
      "bloom-fp      = 0.02\n"
      "rate-control  = true\n"
      "overuse-ms    = 150\n"
      "underuse-ms   = 10\n"
      "recovery-ms   = 400\n");
  const net::Limits limits = workload::scenario_limits(s);
  EXPECT_EQ(limits.store_entries, 16u);
  EXPECT_EQ(limits.store_bytes, 65536u);
  EXPECT_EQ(limits.eviction, net::EvictionPolicy::kDeliveredFirst);
  EXPECT_TRUE(limits.bloom_digests);
  EXPECT_DOUBLE_EQ(limits.bloom_fp, 0.02);
  EXPECT_TRUE(limits.rate_control);
  EXPECT_EQ(limits.overuse_threshold, sim::Duration::milliseconds(150));
  EXPECT_EQ(limits.underuse_threshold, sim::Duration::milliseconds(10));
  EXPECT_EQ(limits.rate_recovery, sim::Duration::milliseconds(400));
  EXPECT_TRUE(limits.bounded());
  EXPECT_TRUE(limits.any());

  // parse(to_text()) reproduces the section.
  const workload::Scenario reparsed = workload::Scenario::parse(s.to_text());
  EXPECT_EQ(workload::scenario_limits(reparsed), limits);
}

TEST(LimitsScenario, AbsentSectionMeansOff) {
  const workload::Scenario s =
      workload::Scenario::parse("[scenario]\nname = plain\n");
  const net::Limits limits = workload::scenario_limits(s);
  EXPECT_EQ(limits, net::Limits{});
  EXPECT_FALSE(limits.bounded());
  EXPECT_FALSE(limits.any());
}

/// The diagnostic for `text` (empty when it parses).
std::string diagnostic_of(const std::string& text) {
  std::string diagnostic;
  if (workload::Scenario::try_parse(text, &diagnostic)) return "";
  return diagnostic;
}

TEST(LimitsScenario, BadKeysCarryLineNumbers) {
  const std::string bad_key = diagnostic_of(
      "[scenario]\nname = x\n[limits]\nstore-entrees = 4\n");
  EXPECT_NE(bad_key.find("scenario line 4"), std::string::npos) << bad_key;
  EXPECT_NE(diagnostic_of("[limits]\nstore-entries = lots\n")
                .find("scenario line 2"),
            std::string::npos);
}

TEST(LimitsScenario, SemanticValidation) {
  EXPECT_NE(diagnostic_of("[limits]\neviction = newest-first\n")
                .find("oldest-first|delivered-first"),
            std::string::npos);
  EXPECT_NE(diagnostic_of("[limits]\nbloom-fp = 1.5\n").find("(0, 1)"),
            std::string::npos);
  EXPECT_NE(diagnostic_of("[limits]\noveruse-ms = -3\n").find("positive"),
            std::string::npos);
  EXPECT_NE(diagnostic_of("[limits]\noveruse-ms = 10\nunderuse-ms = 50\n")
                .find("below overuse-ms"),
            std::string::npos);
}

// --- Defaults = off ---------------------------------------------------------

TEST(Limits, DefaultIsOff) {
  const net::Limits limits;
  EXPECT_FALSE(limits.bounded());
  EXPECT_FALSE(limits.any());
  EXPECT_EQ(limits.store_entries, 0u);
  EXPECT_FALSE(limits.bloom_digests);
  EXPECT_FALSE(limits.rate_control);
}

// --- Bounded stores ---------------------------------------------------------

workload::SimpleGossipSystem::Config gossip_config(net::Limits limits,
                                                   std::uint64_t seed = 21) {
  workload::SimpleGossipSystem::Config config;
  config.seed = seed;
  config.num_nodes = 48;
  config.gossip.limits = limits;
  return config;
}

TEST(Limits, GossipEvictionIsDeterministic) {
  // Same seed, same bound: both runs must evict identically and deliver at
  // identical instants — bounded stores must not perturb determinism.
  net::Limits limits;
  limits.store_entries = 4;
  auto run = [&] {
    auto system = std::make_unique<workload::SimpleGossipSystem>(
        gossip_config(limits));
    system->bootstrap();
    system->run_stream(40, 5.0, 512, sim::Duration::seconds(30));
    return system;
  };
  const auto first = run();
  const auto second = run();
  std::uint64_t total_evictions = 0;
  for (const net::NodeId id : first->all_ids()) {
    EXPECT_EQ(first->node(id).evictions(), second->node(id).evictions());
    total_evictions += first->node(id).evictions();
    const auto& a = first->node(id).stats().delivery_time;
    const auto& b = second->node(id).stats().delivery_time;
    ASSERT_EQ(a.size(), b.size());
    auto it_b = b.begin();
    for (auto it_a = a.begin(); it_a != a.end(); ++it_a, ++it_b) {
      EXPECT_EQ(it_a->first, it_b->first);
      EXPECT_EQ(it_a->second, it_b->second);
    }
  }
  EXPECT_GT(total_evictions, 0u);
}

TEST(Limits, GossipLooseBoundIsFree) {
  // A bound wider than the whole stream never fires: zero evictions and
  // complete delivery, exactly like the unbounded run.
  net::Limits limits;
  limits.store_entries = 10'000;
  workload::SimpleGossipSystem system(gossip_config(limits));
  system.bootstrap();
  system.run_stream(40, 5.0, 512, sim::Duration::seconds(30));
  EXPECT_TRUE(system.complete_delivery());
  for (const net::NodeId id : system.all_ids()) {
    EXPECT_EQ(system.node(id).evictions(), 0u) << id;
  }
}

TEST(Limits, GossipTightBoundEvictsButCleanRunStillCompletes) {
  // With no faults nothing ever asks for an evicted payload: the bound costs
  // evictions, not reliability.
  net::Limits limits;
  limits.store_entries = 4;
  limits.eviction = net::EvictionPolicy::kDeliveredFirst;
  workload::SimpleGossipSystem system(gossip_config(limits));
  system.bootstrap();
  system.run_stream(40, 5.0, 512, sim::Duration::seconds(30));
  EXPECT_TRUE(system.complete_delivery());
  std::uint64_t evictions = 0;
  for (const net::NodeId id : system.all_ids()) {
    evictions += system.node(id).evictions();
  }
  EXPECT_GT(evictions, 0u);
}

TEST(Limits, BrisaBoundedStoreEvictsAndCompletes) {
  workload::BrisaSystem::Config config;
  config.seed = 23;
  config.num_nodes = 48;
  config.join_spread = sim::Duration::seconds(10);
  config.stabilization = sim::Duration::seconds(20);
  config.brisa.limits.store_entries = 4;
  workload::BrisaSystem system(config);
  system.bootstrap();
  system.run_stream(40, 5.0, 512);
  EXPECT_TRUE(system.complete_delivery());
  std::uint64_t evictions = 0;
  for (const net::NodeId id : system.member_ids()) {
    evictions += system.brisa(id).stats().buffer_evictions;
  }
  EXPECT_GT(evictions, 0u);
}

// A late joiner delivers its first live sequences before the older ones it
// then back-fills from its parent, so its retransmit buffer is not in
// sequence order. The [limits] bound must still evict the lowest sequences
// (net/limits.h): evicting the earliest *arrival* threw away the joiner's
// first live seqs — the ones children it adopts mid-stream ask it for — and
// kept stale back-fill, starving its subtree.
TEST(Limits, BrisaLateJoinerEvictsLowestSequenceNotEarliestArrival) {
  constexpr std::size_t kCap = 16;
  workload::BrisaSystem::Config config;
  config.seed = 23;
  config.num_nodes = 32;
  config.join_spread = sim::Duration::seconds(10);
  config.stabilization = sim::Duration::seconds(20);
  config.brisa.limits.store_entries = kCap;
  workload::BrisaSystem system(config);
  system.bootstrap();
  system.run_stream(40, 5.0, 512);
  const net::NodeId joiner = system.spawn_node();
  system.run_for(sim::Duration::seconds(10));
  system.run_stream(10, 5.0, 512);

  const core::Brisa& stream = system.brisa(joiner);
  // The earliest-delivered seq is the joiner's first live one; everything
  // below it arrived later, by retransmission.
  std::uint64_t first_live = 0;
  sim::TimePoint first_at = sim::TimePoint::max();
  std::vector<std::uint64_t> delivered;
  for (const auto& [seq, at] : stream.stats().delivery_time) {
    delivered.push_back(seq);
    if (at < first_at) {
      first_at = at;
      first_live = seq;
    }
  }
  ASSERT_GT(first_live, 0u) << "joiner saw the stream from seq 0";
  ASSERT_GT(stream.stats().retransmissions_received, 0u)
      << "no back-fill: the test is vacuous";
  ASSERT_GT(delivered.size(), kCap) << "bound never engaged";
  EXPECT_GT(stream.stats().buffer_evictions, 0u);

  // What remains is exactly the kCap highest delivered sequences, so the
  // joiner can still serve its first live seq.
  std::sort(delivered.begin(), delivered.end());
  const std::vector<std::uint64_t> newest(delivered.end() - kCap,
                                          delivered.end());
  std::vector<std::uint64_t> held = stream.buffered_seqs();
  std::sort(held.begin(), held.end());
  EXPECT_EQ(held, newest);
  EXPECT_TRUE(std::binary_search(held.begin(), held.end(), first_live));
}

// --- Bloom digests ----------------------------------------------------------

TEST(Limits, GossipBloomDigestsStillComplete) {
  // Fanout 1 cripples the push phase so anti-entropy must finish the job —
  // now with Bloom have-digests instead of exact lists. A false positive
  // only skips a seq for one round, so dissemination still completes.
  net::Limits limits;
  limits.bloom_digests = true;
  limits.bloom_fp = 0.05;
  auto config = gossip_config(limits, 25);
  config.fanout = 1;
  workload::SimpleGossipSystem system(config);
  system.bootstrap();
  system.run_stream(30, 5.0, 256, sim::Duration::seconds(60));
  EXPECT_TRUE(system.complete_delivery());
  std::uint64_t recoveries = 0;
  for (const net::NodeId id : system.all_ids()) {
    recoveries += system.node(id).stats().anti_entropy_recoveries;
  }
  EXPECT_GT(recoveries, 0u);
}

TEST(Limits, GossipTruncatedDigestRotationCompletes) {
  // digest_extras=2 truncates the exact have-list hard, and 30% loss over
  // pull-driven delivery (fanout 1) leaves most nodes holding more than two
  // seqs above their watermark, so rounds take the truncation. With a
  // two-update batch a reply has room for the watermark seq plus one more:
  // the rotation cursor must eventually advertise every held seq, or that
  // slot keeps carrying the same unadvertised held seq back. A digest that
  // always advertises the newest window misses this grace on some of these
  // seeds.
  for (std::uint64_t seed = 20; seed < 32; ++seed) {
    workload::SimpleGossipSystem::Config config;
    config.seed = seed;
    config.num_nodes = 48;
    config.fanout = 1;
    config.gossip.digest_extras = 2;
    config.gossip.anti_entropy_batch = 2;
    workload::SimpleGossipSystem system(config);
    system.bootstrap();
    workload::ChurnDriver loss(
        system.simulator(),
        workload::ChurnScript::parse("from 0 s to 60 s drop 30%\n"
                                     "at 60 s stop\n"),
        system.churn_hooks());
    loss.arm();
    system.run_stream(120, 20.0, 256, sim::Duration::seconds(30));
    EXPECT_TRUE(system.complete_delivery()) << "seed " << seed;
  }
}

// --- Rate control -----------------------------------------------------------

TEST(Limits, RateControlDefersOptionalTrafficUnderPressure) {
  // An absurdly low overuse threshold marks any in-flight transmission as
  // overusing: anti-entropy rounds get deferred, while the rumor push path
  // (not optional) still completes the dissemination.
  net::Limits limits;
  limits.rate_control = true;
  limits.overuse_threshold = sim::Duration::microseconds(1);
  limits.underuse_threshold = sim::Duration::microseconds(0);
  workload::SimpleGossipSystem system(gossip_config(limits, 29));
  system.bootstrap();
  system.run_stream(60, 20.0, 4096, sim::Duration::seconds(30));
  EXPECT_TRUE(system.complete_delivery());
  std::uint64_t deferrals = 0;
  for (const net::NodeId id : system.all_ids()) {
    deferrals += system.node(id).stats(0).rate_deferrals;
  }
  EXPECT_GT(deferrals, 0u);
}

TEST(Limits, AimdRecoveryFreezesDeferralsAfterBacklogClears) {
  // Heavy phase: an absurdly low overuse threshold makes every in-flight
  // transmission an overuse episode, so gains collapse toward the floor and
  // anti-entropy rounds are deferred. Quiet phase: no stream traffic, so
  // backlogs sit at zero (underusing) and each sustained-underuse period
  // ramps the gain back one additive step — once every member is back at
  // full rate, the deferral count must stop growing entirely.
  net::Limits limits;
  limits.rate_control = true;
  limits.overuse_threshold = sim::Duration::microseconds(1);
  limits.underuse_threshold = sim::Duration::microseconds(0);
  limits.rate_recovery = sim::Duration::milliseconds(500);
  workload::SimpleGossipSystem system(gossip_config(limits, 29));
  system.bootstrap();
  system.run_stream(60, 20.0, 4096, sim::Duration::seconds(30));
  EXPECT_TRUE(system.complete_delivery());

  const auto total_deferrals = [&system] {
    std::uint64_t total = 0;
    for (const net::NodeId id : system.all_ids()) {
      total += system.node(id).stats(0).rate_deferrals;
    }
    return total;
  };
  const std::uint64_t heavy_phase = total_deferrals();
  EXPECT_GT(heavy_phase, 0u);

  // Anti-entropy timers fire every 100 ms with nothing else in flight: a
  // handful of 500 ms quiet periods walks every gain back to 256/256.
  system.run_for(sim::Duration::seconds(20));
  for (const net::NodeId id : system.member_ids()) {
    EXPECT_EQ(system.network().tx_rate_gain(id), 256u);
  }
  const std::uint64_t after_recovery = total_deferrals();

  // Fully recovered senders never defer: the count is frozen.
  system.run_for(sim::Duration::seconds(20));
  EXPECT_EQ(total_deferrals(), after_recovery);
}

}  // namespace
}  // namespace brisa
