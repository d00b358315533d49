// Shard-count invariance: the tentpole guarantee of the sharded simulation
// loop is that per-seed results are *byte-identical* for every shard count,
// including shards=1. Three layers pin it:
//
//   1. CounterRng unit tests: per-host streams are pure functions of
//      (base key, host id) — no draw on one host's stream can perturb
//      another's, so partitioning hosts across shards cannot change what
//      any host samples.
//   2. In-process system runs across shards {1,2,4} compared on
//      deterministic simulator counters and per-node delivery times.
//   3. Golden end-to-end runs through the built brisa_run binary for the
//      pinned scenarios: fig02, fig06, and the faulted multi-stream sweep,
//      each across the same shard counts.
//      Stdout must match byte for byte (wall-clock fields are normalized
//      away — they are the one legitimately nondeterministic output).
#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <regex>
#include <string>
#include <vector>

#include "sim/rng.h"
#include "sim/simulator.h"
#include "workload/brisa_system.h"

namespace brisa {
namespace {

constexpr const char kRunner[] = BRISA_BINARY_DIR "/brisa_run";
constexpr const char kScenarioDir[] = BRISA_SOURCE_DIR "/scenarios";

// --- 1. Per-host RNG streams are partition-independent ----------------------

TEST(CounterRngPartition, SameKeyReproducesTheSameStream) {
  sim::CounterRng a = sim::CounterRng::keyed(42, 7);
  sim::CounterRng b = sim::CounterRng::keyed(42, 7);
  for (int i = 0; i < 64; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(CounterRngPartition, DistinctEntitiesGetDistinctStreams) {
  sim::CounterRng a = sim::CounterRng::keyed(42, 7);
  sim::CounterRng b = sim::CounterRng::keyed(42, 8);
  // First draws differing is all determinism needs; equality here would
  // mean correlated per-host faults/latencies.
  EXPECT_NE(a.next_u64(), b.next_u64());
}

TEST(CounterRngPartition, DrawsOnOtherStreamsDoNotPerturbAHost) {
  // Reference: host 3's stream drawn alone.
  std::vector<std::uint64_t> alone;
  {
    sim::CounterRng rng = sim::CounterRng::keyed(99, 3);
    for (int i = 0; i < 32; ++i) alone.push_back(rng.next_u64());
  }
  // Interleaved: hosts 0..7 drawn round-robin — the shard executor's
  // worst case, where other lanes advance between a host's draws.
  std::vector<sim::CounterRng> hosts;
  for (std::uint64_t h = 0; h < 8; ++h) {
    hosts.push_back(sim::CounterRng::keyed(99, h));
  }
  std::vector<std::uint64_t> interleaved;
  for (int i = 0; i < 32; ++i) {
    for (std::uint64_t h = 0; h < 8; ++h) {
      const std::uint64_t v = hosts[h].next_u64();
      if (h == 3) interleaved.push_back(v);
    }
  }
  EXPECT_EQ(alone, interleaved);
}

// --- 2. In-process system runs across shard counts --------------------------

struct RunFingerprint {
  sim::Simulator::Stats stats;  // operator== compares deterministic counters
  std::uint64_t sent = 0;
  // node -> (seq -> delivery time in ns), stream 0.
  std::map<std::uint32_t, std::map<std::uint64_t, std::int64_t>> deliveries;

  bool operator==(const RunFingerprint& o) const {
    return stats == o.stats && sent == o.sent && deliveries == o.deliveries;
  }
};

RunFingerprint run_system(std::uint32_t shards) {
  workload::BrisaSystem::Config config;
  config.seed = 7;
  config.num_nodes = 64;
  config.shards = shards;
  config.join_spread = sim::Duration::seconds(10);
  config.stabilization = sim::Duration::seconds(10);
  workload::BrisaSystem system(config);
  system.bootstrap();
  system.run_stream(15, 5.0, 256);

  RunFingerprint fp;
  fp.stats = system.simulator().stats();
  fp.sent = system.messages_sent();
  for (const net::NodeId id : system.member_ids()) {
    auto& times = fp.deliveries[id.index()];
    for (const auto& [seq, at] : system.brisa(id).stats().delivery_time) {
      times[seq] = at.us();
    }
  }
  return fp;
}

TEST(ShardDeterminism, SystemRunIsIdenticalAcrossShardCounts) {
  // Reference cell: a single shard — the classic serial loop.
  const RunFingerprint reference = run_system(1);
  EXPECT_GT(reference.sent, 0u);
  // Source included: it self-delivers.
  EXPECT_EQ(reference.deliveries.size(), 64u);
  for (const std::uint32_t shards : {2u, 4u}) {
    const RunFingerprint cell = run_system(shards);
    const std::string label = "shards=" + std::to_string(shards);
    EXPECT_TRUE(reference.stats == cell.stats) << label;
    EXPECT_EQ(reference.sent, cell.sent) << label;
    EXPECT_EQ(reference.deliveries, cell.deliveries) << label;
  }
}

TEST(ShardDeterminism, ShardCountersAccountForEveryLaneEvent) {
  workload::BrisaSystem::Config config;
  config.seed = 3;
  config.num_nodes = 48;
  config.shards = 4;
  config.join_spread = sim::Duration::seconds(10);
  config.stabilization = sim::Duration::seconds(10);
  workload::BrisaSystem system(config);
  system.bootstrap();
  system.run_stream(5, 5.0, 256);

  const sim::Simulator::Stats stats = system.simulator().stats();
  ASSERT_EQ(stats.shards.size(), 4u);
  std::uint64_t lane_events = 0;
  for (const auto& shard : stats.shards) lane_events += shard.events;
  EXPECT_GT(lane_events, 0u);
  EXPECT_GT(stats.windows, 0u);
  EXPECT_EQ(lane_events + stats.serial_events, stats.events_fired);
}

// --- 3. Golden end-to-end runs through brisa_run -----------------------------

struct CommandResult {
  int status = -1;
  std::string out;
};

CommandResult run_command(const std::string& command) {
  CommandResult result;
  FILE* pipe = ::popen(command.c_str(), "r");
  if (pipe == nullptr) return result;
  char buffer[4096];
  std::size_t n = 0;
  while ((n = std::fread(buffer, 1, sizeof buffer, pipe)) > 0) {
    result.out.append(buffer, n);
  }
  result.status = ::pclose(pipe);
  return result;
}

/// Wall-clock readings are the one legitimately shard-variant output; blank
/// them before comparing ("wall_seconds":0.03 / "12.3s wall" / "0.1s wall").
std::string normalize_wall_clock(const std::string& text) {
  static const std::regex json_field("\"wall_seconds\":[0-9.]+");
  static const std::regex human_field("[0-9.]+s wall");
  return std::regex_replace(
      std::regex_replace(text, json_field, "\"wall_seconds\":X"),
      human_field, "Xs wall");
}

void expect_byte_identical_across_shards(const std::string& scenario,
                                         const std::string& overrides) {
  // Every shard count, compared against the shards=1 serial loop.
  std::string reference;
  for (const int shards : {1, 2, 4}) {
    const std::string command =
        std::string(kRunner) + " " + kScenarioDir + "/" + scenario + " " +
        overrides + " --set run.shards=" + std::to_string(shards) +
        " 2>/dev/null";
    const CommandResult result = run_command(command);
    ASSERT_EQ(result.status, 0) << command << "\n" << result.out;
    ASSERT_FALSE(result.out.empty()) << command;
    const std::string normalized = normalize_wall_clock(result.out);
    if (reference.empty()) {
      reference = normalized;
    } else {
      EXPECT_EQ(reference, normalized)
          << scenario << ": shards=1 vs shards=" << shards;
    }
  }
}

TEST(ShardGolden, Fig02FloodDuplicates) {
  expect_byte_identical_across_shards(
      "fig02_flood_duplicates.scn",
      "--set scenario.nodes=96 --set streams.messages=20 "
      "--set params.views=4");
}

TEST(ShardGolden, Fig06Depth) {
  expect_byte_identical_across_shards(
      "fig06_depth.scn",
      "--set scenario.nodes=96 --set streams.messages=15");
}

TEST(ShardGolden, FaultedMultiStream) {
  // The hard case: churn (10% loss + a crash burst), several streams, and
  // the repair traffic they force — all under parallel windows.
  expect_byte_identical_across_shards(
      "multi_stream.scn",
      "--set sweep.streams.count=1,8 --set streams.messages=10 "
      "--set scenario.nodes=96");
}

}  // namespace
}  // namespace brisa
