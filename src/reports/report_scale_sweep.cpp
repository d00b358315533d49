// Scale sweep: one broadcast stream of one protocol at one width, with or
// without a fault plan — a single cell of the paper's headline claim at
// sweep scale: per-node dissemination cost (and reliability) stays flat
// while the system grows two orders of magnitude.
//
// scenarios/scale_sweep.scn sweeps nodes x protocol x variant (1k -> 100k);
// each cell prints one human row and one JSON line, and the merged rows are
// the recorded runs in BENCH_scale.json at the repo root. A clean BRISA
// cell exits 1 when it misses 100% reliability, so the sweep fails when the
// scale claim does at any width.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "analysis/stats.h"
#include "reports/metrics.h"
#include "reports/reports_impl.h"
#include "workload/churn.h"

namespace brisa::reports::impl {

namespace {

/// The cell's inputs.
struct Cell {
  std::uint64_t seed = 1;
  std::size_t nodes = 0;
  std::size_t messages = 0;
  double rate = 0.0;
  std::size_t payload = 0;
  bool faulted = false;
  std::uint32_t shards = 1;
};

struct RunResult {
  std::string protocol;
  double reliability = 0.0;
  bool complete = false;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  std::uint64_t events_fired = 0;
  std::uint64_t messages_sent = 0;
  double wall_seconds = 0.0;
  double events_per_second = 0.0;  ///< wall-clock event rate of the run
};

/// The same mild fault plan for every faulted cell: 5% uniform loss over
/// the first 15 s of the stream plus a crash burst of 1% of the nodes
/// (min 3) recovering after 10 s.
std::string fault_script(std::size_t nodes) {
  const std::size_t crash = std::max<std::size_t>(3, nodes / 100);
  return "from 0 s to 15 s drop 5%\nat 5 s crash " + std::to_string(crash) +
         " for 10 s\nat 60 s stop\n";
}

/// Fills the config fields every protocol shares.
template <typename Config>
Config base_config(const Cell& cell, sim::Duration stabilization) {
  Config config;
  config.seed = cell.seed;
  config.num_nodes = cell.nodes;
  config.shards = cell.shards;
  config.join_spread = sim::Duration::seconds(20);
  config.stabilization = stabilization;
  return config;
}

/// Arms the fault plan (faulted cells only), streams the cell's messages
/// through a bootstrapped system and measures it: reliability + latency
/// percentiles over the receivers `ids_of()` names after the stream
/// (`times_of(id)` is a node's seq -> delivery-time map), event/message
/// totals, wall time.
template <typename System, typename IdsOf, typename TimesOf>
RunResult stream(System& system, const char* protocol,
                 workload::ChurnHooks hooks, const Cell& cell,
                 sim::Duration grace, const IdsOf& ids_of,
                 const TimesOf& times_of,
                 std::chrono::steady_clock::time_point wall_start) {
  workload::ChurnDriver driver(
      system.simulator(),
      workload::ChurnScript::parse(fault_script(cell.nodes)),
      std::move(hooks));
  if (cell.faulted) driver.arm();
  system.run_stream(cell.messages, cell.rate, cell.payload, grace);

  RunResult result;
  result.protocol = protocol;
  std::uint64_t delivered = 0;
  std::size_t receivers = 0;
  std::vector<double> delays_ms;
  const net::NodeId source = system.source_id();
  const auto& source_times = times_of(source);
  for (const net::NodeId id : ids_of()) {
    if (id == source) continue;
    ++receivers;
    const auto& times = times_of(id);
    delivered += times.size();
    for (const auto& [seq, at] : times) {
      const auto it = source_times.find(seq);
      if (it == source_times.end()) continue;
      delays_ms.push_back((at - it->second).to_milliseconds());
    }
  }
  const std::uint64_t expected =
      static_cast<std::uint64_t>(receivers) * system.messages_sent();
  result.reliability = expected == 0 ? 0.0
                                     : static_cast<double>(delivered) /
                                           static_cast<double>(expected);
  result.p50_ms =
      delays_ms.empty() ? 0.0 : analysis::percentile(delays_ms, 50);
  result.p99_ms =
      delays_ms.empty() ? 0.0 : analysis::percentile(delays_ms, 99);
  result.complete = system.complete_delivery();
  result.events_fired = system.simulator().events_fired();
  result.messages_sent = system.network().messages_sent();
  result.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();
  result.events_per_second =
      result.wall_seconds > 0.0
          ? static_cast<double>(result.events_fired) / result.wall_seconds
          : 0.0;
  return result;
}

/// Builds and bootstraps `protocol`'s system, then streams the cell.
RunResult run_cell(const std::string& protocol, const Cell& cell) {
  const auto wall_start = std::chrono::steady_clock::now();
  const auto members = [](auto& system) {
    return [&system] { return system.member_ids(); };
  };
  const auto node_times = [](auto& system) {
    return [&system](net::NodeId id) -> const auto& {
      return system.node(id).stats().delivery_time;
    };
  };
  if (protocol == "brisa") {
    workload::BrisaSystem system(base_config<workload::BrisaSystem::Config>(
        cell, sim::Duration::seconds(25)));
    system.bootstrap();
    // Bootstrap churns far more pending events than steady state (joins,
    // per-host arming); release that slack before streaming.
    system.simulator().shrink();
    return stream(
        system, "brisa", system.churn_hooks(), cell,
        sim::Duration::seconds(20), members(system),
        [&system](net::NodeId id) -> const auto& {
          return system.brisa(id).stats().delivery_time;
        },
        wall_start);
  }
  if (protocol == "gossip") {
    auto config = base_config<workload::SimpleGossipSystem::Config>(
        cell, sim::Duration::seconds(10));
    config.fanout = workload::gossip_fanout_for(cell.nodes);
    workload::SimpleGossipSystem system(config);
    system.bootstrap();
    system.simulator().shrink();
    return stream(system, "gossip", system.churn_hooks(), cell,
                  sim::Duration::seconds(20), members(system),
                  node_times(system), wall_start);
  }
  if (protocol == "tree") {
    workload::SimpleTreeSystem system(
        base_config<workload::SimpleTreeSystem::Config>(
            cell, sim::Duration::seconds(10)));
    system.bootstrap();
    system.simulator().shrink();
    // SimpleTree has no spawn/kill API, but the fault plan only uses
    // drop/crash/stop, which the fault hooks cover: the interesting number
    // is how much a repair-less tree loses under the same faults
    // (§III-D b).
    workload::ChurnHooks hooks;
    hooks.spawn = [] {};
    hooks.kill = [](net::NodeId) {};
    hooks.population = [&system] {
      std::vector<net::NodeId> alive;
      for (const net::NodeId id : system.all_ids()) {
        if (system.network().alive(id)) alive.push_back(id);
      }
      return alive;
    };
    system.fill_fault_hooks(hooks);
    return stream(system, "tree", std::move(hooks), cell,
                  sim::Duration::seconds(20),
                  [&system] { return system.all_ids(); }, node_times(system),
                  wall_start);
  }
  workload::TagSystem system(base_config<workload::TagSystem::Config>(
      cell, sim::Duration::seconds(20)));
  system.bootstrap();
  system.simulator().shrink();
  return stream(system, "tag", system.churn_hooks(), cell,
                sim::Duration::seconds(30), members(system),
                node_times(system), wall_start);
}

}  // namespace

std::string scale_sweep_check(const std::string& key,
                              const std::string& value) {
  if (key == "params.variant" && value != "clean" && value != "faulted") {
    return "variant must be clean|faulted, got '" + value + "'";
  }
  return "";
}

workload::Scenario scale_sweep_defaults() {
  workload::Scenario s;
  s.set("scenario", "name", "scale_sweep")
      .set("scenario", "report", "scale_sweep")
      .set("scenario", "seed", "1")
      .set("streams", "messages", "20")
      .set("streams", "rate-per-s", "5")
      .set("streams", "payload", "256")
      .set("sweep", "nodes", "1000, 10000, 100000")
      .set("sweep", "protocol", "brisa, gossip, tree, tag")
      .set("sweep", "param.variant", "clean, faulted");
  return s;
}

int scale_sweep_run(const workload::Scenario& scenario) {
  const std::string protocol = scenario.protocol_or("brisa");
  const std::string variant = scenario.param_string("variant", "clean");
  const std::string error = scale_sweep_check("params.variant", variant);
  if (!error.empty()) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return 2;
  }
  Cell cell;
  cell.seed = scenario.seed_or(1);
  cell.nodes = scenario.nodes_or(1000);
  cell.messages = scenario.messages_or(20);
  cell.rate = scenario.rate_or(5.0);
  cell.payload = scenario.payload_or(256);
  cell.faulted = variant == "faulted";
  cell.shards = scenario.shards_or(1);
  const RunResult r = run_cell(protocol, cell);

  std::printf(
      "%-7s %8zu nodes %s: reliability %7.3f%% (complete: %s), "
      "p50 %7.1f ms, p99 %8.1f ms, %6.2fM events in %6.1fs wall "
      "(%.2fM ev/s)\n",
      r.protocol.c_str(), cell.nodes, cell.faulted ? "faulted" : "clean  ",
      r.reliability * 100.0, r.complete ? "yes" : "NO", r.p50_ms, r.p99_ms,
      static_cast<double>(r.events_fired) / 1e6, r.wall_seconds,
      r.events_per_second / 1e6);
  std::printf(
      "{\"bench\":\"scale_sweep\",\"protocol\":\"%s\",\"nodes\":%zu,"
      "\"faulted\":%s,\"messages\":%zu,\"seed\":%llu,"
      "\"reliability\":%.6f,\"complete_delivery\":%s,"
      "\"p50_ms\":%.3f,\"p99_ms\":%.3f,\"events_fired\":%llu,"
      "\"network_messages\":%llu,\"wall_seconds\":%.2f,"
      "\"events_per_second\":%.0f}\n",
      r.protocol.c_str(), cell.nodes, cell.faulted ? "true" : "false",
      cell.messages, static_cast<unsigned long long>(cell.seed),
      r.reliability, r.complete ? "true" : "false", r.p50_ms, r.p99_ms,
      static_cast<unsigned long long>(r.events_fired),
      static_cast<unsigned long long>(r.messages_sent), r.wall_seconds,
      r.events_per_second);

  // The scale claim under test: a clean BRISA broadcast delivers
  // everything at every width.
  if (protocol != "brisa" || cell.faulted) return 0;
  const bool ok = r.complete && r.reliability >= 1.0;
  std::printf("scale check: clean brisa at %zu nodes %s (reliability "
              "%.4f%%, complete: %s)\n",
              cell.nodes, ok ? "delivered 100%" : "FELL SHORT",
              r.reliability * 100.0, r.complete ? "yes" : "no");
  return ok ? 0 : 1;
}

}  // namespace brisa::reports::impl
