// Fault-recovery report: dissemination latency and reliability of one
// protocol under one fault regime — BRISA vs the epidemic-flood
// (SimpleGossip) and static-tree (SimpleTree) baselines.
//
// Regimes ([params] regime):
//   * loss_<percent>: uniform per-link drop probability over the whole
//     stream. BRISA and the tree ride TCP-like connections, so loss shows
//     up as retransmission delay; the gossip flood's datagrams really drop
//     and must be repaired by anti-entropy.
//   * partition_<seconds>s: two node groups cut from each other 5 s into
//     the stream while the rest of the overlay stays connected; measures
//     whether delivery reroutes around the cut and catches up after heal.
//
// Prints one summary line and one JSON record. scenarios/fault_recovery.scn
// sweeps regime x protocol; its merged rows are the recorded run in
// BENCH_fault_recovery.json at the repo root.
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "analysis/stats.h"
#include "reports/metrics.h"
#include "reports/reports_impl.h"

namespace brisa::reports::impl {

namespace {

struct ScenarioResult {
  std::string protocol;
  std::string scenario;
  double reliability = 0;  ///< delivered / (members * messages)
  double p50_ms = 0;
  double p99_ms = 0;
  std::uint64_t retransmissions = 0;
  std::uint64_t datagrams_dropped = 0;
  std::uint64_t blackholed = 0;
};

/// A parsed `[params] regime`.
struct Regime {
  bool loss = true;
  std::int64_t amount = 0;  ///< loss percent, or partition seconds
};

/// `digits` as a plain decimal — no sign, no leading zero, at most six
/// digits — or -1, so the regime label echoes exactly what was parsed.
std::int64_t plain_decimal(const std::string& digits) {
  if (digits.empty() || digits.size() > 6 ||
      digits.find_first_not_of("0123456789") != std::string::npos ||
      (digits.size() > 1 && digits[0] == '0')) {
    return -1;
  }
  return std::stoll(digits);
}

/// "" on success; otherwise the diagnostic.
std::string parse_regime(const std::string& text, Regime* regime) {
  if (text.rfind("loss_", 0) == 0) {
    const std::int64_t percent = plain_decimal(text.substr(5));
    if (percent >= 0 && percent <= 100) {
      *regime = {true, percent};
      return "";
    }
  } else if (text.rfind("partition_", 0) == 0 && text.back() == 's') {
    const std::int64_t seconds =
        plain_decimal(text.substr(10, text.size() - 11));
    if (seconds >= 1) {
      *regime = {false, seconds};
      return "";
    }
  }
  return "regime must be loss_<percent 0..100> or partition_<seconds>s "
         "(seconds >= 1), got '" +
         text + "'";
}

/// Streams `messages` through a bootstrapped system under `plan` and
/// extracts reliability + latency percentiles. `times_of(id)` returns the
/// node's seq -> delivery-time map; `source` anchors the latency deltas.
template <typename System, typename TimesOf>
ScenarioResult measure(System& system, const char* protocol,
                       const std::string& scenario, const net::FaultPlan& plan,
                       net::NodeId source, TimesOf times_of,
                       std::size_t messages) {
  if (!plan.empty()) {
    system.install_fault_plan(plan.shifted(system.simulator().now() -
                                           sim::TimePoint::origin()));
  }
  system.run_stream(messages, 5.0, 512, sim::Duration::seconds(30));

  ScenarioResult result;
  result.protocol = protocol;
  result.scenario = scenario;
  const auto& source_times = times_of(source);
  std::vector<double> delays_ms;
  std::uint64_t delivered = 0;
  std::size_t members = 0;
  for (const net::NodeId id : system.all_ids()) {
    if (!system.network().alive(id) || id == source) continue;
    ++members;
    const auto& times = times_of(id);
    delivered += times.size();
    for (const auto& [seq, at] : times) {
      const auto it = source_times.find(seq);
      if (it == source_times.end()) continue;
      delays_ms.push_back((at - it->second).to_milliseconds());
    }
  }
  result.reliability =
      members == 0 ? 0.0
                   : static_cast<double>(delivered) /
                         (static_cast<double>(members) *
                          static_cast<double>(messages));
  result.p50_ms = analysis::percentile(delays_ms, 50);
  result.p99_ms = analysis::percentile(delays_ms, 99);
  const net::Network::FaultTotals& totals = system.network().fault_totals();
  result.retransmissions = totals.retransmissions;
  result.datagrams_dropped = totals.datagrams_dropped;
  result.blackholed =
      totals.datagrams_blackholed + totals.segments_blackholed;
  return result;
}

net::FaultPlan loss_plan(double probability) {
  net::FaultPlan plan;
  if (probability > 0.0) {
    plan.add_loss({sim::TimePoint::origin(),
                   sim::TimePoint::origin() + sim::Duration::seconds(100000),
                   probability, net::NodeGroup::all(), net::NodeGroup::all()});
  }
  return plan;
}

net::FaultPlan partition_plan(std::size_t nodes, std::int64_t duration_s) {
  net::FaultPlan plan;
  // Clamp so tiny node counts still cut two disjoint non-empty groups
  // instead of underflowing range() into NodeGroup::all().
  const auto eighth = static_cast<std::uint32_t>(std::max<std::size_t>(
      1, nodes / 8));
  plan.add_partition(
      {sim::TimePoint::origin() + sim::Duration::seconds(5),
       sim::TimePoint::origin() + sim::Duration::seconds(5 + duration_s),
       net::NodeGroup::range(0, eighth - 1),
       net::NodeGroup::range(eighth, 2 * eighth - 1)});
  return plan;
}

ScenarioResult run_brisa(std::uint64_t seed, std::size_t nodes,
                         std::size_t messages, const std::string& scenario,
                         const net::FaultPlan& plan, std::uint32_t shards) {
  workload::BrisaSystem::Config config;
  config.seed = seed;
  config.num_nodes = nodes;
  config.shards = shards;
  config.join_spread = sim::Duration::seconds(20);
  config.stabilization = sim::Duration::seconds(25);
  workload::BrisaSystem system(config);
  system.bootstrap();
  return measure(
      system, "brisa", scenario, plan, system.source_id(),
      [&system](net::NodeId id) -> const auto& {
        return system.brisa(id).stats().delivery_time;
      },
      messages);
}

ScenarioResult run_gossip(std::uint64_t seed, std::size_t nodes,
                          std::size_t messages, const std::string& scenario,
                          const net::FaultPlan& plan, std::uint32_t shards) {
  workload::SimpleGossipSystem::Config config;
  config.seed = seed;
  config.num_nodes = nodes;
  config.shards = shards;
  config.join_spread = sim::Duration::seconds(20);
  workload::SimpleGossipSystem system(config);
  system.bootstrap();
  return measure(
      system, "gossip-flood", scenario, plan, system.source_id(),
      [&system](net::NodeId id) -> const auto& {
        return system.node(id).stats().delivery_time;
      },
      messages);
}

ScenarioResult run_tree(std::uint64_t seed, std::size_t nodes,
                        std::size_t messages, const std::string& scenario,
                        const net::FaultPlan& plan, std::uint32_t shards) {
  workload::SimpleTreeSystem::Config config;
  config.seed = seed;
  config.num_nodes = nodes;
  config.shards = shards;
  config.join_spread = sim::Duration::seconds(20);
  workload::SimpleTreeSystem system(config);
  system.bootstrap();
  return measure(
      system, "simple-tree", scenario, plan, system.source_id(),
      [&system](net::NodeId id) -> const auto& {
        return system.node(id).stats().delivery_time;
      },
      messages);
}

}  // namespace

std::string fault_recovery_check(const std::string& key,
                                 const std::string& value) {
  if (key == "scenario.protocol" && value != "brisa" && value != "gossip" &&
      value != "tree") {
    return "fault_recovery runs protocol brisa|gossip|tree, got '" + value +
           "'";
  }
  Regime regime;
  return key == "params.regime" ? parse_regime(value, &regime) : "";
}

workload::Scenario fault_recovery_defaults() {
  workload::Scenario s;
  s.set("scenario", "name", "fault_recovery")
      .set("scenario", "report", "fault_recovery")
      .set("scenario", "nodes", "96")
      .set("scenario", "seed", "1")
      .set("streams", "messages", "60")
      .set("sweep", "param.regime",
           "loss_0, loss_5, loss_10, loss_20, partition_10s, partition_30s")
      .set("sweep", "protocol", "brisa, gossip, tree");
  return s;
}

int fault_recovery_run(const workload::Scenario& scenario) {
  const std::size_t nodes = scenario.nodes_or(96);
  const std::size_t messages = scenario.messages_or(60);
  const std::uint64_t seed = scenario.seed_or(1);
  const std::uint32_t shards = scenario.shards_or(1);
  const std::string protocol = scenario.protocol_or("brisa");
  const std::string label = scenario.param_string("regime", "loss_0");
  Regime regime;
  std::string error = fault_recovery_check("scenario.protocol", protocol);
  if (error.empty()) error = parse_regime(label, &regime);
  if (!error.empty()) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return 2;
  }
  const net::FaultPlan plan =
      regime.loss ? loss_plan(static_cast<double>(regime.amount) / 100.0)
                  : partition_plan(nodes, regime.amount);

  const ScenarioResult r =
      protocol == "brisa"
          ? run_brisa(seed, nodes, messages, label, plan, shards)
      : protocol == "gossip"
          ? run_gossip(seed, nodes, messages, label, plan, shards)
          : run_tree(seed, nodes, messages, label, plan, shards);

  std::printf(
      "fault recovery %s under %s, %zu nodes: reliability %.2f%%, "
      "p50 %.1f ms, p99 %.1f ms, %llu retransmits, %llu dropped, "
      "%llu blackholed\n",
      r.protocol.c_str(), label.c_str(), nodes, r.reliability * 100.0,
      r.p50_ms, r.p99_ms, static_cast<unsigned long long>(r.retransmissions),
      static_cast<unsigned long long>(r.datagrams_dropped),
      static_cast<unsigned long long>(r.blackholed));
  std::printf(
      "{\"bench\":\"fault_recovery\",\"protocol\":\"%s\",\"scenario\":\"%s\","
      "\"nodes\":%zu,\"messages\":%zu,\"seed\":%llu,"
      "\"reliability\":%.6f,\"p50_ms\":%.3f,\"p99_ms\":%.3f,"
      "\"retransmissions\":%llu,\"datagrams_dropped\":%llu,"
      "\"blackholed\":%llu}\n",
      r.protocol.c_str(), r.scenario.c_str(), nodes, messages,
      static_cast<unsigned long long>(seed), r.reliability, r.p50_ms,
      r.p99_ms, static_cast<unsigned long long>(r.retransmissions),
      static_cast<unsigned long long>(r.datagrams_dropped),
      static_cast<unsigned long long>(r.blackholed));
  return 0;
}

}  // namespace brisa::reports::impl
