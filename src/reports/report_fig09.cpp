// Figure 9: routing-delay CDF on the PlanetLab model, 150 nodes, tree with
// view size 4, 200 messages of 1 KB. Series: hypothetical point-to-point
// (direct RTT source->node), delay-aware, first-come-first-picked, and pure
// flooding.
//
// Metric, as defined in §III-B: the *cumulative round-trip times taken at
// each hop* from the source to the node (the paper could not measure one-way
// delays on PlanetLab). Tree variants sum the measured keep-alive RTT along
// the parent chain; flooding accumulates it along each message's actual
// delivery path. A table of true one-way delivery delays (which the
// simulator's synchronized clock can measure) is printed as a bonus.
//
// Paper shape: flood worst (duplicate load + load-distorted paths);
// delay-aware clearly beats first-pick; point-to-point is the floor.
#include <cstdio>
#include <map>

#include "analysis/table.h"
#include "reports/metrics.h"
#include "reports/reports_impl.h"

namespace brisa::reports::impl {

namespace {

struct VariantResult {
  std::vector<double> cum_rtt_ms;   ///< the paper's metric
  std::vector<double> delivery_ms;  ///< true one-way delays (bonus)
};

/// One series over `cell`, which pins its nodes, messages and prune flag.
VariantResult run_variant(const workload::Scenario& cell) {
  const std::size_t nodes = *cell.nodes;
  const bool prune = *cell.prune;
  workload::BrisaSystem system(workload::scenario_brisa_config(cell));
  system.bootstrap();
  system.run_stream(40, 5.0, 1024);  // structure emergence warm-up
  const std::uint64_t warmup = system.messages_sent();
  system.run_stream(*cell.messages, 5.0, 1024, sim::Duration::seconds(30));

  VariantResult result;
  const auto& source_times =
      system.brisa(system.source_id()).stats().delivery_time;
  for (const net::NodeId id : system.member_ids()) {
    if (id == system.source_id()) continue;

    if (prune) {
      // Tree: sum measured RTTs along the parent chain.
      double total_ms = 0;
      bool valid = true;
      net::NodeId current = id;
      std::size_t hops = 0;
      while (current != system.source_id() && hops++ < nodes) {
        const auto parents = system.brisa(current).parents();
        if (parents.empty()) {
          valid = false;
          break;
        }
        const sim::Duration rtt =
            system.hyparview(current).rtt_estimate(parents[0]);
        total_ms += rtt == sim::Duration::max() ? 100.0
                                                : rtt.to_milliseconds();
        current = parents[0];
      }
      if (valid && hops <= nodes) result.cum_rtt_ms.push_back(total_ms);
    } else {
      // Flood: the message-carried accumulation along the delivery path.
      result.cum_rtt_ms.push_back(
          system.brisa(id).cumulative_path_rtt().to_milliseconds());
    }

    for (const auto& [seq, at] : system.brisa(id).stats().delivery_time) {
      if (seq < warmup) continue;
      const auto it = source_times.find(seq);
      if (it == source_times.end()) continue;
      result.delivery_ms.push_back((at - it->second).to_milliseconds());
    }
  }
  return result;
}

}  // namespace

workload::Scenario fig09_defaults() {
  workload::Scenario s;
  s.set("scenario", "name", "fig09_routing_delay")
      .set("scenario", "report", "fig09_routing_delay")
      .set("scenario", "nodes", "150")
      .set("scenario", "seed", "1")
      .set("topology", "model", "planetlab")
      .set("streams", "messages", "200");
  return s;
}

int fig09_run(const workload::Scenario& scenario) {
  const std::size_t nodes = scenario.nodes_or(150);
  const std::size_t messages = scenario.messages_or(200);

  std::printf(
      "=== Fig 9: routing delays (cumulative per-hop RTT), PlanetLab model, "
      "%zu nodes, tree view 4, %zu x 1KB ===\n",
      nodes, messages);

  // Point-to-point reference: direct RTT source -> node.
  std::vector<double> p2p_ms;
  {
    net::PlanetLabLatencyModel model;
    for (std::uint32_t i = 1; i < nodes; ++i) {
      p2p_ms.push_back(
          2.0 * model.base(net::NodeId(0), net::NodeId(i)).to_milliseconds());
    }
  }

  workload::Scenario cell = scenario;
  cell.nodes = nodes;
  cell.messages = messages;
  cell.topology_model = "planetlab";
  cell.active_view = 4;
  cell.stabilization_s = 40;
  const auto series = [&cell](core::ParentSelectionStrategy strategy,
                              bool prune) {
    workload::Scenario variant = cell;
    variant.strategy = core::to_string(strategy);
    variant.prune = prune;
    return run_variant(variant);
  };
  const VariantResult delay_aware =
      series(core::ParentSelectionStrategy::kDelayAware, true);
  const VariantResult first_pick =
      series(core::ParentSelectionStrategy::kFirstComeFirstPicked, true);
  const VariantResult flood =
      series(core::ParentSelectionStrategy::kFirstComeFirstPicked, false);

  print_cdf("point-to-point (ms percent)", p2p_ms);
  print_cdf("delay-aware (ms percent)", delay_aware.cum_rtt_ms);
  print_cdf("first-pick (ms percent)", first_pick.cum_rtt_ms);
  print_cdf("flood (ms percent)", flood.cum_rtt_ms);

  analysis::Table table({"series", "p25(ms)", "p50(ms)", "p75(ms)", "p90(ms)"});
  auto row = [&table](const char* label, const std::vector<double>& samples) {
    table.add_row({label,
                   analysis::Table::num(analysis::percentile(samples, 25), 0),
                   analysis::Table::num(analysis::percentile(samples, 50), 0),
                   analysis::Table::num(analysis::percentile(samples, 75), 0),
                   analysis::Table::num(analysis::percentile(samples, 90), 0)});
  };
  row("point-to-point", p2p_ms);
  row("delay-aware", delay_aware.cum_rtt_ms);
  row("first-pick", first_pick.cum_rtt_ms);
  row("flood", flood.cum_rtt_ms);
  std::printf("\ncumulative path RTT (the paper's Fig 9 metric):\n%s",
              table.render().c_str());

  analysis::Table bonus({"series", "p50(ms)", "p90(ms)"});
  auto bonus_row = [&bonus](const char* label,
                            const std::vector<double>& samples) {
    bonus.add_row({label,
                   analysis::Table::num(analysis::percentile(samples, 50), 0),
                   analysis::Table::num(analysis::percentile(samples, 90), 0)});
  };
  bonus_row("delay-aware", delay_aware.delivery_ms);
  bonus_row("first-pick", first_pick.delivery_ms);
  bonus_row("flood", flood.delivery_ms);
  std::printf("\ntrue one-way delivery delays (simulator bonus):\n%s",
              bonus.render().c_str());
  std::printf(
      "paper check: flood worst; delay-aware < first-pick; point-to-point is "
      "the floor\n");
  return 0;
}

}  // namespace brisa::reports::impl
