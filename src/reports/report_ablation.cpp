// Ablation (§IV perspectives): how the four parent-selection strategies
// shape the emergent tree. Not a paper figure — the paper sketches
// gerontocratic and load-balancing selection as future work; this report
// quantifies them on the same workload as Figs 6/7.
//
// Expectations:
//   * load-balancing narrows the degree distribution (lower max degree);
//   * gerontocratic parents have higher uptime than first-come parents
//     (here: lower node ids, which joined earlier);
//   * all strategies preserve completeness and the single-parent invariant.
#include <cstdio>

#include "analysis/table.h"
#include "reports/metrics.h"
#include "reports/reports_impl.h"

namespace brisa::reports::impl {

workload::Scenario ablation_defaults() {
  workload::Scenario s;
  s.set("scenario", "name", "ablation_strategies")
      .set("scenario", "report", "ablation_strategies")
      .set("scenario", "nodes", "256")
      .set("scenario", "seed", "1")
      .set("streams", "messages", "80");
  return s;
}

int ablation_run(const workload::Scenario& scenario) {
  const std::size_t nodes = scenario.nodes_or(256);
  const std::size_t messages = scenario.messages_or(80);

  std::printf(
      "=== Ablation: parent-selection strategies (§II-E + §IV), %zu nodes, "
      "tree, view 4 ===\n",
      nodes);

  analysis::Table table({"strategy", "depth p50", "depth max", "degree p90",
                         "degree max", "mean parent join-rank", "complete"});

  for (const core::ParentSelectionStrategy strategy :
       {core::ParentSelectionStrategy::kFirstComeFirstPicked,
        core::ParentSelectionStrategy::kDelayAware,
        core::ParentSelectionStrategy::kGerontocratic,
        core::ParentSelectionStrategy::kLoadBalancing}) {
    workload::Scenario cell = scenario;
    cell.nodes = nodes;
    cell.active_view = 4;
    cell.strategy = core::to_string(strategy);
    cell.join_spread_s = 30;
    cell.stabilization_s = 30;
    workload::BrisaSystem system(workload::scenario_brisa_config(cell));
    system.bootstrap();
    system.run_stream(messages, 5.0, 1024, sim::Duration::seconds(20));

    const std::vector<double> depths = collect_depths(system);
    const std::vector<double> degrees = collect_degrees(system);
    // Parent "join rank": bootstrap creates nodes in id order, so a lower
    // mean parent id means older parents (the gerontocratic goal).
    double rank_total = 0;
    std::size_t rank_count = 0;
    for (const net::NodeId id : system.member_ids()) {
      if (id == system.source_id()) continue;
      for (const net::NodeId parent : system.brisa(id).parents()) {
        rank_total += static_cast<double>(parent.index());
        ++rank_count;
      }
    }
    table.add_row(
        {core::to_string(strategy),
         analysis::Table::num(analysis::percentile(depths, 50), 1),
         analysis::Table::num(analysis::sample_max(depths), 0),
         analysis::Table::num(analysis::percentile(degrees, 90), 1),
         analysis::Table::num(analysis::sample_max(degrees), 0),
         analysis::Table::num(rank_total / static_cast<double>(rank_count), 1),
         system.complete_delivery() ? "yes" : "NO"});
  }
  std::printf("%s", table.render().c_str());
  std::printf(
      "expected: load-balancing lowers max degree; gerontocratic lowers the "
      "mean parent join-rank (older parents); all complete\n");
  return 0;
}

}  // namespace brisa::reports::impl
