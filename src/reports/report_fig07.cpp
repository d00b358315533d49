// Figure 7: degree (active outgoing links) distribution for 512 nodes under
// first-come-first-picked: tree and DAG-2, view sizes 4 and 8.
//
// Paper shape: DAGs have fewer zero-degree leaves than trees (more of the
// population shares the dissemination effort); higher views produce more
// leaves (shallower, bushier trees); few nodes exceed the configured view.
#include <cstdio>

#include "analysis/table.h"
#include "reports/metrics.h"
#include "reports/reports_impl.h"

namespace brisa::reports::impl {

workload::Scenario fig07_defaults() {
  workload::Scenario s;
  s.set("scenario", "name", "fig07_degree")
      .set("scenario", "report", "fig07_degree")
      .set("scenario", "nodes", "512")
      .set("scenario", "seed", "1")
      .set("streams", "messages", "60");
  return s;
}

int fig07_run(const workload::Scenario& scenario) {
  const std::size_t nodes = scenario.nodes_or(512);
  const std::size_t messages = scenario.messages_or(60);

  std::printf("=== Fig 7: degree distribution, %zu nodes, first-come ===\n",
              nodes);

  analysis::Table table(
      {"config", "leaves%", "p50", "p90", "max", "target-parents%"});
  for (const Structure& structure : kStructures) {
    const std::string label =
        structure.name() + ", view=" + std::to_string(structure.view);
    workload::Scenario cell = structure.apply(scenario);
    cell.nodes = nodes;
    workload::BrisaSystem system(workload::scenario_brisa_config(cell));
    system.bootstrap();
    system.run_stream(messages, 5.0, 1024);

    const std::vector<double> degrees = collect_degrees(system);
    std::size_t leaves = 0;
    for (const double d : degrees) {
      if (d == 0.0) ++leaves;
    }
    std::size_t at_target = 0, considered = 0;
    for (const net::NodeId id : system.member_ids()) {
      if (id == system.source_id()) continue;
      ++considered;
      if (system.brisa(id).parents().size() == structure.parents) ++at_target;
    }
    print_cdf(label + " degree CDF (degree percent)", degrees);
    table.add_row(
        {label,
         analysis::Table::num(100.0 * static_cast<double>(leaves) /
                                  static_cast<double>(degrees.size()),
                              1),
         analysis::Table::num(analysis::percentile(degrees, 50), 1),
         analysis::Table::num(analysis::percentile(degrees, 90), 1),
         analysis::Table::num(analysis::sample_max(degrees), 0),
         analysis::Table::num(100.0 * static_cast<double>(at_target) /
                                  static_cast<double>(considered),
                              1)});
  }
  std::printf("\n%s", table.render().c_str());
  std::printf(
      "paper check: DAG leaves%% < tree leaves%% (per view); view=8 has more "
      "leaves than view=4; nodes with target parent count should be ~100%%\n");
  return 0;
}

}  // namespace brisa::reports::impl
