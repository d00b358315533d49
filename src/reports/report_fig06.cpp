// Figure 6: depth distribution (CDF) of the emergent structures for 512
// nodes under the first-come-first-picked strategy: tree and DAG-2, view
// sizes 4 and 8.
//
// Paper shape: larger views -> shallower structures; DAG depths exceed tree
// depths (depth = longest path); curves are steep (balanced structures).
#include <cstdio>

#include "analysis/table.h"
#include "reports/metrics.h"
#include "reports/reports_impl.h"

namespace brisa::reports::impl {

workload::Scenario fig06_defaults() {
  workload::Scenario s;
  s.set("scenario", "name", "fig06_depth")
      .set("scenario", "report", "fig06_depth")
      .set("scenario", "nodes", "512")
      .set("scenario", "seed", "1")
      .set("streams", "messages", "60");
  return s;
}

int fig06_run(const workload::Scenario& scenario) {
  const std::size_t nodes = scenario.nodes_or(512);
  const std::size_t messages = scenario.messages_or(60);

  std::printf("=== Fig 6: depth distribution, %zu nodes, first-come ===\n",
              nodes);

  analysis::Table table({"config", "p50", "p90", "max", "mean", "complete"});
  for (const Structure& structure : kStructures) {
    const std::string label =
        structure.name() + ", view=" + std::to_string(structure.view);
    workload::Scenario cell = structure.apply(scenario);
    cell.nodes = nodes;
    workload::BrisaSystem system(workload::scenario_brisa_config(cell));
    system.bootstrap();
    system.run_stream(messages, 5.0, 1024);

    const std::vector<double> depths = collect_depths(system);
    print_cdf(label + " depth CDF (depth percent)", depths);
    table.add_row({label,
                   analysis::Table::num(analysis::percentile(depths, 50), 1),
                   analysis::Table::num(analysis::percentile(depths, 90), 1),
                   analysis::Table::num(analysis::sample_max(depths), 0),
                   analysis::Table::num(analysis::mean(depths), 2),
                   system.complete_delivery() ? "yes" : "NO"});
  }
  std::printf("\n%s", table.render().c_str());
  std::printf(
      "paper check: view=8 shallower than view=4; DAG max depth >= tree max "
      "depth per view size\n");
  return 0;
}

}  // namespace brisa::reports::impl
