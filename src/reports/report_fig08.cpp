// Figure 8: sample tree shapes for 100 nodes with HyParView active view
// sizes 4 and 8, expansion factor 1. Emits Graphviz DOT (to files) plus a
// per-depth node-count histogram so the balance is visible in text.
//
// Paper shape: both trees are fairly balanced (no long chains); view=8 is
// shallower and bushier than view=4.
#include <cstdio>
#include <fstream>

#include "analysis/dot_export.h"
#include "analysis/table.h"
#include "reports/metrics.h"
#include "reports/reports_impl.h"

namespace brisa::reports::impl {

workload::Scenario fig08_defaults() {
  workload::Scenario s;
  s.set("scenario", "name", "fig08_tree_shape")
      .set("scenario", "report", "fig08_tree_shape")
      .set("scenario", "nodes", "100")
      .set("scenario", "seed", "1")
      .set("overlay", "expansion-factor", "1");
  return s;
}

int fig08_run(const workload::Scenario& scenario) {
  const std::size_t nodes = scenario.nodes_or(100);
  const std::string dot_prefix = scenario.param_string("dot-prefix", "");

  std::printf(
      "=== Fig 8: sample tree shapes, %zu nodes, expansion factor 1 ===\n",
      nodes);

  for (const std::size_t view : {std::size_t{4}, std::size_t{8}}) {
    workload::Scenario cell = scenario;
    cell.nodes = nodes;
    cell.active_view = view;
    cell.expansion_factor = 1.0;  // as in the figure caption
    workload::BrisaSystem system(workload::scenario_brisa_config(cell));
    system.bootstrap();
    system.run_stream(40, 5.0, 1024);

    const auto edges = system.structure_edges();
    const auto histogram =
        analysis::depth_histogram(system.source_id(), edges);

    std::printf("\nview=%zu: %zu edges, height %zu, complete=%s\n", view,
                edges.size(), histogram.size() - 1,
                system.complete_delivery() ? "yes" : "NO");
    std::printf("  depth: nodes   (one bar per tree level)\n");
    for (std::size_t depth = 0; depth < histogram.size(); ++depth) {
      std::printf("  %5zu: %5zu  ", depth, histogram[depth]);
      for (std::size_t i = 0; i < histogram[depth]; ++i) std::printf("#");
      std::printf("\n");
    }

    if (!dot_prefix.empty()) {
      const std::string path =
          dot_prefix + "_view" + std::to_string(view) + ".dot";
      std::ofstream out(path);
      out << analysis::to_dot("fig8_view" + std::to_string(view),
                              system.source_id(), edges);
      std::printf("  DOT written to %s\n", path.c_str());
    }
  }
  std::printf(
      "\npaper check: no long chains (every level has multiple nodes); "
      "view=8 is shallower than view=4\n");
  return 0;
}

}  // namespace brisa::reports::impl
