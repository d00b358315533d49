// Figure 2: CDF of duplicates per message per node under pure HyParView
// flooding (no BRISA pruning), 512 nodes, 500 messages, active view sizes
// {4, 6, 8, 10}.
//
// Paper shape: duplicates grow sharply with the view size — the median node
// sees >1 duplicate at view 4 and >7 at view 10.
#include <cstdio>
#include <string>

#include "analysis/stats.h"
#include "analysis/table.h"
#include "reports/metrics.h"
#include "reports/reports_impl.h"
#include "workload/brisa_system.h"

namespace brisa::reports::impl {

namespace {

std::vector<double> duplicates_per_message(workload::BrisaSystem& system) {
  std::vector<double> samples;
  for (const net::NodeId id : system.member_ids()) {
    if (id == system.source_id()) continue;
    const auto& stats = system.brisa(id).stats();
    for (const auto& [seq, receptions] : stats.receptions_per_seq) {
      samples.push_back(receptions > 0 ? static_cast<double>(receptions - 1)
                                       : 0.0);
    }
  }
  return samples;
}

}  // namespace

workload::Scenario fig02_defaults() {
  workload::Scenario s;
  s.set("scenario", "name", "fig02_flood_duplicates")
      .set("scenario", "report", "fig02_flood_duplicates")
      .set("scenario", "nodes", "512")
      .set("scenario", "seed", "1")
      .set("overlay", "prune", "false")
      .set("streams", "messages", "500")
      .set("streams", "payload", "1024")
      .set("params", "views", "4,6,8,10");
  return s;
}

int fig02_run(const workload::Scenario& scenario) {
  const std::size_t nodes = scenario.nodes_or(512);
  const std::size_t messages = scenario.messages_or(500);
  const std::size_t payload = scenario.payload_or(1024);
  const auto views = scenario.param_int_list("views", {4, 6, 8, 10});

  std::printf(
      "=== Fig 2: duplicates per message per node, HyParView flooding, "
      "%zu nodes, %zu messages ===\n",
      nodes, messages);

  analysis::Table table({"view", "p25", "p50", "p75", "p90", "p99", "max",
                         "mean", "complete"});
  for (const std::int64_t view : views) {
    workload::Scenario cell = scenario;
    cell.nodes = nodes;
    cell.active_view = static_cast<std::size_t>(view);
    cell.prune = false;  // pure flooding
    workload::BrisaSystem system(workload::scenario_brisa_config(cell));
    system.bootstrap();
    system.run_stream(messages, 5.0, payload);

    std::vector<double> dups = duplicates_per_message(system);
    table.add_row({std::to_string(view),
                   analysis::Table::num(analysis::percentile(dups, 25), 1),
                   analysis::Table::num(analysis::percentile(dups, 50), 1),
                   analysis::Table::num(analysis::percentile(dups, 75), 1),
                   analysis::Table::num(analysis::percentile(dups, 90), 1),
                   analysis::Table::num(analysis::percentile(dups, 99), 1),
                   analysis::Table::num(analysis::sample_max(dups), 0),
                   analysis::Table::num(analysis::mean(dups), 2),
                   system.complete_delivery() ? "yes" : "NO"});

    std::printf("%s", analysis::format_cdf(
                          "view=" + std::to_string(view) +
                              " duplicates CDF (value percent)",
                          analysis::cdf_at_percents(
                              dups, {10, 20, 30, 40, 50, 60, 70, 80, 90, 95,
                                     99, 100}))
                          .c_str());
  }
  std::printf("\n%s", table.render().c_str());
  std::printf(
      "paper check: median duplicates should exceed 1 at view=4 and exceed 7 "
      "at view=10\n");
  return 0;
}

}  // namespace brisa::reports::impl
