// Table I: impact of continuous churn on BRISA for 128- and 512-node
// networks with active view size 4, churn rates 3% and 5% per minute
// (Listing 1 trace), tree vs DAG-2.
//
// Metrics, as defined in §III-C:
//   * parents lost per minute,
//   * orphans per minute (nodes that lost all parents),
//   * % of disconnections repaired softly vs hard.
//
// Paper shape: DAG-2 loses parents more often (more links) but orphans an
// order of magnitude less; soft repairs dominate (~80-95%).
#include <cstdio>

#include "analysis/table.h"
#include "reports/metrics.h"
#include "reports/reports_impl.h"
#include "workload/churn.h"

namespace brisa::reports::impl {

namespace {

struct ChurnResult {
  double parents_lost_per_min;
  double orphans_per_min;
  double soft_percent;
  double hard_percent;
  bool complete;
};

/// One row over `cell`, which pins its nodes and structure, under
/// `churn_percent` per minute for `churn_seconds`.
ChurnResult run_churn(const workload::Scenario& cell, double churn_percent,
                      std::int64_t churn_seconds) {
  workload::BrisaSystem system(workload::scenario_brisa_config(cell));
  system.bootstrap();
  // Emerge the structure before churn starts, as the paper does.
  system.run_stream(30, 5.0, 1024);

  // Snapshot counters so only the churn window is measured.
  struct Snapshot {
    std::uint64_t parents_lost = 0;
    std::uint64_t orphans = 0;
    std::uint64_t soft = 0;
    std::uint64_t hard = 0;
  };
  auto totals = [&system]() {
    Snapshot snap;
    for (const net::NodeId id : system.all_ids()) {
      const auto& stats = system.brisa(id).stats();
      snap.parents_lost += stats.parents_lost;
      snap.orphans += stats.orphan_events;
      snap.soft += stats.soft_repairs;
      snap.hard += stats.hard_repairs;
    }
    return snap;
  };
  const Snapshot before = totals();

  // The churn portion of Listing 1, relative to now.
  std::string script_text =
      "at 0 s set replacement ratio to 100%\n"
      "from 0 s to " + std::to_string(churn_seconds) + " s const churn " +
      std::to_string(churn_percent) + "% each 60 s\n" +
      "at " + std::to_string(churn_seconds) + " s stop\n";
  workload::ChurnDriver driver(system.simulator(),
                               workload::ChurnScript::parse(script_text),
                               system.churn_hooks());
  driver.arm();
  const auto stream_messages =
      static_cast<std::size_t>(5 * churn_seconds);  // 5 msg/s, whole window
  system.run_stream(stream_messages, 5.0, 1024, sim::Duration::seconds(60));

  const Snapshot after = totals();
  const double minutes = static_cast<double>(churn_seconds) / 60.0;
  const double orphans =
      static_cast<double>(after.orphans - before.orphans);
  const double soft = static_cast<double>(after.soft - before.soft);
  const double hard = static_cast<double>(after.hard - before.hard);
  const double repaired = soft + hard;
  ChurnResult result;
  result.parents_lost_per_min =
      static_cast<double>(after.parents_lost - before.parents_lost) / minutes;
  result.orphans_per_min = orphans / minutes;
  result.soft_percent = repaired > 0 ? 100.0 * soft / repaired : 0.0;
  result.hard_percent = repaired > 0 ? 100.0 * hard / repaired : 0.0;
  result.complete = system.complete_delivery();
  return result;
}

}  // namespace

workload::Scenario tab1_defaults() {
  workload::Scenario s;
  s.set("scenario", "name", "tab1_churn")
      .set("scenario", "report", "tab1_churn")
      .set("scenario", "seed", "1")
      .set("params", "sizes", "128,512")
      .set("params", "churn-seconds", "240");
  return s;
}

int tab1_run(const workload::Scenario& scenario) {
  const auto sizes = scenario.param_int_list("sizes", {128, 512});
  const std::int64_t churn_seconds = scenario.param_int("churn-seconds", 240);

  std::printf(
      "=== Table I: churn impact, view 4, %llds churn window (paper: 600s) "
      "===\n",
      static_cast<long long>(churn_seconds));

  analysis::Table table({"nodes", "churn", "structure", "parents lost/min",
                         "orphans/min", "soft %", "hard %", "complete"});
  for (const std::int64_t nodes : sizes) {
    for (const double churn : {3.0, 5.0}) {
      for (const bool dag : {false, true}) {
        workload::Scenario cell = scenario;
        cell.nodes = static_cast<std::size_t>(nodes);
        cell.active_view = 4;
        cell.mode = dag ? "dag" : "tree";
        cell.parents = dag ? 2 : 1;
        cell.join_spread_s = 60;
        cell.stabilization_s = 60;
        const ChurnResult result = run_churn(cell, churn, churn_seconds);
        table.add_row({std::to_string(nodes),
                       analysis::Table::num(churn, 0) + "%",
                       dag ? "DAG-2" : "tree",
                       analysis::Table::num(result.parents_lost_per_min, 1),
                       analysis::Table::num(result.orphans_per_min, 1),
                       analysis::Table::num(result.soft_percent, 1),
                       analysis::Table::num(result.hard_percent, 1),
                       result.complete ? "yes" : "NO"});
      }
    }
  }
  std::printf("%s", table.render().c_str());
  std::printf(
      "paper check: DAG-2 loses more parents/min than the tree but orphans "
      "far less; soft repairs ~80-95%% of disconnections\n");
  return 0;
}

}  // namespace brisa::reports::impl
