// Figures 10 (download) and 11 (upload): per-node bandwidth percentiles for
// payload sizes {1, 10, 50, 100} KB over a 512-node network, for trees and
// DAG-2 at view sizes 4 and 8. One shared implementation, two registry
// entries differing only in direction.
//
// Paper shape: download for trees ~= one payload per message interval; DAG-2
// downloads ~2x (one copy per parent); upload spread follows the degree
// distribution; PSS overhead is negligible against payloads.
#include <cstdio>

#include "analysis/table.h"
#include "reports/metrics.h"
#include "reports/reports_impl.h"

namespace brisa::reports::impl {

namespace {

enum class BandwidthDirection { kDownload, kUpload };

workload::Scenario bandwidth_defaults(const char* name) {
  workload::Scenario s;
  s.set("scenario", "name", name)
      .set("scenario", "report", name)
      .set("scenario", "nodes", "512")
      .set("scenario", "seed", "1")
      .set("streams", "messages", "100")
      .set("params", "payloads", "1024,10240,51200,102400");
  return s;
}

int run_bandwidth_report(const workload::Scenario& scenario,
                         BandwidthDirection direction) {
  const std::size_t nodes = scenario.nodes_or(512);
  const std::size_t messages = scenario.messages_or(100);
  const auto payloads =
      scenario.param_int_list("payloads", {1024, 10240, 51200, 102400});

  const bool down = direction == BandwidthDirection::kDownload;
  std::printf(
      "=== Fig %s: %s bandwidth (KB/s per node), %zu nodes, 5 msg/s ===\n",
      down ? "10" : "11", down ? "download" : "upload", nodes);

  analysis::Table table(
      {"structure + payload", "p5", "p25", "p50", "p75", "p90"});
  for (const Structure& structure : kStructures) {
    const std::string name = structure.parents == 1
                                 ? std::string("tree")
                                 : "DAG" + std::to_string(structure.parents);
    workload::Scenario cell = structure.apply(scenario);
    cell.nodes = nodes;
    for (const std::int64_t payload : payloads) {
      workload::BrisaSystem system(workload::scenario_brisa_config(cell));
      system.bootstrap();
      // Emerge the structure, then measure a clean window.
      system.run_stream(30, 5.0, static_cast<std::size_t>(payload));
      system.network().reset_stats();
      const sim::TimePoint window_start = system.simulator().now();
      system.run_stream(messages, 5.0, static_cast<std::size_t>(payload),
                        sim::Duration::seconds(2));
      const sim::Duration window = system.simulator().now() - window_start;

      const BandwidthSample sample = collect_bandwidth_kbs(
          system.network(), system.member_ids(), window);
      const std::string label = name + "/view" +
                                std::to_string(structure.view) + " " +
                                std::to_string(payload / 1024) + "KB";
      table.add_row(percentile_row(
          label, down ? sample.download_kbs : sample.upload_kbs));
    }
  }
  std::printf("%s", table.render().c_str());
  if (down) {
    std::printf(
        "paper check: tree download p50 ~= payload x 5 msg/s; DAG-2 ~2x "
        "tree; view size changes downloads only marginally\n");
  } else {
    std::printf(
        "paper check: upload spread is wide (degree distribution); DAG-2 "
        "uploads exceed tree uploads; leaves upload ~0\n");
  }
  return 0;
}

}  // namespace

workload::Scenario fig10_defaults() {
  return bandwidth_defaults("fig10_bandwidth_down");
}

int fig10_run(const workload::Scenario& scenario) {
  return run_bandwidth_report(scenario, BandwidthDirection::kDownload);
}

workload::Scenario fig11_defaults() {
  return bandwidth_defaults("fig11_bandwidth_up");
}

int fig11_run(const workload::Scenario& scenario) {
  return run_bandwidth_report(scenario, BandwidthDirection::kUpload);
}

}  // namespace brisa::reports::impl
