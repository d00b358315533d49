// Figure 13: structure construction-time CDF for BRISA and TAG on the
// cluster (512 nodes) and PlanetLab (200 nodes) models.
//
// Definitions (§III-D): BRISA — from a node's first deactivation until its
// inbound links reach the target count; TAG — from join start until the node
// settles on a parent (list traversal with per-hop connections).
//
// Paper shape: TAG marginally faster on the cluster, but much slower on
// PlanetLab where its connect-per-hop traversal pays full WAN round trips.
#include <cstdio>

#include "analysis/table.h"
#include "reports/metrics.h"
#include "reports/reports_impl.h"

namespace brisa::reports::impl {

namespace {

bool on_planetlab(const workload::Scenario& cell) {
  return workload::scenario_testbed(cell) == workload::TestbedKind::kPlanetLab;
}

std::vector<double> brisa_construction_s(workload::Scenario cell) {
  cell.active_view = 4;
  cell.stabilization_s = on_planetlab(cell) ? 40 : 30;
  workload::BrisaSystem system(workload::scenario_brisa_config(cell));
  system.bootstrap();
  system.run_stream(60, 5.0, 1024, sim::Duration::seconds(20));

  std::vector<double> samples;
  for (const net::NodeId id : system.member_ids()) {
    if (id == system.source_id()) continue;
    const auto& stats = system.brisa(id).stats();
    if (stats.first_deactivation_at && stats.structure_stable_at) {
      samples.push_back(
          (*stats.structure_stable_at - *stats.first_deactivation_at)
              .to_seconds());
    }
  }
  return samples;
}

std::vector<double> tag_construction_s(workload::Scenario cell) {
  cell.join_spread_s = 60;
  cell.stabilization_s = on_planetlab(cell) ? 60 : 30;
  workload::TagSystem system(workload::scenario_tag_config(cell));
  system.bootstrap();

  std::vector<double> samples;
  for (const net::NodeId id : system.all_ids()) {
    if (id == system.source_id()) continue;
    const auto& stats = system.node(id).stats();
    if (stats.join_started_at && stats.parent_acquired_at) {
      samples.push_back(
          (*stats.parent_acquired_at - *stats.join_started_at).to_seconds());
    }
  }
  return samples;
}

}  // namespace

workload::Scenario fig13_defaults() {
  workload::Scenario s;
  s.set("scenario", "name", "fig13_construction_time")
      .set("scenario", "report", "fig13_construction_time")
      .set("scenario", "seed", "1")
      .set("params", "cluster-nodes", "512")
      .set("params", "planetlab-nodes", "200");
  return s;
}

int fig13_run(const workload::Scenario& scenario) {
  const auto cluster_nodes =
      static_cast<std::size_t>(scenario.param_int("cluster-nodes", 512));
  const auto planetlab_nodes =
      static_cast<std::size_t>(scenario.param_int("planetlab-nodes", 200));

  std::printf(
      "=== Fig 13: construction time CDF, cluster %zu nodes / PlanetLab %zu "
      "nodes ===\n",
      cluster_nodes, planetlab_nodes);

  workload::Scenario cluster = scenario;
  cluster.nodes = cluster_nodes;
  cluster.topology_model = "cluster";
  workload::Scenario planetlab = scenario;
  planetlab.nodes = planetlab_nodes;
  planetlab.topology_model = "planetlab";
  const auto brisa_cluster = brisa_construction_s(cluster);
  const auto tag_cluster = tag_construction_s(cluster);
  const auto brisa_pl = brisa_construction_s(planetlab);
  const auto tag_pl = tag_construction_s(planetlab);

  print_cdf("BRISA cluster (s percent)", brisa_cluster);
  print_cdf("TAG cluster (s percent)", tag_cluster);
  print_cdf("BRISA PlanetLab (s percent)", brisa_pl);
  print_cdf("TAG PlanetLab (s percent)", tag_pl);

  analysis::Table table({"series", "p50(s)", "p90(s)", "mean(s)"});
  auto row = [&table](const char* label, const std::vector<double>& s) {
    table.add_row({label,
                   analysis::Table::num(analysis::percentile(s, 50), 3),
                   analysis::Table::num(analysis::percentile(s, 90), 3),
                   analysis::Table::num(analysis::mean(s), 3)});
  };
  row("BRISA, cluster", brisa_cluster);
  row("TAG, cluster", tag_cluster);
  row("BRISA, PlanetLab", brisa_pl);
  row("TAG, PlanetLab", tag_pl);
  std::printf("\n%s", table.render().c_str());
  std::printf(
      "paper check: TAG competitive with (or faster than) BRISA on the "
      "cluster, but much slower than BRISA on PlanetLab\n");
  return 0;
}

}  // namespace brisa::reports::impl
