#include "reports/reports.h"

#include <algorithm>
#include <map>

#include "reports/reports_impl.h"
#include "workload/sweep.h"

namespace brisa::reports {

namespace {

std::vector<Report> build_registry() {
  using namespace impl;
  return {
      {"fig02_flood_duplicates",
       "Fig 2: duplicates per message per node under pure flooding",
       {"scenario.nodes", "scenario.seed", "streams.messages",
        "streams.payload", "params.views"},
       fig02_defaults,
       fig02_run},
      {"fig06_depth",
       "Fig 6: depth distribution of the emergent structures",
       {"scenario.nodes", "scenario.seed", "streams.messages"},
       fig06_defaults,
       fig06_run},
      {"fig07_degree",
       "Fig 7: degree distribution of the emergent structures",
       {"scenario.nodes", "scenario.seed", "streams.messages"},
       fig07_defaults,
       fig07_run},
      {"fig08_tree_shape",
       "Fig 8: sample tree shapes (DOT export + depth histogram)",
       {"scenario.nodes", "scenario.seed", "params.dot-prefix"},
       fig08_defaults,
       fig08_run},
      {"fig09_routing_delay",
       "Fig 9: routing-delay CDF on the PlanetLab model",
       {"scenario.nodes", "scenario.seed", "streams.messages"},
       fig09_defaults,
       fig09_run},
      {"fig10_bandwidth_down",
       "Fig 10: download bandwidth percentiles per structure/payload",
       {"scenario.nodes", "scenario.seed", "streams.messages",
        "params.payloads"},
       fig10_defaults,
       fig10_run},
      {"fig11_bandwidth_up",
       "Fig 11: upload bandwidth percentiles per structure/payload",
       {"scenario.nodes", "scenario.seed", "streams.messages",
        "params.payloads"},
       fig11_defaults,
       fig11_run},
      {"fig12_protocol_bandwidth",
       "Fig 12: data transmitted per node across the four protocols",
       {"scenario.nodes", "scenario.seed", "streams.messages",
        "params.payloads"},
       fig12_defaults,
       fig12_run},
      {"fig13_construction_time",
       "Fig 13: structure construction-time CDF, BRISA vs TAG",
       {"scenario.seed", "params.cluster-nodes", "params.planetlab-nodes"},
       fig13_defaults,
       fig13_run},
      {"fig14_recovery_delay",
       "Fig 14: hard-repair recovery delays under churn, BRISA vs TAG",
       {"scenario.nodes", "scenario.seed", "params.churn-seconds"},
       fig14_defaults,
       fig14_run},
      {"tab1_churn",
       "Table I: churn impact (parents lost, orphans, repair split)",
       {"scenario.seed", "params.sizes", "params.churn-seconds"},
       tab1_defaults,
       tab1_run},
      {"tab2_latency",
       "Table II: dissemination latency across the four protocols",
       {"scenario.nodes", "scenario.seed", "streams.messages"},
       tab2_defaults,
       tab2_run},
      {"ablation_strategies",
       "Ablation: the four parent-selection strategies",
       {"scenario.nodes", "scenario.seed", "streams.messages"},
       ablation_defaults,
       ablation_run},
      {"fault_recovery",
       "Fault recovery: reliability & latency of one protocol under one "
       "loss / partition regime",
       {"scenario.nodes", "scenario.seed", "scenario.protocol",
        "streams.messages", "params.regime"},
       fault_recovery_defaults,
       fault_recovery_run,
       fault_recovery_check},
      {"scale_sweep",
       "Scale sweep: reliability/cost of one broadcast at one width "
       "(1k to 100k nodes)",
       {"scenario.nodes", "scenario.seed", "scenario.protocol",
        "streams.messages", "streams.rate-per-s", "streams.payload",
        "params.variant"},
       scale_sweep_defaults,
       scale_sweep_run,
       scale_sweep_check},
      {"buffer_tradeoff",
       "Buffer tradeoff: reliability of one protocol under one store bound "
       "and eviction policy",
       {"scenario.nodes", "scenario.seed", "scenario.protocol",
        "streams.messages", "streams.rate-per-s", "streams.payload",
        "limits.store-entries", "limits.store-bytes", "limits.eviction",
        "limits.bloom-digests", "limits.rate-control"},
       buffer_tradeoff_defaults,
       buffer_tradeoff_run},
      {"run",
       "Generic declarative run: any protocol/topology/faults combination",
       {},
       generic_defaults,
       generic_run},
  };
}

/// Every set key, params included, as dotted path -> value.
std::map<std::string, std::string> all_keys(const workload::Scenario& s) {
  std::map<std::string, std::string> keys = s.set_keys();
  for (const auto& [key, value] : s.params) keys["params." + key] = value;
  return keys;
}

}  // namespace

const std::vector<Report>& all() {
  static const std::vector<Report> registry = build_registry();
  return registry;
}

const Report* find(const std::string& name) {
  for (const Report& report : all()) {
    if (report.name == name) return &report;
  }
  return nullptr;
}

std::string scenario_key_error(
    const workload::Scenario& scenario, const Report& report,
    const workload::Scenario::KeyOrigins* origins) {
  if (report.name == "run") return "";
  const auto at = [origins](const std::string& key) -> std::string {
    if (origins == nullptr) return "";
    const auto it = origins->find(key);
    return it == origins->end() ? "" : it->second + ": ";
  };
  const auto consumed = [&report](const std::string& key) {
    // Labels, and the shard count (results are byte-identical for any
    // value), are fine for every report.
    return key == "scenario.name" || key == "scenario.report" ||
           key == "run.shards" ||
           std::find(report.keys.begin(), report.keys.end(), key) !=
               report.keys.end();
  };
  const auto value_error = [&report](const std::string& key,
                                     const std::string& value) {
    return report.check == nullptr ? std::string() : report.check(key, value);
  };

  const auto default_keys = all_keys(report.defaults());
  for (const auto& [key, value] : all_keys(scenario)) {
    // [sweep] keys shape the grid; their axes are checked below.
    if (key.rfind("sweep.", 0) == 0) continue;
    if (consumed(key)) {
      const std::string error = value_error(key, value);
      if (!error.empty()) return at(key) + error;
      continue;
    }
    // A key the figure pins may be restated, but only with the pinned
    // value — changing it would be silently ignored.
    const auto it = default_keys.find(key);
    if (it != default_keys.end() && it->second == value) continue;
    return at(key) + "key '" + key + "' is not consumed by report '" +
           report.name + "'" +
           (it != default_keys.end()
                ? " (the figure pins it to " + it->second + ")"
                : "") +
           "; drop it or use the generic `run` report";
  }
  // Each axis assigns one key per cell: it must be a key the report reads,
  // and every value must pass the report's check. (A malformed section is
  // Scenario::validate()'s to report.)
  if (!scenario.has_sweep() || !workload::sweep_error(scenario).empty()) {
    return "";
  }
  for (const workload::SweepAxis& axis : workload::sweep_axes(scenario)) {
    const std::string where = at("sweep." + axis.key);
    if (!consumed(axis.path)) {
      return where + "sweep axis '" + axis.key + "' sets '" + axis.path +
             "', which report '" + report.name + "' does not consume";
    }
    for (const std::string& value : axis.values) {
      const std::string error = value_error(axis.path, value);
      if (!error.empty()) {
        return where + "sweep axis '" + axis.key + "': " + error;
      }
    }
  }
  return "";
}

}  // namespace brisa::reports
