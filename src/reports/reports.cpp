#include "reports/reports.h"

#include <cstdio>
#include <stdexcept>

#include "reports/reports_impl.h"
#include "util/flags.h"

namespace brisa::reports {

namespace {

std::vector<Report> build_registry() {
  using namespace impl;
  std::vector<Report> reports;
  reports.push_back(
      {"fig02_flood_duplicates",
       "Fig 2: duplicates per message per node under pure flooding",
       "bench_fig02_flood_duplicates [--nodes=512] [--messages=500]\n"
       "  [--payload=1024] [--views=4,6,8,10] [--seed=1]\n",
       {"nodes", "messages", "payload", "views", "seed"},
       {},
       fig02_defaults,
       fig02_run});
  reports.push_back(
      {"fig06_depth",
       "Fig 6: depth distribution of the emergent structures",
       "bench_fig06_depth [--nodes=512] [--messages=60] [--seed=1]\n",
       {"nodes", "messages", "seed"},
       {},
       fig06_defaults,
       fig06_run});
  reports.push_back(
      {"fig07_degree",
       "Fig 7: degree distribution of the emergent structures",
       "bench_fig07_degree [--nodes=512] [--messages=60] [--seed=1]\n",
       {"nodes", "messages", "seed"},
       {},
       fig07_defaults,
       fig07_run});
  reports.push_back(
      {"fig08_tree_shape",
       "Fig 8: sample tree shapes (DOT export + depth histogram)",
       "bench_fig08_tree_shape [--nodes=100] [--seed=1] "
       "[--dot-prefix=fig08]\n",
       {"nodes", "seed", "dot-prefix"},
       {},
       fig08_defaults,
       fig08_run});
  reports.push_back(
      {"fig09_routing_delay",
       "Fig 9: routing-delay CDF on the PlanetLab model",
       "bench_fig09_routing_delay [--nodes=150] [--messages=200] "
       "[--seed=1]\n",
       {"nodes", "messages", "seed"},
       {},
       fig09_defaults,
       fig09_run});
  reports.push_back(
      {"fig10_bandwidth_down",
       "Fig 10: download bandwidth percentiles per structure/payload",
       "bench_fig10/11 [--nodes=512] [--messages=100] "
       "[--payloads=1024,10240,51200,102400] [--seed=1]\n",
       {"nodes", "messages", "payloads", "seed"},
       {},
       fig10_defaults,
       fig10_run});
  reports.push_back(
      {"fig11_bandwidth_up",
       "Fig 11: upload bandwidth percentiles per structure/payload",
       "bench_fig10/11 [--nodes=512] [--messages=100] "
       "[--payloads=1024,10240,51200,102400] [--seed=1]\n",
       {"nodes", "messages", "payloads", "seed"},
       {},
       fig11_defaults,
       fig11_run});
  reports.push_back(
      {"fig12_protocol_bandwidth",
       "Fig 12: data transmitted per node across the four protocols",
       "bench_fig12_protocol_bandwidth [--nodes=512] [--messages=500] "
       "[--payloads=0,1024,10240,20480] [--seed=1]\n",
       {"nodes", "messages", "payloads", "seed"},
       {},
       fig12_defaults,
       fig12_run});
  reports.push_back(
      {"fig13_construction_time",
       "Fig 13: structure construction-time CDF, BRISA vs TAG",
       "bench_fig13_construction_time [--cluster-nodes=512] "
       "[--planetlab-nodes=200] [--seed=1]\n",
       {"cluster-nodes", "planetlab-nodes", "seed"},
       {},
       fig13_defaults,
       fig13_run});
  reports.push_back(
      {"fig14_recovery_delay",
       "Fig 14: hard-repair recovery delays under churn, BRISA vs TAG",
       "bench_fig14_recovery_delay [--nodes=128] [--churn-seconds=600] "
       "[--seed=1]\n",
       {"nodes", "churn-seconds", "seed"},
       {},
       fig14_defaults,
       fig14_run});
  reports.push_back(
      {"tab1_churn",
       "Table I: churn impact (parents lost, orphans, repair split)",
       "bench_tab1_churn [--sizes=128,512] [--churn-seconds=300] "
       "[--seed=1]\n",
       {"sizes", "churn-seconds", "seed"},
       {},
       tab1_defaults,
       tab1_run});
  reports.push_back(
      {"tab2_latency",
       "Table II: dissemination latency across the four protocols",
       "bench_tab2_latency [--nodes=512] [--messages=500] [--seed=1]\n",
       {"nodes", "messages", "seed"},
       {},
       tab2_defaults,
       tab2_run});
  reports.push_back(
      {"ablation_strategies",
       "Ablation: the four parent-selection strategies",
       "bench_ablation_strategies [--nodes=256] [--messages=80] "
       "[--seed=1]\n",
       {"nodes", "messages", "seed"},
       {},
       ablation_defaults,
       ablation_run});
  reports.push_back(
      {"fault_recovery",
       "Fault recovery: reliability & latency vs loss / partitions",
       "bench_fault_recovery [--nodes=96] [--messages=60] [--seed=1]\n"
       "  [--protocols=brisa,gossip,tree]\n"
       "  [--regimes=loss_0,loss_5,loss_10,loss_20,partition_10s,"
       "partition_30s]\n",
       {"nodes", "messages", "seed", "protocols", "regimes"},
       {"protocols", "regimes"},
       fault_recovery_defaults,
       fault_recovery_run});
  reports.push_back(
      {"multi_stream",
       "Multi-stream sweep: per-stream reliability as the forest grows",
       "bench_multi_stream [--nodes=1000] [--streams=1,2,4,8,16,32,64]\n"
       "                   [--messages=20] [--rate=5] [--payload=512]\n"
       "                   [--subscription-fraction=1.0] [--seed=1]\n"
       "                   [--no-churn] [--quick]\n",
       {"nodes", "streams", "messages", "rate", "payload",
        "subscription-fraction", "seed", "churn", "quick"},
       {"streams"},
       multi_stream_defaults,
       multi_stream_run});
  reports.push_back(
      {"scale_sweep",
       "Scale sweep: reliability/cost from 1k to 100k nodes",
       "bench_scale_sweep [--sizes=1000,10000,100000]\n"
       "                  [--protocols=brisa,gossip,tree,tag]\n"
       "                  [--baseline-cap=10000] [--messages=20]\n"
       "                  [--rate=5] [--payload=256] [--seed=1]\n"
       "                  [--variants=clean,faulted]\n"
       "                  [--no-fault-variant] [--quick]\n",
       {"sizes", "protocols", "baseline-cap", "messages", "rate", "payload",
        "seed", "fault-variant", "quick", "variants"},
       {"variants"},
       scale_sweep_defaults,
       scale_sweep_run});
  reports.push_back(
      {"buffer_tradeoff",
       "Buffer tradeoff: reliability vs bounded store size per protocol",
       "bench_buffer_tradeoff [--entries=0,4,8,16,64] [--store-bytes=0]\n"
       "                      [--protocols=brisa,gossip,tree,tag]\n"
       "                      [--policies=oldest-first,delivered-first]\n"
       "                      [--bloom] [--rate-control] [--no-faults]\n"
       "                      [--nodes=512] [--messages=40] [--rate=5]\n"
       "                      [--payload=256] [--seed=1] [--quick]\n",
       {"entries", "store-bytes", "protocols", "policies", "bloom",
        "rate-control", "faults", "nodes", "messages", "rate", "payload",
        "seed", "quick"},
       {},
       buffer_tradeoff_defaults,
       buffer_tradeoff_run});
  reports.push_back(
      {"run",
       "Generic declarative run: any protocol/topology/faults combination",
       "brisa_run <scenario.scn>\n",
       {},
       {},
       generic_defaults,
       generic_run});
  return reports;
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

void apply_flag(workload::Scenario& scenario, const Report& report,
                const std::string& name, const std::string& value) {
  for (const std::string& param : report.param_flags) {
    if (name == param) {
      scenario.set("params", name, value);
      return;
    }
  }
  if (name == "nodes") {
    scenario.set("scenario", "nodes", value);
  } else if (name == "seed") {
    scenario.set("scenario", "seed", value);
  } else if (name == "protocol") {
    scenario.set("scenario", "protocol", value);
  } else if (name == "messages") {
    scenario.set("streams", "messages", value);
  } else if (name == "streams") {
    scenario.set("streams", "count", value);
  } else if (name == "rate") {
    scenario.set("streams", "rate-per-s", value);
  } else if (name == "payload") {
    scenario.set("streams", "payload", value);
  } else if (name == "subscription-fraction") {
    scenario.set("streams", "subscription-fraction", value);
  } else {
    scenario.set("params", name, value);
  }
}

namespace {

/// Dotted scenario path a core-routed flag name lands on, or "" when the
/// flag routes into [params]. Must mirror apply_flag.
std::string core_flag_path(const std::string& name) {
  if (name == "nodes") return "scenario.nodes";
  if (name == "seed") return "scenario.seed";
  if (name == "protocol") return "scenario.protocol";
  if (name == "messages") return "streams.messages";
  if (name == "streams") return "streams.count";
  if (name == "rate") return "streams.rate-per-s";
  if (name == "payload") return "streams.payload";
  if (name == "subscription-fraction") return "streams.subscription-fraction";
  return "";
}

bool is_param_flag(const Report& report, const std::string& name) {
  for (const std::string& param : report.param_flags) {
    if (name == param) return true;
  }
  return false;
}

}  // namespace

std::string scenario_key_error(const workload::Scenario& scenario,
                               const Report& report) {
  if (report.name == "run") return "";
  const workload::Scenario defaults = report.defaults();
  const auto default_keys = defaults.set_keys();

  // Keys the report's CLI surface can set are genuinely consumed.
  std::vector<std::string> reachable;
  std::vector<std::string> reachable_params;
  for (const std::string& flag : report.flags) {
    const std::string path =
        is_param_flag(report, flag) ? "" : core_flag_path(flag);
    if (path.empty()) {
      reachable_params.push_back(flag);
    } else {
      reachable.push_back(path);
    }
  }
  // Labels are always fine.
  reachable.push_back("scenario.name");
  reachable.push_back("scenario.report");
  // Executor knob, honored by every harness; results are byte-identical for
  // any value, so no figure can be distorted by it.
  reachable.push_back("run.shards");

  for (const auto& [key, value] : scenario.set_keys()) {
    // [sweep] keys are consumed upstream by the sweep executor, never by
    // the per-cell report.
    if (key.rfind("sweep.", 0) == 0) continue;
    bool consumed = false;
    for (const std::string& path : reachable) {
      if (key == path) {
        consumed = true;
        break;
      }
    }
    if (consumed) continue;
    // A key the figure pins may be restated, but only with the pinned
    // value — changing it would be silently ignored.
    const auto it = default_keys.find(key);
    if (it != default_keys.end() && it->second == value) continue;
    return "key '" + key + "' is not consumed by report '" + report.name +
           "'" +
           (it != default_keys.end()
                ? " (the figure pins it to " + it->second + ")"
                : "") +
           "; drop it or use the generic `run` report";
  }
  for (const auto& [key, _] : scenario.params) {
    bool known = false;
    for (const std::string& param : reachable_params) {
      if (key == param) {
        known = true;
        break;
      }
    }
    if (!known && defaults.params.count(key) == 0) {
      return "param '" + key + "' is not consumed by report '" + report.name +
             "'";
    }
  }
  return "";
}

int figure_main(const std::string& report_name, int argc,
                const char* const* argv) {
  const Report* report = find(report_name);
  if (report == nullptr) {
    std::fprintf(stderr, "internal error: unknown report '%s'\n",
                 report_name.c_str());
    return 2;
  }
  const util::Flags flags = util::Flags::parse(argc, argv);
  if (flags.help_requested()) {
    std::printf("%s", report->usage.c_str());
    return 0;
  }
  if (!flags.validate(report->flags, report->usage)) return 2;
  if (!flags.positional().empty()) {
    // Reports take no positional arguments; a stray `nodes=64` (missing
    // `--`) must not silently run the full-size default.
    std::fprintf(stderr, "error: unexpected argument '%s'\nusage: %s",
                 flags.positional().front().c_str(), report->usage.c_str());
    return 2;
  }
  workload::Scenario scenario = report->defaults();
  try {
    for (const auto& [name, value] : flags.values()) {
      apply_flag(scenario, *report, name, value);
    }
    scenario.validate();
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "error: %s\nusage: %s", e.what(),
                 report->usage.c_str());
    return 2;
  }
  const std::string key_error = scenario_key_error(scenario, *report);
  if (!key_error.empty()) {
    std::fprintf(stderr, "error: %s\nusage: %s", key_error.c_str(),
                 report->usage.c_str());
    return 2;
  }
  return report->run(scenario);
}

}  // namespace brisa::reports
