// Figure 12: total data transmitted per node (stabilization vs
// dissemination) for SimpleTree, BRISA (tree, view 4), TAG (view 4) and
// SimpleGossip, 512 nodes, payload sizes {0, 1, 10, 20} KB, 500 messages.
//
// Paper shape: SimpleTree cheapest to stabilize (one coordinator
// round-trip); BRISA ~= TAG (payload-dominated, small structure overhead);
// SimpleGossip comparable at tiny payloads but blowing up with payload size
// (duplicate relays).
#include <cstdio>

#include "analysis/table.h"
#include "reports/metrics.h"
#include "reports/reports_impl.h"

namespace brisa::reports::impl {

namespace {

double mean_upload_mb(net::Network& network,
                      const std::vector<net::NodeId>& ids) {
  double total = 0;
  for (const net::NodeId id : ids) {
    total += static_cast<double>(network.stats(id).total_up_bytes());
  }
  return total / static_cast<double>(ids.size()) / (1024.0 * 1024.0);
}

}  // namespace

workload::Scenario fig12_defaults() {
  workload::Scenario s;
  s.set("scenario", "name", "fig12_protocol_bandwidth")
      .set("scenario", "report", "fig12_protocol_bandwidth")
      .set("scenario", "nodes", "512")
      .set("scenario", "seed", "1")
      .set("streams", "messages", "500")
      .set("params", "payloads", "0,1024,10240,20480");
  return s;
}

int fig12_run(const workload::Scenario& scenario) {
  const std::size_t nodes = scenario.nodes_or(512);
  const std::size_t messages = scenario.messages_or(500);
  const auto payloads =
      scenario.param_int_list("payloads", {0, 1024, 10240, 20480});

  std::printf(
      "=== Fig 12: per-node data transmitted (MB), %zu nodes, %zu messages "
      "===\n",
      nodes, messages);

  analysis::Table table({"protocol", "payload", "stabilize MB", "dissem. MB",
                         "total MB", "complete"});

  // One row per protocol, in the paper's order. SimpleGossip has no
  // structure: the paper attributes everything to dissemination; Cyclon
  // shuffles land in the stabilization column here, which is still tiny.
  struct Row {
    const char* protocol;
    const char* label;
    std::int64_t grace_s;
  };
  static constexpr Row kRows[] = {
      {"tree", "SimpleTree", 10},
      {"brisa", "BRISA tree/view4", 10},
      {"tag", "TAG view4", 260},  // pull drains at half rate
      {"gossip", "SimpleGossip", 30},
  };
  workload::Scenario cell = scenario;
  cell.active_view = 4;  // BRISA's HyParView view; the others ignore it
  for (const std::int64_t payload : payloads) {
    const auto payload_label = std::to_string(payload / 1024) + "KB";
    for (const Row& row : kRows) {
      cell.protocol = row.protocol;
      const std::unique_ptr<workload::SystemBase> system =
          workload::make_system(cell);
      system->bootstrap();
      const double stabilization_mb =
          mean_upload_mb(system->network(), system->all_ids());
      system->network().reset_stats();
      // The first few messages are part of structure emergence; the paper
      // includes them in dissemination.
      system->run_stream(messages, 5.0, static_cast<std::size_t>(payload),
                         sim::Duration::seconds(row.grace_s));
      const double dissemination_mb =
          mean_upload_mb(system->network(), system->all_ids());
      table.add_row({row.label, payload_label,
                     analysis::Table::num(stabilization_mb, 3),
                     analysis::Table::num(dissemination_mb, 2),
                     analysis::Table::num(
                         stabilization_mb + dissemination_mb, 2),
                     system->complete_delivery() ? "yes" : "NO"});
    }
  }
  std::printf("%s", table.render().c_str());
  std::printf(
      "paper check: SimpleTree cheapest stabilization; BRISA ~= TAG; "
      "SimpleGossip multiples of the others once payloads grow\n");
  return 0;
}

}  // namespace brisa::reports::impl
