// Table II: dissemination latency for 512 nodes, 500 messages of 1 KB at
// 5/s — the time between the first and last delivery at each node, averaged
// over all nodes (ideal: 100 s).
//
// Paper numbers: SimpleTree 100.0 s (baseline), BRISA +6%, SimpleGossip
// +28%, TAG +100%.
#include <cstdio>
#include <iterator>

#include "analysis/table.h"
#include "reports/metrics.h"
#include "reports/reports_impl.h"

namespace brisa::reports::impl {

namespace {

/// First-to-last stream-0 delivery window of every receiver, seconds.
std::vector<double> delivery_windows_s(const workload::SystemBase& system) {
  std::vector<double> windows;
  for (const net::NodeId id : system.receivers()) {
    const auto& times = system.delivery_times(id, net::kDefaultStream);
    if (times.size() < 2) continue;
    windows.push_back(
        (std::prev(times.end())->second - times.begin()->second).to_seconds());
  }
  return windows;
}

}  // namespace

workload::Scenario tab2_defaults() {
  workload::Scenario s;
  s.set("scenario", "name", "tab2_latency")
      .set("scenario", "report", "tab2_latency")
      .set("scenario", "nodes", "512")
      .set("scenario", "seed", "1")
      .set("streams", "messages", "500");
  return s;
}

int tab2_run(const workload::Scenario& scenario) {
  const std::size_t nodes = scenario.nodes_or(512);
  const std::size_t messages = scenario.messages_or(500);

  std::printf(
      "=== Table II: dissemination latency, %zu nodes, %zu x 1KB at 5/s "
      "(ideal %.1f s) ===\n",
      nodes, messages, static_cast<double>(messages) / 5.0);

  struct Row {
    const char* protocol;
    const char* label;
    std::int64_t grace_s;
  };
  static constexpr Row kRows[] = {
      {"tree", "SimpleTree", 10},
      {"brisa", "BRISA", 10},
      {"gossip", "SimpleGossip", 60},
      {"tag", "TAG", 240},
  };
  struct Result {
    std::string name;
    double latency_s;
    bool complete;
  };
  std::vector<Result> rows;
  workload::Scenario cell = scenario;
  cell.active_view = 4;  // BRISA's HyParView view; the others ignore it
  for (const Row& row : kRows) {
    cell.protocol = row.protocol;
    const std::unique_ptr<workload::SystemBase> system =
        workload::make_system(cell);
    system->bootstrap();
    system->run_stream(messages, 5.0, 1024,
                       sim::Duration::seconds(row.grace_s));
    rows.push_back({row.label, analysis::mean(delivery_windows_s(*system)),
                    system->complete_delivery()});
  }

  const double baseline = rows[0].latency_s;
  analysis::Table table({"protocol", "latency (s)", "overhead", "complete"});
  for (const Result& row : rows) {
    const double overhead = 100.0 * (row.latency_s / baseline - 1.0);
    table.add_row({row.name, analysis::Table::num(row.latency_s, 2),
                   row.name == "SimpleTree"
                       ? std::string("-")
                       : (overhead >= 0 ? "+" : "") +
                             analysis::Table::num(overhead, 0) + "%",
                   row.complete ? "yes" : "NO"});
  }
  std::printf("%s", table.render().c_str());
  std::printf(
      "paper check: SimpleTree ~ideal; BRISA within a few %%; SimpleGossip "
      "tens of %%; TAG ~+100%%\n");
  return 0;
}

}  // namespace brisa::reports::impl
