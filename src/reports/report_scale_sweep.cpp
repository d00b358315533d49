// Scale sweep: one broadcast stream of one protocol at one width, with or
// without a fault plan — a single cell of the paper's headline claim at
// sweep scale: per-node dissemination cost (and reliability) stays flat
// while the system grows two orders of magnitude.
//
// scenarios/scale_sweep.scn sweeps nodes x protocol x variant (1k -> 100k);
// each cell prints one human row and one JSON line, and the merged rows are
// the recorded runs in BENCH_scale.json at the repo root. A clean BRISA
// cell exits 1 when it misses 100% reliability, so the sweep fails when the
// scale claim does at any width.
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>

#include "reports/metrics.h"
#include "reports/reports_impl.h"
#include "workload/scenario.h"

namespace brisa::reports::impl {

std::string scale_sweep_check(const std::string& key,
                              const std::string& value) {
  if (key == "params.variant" && value != "clean" && value != "faulted") {
    return "variant must be clean|faulted, got '" + value + "'";
  }
  return "";
}

workload::Scenario scale_sweep_defaults() {
  workload::Scenario s;
  s.set("scenario", "name", "scale_sweep")
      .set("scenario", "report", "scale_sweep")
      .set("scenario", "seed", "1")
      .set("streams", "messages", "20")
      .set("streams", "rate-per-s", "5")
      .set("streams", "payload", "256")
      .set("sweep", "nodes", "1000, 10000, 100000")
      .set("sweep", "protocol", "brisa, gossip, tree, tag")
      .set("sweep", "param.variant", "clean, faulted");
  return s;
}

int scale_sweep_run(const workload::Scenario& scenario) {
  const std::string protocol = scenario.protocol_or("brisa");
  const std::string variant = scenario.param_string("variant", "clean");
  const std::string error = scale_sweep_check("params.variant", variant);
  if (!error.empty()) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return 2;
  }
  const bool faulted = variant == "faulted";
  const std::size_t nodes = scenario.nodes_or(1000);
  const std::size_t messages = scenario.messages_or(20);
  const std::uint64_t seed = scenario.seed_or(1);
  workload::Scenario cell = scenario;
  cell.nodes = nodes;

  const auto wall_start = std::chrono::steady_clock::now();
  const std::unique_ptr<workload::SystemBase> system = run_mild_fault_cell(
      cell, faulted, messages, scenario.rate_or(5.0),
      scenario.payload_or(256));
  const analysis::StreamRow row = measure_stream(
      *system, net::kDefaultStream, system->messages_sent());
  const bool complete = system->complete_delivery();
  const std::uint64_t events_fired = system->simulator().events_fired();
  const double wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();
  const double events_per_second =
      wall_seconds > 0.0 ? static_cast<double>(events_fired) / wall_seconds
                         : 0.0;

  std::printf(
      "%-7s %8zu nodes %s: reliability %7.3f%% (complete: %s), "
      "p50 %7.1f ms, p99 %8.1f ms, %6.2fM events in %6.1fs wall "
      "(%.2fM ev/s)\n",
      protocol.c_str(), nodes, faulted ? "faulted" : "clean  ",
      row.reliability * 100.0, complete ? "yes" : "NO", row.p50_ms,
      row.p99_ms, static_cast<double>(events_fired) / 1e6, wall_seconds,
      events_per_second / 1e6);
  std::printf(
      "{\"bench\":\"scale_sweep\",\"protocol\":\"%s\",\"nodes\":%zu,"
      "\"faulted\":%s,\"messages\":%zu,\"seed\":%llu,"
      "\"reliability\":%.6f,\"complete_delivery\":%s,"
      "\"p50_ms\":%.3f,\"p99_ms\":%.3f,\"events_fired\":%llu,"
      "\"network_messages\":%llu,\"wall_seconds\":%.2f,"
      "\"events_per_second\":%.0f}\n",
      protocol.c_str(), nodes, faulted ? "true" : "false", messages,
      static_cast<unsigned long long>(seed), row.reliability,
      complete ? "true" : "false", row.p50_ms, row.p99_ms,
      static_cast<unsigned long long>(events_fired),
      static_cast<unsigned long long>(system->network().messages_sent()),
      wall_seconds, events_per_second);

  // The scale claim under test: a clean BRISA broadcast delivers
  // everything at every width.
  if (protocol != "brisa" || faulted) return 0;
  const bool ok = complete && row.reliability >= 1.0;
  std::printf("scale check: clean brisa at %zu nodes %s (reliability "
              "%.4f%%, complete: %s)\n",
              nodes, ok ? "delivered 100%" : "FELL SHORT",
              row.reliability * 100.0, complete ? "yes" : "no");
  return ok ? 0 : 1;
}

}  // namespace brisa::reports::impl
