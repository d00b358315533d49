// Fault-recovery report: dissemination latency and reliability of one
// protocol under one fault regime — BRISA vs the epidemic-flood
// (SimpleGossip) and static-tree (SimpleTree) baselines.
//
// Regimes ([params] regime):
//   * loss_<percent>: uniform per-link drop probability over the whole
//     stream. BRISA and the tree ride TCP-like connections, so loss shows
//     up as retransmission delay; the gossip flood's datagrams really drop
//     and must be repaired by anti-entropy.
//   * partition_<seconds>s: two node groups cut from each other 5 s into
//     the stream while the rest of the overlay stays connected; measures
//     whether delivery reroutes around the cut and catches up after heal.
//
// Prints one summary line and one JSON record. scenarios/fault_recovery.scn
// sweeps regime x protocol; its merged rows are the recorded run in
// BENCH_fault_recovery.json at the repo root.
#include <algorithm>
#include <cstdio>
#include <iterator>
#include <memory>
#include <string>

#include "reports/metrics.h"
#include "reports/reports_impl.h"
#include "workload/scenario.h"

namespace brisa::reports::impl {

namespace {

/// A parsed `[params] regime`.
struct Regime {
  bool loss = true;
  std::int64_t amount = 0;  ///< loss percent, or partition seconds
};

/// `digits` as a plain decimal — no sign, no leading zero, at most six
/// digits — or -1, so the regime label echoes exactly what was parsed.
std::int64_t plain_decimal(const std::string& digits) {
  if (digits.empty() || digits.size() > 6 ||
      digits.find_first_not_of("0123456789") != std::string::npos ||
      (digits.size() > 1 && digits[0] == '0')) {
    return -1;
  }
  return std::stoll(digits);
}

/// "" on success; otherwise the diagnostic.
std::string parse_regime(const std::string& text, Regime* regime) {
  if (text.rfind("loss_", 0) == 0) {
    const std::int64_t percent = plain_decimal(text.substr(5));
    if (percent >= 0 && percent <= 100) {
      *regime = {true, percent};
      return "";
    }
  } else if (text.rfind("partition_", 0) == 0 && text.back() == 's') {
    const std::int64_t seconds =
        plain_decimal(text.substr(10, text.size() - 11));
    if (seconds >= 1) {
      *regime = {false, seconds};
      return "";
    }
  }
  return "regime must be loss_<percent 0..100> or partition_<seconds>s "
         "(seconds >= 1), got '" +
         text + "'";
}

net::FaultPlan loss_plan(double probability) {
  net::FaultPlan plan;
  if (probability > 0.0) {
    plan.add_loss({sim::TimePoint::origin(),
                   sim::TimePoint::origin() + sim::Duration::seconds(100000),
                   probability, net::NodeGroup::all(), net::NodeGroup::all()});
  }
  return plan;
}

net::FaultPlan partition_plan(std::size_t nodes, std::int64_t duration_s) {
  net::FaultPlan plan;
  // Clamp so tiny node counts still cut two disjoint non-empty groups
  // instead of underflowing range() into NodeGroup::all().
  const auto eighth = static_cast<std::uint32_t>(std::max<std::size_t>(
      1, nodes / 8));
  plan.add_partition(
      {sim::TimePoint::origin() + sim::Duration::seconds(5),
       sim::TimePoint::origin() + sim::Duration::seconds(5 + duration_s),
       net::NodeGroup::range(0, eighth - 1),
       net::NodeGroup::range(eighth, 2 * eighth - 1)});
  return plan;
}

/// Per protocol: the label its rows carry and its settling time after the
/// 20 s join window.
struct Harness {
  const char* protocol;
  const char* label;
  double stabilization_s;
};
constexpr Harness kHarnesses[] = {{"brisa", "brisa", 25},
                                  {"gossip", "gossip-flood", 20},
                                  {"tree", "simple-tree", 10}};

}  // namespace

std::string fault_recovery_check(const std::string& key,
                                 const std::string& value) {
  if (key == "scenario.protocol" && value != "brisa" && value != "gossip" &&
      value != "tree") {
    return "fault_recovery runs protocol brisa|gossip|tree, got '" + value +
           "'";
  }
  Regime regime;
  return key == "params.regime" ? parse_regime(value, &regime) : "";
}

workload::Scenario fault_recovery_defaults() {
  workload::Scenario s;
  s.set("scenario", "name", "fault_recovery")
      .set("scenario", "report", "fault_recovery")
      .set("scenario", "nodes", "96")
      .set("scenario", "seed", "1")
      .set("streams", "messages", "60")
      .set("sweep", "param.regime",
           "loss_0, loss_5, loss_10, loss_20, partition_10s, partition_30s")
      .set("sweep", "protocol", "brisa, gossip, tree");
  return s;
}

int fault_recovery_run(const workload::Scenario& scenario) {
  const std::size_t nodes = scenario.nodes_or(96);
  const std::size_t messages = scenario.messages_or(60);
  const std::uint64_t seed = scenario.seed_or(1);
  const std::string protocol = scenario.protocol_or("brisa");
  const std::string label = scenario.param_string("regime", "loss_0");
  Regime regime;
  std::string error = fault_recovery_check("scenario.protocol", protocol);
  if (error.empty()) error = parse_regime(label, &regime);
  if (!error.empty()) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return 2;
  }
  const net::FaultPlan plan =
      regime.loss ? loss_plan(static_cast<double>(regime.amount) / 100.0)
                  : partition_plan(nodes, regime.amount);

  const Harness& harness = *std::find_if(
      std::begin(kHarnesses), std::end(kHarnesses),
      [&protocol](const Harness& h) { return protocol == h.protocol; });
  workload::Scenario cell = scenario;
  cell.nodes = nodes;
  cell.join_spread_s = 20.0;
  cell.stabilization_s = harness.stabilization_s;
  const std::unique_ptr<workload::SystemBase> system =
      workload::make_system(cell);
  system->bootstrap();
  if (!plan.empty()) {
    system->install_fault_plan(plan.shifted(system->simulator().now() -
                                            sim::TimePoint::origin()));
  }
  system->run_stream(messages, 5.0, 512, sim::Duration::seconds(30));
  const analysis::StreamRow row =
      measure_stream(*system, net::kDefaultStream, system->messages_sent());
  const net::Network::FaultTotals& totals = system->network().fault_totals();
  const std::uint64_t blackholed =
      totals.datagrams_blackholed + totals.segments_blackholed;

  std::printf(
      "fault recovery %s under %s, %zu nodes: reliability %.2f%%, "
      "p50 %.1f ms, p99 %.1f ms, %llu retransmits, %llu dropped, "
      "%llu blackholed\n",
      harness.label, label.c_str(), nodes, row.reliability * 100.0,
      row.p50_ms, row.p99_ms,
      static_cast<unsigned long long>(totals.retransmissions),
      static_cast<unsigned long long>(totals.datagrams_dropped),
      static_cast<unsigned long long>(blackholed));
  std::printf(
      "{\"bench\":\"fault_recovery\",\"protocol\":\"%s\",\"scenario\":\"%s\","
      "\"nodes\":%zu,\"messages\":%zu,\"seed\":%llu,"
      "\"reliability\":%.6f,\"p50_ms\":%.3f,\"p99_ms\":%.3f,"
      "\"retransmissions\":%llu,\"datagrams_dropped\":%llu,"
      "\"blackholed\":%llu}\n",
      harness.label, label.c_str(), nodes, messages,
      static_cast<unsigned long long>(seed), row.reliability, row.p50_ms,
      row.p99_ms, static_cast<unsigned long long>(totals.retransmissions),
      static_cast<unsigned long long>(totals.datagrams_dropped),
      static_cast<unsigned long long>(blackholed));
  return 0;
}

}  // namespace brisa::reports::impl
