// The generic declarative runner behind `report = run` (the default when a
// scenario names no figure report): build the configured protocol system on
// the configured topology, arm the churn/fault trace, drive the stream
// workload, and report per-stream delivery rows — as a table, optional CDF,
// and scenario-tagged JSON lines.
//
// This is the entry point that opens workloads the paper never measured:
// any (protocol x topology x streams x faults) combination expressible in a
// .scn file runs here with no new C++.
#include <cstdio>
#include <memory>
#include <string>
#include <variant>
#include <vector>

#include "analysis/stats.h"
#include "analysis/stream_report.h"
#include "reports/metrics.h"
#include "reports/reports_impl.h"
#include "workload/churn.h"
#include "workload/pubsub.h"
#include "workload/scenario.h"

namespace brisa::reports::impl {

namespace {

/// True when the churn script needs a full membership API (joins or
/// continuous churn), which SimpleTree's fixed coordinator topology lacks.
bool needs_membership_churn(const workload::ChurnScript& script) {
  for (const workload::ChurnAction& action : script.actions()) {
    if (std::holds_alternative<workload::JoinSpan>(action) ||
        std::holds_alternative<workload::ConstChurn>(action)) {
      return true;
    }
  }
  return false;
}

}  // namespace

workload::Scenario generic_defaults() {
  workload::Scenario s;
  s.set("scenario", "report", "run");
  return s;
}

int generic_run(const workload::Scenario& s) {
  const std::string protocol = s.protocol_or("brisa");
  const std::size_t nodes = s.nodes_or(512);
  const std::size_t streams = s.streams_or(1);
  const std::size_t messages = s.messages_or(100);
  const double rate = s.rate_or(5.0);
  const std::size_t payload = s.payload_or(1024);
  const double fraction = s.subscription_fraction_or(1.0);
  const std::uint64_t seed = s.seed_or(1);
  const sim::Duration grace = sim::Duration::milliseconds(
      static_cast<std::int64_t>(s.grace_s.value_or(30.0) * 1e3));

  std::printf(
      "=== scenario %s: %s, %zu nodes, topology %s, %zu stream(s), "
      "%zu msgs/stream at %.1f/s, seed %llu ===\n",
      s.name_or("(unnamed)").c_str(), protocol.c_str(), nodes,
      s.topology_or("cluster").c_str(), streams, messages, rate,
      static_cast<unsigned long long>(seed));

  if (protocol == "tree" && !s.churn_dsl.empty() &&
      needs_membership_churn(workload::ChurnScript::parse(s.churn_dsl))) {
    std::fprintf(stderr,
                 "error: protocol 'tree' supports fault statements only "
                 "(drop/partition/crash/slow) — it has no join/churn "
                 "membership\n");
    return 2;
  }

  const std::unique_ptr<workload::SystemBase> system =
      workload::make_system(s);
  system->bootstrap();
  std::unique_ptr<workload::ChurnDriver> driver;
  if (!s.churn_dsl.empty()) {
    driver = std::make_unique<workload::ChurnDriver>(
        system->simulator(), workload::ChurnScript::parse(s.churn_dsl),
        system->churn_hooks());
    driver->arm();
  }

  workload::PubSubDriver::Config pubsub;
  pubsub.streams =
      workload::uniform_streams(streams, messages, rate, payload);
  pubsub.subscription_fraction = fraction;
  if (s.zipf_exponent) pubsub.zipf_exponent = *s.zipf_exponent;
  if (s.flash_messages) {
    pubsub.flash_messages = *s.flash_messages;
    pubsub.flash_at = sim::Duration::milliseconds(
        static_cast<std::int64_t>(s.flash_at_s.value_or(0.0) * 1e3));
    if (s.flash_rate) pubsub.flash_rate_per_s = *s.flash_rate;
  }
  workload::PubSubDriver pubsub_driver(
      system->simulator(), pubsub,
      [&system](net::StreamId stream, std::size_t bytes) {
        return system->publish(stream, bytes);
      });
  pubsub_driver.run(grace);

  const std::vector<analysis::StreamRow> rows =
      collect_stream_rows(*system, pubsub_driver);
  const analysis::StreamRow aggregate = analysis::aggregate_streams(rows);

  if (driver != nullptr) {
    const workload::ChurnDriver::Counters& c = driver->counters();
    const net::Network::FaultTotals& f = system->network().fault_totals();
    std::printf(
        "churn/faults: %llu joins, %llu kills, %llu crashes, %llu "
        "recoveries; %llu datagrams dropped, %llu blackholed, %llu "
        "retransmissions\n",
        static_cast<unsigned long long>(c.joins),
        static_cast<unsigned long long>(c.kills),
        static_cast<unsigned long long>(c.crashes),
        static_cast<unsigned long long>(c.recoveries),
        static_cast<unsigned long long>(f.datagrams_dropped),
        static_cast<unsigned long long>(f.datagrams_blackholed),
        static_cast<unsigned long long>(f.retransmissions));
  }
  std::printf("%s", analysis::format_stream_table(rows).c_str());

  // Sharded-execution diagnostics go to stderr: steals and barrier waits
  // vary with worker scheduling, and stdout must stay byte-identical across
  // shard counts (the determinism guarantee the golden tests pin).
  const std::vector<analysis::CounterRow> shard_rows =
      analysis::shard_counter_rows(system->simulator());
  if (!shard_rows.empty()) {
    std::fprintf(
        stderr, "%s",
        analysis::format_counters("shard counters", shard_rows).c_str());
  }

  if (s.cdf.value_or(false)) {
    // Source-to-node delays of every stream at every receiver, subscribed
    // or not.
    std::vector<double> delays_ms;
    const std::vector<net::NodeId> receivers = system->receivers();
    for (std::size_t i = 0; i < streams; ++i) {
      const auto stream = static_cast<net::StreamId>(i);
      for (const net::NodeId id : receivers) {
        if (id != system->source_id(stream)) {
          append_delays_ms(*system, id, stream, delays_ms);
        }
      }
    }
    print_cdf("delivery delay CDF (ms percent)", delays_ms);
  }

  if (s.json.value_or(true)) {
    const std::string topology = s.topology_or("cluster");
    const auto tag_line = [&](const analysis::StreamRow& row,
                              const char* scope) {
      std::printf(
          "{\"scenario\":\"%s\",\"protocol\":\"%s\",\"topology\":\"%s\","
          "\"nodes\":%zu,\"streams\":%zu,\"messages\":%zu,\"seed\":%llu,%s\n",
          s.name_or("").c_str(), protocol.c_str(), topology.c_str(), nodes,
          streams, messages, static_cast<unsigned long long>(seed),
          analysis::stream_row_json(row, scope).c_str() + 1);
    };
    for (const analysis::StreamRow& row : rows) tag_line(row, "stream");
    tag_line(aggregate, "all");
  }

  // Optional gate for CI-style use: fail the run when aggregate
  // reliability drops below the scenario's floor.
  const double floor = s.param_double("min-reliability", 0.0);
  if (aggregate.reliability < floor) {
    std::printf("reliability %.4f below scenario floor %.4f\n",
                aggregate.reliability, floor);
    return 1;
  }
  return 0;
}

}  // namespace brisa::reports::impl
