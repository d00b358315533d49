// Shared helpers for the report implementations and the examples: the one
// delivery measurement every protocol goes through (over the SystemBase
// surface), CDFs, bandwidth and percentile rows in the units the paper
// reports.
#pragma once

#include <algorithm>
#include <cstdio>
#include <iterator>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "analysis/stats.h"
#include "analysis/stream_report.h"
#include "workload/baseline_systems.h"
#include "workload/brisa_system.h"
#include "workload/churn.h"
#include "workload/pubsub.h"
#include "workload/scenario.h"

namespace brisa::reports {

// --- Delivery measurement (every protocol) ---------------------------------

/// Appends node `id`'s source-to-delivery delays on `stream`, in
/// milliseconds: one per message both the node and the source delivered.
inline void append_delays_ms(const workload::SystemBase& system,
                             net::NodeId id, net::StreamId stream,
                             std::vector<double>& delays_ms) {
  const auto& source_times =
      system.delivery_log(system.source_id(stream), stream).delivery_time;
  for (const auto& [seq, at] : system.delivery_log(id, stream).delivery_time) {
    const auto it = source_times.find(seq);
    if (it == source_times.end()) continue;
    delays_ms.push_back((at - it->second).to_milliseconds());
  }
}

/// One stream's delivery row over a finished system, counted over its
/// receivers() minus the source (and minus non-subscribers when `driver`
/// is given): reliability = delivered / (counted nodes x `sent`),
/// source-to-node p50/p99 and duplicates.
inline analysis::StreamRow measure_stream(
    const workload::SystemBase& system, net::StreamId stream,
    std::uint64_t sent, const workload::PubSubDriver* driver = nullptr) {
  analysis::StreamRow row;
  row.stream = stream;
  row.sent = sent;
  const net::NodeId source = system.source_id(stream);
  std::vector<double> delays_ms;
  for (const net::NodeId id : system.receivers()) {
    if (id == source) continue;
    if (driver != nullptr && !driver->subscribed(stream, id)) continue;
    ++row.subscribers;
    const net::DeliveryLog& log = system.delivery_log(id, stream);
    row.delivered += log.delivered;
    row.duplicates += log.duplicates;
    append_delays_ms(system, id, stream, delays_ms);
  }
  const std::uint64_t expected =
      static_cast<std::uint64_t>(row.subscribers) * row.sent;
  row.reliability = expected == 0 ? 0.0
                                  : static_cast<double>(row.delivered) /
                                        static_cast<double>(expected);
  // percentile() of an empty set is NaN; zero keeps the JSON well-formed
  // when nothing was delivered.
  row.p50_ms = delays_ms.empty() ? 0.0 : analysis::percentile(delays_ms, 50);
  row.p99_ms = delays_ms.empty() ? 0.0 : analysis::percentile(delays_ms, 99);
  return row;
}

/// measure_stream() for every stream of a finished PubSubDriver run.
inline std::vector<analysis::StreamRow> collect_stream_rows(
    const workload::SystemBase& system, const workload::PubSubDriver& driver) {
  std::vector<analysis::StreamRow> rows;
  for (const workload::PubSubStreamSpec& spec : driver.config().streams) {
    rows.push_back(
        measure_stream(system, spec.stream, driver.sent(spec.stream), &driver));
  }
  return rows;
}

/// The single-stream cell the scale and buffer sweeps share: builds
/// `cell`'s protocol with a 20 s join window and the protocol's pinned
/// stabilization, bootstraps it (then releases bootstrap's pending-event
/// slack), and streams `messages` with the protocol's pinned grace —
/// under a mild fault plan when `faulted`: 5% uniform loss over
/// the first 15 s of the stream plus a crash burst of 1% of the nodes
/// (min 3) recovering after 10 s. `cell.nodes` must be set.
inline std::unique_ptr<workload::SystemBase> run_mild_fault_cell(
    workload::Scenario cell, bool faulted, std::size_t messages,
    double rate_per_s, std::size_t payload_bytes) {
  struct Timing {
    const char* protocol;
    double stabilization_s;
    std::int64_t grace_s;
  };
  static constexpr Timing kTimings[] = {
      {"brisa", 25, 20}, {"gossip", 10, 20}, {"tree", 10, 20}, {"tag", 20, 30}};
  const std::string protocol = cell.protocol_or("brisa");
  const auto timing = std::find_if(
      std::begin(kTimings), std::end(kTimings),
      [&protocol](const Timing& t) { return protocol == t.protocol; });
  if (timing == std::end(kTimings)) {
    throw std::invalid_argument("unknown protocol '" + protocol + "'");
  }
  cell.join_spread_s = 20.0;
  cell.stabilization_s = timing->stabilization_s;
  std::unique_ptr<workload::SystemBase> system = workload::make_system(cell);
  system->bootstrap();
  // Bootstrap churns far more pending events than steady state (joins,
  // per-host arming).
  system->simulator().shrink();
  const std::size_t crash = std::max<std::size_t>(3, *cell.nodes / 100);
  workload::ChurnDriver driver(
      system->simulator(),
      workload::ChurnScript::parse("from 0 s to 15 s drop 5%\nat 5 s crash " +
                                   std::to_string(crash) +
                                   " for 10 s\nat 60 s stop\n"),
      system->churn_hooks());
  if (faulted) driver.arm();
  system->run_stream(messages, rate_per_s, payload_bytes,
                     sim::Duration::seconds(timing->grace_s));
  return system;
}

/// One emergent structure the Fig 6, 7, 10 and 11 reports compare.
struct Structure {
  const char* mode;  ///< `overlay.mode`: tree|dag
  std::size_t parents;
  std::size_t view;  ///< HyParView active view

  /// "tree" or "DAG-<parents>"; each report adds the view in its own form.
  [[nodiscard]] std::string name() const {
    return parents == 1 ? "tree" : "DAG-" + std::to_string(parents);
  }

  /// `cell` with this structure's mode, parent count and active view.
  [[nodiscard]] workload::Scenario apply(workload::Scenario cell) const {
    cell.mode = mode;
    cell.parents = parents;
    cell.active_view = view;
    return cell;
  }
};

/// The paper's four: tree and DAG-2, each at active view 4 and 8.
inline constexpr Structure kStructures[] = {
    {"tree", 1, 4}, {"tree", 1, 8}, {"dag", 2, 4}, {"dag", 2, 8}};

/// Structure depth of every non-source member (Fig 6).
inline std::vector<double> collect_depths(workload::BrisaSystem& system) {
  std::vector<double> depths;
  for (const net::NodeId id : system.member_ids()) {
    if (id == system.source_id()) continue;
    const std::int32_t depth = system.brisa(id).depth();
    if (depth >= 0) depths.push_back(static_cast<double>(depth));
  }
  return depths;
}

/// Out-degree (active outgoing links) of every member (Fig 7).
inline std::vector<double> collect_degrees(workload::BrisaSystem& system) {
  std::vector<double> degrees;
  for (const net::NodeId id : system.member_ids()) {
    degrees.push_back(static_cast<double>(system.brisa(id).children().size()));
  }
  return degrees;
}

/// Prints a CDF as aligned "value percent" rows under a banner.
inline void print_cdf(const std::string& title,
                      const std::vector<double>& samples) {
  std::printf("%s", analysis::format_cdf(
                        title, analysis::cdf_at_percents(
                                   samples, {5, 10, 20, 30, 40, 50, 60, 70,
                                             80, 90, 95, 99, 100}))
                        .c_str());
}

/// Bandwidth in KB/s per node over a measured window (Figs 10/11).
struct BandwidthSample {
  std::vector<double> download_kbs;
  std::vector<double> upload_kbs;
};

inline BandwidthSample collect_bandwidth_kbs(
    net::Network& network, const std::vector<net::NodeId>& ids,
    sim::Duration window) {
  BandwidthSample sample;
  const double seconds = window.to_seconds();
  for (const net::NodeId id : ids) {
    const net::BandwidthStats& stats = network.stats(id);
    sample.download_kbs.push_back(
        static_cast<double>(stats.total_down_bytes()) / 1024.0 / seconds);
    sample.upload_kbs.push_back(
        static_cast<double>(stats.total_up_bytes()) / 1024.0 / seconds);
  }
  return sample;
}

/// Formats the paper's stacked-percentile row (5/25/50/75/90).
inline std::vector<std::string> percentile_row(
    const std::string& label, std::vector<double> samples, int precision = 1) {
  const analysis::PercentileSummary s = analysis::summarize(std::move(samples));
  return {label, analysis::Table::num(s.p5, precision),
          analysis::Table::num(s.p25, precision),
          analysis::Table::num(s.p50, precision),
          analysis::Table::num(s.p75, precision),
          analysis::Table::num(s.p90, precision)};
}

}  // namespace brisa::reports
