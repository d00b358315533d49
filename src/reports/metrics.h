// Shared metric-extraction helpers for the report implementations and the
// examples: delivery rows, CDFs, bandwidth and percentile rows in the units
// the paper reports.
#pragma once

#include <cstdio>
#include <string>
#include <vector>

#include "analysis/stats.h"
#include "analysis/stream_report.h"
#include "util/flags.h"
#include "workload/baseline_systems.h"
#include "workload/brisa_system.h"
#include "workload/pubsub.h"

namespace brisa::reports {

// --- Multi-stream options ----------------------------------------------------

/// The multi-stream CLI surface the examples parse identically:
/// `--streams=K` concurrent topics and `--subscription-fraction=F` partial
/// audiences (see workload::PubSubDriver).
struct MultiStreamOptions {
  std::size_t streams = 1;
  double subscription_fraction = 1.0;
};

inline MultiStreamOptions parse_multi_stream_options(
    const util::Flags& flags) {
  MultiStreamOptions options;
  options.streams =
      static_cast<std::size_t>(flags.get_int("streams", 1));
  options.subscription_fraction =
      flags.get_fraction("subscription-fraction", 1.0);
  return options;
}

/// The flag names parse_multi_stream_options consumes — callers append
/// these to their known-flag list for util::Flags::validate.
inline std::vector<std::string> multi_stream_flag_names() {
  return {"streams", "subscription-fraction"};
}

/// Per-stream delivery rows from a finished system + PubSubDriver run, for
/// any harness: `stats_of(id, stream)` returns a per-stream Stats with
/// `delivery_time` and `duplicates`, `source_of(stream)` the stream's
/// source node, and `ids` the population to count.
template <typename StatsOf, typename SourceOf>
std::vector<analysis::StreamRow> collect_stream_rows_generic(
    const workload::PubSubDriver& driver, const std::vector<net::NodeId>& ids,
    StatsOf stats_of, SourceOf source_of) {
  std::vector<analysis::StreamRow> rows;
  for (const workload::PubSubStreamSpec& spec : driver.config().streams) {
    analysis::StreamRow row;
    row.stream = spec.stream;
    row.sent = driver.sent(spec.stream);
    const net::NodeId source = source_of(spec.stream);
    const auto& source_times = stats_of(source, spec.stream).delivery_time;
    std::vector<double> delays_ms;
    for (const net::NodeId id : ids) {
      if (id == source) continue;
      if (!driver.subscribed(spec.stream, id)) continue;
      ++row.subscribers;
      const auto& stats = stats_of(id, spec.stream);
      row.delivered += stats.delivery_time.size();
      row.duplicates += stats.duplicates;
      for (const auto& [seq, at] : stats.delivery_time) {
        const auto it = source_times.find(seq);
        if (it == source_times.end()) continue;
        delays_ms.push_back((at - it->second).to_milliseconds());
      }
    }
    const std::uint64_t expected =
        static_cast<std::uint64_t>(row.subscribers) * row.sent;
    row.reliability = expected == 0
                          ? 0.0
                          : static_cast<double>(row.delivered) /
                                static_cast<double>(expected);
    // percentile() of an empty set is NaN; zero keeps the JSON well-formed
    // when a stream ends up with no subscribers.
    row.p50_ms = delays_ms.empty() ? 0.0 : analysis::percentile(delays_ms, 50);
    row.p99_ms = delays_ms.empty() ? 0.0 : analysis::percentile(delays_ms, 99);
    rows.push_back(row);
  }
  return rows;
}

/// The BrisaSystem specialization the reports and examples use.
inline std::vector<analysis::StreamRow> collect_stream_rows(
    workload::BrisaSystem& system, const workload::PubSubDriver& driver) {
  return collect_stream_rows_generic(
      driver, system.member_ids(),
      [&system](net::NodeId id, net::StreamId stream) -> const auto& {
        return system.brisa(id, stream).stats();
      },
      [&system](net::StreamId stream) { return system.source_id(stream); });
}

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

/// Per-(node, message) routing delay: source injection -> node delivery, in
/// milliseconds (Fig 9, Table II building block).
inline std::vector<double> collect_routing_delays_ms(
    workload::BrisaSystem& system) {
  std::vector<double> delays;
  const auto& source_times =
      system.brisa(system.source_id()).stats().delivery_time;
  for (const net::NodeId id : system.member_ids()) {
    if (id == system.source_id()) continue;
    for (const auto& [seq, at] : system.brisa(id).stats().delivery_time) {
      const auto it = source_times.find(seq);
      if (it == source_times.end()) continue;
      delays.push_back((at - it->second).to_milliseconds());
    }
  }
  return delays;
}

/// First-to-last delivery window per node, seconds (Table II).
template <typename TimesOf>
std::vector<double> collect_windows_s(const std::vector<net::NodeId>& ids,
                                      const TimesOf& times_of) {
  std::vector<double> windows;
  for (const net::NodeId id : ids) {
    const auto& times = times_of(id);
    if (times.size() < 2) continue;
    windows.push_back(
        (std::prev(times.end())->second - times.begin()->second).to_seconds());
  }
  return windows;
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
