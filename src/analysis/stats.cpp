#include "analysis/stats.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>

#include "net/network.h"

namespace brisa::analysis {

std::vector<CdfPoint> make_cdf(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  std::vector<CdfPoint> cdf;
  cdf.reserve(samples.size());
  const double n = static_cast<double>(samples.size());
  for (std::size_t i = 0; i < samples.size(); ++i) {
    cdf.push_back({samples[i], 100.0 * static_cast<double>(i + 1) / n});
  }
  return cdf;
}

namespace {

/// The linear-interpolated rank of percentile p over n samples: the two
/// neighboring ranks and the weight of the upper one.
struct Rank {
  std::size_t lo;
  std::size_t hi;
  double frac;
};

Rank rank_of(std::size_t n, double p) {
  const double rank = (p / 100.0) * static_cast<double>(n - 1);
  return {static_cast<std::size_t>(std::floor(rank)),
          static_cast<std::size_t>(std::ceil(rank)),
          rank - std::floor(rank)};
}

double interpolate(double lo, double hi, double frac) {
  return lo + (hi - lo) * frac;
}

/// percentile() over samples already sorted ascending.
double sorted_percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return std::numeric_limits<double>::quiet_NaN();
  if (sorted.size() == 1) return sorted.front();
  const Rank r = rank_of(sorted.size(), p);
  return interpolate(sorted[r.lo], sorted[r.hi], r.frac);
}

}  // namespace

std::vector<CdfPoint> cdf_at_percents(std::vector<double> samples,
                                      const std::vector<double>& percents) {
  std::sort(samples.begin(), samples.end());
  std::vector<CdfPoint> cdf;
  cdf.reserve(percents.size());
  for (const double p : percents) {
    cdf.push_back({sorted_percentile(samples, p), p});
  }
  return cdf;
}

double percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return std::numeric_limits<double>::quiet_NaN();
  if (samples.size() == 1) return samples.front();
  // Selection instead of a full sort: the low rank by nth_element, the high
  // rank (when it differs) as the smallest sample above it. The values are
  // the sorted vector's, so the result is bit-identical.
  const Rank r = rank_of(samples.size(), p);
  const auto lo = samples.begin() + static_cast<std::ptrdiff_t>(r.lo);
  std::nth_element(samples.begin(), lo, samples.end());
  const double hi =
      r.hi == r.lo ? *lo : *std::min_element(lo + 1, samples.end());
  return interpolate(*lo, hi, r.frac);
}

PercentileSummary summarize(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  PercentileSummary s;
  s.p5 = sorted_percentile(samples, 5);
  s.p25 = sorted_percentile(samples, 25);
  s.p50 = sorted_percentile(samples, 50);
  s.p75 = sorted_percentile(samples, 75);
  s.p90 = sorted_percentile(samples, 90);
  return s;
}

double mean(const std::vector<double>& samples) {
  if (samples.empty()) return std::numeric_limits<double>::quiet_NaN();
  double total = 0;
  for (const double v : samples) total += v;
  return total / static_cast<double>(samples.size());
}

double sample_min(const std::vector<double>& samples) {
  if (samples.empty()) return std::numeric_limits<double>::quiet_NaN();
  return *std::min_element(samples.begin(), samples.end());
}

double sample_max(const std::vector<double>& samples) {
  if (samples.empty()) return std::numeric_limits<double>::quiet_NaN();
  return *std::max_element(samples.begin(), samples.end());
}

std::string format_cdf(const std::string& title,
                       const std::vector<CdfPoint>& cdf) {
  std::ostringstream out;
  out << "# " << title << "\n";
  for (const CdfPoint& point : cdf) {
    out << point.value << " " << point.percent << "\n";
  }
  return out.str();
}

std::vector<CounterRow> sim_counter_rows(
    const sim::Simulator& simulator,
    const net::MessagePoolStats& pool_baseline) {
  const sim::Simulator::Stats stats = simulator.stats();
  net::MessagePoolStats pool = net::message_pool_stats();
  pool.allocated -= pool_baseline.allocated;
  pool.reused -= pool_baseline.reused;
  pool.recycled -= pool_baseline.recycled;
  return {
      {"events_fired", stats.events_fired},
      {"events_scheduled", stats.events_scheduled},
      {"events_cancelled", stats.events_cancelled},
      {"callback_heap_fallbacks", stats.callback_heap_fallbacks},
      {"pending_events", stats.pending_events},
      {"event_slab_slots", stats.event_slab_slots},
      {"peak_pending_events", stats.peak_pending_events},
      {"active_periodics", stats.active_periodics},
      {"messages_created", pool.messages_created()},
      {"message_blocks_allocated", pool.allocated},
      {"message_blocks_reused", pool.reused},
  };
}

std::vector<CounterRow> shard_counter_rows(const sim::Simulator& simulator) {
  const sim::Simulator::Stats stats = simulator.stats();
  std::vector<CounterRow> rows;
  if (stats.shards.empty()) return rows;
  rows.push_back({"windows", stats.windows});
  rows.push_back({"serial_events", stats.serial_events});
  for (std::size_t i = 0; i < stats.shards.size(); ++i) {
    const sim::Simulator::Stats::Shard& shard = stats.shards[i];
    const std::string prefix = "shard" + std::to_string(i) + "_";
    rows.push_back({prefix + "events", shard.events});
    rows.push_back({prefix + "windows", shard.windows});
    rows.push_back({prefix + "mailbox_in", shard.mailbox_in});
    rows.push_back({prefix + "steals", shard.steals});
    rows.push_back({prefix + "barrier_wait_us", shard.barrier_wait_us});
  }
  return rows;
}

std::vector<CounterRow> fault_counter_rows(const net::Network& network) {
  const net::Network::FaultTotals& totals = network.fault_totals();
  std::array<std::uint64_t, net::kTrafficClassCount> dropped{};
  std::array<std::uint64_t, net::kTrafficClassCount> blackholed{};
  for (std::size_t i = 0; i < network.host_count(); ++i) {
    const net::BandwidthStats& stats =
        network.stats(net::NodeId(static_cast<std::uint32_t>(i)));
    for (std::size_t tc = 0; tc < net::kTrafficClassCount; ++tc) {
      dropped[tc] += stats.dropped_messages[tc];
      blackholed[tc] += stats.blackholed_messages[tc];
    }
  }
  return {
      {"datagrams_dropped", totals.datagrams_dropped},
      {"datagrams_blackholed", totals.datagrams_blackholed},
      {"segments_dropped", totals.segments_dropped},
      {"segments_blackholed", totals.segments_blackholed},
      {"retransmissions", totals.retransmissions},
      {"rx_suppressed", totals.rx_suppressed},
      {"suspends", totals.suspends},
      {"resumes", totals.resumes},
      {"dropped_membership", dropped[0]},
      {"dropped_control", dropped[1]},
      {"dropped_data", dropped[2]},
      {"blackholed_membership", blackholed[0]},
      {"blackholed_control", blackholed[1]},
      {"blackholed_data", blackholed[2]},
  };
}

std::string format_counters(const std::string& title,
                            const std::vector<CounterRow>& rows) {
  std::size_t width = 0;
  for (const CounterRow& row : rows) width = std::max(width, row.label.size());
  std::ostringstream out;
  out << "# " << title << "\n";
  for (const CounterRow& row : rows) {
    out << row.label;
    for (std::size_t i = row.label.size(); i < width + 2; ++i) out << ' ';
    out << row.value << "\n";
  }
  return out.str();
}

std::string counters_json(const std::vector<CounterRow>& rows) {
  std::ostringstream out;
  out << "{";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    if (i > 0) out << ", ";
    out << '"' << rows[i].label << "\": " << rows[i].value;
  }
  out << "}";
  return out.str();
}

}  // namespace brisa::analysis
