// Analysis toolkit tests: CDF/percentile math, table rendering, DOT export.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>

#include "analysis/dot_export.h"
#include "analysis/stats.h"
#include "analysis/table.h"

namespace brisa::analysis {
namespace {

TEST(Stats, MakeCdfSortedAndComplete) {
  const auto cdf = make_cdf({3.0, 1.0, 2.0});
  ASSERT_EQ(cdf.size(), 3u);
  EXPECT_DOUBLE_EQ(cdf[0].value, 1.0);
  EXPECT_NEAR(cdf[0].percent, 100.0 / 3.0, 1e-9);
  EXPECT_DOUBLE_EQ(cdf[2].value, 3.0);
  EXPECT_DOUBLE_EQ(cdf[2].percent, 100.0);
}

TEST(Stats, PercentileInterpolates) {
  const std::vector<double> samples{10, 20, 30, 40, 50};
  EXPECT_DOUBLE_EQ(percentile(samples, 0), 10.0);
  EXPECT_DOUBLE_EQ(percentile(samples, 50), 30.0);
  EXPECT_DOUBLE_EQ(percentile(samples, 100), 50.0);
  EXPECT_DOUBLE_EQ(percentile(samples, 25), 20.0);
  EXPECT_DOUBLE_EQ(percentile(samples, 12.5), 15.0);
}

TEST(Stats, PercentileEdgeCases) {
  EXPECT_TRUE(std::isnan(percentile({}, 50)));
  EXPECT_DOUBLE_EQ(percentile({42.0}, 99), 42.0);
}

/// The sort-based definition percentile() had before it used selection.
double sorted_reference(std::vector<double> samples, double p) {
  std::sort(samples.begin(), samples.end());
  if (samples.size() == 1) return samples.front();
  const double rank = (p / 100.0) * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const auto hi = static_cast<std::size_t>(std::ceil(rank));
  const double frac = rank - std::floor(rank);
  return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

TEST(Stats, PercentileBySelectionMatchesSortBitwise) {
  std::vector<std::vector<double>> inputs = {
      {4.2}, {7.5, 7.5}, {9.0, -1.0}, {3.0, 1.0, 3.0}, {0.3, 0.1, 0.2}};
  // 1,000 samples over 37 distinct values (every value repeats), and over
  // 2^20 values (few ties, so a wrong upper rank shows).
  for (const std::uint64_t distinct : {37u, 1u << 20}) {
    std::vector<double> large;
    std::uint64_t x = 12345;
    for (int i = 0; i < 1000; ++i) {
      x = x * 6364136223846793005ULL + 1442695040888963407ULL;
      large.push_back(static_cast<double>((x >> 33) % distinct) * 0.37 - 3.1);
    }
    inputs.push_back(large);
  }
  const std::vector<double> percents = {0, 1, 25, 50, 99, 100, 12.5, 66.6};
  for (const std::vector<double>& samples : inputs) {
    const auto cdf = cdf_at_percents(samples, percents);
    for (std::size_t i = 0; i < percents.size(); ++i) {
      const double p = percents[i];
      const auto expected = std::bit_cast<std::uint64_t>(
          sorted_reference(samples, p));
      EXPECT_EQ(std::bit_cast<std::uint64_t>(percentile(samples, p)),
                expected)
          << "n=" << samples.size() << " p=" << p;
      EXPECT_EQ(std::bit_cast<std::uint64_t>(cdf[i].value), expected)
          << "n=" << samples.size() << " p=" << p;
    }
    const PercentileSummary s = summarize(samples);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(s.p25),
              std::bit_cast<std::uint64_t>(sorted_reference(samples, 25)));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(s.p90),
              std::bit_cast<std::uint64_t>(sorted_reference(samples, 90)));
  }
}

TEST(Stats, SummaryOrdering) {
  std::vector<double> samples;
  for (int i = 1; i <= 100; ++i) samples.push_back(static_cast<double>(i));
  const PercentileSummary s = summarize(samples);
  EXPECT_LT(s.p5, s.p25);
  EXPECT_LT(s.p25, s.p50);
  EXPECT_LT(s.p50, s.p75);
  EXPECT_LT(s.p75, s.p90);
  EXPECT_NEAR(s.p50, 50.5, 0.6);
}

TEST(Stats, MeanMinMax) {
  const std::vector<double> samples{2.0, 4.0, 6.0};
  EXPECT_DOUBLE_EQ(mean(samples), 4.0);
  EXPECT_DOUBLE_EQ(sample_min(samples), 2.0);
  EXPECT_DOUBLE_EQ(sample_max(samples), 6.0);
  EXPECT_TRUE(std::isnan(mean({})));
}

TEST(Stats, CdfAtPercents) {
  std::vector<double> samples;
  for (int i = 0; i < 1000; ++i) samples.push_back(static_cast<double>(i));
  const auto cdf = cdf_at_percents(samples, {25, 50, 75});
  ASSERT_EQ(cdf.size(), 3u);
  EXPECT_NEAR(cdf[1].value, 499.5, 1.0);
  EXPECT_DOUBLE_EQ(cdf[1].percent, 50.0);
}

TEST(Stats, FormatCdf) {
  const std::string out = format_cdf("demo", {{1.5, 50.0}, {2.5, 100.0}});
  EXPECT_NE(out.find("# demo"), std::string::npos);
  EXPECT_NE(out.find("1.5 50"), std::string::npos);
  EXPECT_NE(out.find("2.5 100"), std::string::npos);
}

TEST(Table, RendersAligned) {
  Table table({"name", "value"});
  table.add_row({"alpha", "1"});
  table.add_row({"b", "22222"});
  const std::string out = table.render();
  EXPECT_NE(out.find("name"), std::string::npos);
  EXPECT_NE(out.find("alpha"), std::string::npos);
  EXPECT_NE(out.find("22222"), std::string::npos);
  EXPECT_NE(out.find("-----"), std::string::npos);
}

TEST(Table, NumFormatting) {
  EXPECT_EQ(Table::num(3.14159, 2), "3.14");
  EXPECT_EQ(Table::num(2.0, 0), "2");
}

TEST(Table, RowWidthMismatchAborts) {
  Table table({"a", "b"});
  EXPECT_DEATH(table.add_row({"only-one"}), "row width");
}

TEST(DotExport, EmitsEdgesAndRoot) {
  const std::vector<StructureEdge> edges{{net::NodeId(0), net::NodeId(1)},
                                         {net::NodeId(0), net::NodeId(2)},
                                         {net::NodeId(1), net::NodeId(3)}};
  const std::string dot = to_dot("fig8", net::NodeId(0), edges);
  EXPECT_NE(dot.find("digraph \"fig8\""), std::string::npos);
  EXPECT_NE(dot.find("n0 -> n1"), std::string::npos);
  EXPECT_NE(dot.find("n1 -> n3"), std::string::npos);
  EXPECT_NE(dot.find("peripheries=2"), std::string::npos);
}

TEST(DotExport, DepthHistogram) {
  const std::vector<StructureEdge> edges{{net::NodeId(0), net::NodeId(1)},
                                         {net::NodeId(0), net::NodeId(2)},
                                         {net::NodeId(1), net::NodeId(3)},
                                         {net::NodeId(3), net::NodeId(4)}};
  const auto histogram = depth_histogram(net::NodeId(0), edges);
  ASSERT_EQ(histogram.size(), 4u);
  EXPECT_EQ(histogram[0], 1u);
  EXPECT_EQ(histogram[1], 2u);
  EXPECT_EQ(histogram[2], 1u);
  EXPECT_EQ(histogram[3], 1u);
}

TEST(DotExport, HistogramIgnoresUnreachable) {
  const std::vector<StructureEdge> edges{{net::NodeId(5), net::NodeId(6)}};
  const auto histogram = depth_histogram(net::NodeId(0), edges);
  ASSERT_EQ(histogram.size(), 1u);
  EXPECT_EQ(histogram[0], 1u);  // just the root
}

TEST(Counters, FormatAndJson) {
  const std::vector<CounterRow> rows{{"events_fired", 42},
                                     {"messages_created", 7}};
  EXPECT_EQ(format_counters("run", rows),
            "# run\nevents_fired      42\nmessages_created  7\n");
  EXPECT_EQ(counters_json(rows),
            "{\"events_fired\": 42, \"messages_created\": 7}");
}

TEST(Counters, SimCounterRowsTrackTheRun) {
  sim::Simulator simulator(3);
  simulator.after(sim::Duration::seconds(1), []() {});
  const sim::EventId cancelled =
      simulator.after(sim::Duration::seconds(2), []() {});
  simulator.cancel(cancelled);
  simulator.run();
  const std::vector<CounterRow> rows = sim_counter_rows(simulator);
  const auto value_of = [&rows](const std::string& label) -> std::uint64_t {
    for (const CounterRow& row : rows) {
      if (row.label == label) return row.value;
    }
    ADD_FAILURE() << "missing counter " << label;
    return 0;
  };
  EXPECT_EQ(value_of("events_fired"), 1u);
  EXPECT_EQ(value_of("events_scheduled"), 2u);
  EXPECT_EQ(value_of("events_cancelled"), 1u);
  EXPECT_EQ(value_of("pending_events"), 0u);
}

}  // namespace
}  // namespace brisa::analysis
