// Multi-topic feed: K topics, each with its own publisher and its own
// emergent BRISA tree, multiplexed over one shared HyParView overlay —
// with a partial audience per topic.
//
//   $ ./multi_topic_feed [--nodes=96] [--streams=4] [--items=40]
//                        [--subscription-fraction=0.5]
//
// Demonstrates the pub/sub-shaped API:
//   1. a BrisaSystem configured with num_streams topics;
//   2. a PubSubDriver injecting every topic concurrently (distinct sources,
//      per-topic rates) with a deterministic subscriber set per topic;
//   3. per-topic + aggregate reporting via analysis::format_stream_table.
//
// Nodes outside a topic's subscriber set still forward it (the forest is
// shared infrastructure); the report only scores subscribers.
#include <cstdio>

#include "analysis/stream_report.h"
#include "reports/metrics.h"
#include "util/flags.h"
#include "workload/brisa_system.h"
#include "workload/pubsub.h"

using namespace brisa;

int main(int argc, char** argv) {
  const util::Flags flags = util::Flags::parse(argc, argv);
  if (flags.help_requested()) {
    std::printf(
        "multi_topic_feed [--nodes=96] [--streams=4] [--items=40]\n"
        "                 [--subscription-fraction=0.5]\n");
    return 0;
  }
  if (!flags.validate({"nodes", "streams", "items", "subscription-fraction"},
                      "multi_topic_feed [--nodes=96] [--streams=4] "
                      "[--items=40]\n"
                      "                 [--subscription-fraction=0.5]\n")) {
    return 2;
  }
  const auto nodes = static_cast<std::size_t>(flags.get_int("nodes", 96));
  const auto items = static_cast<std::size_t>(flags.get_int("items", 40));
  const auto streams = static_cast<std::size_t>(flags.get_int("streams", 4));
  const double fraction = flags.get_fraction("subscription-fraction", 0.5);

  std::printf("=== multi-topic feed: %zu nodes, %zu topics, %zu items each, "
              "%.0f%% subscribers per topic ===\n",
              nodes, streams, items, fraction * 100.0);

  workload::BrisaSystem::Config config;
  config.seed = 7;
  config.num_nodes = nodes;
  config.num_streams = streams;
  config.join_spread = sim::Duration::seconds(10);
  config.stabilization = sim::Duration::seconds(20);
  workload::BrisaSystem system(config);
  system.bootstrap();

  for (std::size_t s = 0; s < streams; ++s) {
    std::printf("topic %zu publishes from node %u\n", s,
                system.source_id(static_cast<net::StreamId>(s)).index());
  }

  // Topics run at slightly different rates — feeds are not phase-aligned.
  workload::PubSubDriver::Config pubsub;
  for (std::size_t s = 0; s < streams; ++s) {
    pubsub.streams.push_back({static_cast<net::StreamId>(s), items,
                              4.0 + 0.5 * static_cast<double>(s), 1024});
  }
  pubsub.subscription_fraction = fraction;
  workload::PubSubDriver driver(
      system.simulator(), pubsub,
      [&system](net::StreamId stream, std::size_t bytes) {
        return system.publish(stream, bytes);
      });
  driver.run(sim::Duration::seconds(15));

  const std::vector<analysis::StreamRow> rows =
      reports::collect_stream_rows(system, driver);
  std::printf("%s", analysis::format_stream_table(rows).c_str());

  // The forwarder role: nodes relaying a topic they do not subscribe to.
  std::size_t forwarder_roles = 0;
  for (const net::NodeId id : system.member_ids()) {
    for (std::size_t s = 0; s < streams; ++s) {
      const auto stream = static_cast<net::StreamId>(s);
      if (id == system.source_id(stream)) continue;  // roots are not forwarders
      if (driver.subscribed(stream, id)) continue;
      if (!system.brisa(id, stream).children().empty()) ++forwarder_roles;
    }
  }
  std::printf(
      "%zu (node, topic) forwarder roles: unsubscribed nodes carrying a "
      "topic's tree for its subscribers\n",
      forwarder_roles);

  const analysis::StreamRow all = analysis::aggregate_streams(rows);
  std::printf("aggregate reliability: %.2f%% over %zu subscriber slots\n",
              all.reliability * 100.0, all.subscribers);
  return all.reliability >= 0.999 ? 0 : 1;
}
