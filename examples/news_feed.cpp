// Multi-source news feed (§IV "Multiple Trees and Multiple Parents"): several
// publishers each run their own BRISA stream over the *same* HyParView
// overlay — per-stream trees coexist because structure state is per-stream.
//
//   $ ./news_feed [--nodes=96] [--publishers=3] [--items=60]
//
// Demonstrates the multi-stream engine: one BrisaEngine per node multiplexes
// a forest of per-stream trees over one PSS; each stream prunes its own
// tree, so a node can be a leaf in one tree and interior in another
// (natural load spreading).
#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>

#include "analysis/stats.h"
#include "core/brisa.h"
#include "membership/hyparview.h"
#include "util/flags.h"
#include "workload/testbed.h"

using namespace brisa;

namespace {

/// A node stack: one HyParView, one BrisaEngine carrying all streams.
struct FeedNode {
  std::unique_ptr<membership::HyParView> pss;
  std::unique_ptr<core::BrisaEngine> engine;
};

}  // namespace

int main(int argc, char** argv) {
  const util::Flags flags = util::Flags::parse(argc, argv);
  if (flags.help_requested()) {
    std::printf("news_feed [--nodes=96] [--publishers=3] [--items=60]\n");
    return 0;
  }
  if (!flags.validate({"nodes", "publishers", "items"}, "news_feed [--nodes=96] [--publishers=3] [--items=60]\n")) {
    return 2;
  }
  const auto nodes = static_cast<std::size_t>(flags.get_int("nodes", 96));
  const auto publishers =
      static_cast<std::size_t>(flags.get_int("publishers", 3));
  const auto items = static_cast<std::size_t>(flags.get_int("items", 60));

  std::printf("=== news feed: %zu readers, %zu publishers, %zu items each ===\n",
              nodes, publishers, items);

  workload::Testbed base(2026, workload::TestbedKind::kCluster);
  std::map<net::NodeId, FeedNode> stack;
  std::vector<net::NodeId> ids;

  for (std::size_t i = 0; i < nodes; ++i) {
    const net::NodeId id = base.network().add_host();
    FeedNode node;
    node.pss = std::make_unique<membership::HyParView>(
        base.network(), base.transport(), id, membership::HyParView::Config{});
    node.engine = std::make_unique<core::BrisaEngine>(
        base.network(), *node.pss, id, core::Brisa::Config{});
    for (std::size_t stream = 0; stream < publishers; ++stream) {
      node.engine->add_stream(static_cast<net::StreamId>(stream));
    }
    stack.emplace(id, std::move(node));
    ids.push_back(id);
  }

  // Bootstrap the shared overlay.
  stack.at(ids[0]).pss->start();
  sim::Rng boot = base.simulator().rng().split(1);
  for (std::size_t i = 1; i < ids.size(); ++i) {
    const net::NodeId joiner = ids[i];
    const net::NodeId contact = ids[boot.uniform(i)];
    base.simulator().after(
        sim::Duration::milliseconds(static_cast<std::int64_t>(100 * i)),
        [&stack, joiner, contact]() { stack.at(joiner).pss->join(contact); });
  }
  base.run_for(sim::Duration::seconds(40));

  // Each publisher sources one stream from a different node.
  for (std::size_t stream = 0; stream < publishers; ++stream) {
    const net::NodeId publisher = ids[stream * (nodes / publishers)];
    auto& source =
        stack.at(publisher).engine->stream(static_cast<net::StreamId>(stream));
    source.become_source();
    for (std::size_t item = 0; item < items; ++item) {
      base.simulator().after(
          sim::Duration::milliseconds(static_cast<std::int64_t>(
              200 * item + 37 * stream)),
          [&source]() { source.broadcast(2048); });
    }
  }
  base.run_for(sim::Duration::seconds(
      static_cast<std::int64_t>(items) / 5 + 30));

  // Report per-stream delivery and the load-spreading effect.
  for (std::size_t stream = 0; stream < publishers; ++stream) {
    std::size_t complete = 0;
    std::vector<double> degrees;
    for (const net::NodeId id : ids) {
      const auto& brisa_node =
          stack.at(id).engine->stream(static_cast<net::StreamId>(stream));
      if (brisa_node.stats().delivery_time.size() == items) ++complete;
      degrees.push_back(static_cast<double>(brisa_node.children().size()));
    }
    std::printf(
        "stream %zu: %zu/%zu readers got all %zu items; interior nodes "
        "(degree>0): %.0f%%\n",
        stream, complete, ids.size(), items,
        100.0 - analysis::percentile(degrees, 50) * 0 -
            100.0 * static_cast<double>(std::count(degrees.begin(),
                                                   degrees.end(), 0.0)) /
                static_cast<double>(degrees.size()));
  }

  // How many distinct roles does a node play across streams?
  std::size_t mixed_roles = 0;
  for (const net::NodeId id : ids) {
    bool leaf_somewhere = false, interior_somewhere = false;
    for (std::size_t stream = 0; stream < publishers; ++stream) {
      if (stack.at(id)
              .engine->stream(static_cast<net::StreamId>(stream))
              .children()
              .empty()) {
        leaf_somewhere = true;
      } else {
        interior_somewhere = true;
      }
    }
    if (leaf_somewhere && interior_somewhere) ++mixed_roles;
  }
  std::printf(
      "%zu/%zu nodes are a leaf in one tree and interior in another — the "
      "load-spreading effect of per-stream trees (§IV)\n",
      mixed_roles, ids.size());
  return 0;
}
