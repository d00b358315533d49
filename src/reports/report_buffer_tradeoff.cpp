// Buffer tradeoff: reliability vs per-node store bound — one cell of one
// protocol under one `[limits]` store bound and eviction policy. The Chen &
// Choi phase structure under test: with unbounded stores every protocol
// delivers 100%; as the bound tightens past the working-set size,
// repair/pull traffic starts missing evicted payloads and reliability falls
// off a cliff whose position (not slope) is what the eviction policy moves.
//
// scenarios/buffer_tradeoff.scn sweeps store-entries x store-bytes x
// eviction x protocol; each cell prints one human row and one JSON line,
// and the merged rows are the recorded runs in BENCH_buffer.json.
// store-entries = store-bytes = 0 is the unbounded control (policy "-"):
// the policy never fires there, so only the oldest-first cell runs it and
// any other policy's cell prints a note and runs nothing. SimpleTree relays
// without a store, so its reliability must stay flat across the sweep — it
// rides along as the control protocol.
//
// An unbounded cell of a repairing protocol exits 1 when it misses complete
// delivery (and so does the sweep): the grid only means something against a
// clean baseline.
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>

#include "reports/metrics.h"
#include "reports/reports_impl.h"
#include "workload/scenario.h"

namespace brisa::reports::impl {

workload::Scenario buffer_tradeoff_defaults() {
  workload::Scenario s;
  s.set("scenario", "name", "buffer_tradeoff")
      .set("scenario", "report", "buffer_tradeoff")
      .set("scenario", "nodes", "512")
      .set("scenario", "seed", "1")
      .set("streams", "messages", "40")
      .set("streams", "rate-per-s", "5")
      .set("streams", "payload", "256")
      .set("sweep", "limits.store-entries", "0, 4, 8, 16, 64")
      .set("sweep", "limits.store-bytes", "0")
      .set("sweep", "limits.eviction", "oldest-first, delivered-first")
      .set("sweep", "protocol", "brisa, gossip, tree, tag");
  return s;
}

int buffer_tradeoff_run(const workload::Scenario& scenario) {
  const std::string protocol = scenario.protocol_or("brisa");
  const net::Limits limits = workload::scenario_limits(scenario);
  const std::string policy =
      limits.bounded() ? scenario.eviction.value_or("oldest-first") : "-";
  if (!limits.bounded() &&
      limits.eviction != net::EvictionPolicy::kOldestFirst) {
    std::printf("%-7s unbounded under %s: the oldest-first cell is the "
                "control, nothing to run\n",
                protocol.c_str(), scenario.eviction->c_str());
    return 0;
  }
  const std::size_t nodes = scenario.nodes_or(512);
  const std::size_t messages = scenario.messages_or(40);
  workload::Scenario cell = scenario;
  cell.nodes = nodes;

  const auto wall_start = std::chrono::steady_clock::now();
  const std::unique_ptr<workload::SystemBase> system = run_mild_fault_cell(
      cell, /*faulted=*/true, messages, scenario.rate_or(5.0),
      scenario.payload_or(256));
  const analysis::StreamRow row = measure_stream(
      *system, net::kDefaultStream, system->messages_sent());
  const bool complete = system->complete_delivery();
  const std::uint64_t evictions = system->store_evictions();
  // The recorded schema counts the source's own duplicates too.
  const std::uint64_t duplicates =
      row.duplicates +
      system->delivery_log(system->source_id(), net::kDefaultStream)
          .duplicates;
  const double wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();

  std::printf(
      "%-7s entries %5zu bytes %8zu %-15s: reliability %7.3f%% "
      "(complete: %s), p50 %7.1f ms, %8llu evictions, %8llu dups, "
      "%5.1fs wall\n",
      protocol.c_str(), limits.store_entries, limits.store_bytes,
      limits.bounded() ? policy.c_str() : "(unbounded)",
      row.reliability * 100.0, complete ? "yes" : "NO", row.p50_ms,
      static_cast<unsigned long long>(evictions),
      static_cast<unsigned long long>(duplicates), wall_seconds);
  std::printf(
      "{\"bench\":\"buffer_tradeoff\",\"protocol\":\"%s\",\"nodes\":%zu,"
      "\"entries\":%zu,\"store_bytes\":%zu,\"policy\":\"%s\",\"bloom\":%s,"
      "\"rate_control\":%s,\"faulted\":true,\"messages\":%zu,\"seed\":%llu,"
      "\"reliability\":%.6f,\"complete_delivery\":%s,\"p50_ms\":%.3f,"
      "\"evictions\":%llu,\"duplicates\":%llu,\"network_messages\":%llu,"
      "\"wall_seconds\":%.2f}\n",
      protocol.c_str(), nodes, limits.store_entries, limits.store_bytes,
      policy.c_str(), limits.bloom_digests ? "true" : "false",
      limits.rate_control ? "true" : "false", messages,
      static_cast<unsigned long long>(scenario.seed_or(1)), row.reliability,
      complete ? "true" : "false", row.p50_ms,
      static_cast<unsigned long long>(evictions),
      static_cast<unsigned long long>(duplicates),
      static_cast<unsigned long long>(system->network().messages_sent()),
      wall_seconds);

  // The control gate: an incomplete unbounded run means the configuration
  // (not the bound) is dropping messages. Repair-less SimpleTree
  // legitimately loses under the fault plan (§III-D b), so it is not gated.
  if (limits.bounded() || protocol == "tree") return 0;
  std::printf("buffer check: %s unbounded control %s (reliability %.4f%%)\n",
              protocol.c_str(),
              complete ? "delivered completely" : "fell short",
              row.reliability * 100.0);
  return complete ? 0 : 1;
}

}  // namespace brisa::reports::impl
