// Buffer tradeoff: reliability vs per-node store bound, for every protocol
// and eviction policy. The Chen & Choi phase structure under test: with
// unbounded stores every protocol delivers 100%; as the bound tightens past
// the working-set size, repair/pull traffic starts missing evicted payloads
// and reliability falls off a cliff whose position (not slope) is what the
// eviction policy moves.
//
// Per (protocol, entries, policy) cell it prints one human row and one JSON
// line; a recorded run lives in BENCH_buffer.json at the repo root.
// entries=0 is the unbounded control cell and runs once per protocol (the
// eviction policy is meaningless without a bound). SimpleTree relays without
// a store, so its reliability must stay flat across the sweep — it rides
// along as the control protocol.
//
// Exits non-zero when any unbounded cell misses complete delivery: the sweep
// only means something against a clean baseline.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "reports/metrics.h"
#include "reports/reports_impl.h"
#include "workload/scenario.h"

namespace brisa::reports::impl {

namespace {

/// Row order: every cell runs the selected protocols in this order.
const std::vector<std::string> kProtocols = {"brisa", "gossip", "tree", "tag"};
const std::vector<std::string> kPolicies = {"oldest-first", "delivered-first"};

/// `value` as a comma-separated list of names from `known`; on a malformed
/// list, writes the diagnostic (naming `what`) to `*error`.
std::vector<std::string> parse_names(const std::string& value,
                                     const std::vector<std::string>& known,
                                     const char* what, std::string* error) {
  std::vector<std::string> names;
  std::size_t begin = 0;
  while (begin <= value.size()) {
    const std::size_t comma = std::min(value.find(',', begin), value.size());
    std::string token = value.substr(begin, comma - begin);
    begin = comma + 1;
    token.erase(0, token.find_first_not_of(" \t"));
    token.erase(token.find_last_not_of(" \t") + 1);
    if (std::find(known.begin(), known.end(), token) == known.end()) {
      std::string choices;
      for (const std::string& name : known) {
        choices += (choices.empty() ? "" : "|") + name;
      }
      *error = std::string(what) + " must be a comma list of " + choices +
               ", got '" + token + "'";
      return {};
    }
    names.push_back(token);
  }
  return names;
}

/// One (entries, store-bytes, policy) bound; 0/0 is the unbounded control.
struct Cell {
  std::size_t entries;
  std::size_t bytes;
  const char* policy;  ///< kPolicies name, or "-" for the control
};

struct CellResult {
  std::string protocol;
  Cell cell;
  double reliability = 0.0;
  bool complete = false;
  double p50_ms = 0.0;
  std::uint64_t evictions = 0;
  std::uint64_t duplicates = 0;
  std::uint64_t messages_sent = 0;
  double wall_seconds = 0.0;
};

}  // namespace

std::string buffer_tradeoff_check(const std::string& key,
                                  const std::string& value) {
  std::string error;
  if (key == "params.protocols") {
    (void)parse_names(value, kProtocols, "protocols", &error);
  } else if (key == "params.policies") {
    (void)parse_names(value, kPolicies, "policies", &error);
  }
  return error;
}

workload::Scenario buffer_tradeoff_defaults() {
  workload::Scenario s;
  // entries / protocols / policies stay unset: their defaults depend on
  // --quick and are resolved inside buffer_tradeoff_run.
  s.set("scenario", "name", "buffer_tradeoff")
      .set("scenario", "report", "buffer_tradeoff")
      .set("scenario", "seed", "1")
      .set("streams", "rate-per-s", "5")
      .set("streams", "payload", "256");
  return s;
}

int buffer_tradeoff_run(const workload::Scenario& scenario) {
  const bool quick = scenario.param_bool("quick", false);
  const std::vector<std::int64_t> entries_list = scenario.param_int_list(
      "entries", quick ? std::vector<std::int64_t>{0, 8}
                       : std::vector<std::int64_t>{0, 4, 8, 16, 64});
  // Second bound axis: cap the store by payload bytes instead of (or on top
  // of) entry count. {0} keeps the classic entries-only grid.
  const std::vector<std::int64_t> bytes_list =
      scenario.param_int_list("store-bytes", {0});
  std::string error;
  const std::vector<std::string> protocols = parse_names(
      scenario.param_string("protocols",
                            quick ? "brisa,gossip" : "brisa,gossip,tree,tag"),
      kProtocols, "protocols", &error);
  const std::vector<std::string> policies = parse_names(
      scenario.param_string("policies", quick ? "oldest-first"
                                              : "oldest-first,delivered-first"),
      kPolicies, "policies", &error);
  if (!error.empty()) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return 2;
  }
  const auto selected = [](const std::vector<std::string>& names,
                           const std::string& name) {
    return std::find(names.begin(), names.end(), name) != names.end();
  };

  const std::size_t nodes = scenario.nodes_or(quick ? 128 : 512);
  const std::size_t messages = scenario.messages_or(quick ? 20 : 40);
  const double rate = scenario.rate_or(5.0);
  const std::size_t payload = scenario.payload_or(256);
  const bool faulted = scenario.param_bool("faults", true);
  const bool bloom = scenario.param_bool("bloom", false);
  const bool rate_control = scenario.param_bool("rate-control", false);

  std::vector<Cell> cells;
  for (const std::int64_t e : entries_list) {
    for (const std::int64_t b : bytes_list) {
      const auto entries = static_cast<std::size_t>(e);
      const auto bytes = static_cast<std::size_t>(b);
      if (entries == 0 && bytes == 0) {
        // Unbounded control: the policy never fires, run the cell once.
        cells.push_back({0, 0, "-"});
        continue;
      }
      for (const std::string& policy : kPolicies) {
        if (selected(policies, policy)) {
          cells.push_back({entries, bytes, policy.c_str()});
        }
      }
    }
  }

  std::vector<CellResult> results;
  for (const Cell& cell : cells) {
    for (const std::string& protocol : kProtocols) {
      if (!selected(protocols, protocol)) continue;
      std::fprintf(stderr,
                   "running %s entries=%zu bytes=%zu policy=%s...\n",
                   protocol.c_str(), cell.entries, cell.bytes, cell.policy);
      const auto wall_start = std::chrono::steady_clock::now();
      workload::Scenario run = scenario;
      run.protocol = protocol;
      run.nodes = nodes;
      run.store_entries = cell.entries;
      run.store_bytes = cell.bytes;
      if (cell.entries != 0 || cell.bytes != 0) run.eviction = cell.policy;
      run.bloom_digests = bloom;
      run.rate_control = rate_control;
      const std::unique_ptr<workload::SystemBase> system = run_mild_fault_cell(
          run, faulted, /*shrink=*/false, messages, rate, payload);
      const analysis::StreamRow row = measure_stream(
          *system, net::kDefaultStream, system->messages_sent());

      CellResult r;
      r.protocol = protocol;
      r.cell = cell;
      r.reliability = row.reliability;
      r.complete = system->complete_delivery();
      r.p50_ms = row.p50_ms;
      r.evictions = system->store_evictions();
      // The recorded schema counts the source's own duplicates too.
      const net::DeliveryLog& source_log =
          system->delivery_log(system->source_id(), net::kDefaultStream);
      r.duplicates = row.duplicates + source_log.duplicates;
      r.messages_sent = system->network().messages_sent();
      r.wall_seconds =
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        wall_start)
              .count();
      std::printf(
          "%-7s entries %5zu bytes %8zu %-15s: reliability %7.3f%% "
          "(complete: %s), p50 %7.1f ms, %8llu evictions, %8llu dups, "
          "%5.1fs wall\n",
          r.protocol.c_str(), cell.entries, cell.bytes,
          cell.entries == 0 && cell.bytes == 0 ? "(unbounded)" : cell.policy,
          r.reliability * 100.0, r.complete ? "yes" : "NO", r.p50_ms,
          static_cast<unsigned long long>(r.evictions),
          static_cast<unsigned long long>(r.duplicates), r.wall_seconds);
      results.push_back(std::move(r));
    }
  }

  for (const CellResult& r : results) {
    std::printf(
        "{\"bench\":\"buffer_tradeoff\",\"protocol\":\"%s\",\"nodes\":%zu,"
        "\"entries\":%zu,\"store_bytes\":%zu,\"policy\":\"%s\",\"bloom\":%s,"
        "\"rate_control\":%s,\"faulted\":%s,\"messages\":%zu,\"seed\":%llu,"
        "\"reliability\":%.6f,\"complete_delivery\":%s,\"p50_ms\":%.3f,"
        "\"evictions\":%llu,\"duplicates\":%llu,\"network_messages\":%llu,"
        "\"wall_seconds\":%.2f}\n",
        r.protocol.c_str(), nodes, r.cell.entries, r.cell.bytes, r.cell.policy,
        bloom ? "true" : "false", rate_control ? "true" : "false",
        faulted ? "true" : "false", messages,
        static_cast<unsigned long long>(scenario.seed_or(1)), r.reliability,
        r.complete ? "true" : "false", r.p50_ms,
        static_cast<unsigned long long>(r.evictions),
        static_cast<unsigned long long>(r.duplicates),
        static_cast<unsigned long long>(r.messages_sent), r.wall_seconds);
  }

  // The sweep reads off a cliff position, which needs the unbounded control
  // cells at 100%: an incomplete control run means the configuration (not
  // the bound) is dropping messages. Repair-less SimpleTree legitimately
  // loses under the fault plan (§III-D b), so only the repairing protocols
  // are gated.
  bool ok = true;
  std::size_t control_cells = 0;
  for (const CellResult& r : results) {
    if (r.cell.entries != 0 || r.cell.bytes != 0 || r.protocol == "tree") {
      continue;
    }
    ++control_cells;
    if (!r.complete) {
      ok = false;
      std::printf("buffer check: %s unbounded control fell short "
                  "(reliability %.4f%%)\n",
                  r.protocol.c_str(), r.reliability * 100.0);
    }
  }
  if (control_cells == 0) {
    std::printf("buffer check: skipped (no unbounded control cell in this "
                "configuration)\n");
    return 0;
  }
  if (ok) {
    std::printf("buffer check: all unbounded control cells delivered "
                "completely\n");
  }
  return ok ? 0 : 1;
}

}  // namespace brisa::reports::impl
