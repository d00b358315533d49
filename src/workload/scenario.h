// Declarative scenario descriptions — the one input format behind every
// experiment harness.
//
// A scenario composes protocol, population size, topology/latency model,
// stream workload, fault/churn trace, seeds and output sinks into a small
// INI-style text file (canonically `*.scn`, see docs/scenarios.md):
//
//   # Figure 2, as shipped in scenarios/fig02_flood_duplicates.scn
//   [scenario]
//   report   = fig02_flood_duplicates
//   nodes    = 512
//   seed     = 1
//   [streams]
//   messages = 500
//   payload  = 1024
//   [params]
//   views    = 4,6,8,10
//
// The same description is buildable in code: Scenario is a value type whose
// set()/set_path() mutators go through the parser's key table
// (scenario_keys()), so a scenario built by a test or tool and the same
// scenario read by `brisa_run <file>` drive identical runs through
// reports::run() — byte for byte.
//
// Every typed field is a std::optional that remembers whether the key was
// given: reports apply their own defaults to absent fields, and to_text()
// round-trips exactly the keys that were set. Report-specific knobs that the
// common schema does not type (per-figure lists, a sweep cell's variant,
// ...) ride in the free-form [params] section with Flags-style typed
// accessors.
#pragma once

#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "workload/baseline_systems.h"
#include "workload/brisa_system.h"

namespace brisa::workload {

class Scenario {
 public:
  // --- [scenario] ---------------------------------------------------------
  std::optional<std::string> name;
  std::optional<std::string> report;    ///< named report; default "run"
  std::optional<std::string> protocol;  ///< brisa|tree|gossip|tag
  std::optional<std::size_t> nodes;
  std::optional<std::uint64_t> seed;

  // --- [topology] ---------------------------------------------------------
  /// cluster|planetlab|clustered-wan|fat-tree, or a generated overlay:
  /// random|barabasi-albert|watts-strogatz|degree-capped (underscore
  /// spellings are accepted and normalized to hyphens).
  std::optional<std::string> topology_model;
  // clustered-wan keys
  std::optional<std::size_t> clusters;
  std::optional<double> intra_rtt_ms;
  std::optional<double> inter_rtt_min_ms;
  std::optional<double> inter_rtt_max_ms;
  std::optional<double> wan_jitter_ms;
  // fat-tree keys
  std::optional<std::size_t> hosts_per_rack;
  std::optional<std::size_t> racks_per_pod;
  std::optional<double> intra_rack_us;
  std::optional<double> intra_pod_us;
  std::optional<double> inter_pod_us;
  std::optional<double> fat_tree_jitter_us;
  // generated-overlay keys (workload/topology_gen.h)
  std::optional<std::size_t> ba_m;        ///< barabasi-albert: edges per node
  std::optional<std::size_t> ws_k;        ///< watts-strogatz: lattice degree
  std::optional<double> ws_beta;          ///< watts-strogatz: rewiring prob
  std::optional<std::size_t> degree_cap;  ///< degree-capped: per-node cap
  std::optional<double> edge_ms;   ///< generated: one-hop latency (ms)
  std::optional<double> cross_ms;  ///< generated: non-adjacent latency (ms)

  // --- [overlay] ----------------------------------------------------------
  std::optional<std::size_t> active_view;
  std::optional<std::size_t> passive_view;
  std::optional<double> expansion_factor;
  std::optional<std::string> mode;  ///< tree|dag
  std::optional<std::size_t> parents;
  std::optional<std::string> strategy;  ///< core::parse_strategy names
  std::optional<bool> prune;

  // --- [streams] ----------------------------------------------------------
  std::optional<std::size_t> streams;
  std::optional<std::size_t> messages;
  std::optional<double> rate;
  std::optional<std::size_t> payload;
  std::optional<double> subscription_fraction;
  /// Zipf subscription skew: stream at popularity rank r (declaration
  /// order, rank 1 first) is subscribed with probability
  /// subscription-fraction / r^zipf. 0 (default) = uniform.
  std::optional<double> zipf_exponent;
  // Flash crowd: an extra burst of `flash-messages` per stream injected at
  // `flash-at-s` (relative to the end of stabilization) at
  // `flash-rate-per-s` per stream.
  std::optional<double> flash_at_s;
  std::optional<std::size_t> flash_messages;
  std::optional<double> flash_rate;

  // --- [run] --------------------------------------------------------------
  std::optional<double> join_spread_s;
  std::optional<double> stabilization_s;
  std::optional<double> grace_s;
  /// Event-lane shards for the simulator (1 = classic serial loop); results
  /// are byte-identical for every value, so this is purely an executor knob.
  std::optional<std::uint32_t> shards;

  // --- [limits] -----------------------------------------------------------
  // Bandwidth-discipline layer (net::Limits); absent section = layer off.
  std::optional<std::size_t> store_entries;
  std::optional<std::size_t> store_bytes;
  std::optional<std::string> eviction;  ///< oldest-first|delivered-first
  std::optional<bool> bloom_digests;
  std::optional<double> bloom_fp;
  std::optional<bool> rate_control;
  std::optional<double> overuse_ms;
  std::optional<double> underuse_ms;
  /// AIMD recovery step period (Limits.rate_recovery), milliseconds.
  std::optional<double> recovery_ms;

  // --- [churn] ------------------------------------------------------------
  /// Verbatim churn/fault DSL statements (workload/churn.h), one per line;
  /// empty = no churn driver. In a file the section body is the DSL itself;
  /// the builder/--set surface reaches it as the single key "churn.dsl"
  /// (assigning an empty value clears the trace — how a sweep's
  /// faulted=false cells drop the plan).
  std::string churn_dsl;

  // --- [sweep] ------------------------------------------------------------
  /// The [sweep] section, in declaration order: each entry is an axis
  /// (a typed key as `<section>.<key>` or one of its aliases `protocol`,
  /// `nodes`, `seeds`, `topology`; `faulted`; `param.<name>` -> verbatim
  /// comma list, with `a..b` ranges on integer keys) or one of the
  /// executor knobs `cell-timeout-s` and `jobs`. Expansion, semantic
  /// validation and the multi-process executor live in workload/sweep.h;
  /// a scenario with axes describes a grid of runs, one per axis-value
  /// combination.
  std::vector<std::pair<std::string, std::string>> sweep;
  [[nodiscard]] bool has_sweep() const { return !sweep.empty(); }

  // --- [output] -----------------------------------------------------------
  std::optional<bool> json;  ///< generic runner: JSON lines after the table
  std::optional<bool> cdf;   ///< generic runner: delivery-delay CDF

  // --- [params] -----------------------------------------------------------
  /// Report-specific keys the common schema does not type.
  std::map<std::string, std::string> params;

  bool operator==(const Scenario&) const = default;

  // --- Defaulting accessors ----------------------------------------------
  [[nodiscard]] std::string name_or(const std::string& d) const {
    return name.value_or(d);
  }
  [[nodiscard]] std::string report_or(const std::string& d) const {
    return report.value_or(d);
  }
  [[nodiscard]] std::string protocol_or(const std::string& d) const {
    return protocol.value_or(d);
  }
  [[nodiscard]] std::size_t nodes_or(std::size_t d) const {
    return nodes.value_or(d);
  }
  [[nodiscard]] std::uint64_t seed_or(std::uint64_t d) const {
    return seed.value_or(d);
  }
  [[nodiscard]] std::string topology_or(const std::string& d) const {
    return topology_model.value_or(d);
  }
  [[nodiscard]] std::size_t streams_or(std::size_t d) const {
    return streams.value_or(d);
  }
  [[nodiscard]] std::size_t messages_or(std::size_t d) const {
    return messages.value_or(d);
  }
  [[nodiscard]] double rate_or(double d) const { return rate.value_or(d); }
  [[nodiscard]] std::size_t payload_or(std::size_t d) const {
    return payload.value_or(d);
  }
  [[nodiscard]] double subscription_fraction_or(double d) const {
    return subscription_fraction.value_or(d);
  }
  [[nodiscard]] std::uint32_t shards_or(std::uint32_t d) const {
    return shards.value_or(d);
  }

  // --- [params] typed accessors (Flags semantics) -------------------------
  [[nodiscard]] std::string param_string(const std::string& key,
                                         const std::string& d) const;
  [[nodiscard]] std::int64_t param_int(const std::string& key,
                                       std::int64_t d) const;
  [[nodiscard]] double param_double(const std::string& key, double d) const;
  [[nodiscard]] bool param_bool(const std::string& key, bool d) const;
  [[nodiscard]] std::vector<std::int64_t> param_int_list(
      const std::string& key, std::vector<std::int64_t> d) const;
  [[nodiscard]] bool has_param(const std::string& key) const {
    return params.count(key) > 0;
  }

  // --- Parsing / serialization --------------------------------------------
  /// Dotted key (the set_keys() spelling: "scenario.nodes",
  /// "params.regime", "sweep.protocol", "churn") -> where its value came
  /// from, as the prefix a diagnostic carries: "scenario line N" for a file
  /// line, "--set section.key=value" for a command-line override. Checks
  /// that run after parsing — validate(), a report's key surface — can
  /// then still point at the offending input.
  using KeyOrigins = std::map<std::string, std::string>;

  /// Parses the `.scn` text. Throws std::invalid_argument with a
  /// line-numbered diagnostic ("scenario line N: ...") on malformed input.
  /// Records the line of each key in `*origins` when non-null.
  [[nodiscard]] static Scenario parse(const std::string& text,
                                      KeyOrigins* origins = nullptr);

  /// Non-throwing variant: std::nullopt on malformed input, with the
  /// diagnostic written to `*diagnostic` when non-null.
  [[nodiscard]] static std::optional<Scenario> try_parse(
      const std::string& text, std::string* diagnostic = nullptr);

  /// Reads and parses a file; the file name is prefixed to diagnostics.
  [[nodiscard]] static Scenario load(const std::string& path,
                                     KeyOrigins* origins = nullptr);

  /// Canonical text form: exactly the set keys, sections in schema order,
  /// churn DSL verbatim. parse(to_text()) reproduces *this.
  [[nodiscard]] std::string to_text() const;

  // --- In-code builder -----------------------------------------------------
  /// Assigns one key through the parser's table, e.g.
  /// set("scenario", "nodes", "512") or set("params", "views", "4,6").
  /// Throws std::invalid_argument (no line prefix) on unknown keys or
  /// values of the wrong type; bounds, names and the other per-key checks
  /// wait for validate(). Returns *this for chaining.
  Scenario& set(const std::string& section, const std::string& key,
                const std::string& value);

  /// set() with a dotted "section.key" path — the `brisa_run --set` form.
  Scenario& set_path(const std::string& dotted_key, const std::string& value);

  /// Checks every set key against its row of the key table (bounds, enum
  /// names, per-key rules), then the cross-key rules (inter-rtt range,
  /// streams <= nodes, underuse < overuse, churn DSL, [sweep]). Throws
  /// std::invalid_argument. parse()/load() run the same checks and anchor
  /// a per-key failure at that key's line; builder users call this before
  /// running, with `origins` (when non-null) anchoring a per-key failure
  /// the same way.
  void validate(const KeyOrigins* origins = nullptr) const;

  /// Every *set* typed key (params excluded) as dotted path -> canonical
  /// value string, e.g. {"scenario.nodes": "512", "overlay.prune":
  /// "false", "churn": "<dsl>"}. The report registry compares this
  /// against a report's consumed/default keys so a figure scenario cannot
  /// silently carry keys the figure ignores.
  [[nodiscard]] std::map<std::string, std::string> set_keys() const;
};

// --- The key table ----------------------------------------------------------

/// One typed scenario key: a row of the one table that set(), to_text(),
/// set_keys() and validate() walk, so each key is declared once. The
/// special sections ([churn], [sweep], [params]) and the cross-key rules
/// stay hand-written in scenario.cpp.
struct ScenarioKey {
  enum class Type {
    kString,
    kEnum,
    kSize,
    kU64,
    kU32,
    kDouble,
    kFraction,
    kBool,
  };
  /// Bounds on a numeric value, inclusive unless `open` (which excludes
  /// both ends); an infinite side is unbounded.
  struct Bounds {
    double min = -std::numeric_limits<double>::infinity();
    double max = std::numeric_limits<double>::infinity();
    bool open = false;
  };
  /// The Scenario field behind the key: read() gives its canonical text
  /// (std::nullopt when unset); write() parses `value` as the field's type
  /// and stores it, prefixing `context` to a diagnostic.
  struct Field {
    std::optional<std::string> (*read)(const Scenario&);
    void (*write)(Scenario&, const ScenarioKey&, const std::string& value,
                  const std::string& context);
  };

  const char* section;
  const char* key;
  Field field;
  Type type;
  Bounds bounds;
  const char* doc;  ///< one line, as docs/scenarios.md explains the key
  /// kEnum: the accepted names, '|'-separated. With `check`: what the check
  /// demands, in the words of the diagnostic.
  const char* rule = nullptr;
  /// A per-key rule that bounds cannot state, given the value's canonical
  /// text (nullptr: none).
  bool (*check)(const std::string& value) = nullptr;
};

/// Every typed key, sections in to_text() order, keys in to_text() order
/// within a section.
[[nodiscard]] std::span<const ScenarioKey> scenario_keys();

/// `value` parsed as `row`'s field and read back: its canonical text, what
/// to_text() would write. Throws std::invalid_argument with the row's
/// diagnostic when the value is not of the row's type or breaks its
/// bounds, enum names or check.
[[nodiscard]] std::string canonical_value(const ScenarioKey& row,
                                          const std::string& value);

// --- Materialization into system harness configs ---------------------------
// The one scenario -> config mapping every report builds its systems
// through: a report that pins per-cell values (view, structure, strategy,
// timing) writes them into its own copy of the scenario first.

/// Canonical (hyphenated) spelling of a topology model name: underscores
/// become hyphens, so `barabasi_albert` and `barabasi-albert` are the same.
[[nodiscard]] std::string normalize_topology_model(std::string model);

/// The network-resource testbed implied by the topology model (planetlab ->
/// kPlanetLab, everything else the cluster preset).
[[nodiscard]] TestbedKind scenario_testbed(const Scenario& s);

/// Latency-model override for the non-testbed topologies (clustered-wan,
/// fat-tree); std::nullopt when the plain testbed presets apply.
[[nodiscard]] std::optional<TopologyOverride> scenario_topology(
    const Scenario& s);

/// The `[limits]` section as a net::Limits value (default-constructed — the
/// OFF state — when the section is absent).
[[nodiscard]] net::Limits scenario_limits(const Scenario& s);

[[nodiscard]] BrisaSystem::Config scenario_brisa_config(const Scenario& s);
[[nodiscard]] SimpleTreeSystem::Config scenario_tree_config(const Scenario& s);
[[nodiscard]] SimpleGossipSystem::Config scenario_gossip_config(
    const Scenario& s);
[[nodiscard]] TagSystem::Config scenario_tag_config(const Scenario& s);

/// The scenario's protocol (brisa|tree|gossip|tag, default brisa) as a
/// system built from the matching scenario_*_config(); not yet
/// bootstrapped. Throws std::invalid_argument on an unknown protocol.
[[nodiscard]] std::unique_ptr<SystemBase> make_system(const Scenario& s);

}  // namespace brisa::workload
