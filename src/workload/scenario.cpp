#include "workload/scenario.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <type_traits>
#include <utility>

#include "core/parent_selection.h"
#include "workload/churn.h"
#include "workload/sweep.h"
#include "workload/topology_gen.h"

namespace brisa::workload {

namespace {

std::string trim(const std::string& s) {
  const std::size_t begin = s.find_first_not_of(" \t\r");
  if (begin == std::string::npos) return "";
  const std::size_t end = s.find_last_not_of(" \t\r");
  return s.substr(begin, end - begin + 1);
}

[[noreturn]] void fail(const std::string& context, const std::string& what) {
  throw std::invalid_argument(
      context.empty() ? what : context + ": " + what);
}

std::int64_t to_int(const std::string& context, const std::string& key,
                    const std::string& value) {
  try {
    std::size_t used = 0;
    const std::int64_t parsed = std::stoll(value, &used);
    if (used != value.size()) throw std::invalid_argument(value);
    return parsed;
  } catch (const std::exception&) {
    fail(context, "key '" + key + "' expects an integer, got '" + value + "'");
  }
}

/// Unsigned 64-bit parse. std::stoull silently wraps "-1", so a minus sign
/// is refused here rather than stored as 2^64 - 1.
std::uint64_t to_unsigned(const std::string& context, const std::string& key,
                          const std::string& value) {
  std::uint64_t parsed = 0;
  try {
    std::size_t used = 0;
    parsed = std::stoull(value, &used);
    if (used != value.size()) throw std::invalid_argument(value);
  } catch (const std::exception&) {
    fail(context, "key '" + key + "' expects an integer, got '" + value + "'");
  }
  if (value.find('-') != std::string::npos) {
    fail(context, "key '" + key + "' must be non-negative, got '" + value +
                      "'");
  }
  return parsed;
}

double to_double(const std::string& context, const std::string& key,
                 const std::string& value) {
  try {
    std::size_t used = 0;
    const double parsed = std::stod(value, &used);
    if (used != value.size()) throw std::invalid_argument(value);
    return parsed;
  } catch (const std::exception&) {
    fail(context, "key '" + key + "' expects a number, got '" + value + "'");
  }
}

bool to_bool(const std::string& context, const std::string& key,
             const std::string& value) {
  if (value == "true" || value == "1" || value == "yes" || value == "on") {
    return true;
  }
  if (value == "false" || value == "0" || value == "no" || value == "off") {
    return false;
  }
  fail(context, "key '" + key + "' expects a boolean, got '" + value + "'");
}

std::string fmt_double(double value) {
  // The fewest digits that still round-trip through stod. Plain notation
  // (20, not 2e+01) except for tiny or huge magnitudes, where %g would use
  // an exponent too.
  const double magnitude = std::fabs(value);
  const bool plain = value == 0 || (magnitude >= 1e-4 && magnitude < 1e16);
  char buffer[64];
  const auto end = std::to_chars(buffer, buffer + sizeof buffer, value,
                                 plain ? std::chars_format::fixed
                                       : std::chars_format::scientific)
                       .ptr;
  return std::string(buffer, end);
}

// --- The key table ----------------------------------------------------------

using enum ScenarioKey::Type;
using Bounds = ScenarioKey::Bounds;

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr Bounds kNonNegative{0};
constexpr Bounds kPositive{0, kInf, true};
constexpr Bounds kUnit{0, 1};

bool numeric(ScenarioKey::Type type) {
  return type != kString && type != kEnum && type != kBool;
}

/// "<section> <key> must be <rule>, got <value>" — the one shape of every
/// per-key diagnostic.
std::string must_be(const ScenarioKey& row, const std::string& rule,
                    const std::string& text) {
  return std::string(row.section) + " " + row.key + " must be " + rule +
         ", got " + (numeric(row.type) ? text : "'" + text + "'");
}

/// The row's bounds in words: "positive", ">= 2", "in 1..63", ...
std::string bound_rule(const ScenarioKey& row) {
  const Bounds& b = row.bounds;
  if (row.type == kFraction) return "a fraction in [0, 1]";
  const auto number = [](double v) {
    char buffer[32];
    std::snprintf(buffer, sizeof buffer, "%g", v);
    return std::string(buffer);
  };
  if (b.max == kInf) {
    if (b.min == 0) return b.open ? "positive" : "non-negative";
    return (b.open ? "> " : ">= ") + number(b.min);
  }
  return b.open ? "in (" + number(b.min) + ", " + number(b.max) + ")"
                : "in " + number(b.min) + ".." + number(b.max);
}

bool within(const Bounds& b, double v) {
  // An infinite side is unbounded, not a value: inf would overflow the
  // Durations built from these keys and is no JSON number.
  if (!std::isfinite(v)) return false;
  const bool above = b.open ? v > b.min : v >= b.min;
  const bool below = b.max == kInf || (b.open ? v < b.max : v <= b.max);
  return above && below;
}

/// The field's canonical text: what to_text() writes, set_keys() holds and
/// a diagnostic quotes.
template <auto Member>
std::optional<std::string> read_field(const Scenario& s) {
  const auto& value = s.*Member;
  using T = typename std::remove_reference_t<decltype(value)>::value_type;
  if (!value) return std::nullopt;
  if constexpr (std::is_same_v<T, std::string>) {
    return *value;
  } else if constexpr (std::is_same_v<T, bool>) {
    return *value ? "true" : "false";
  } else if constexpr (std::is_same_v<T, double>) {
    return fmt_double(*value);
  } else {
    return std::to_string(*value);
  }
}

template <auto Member>
void write_field(Scenario& s, const ScenarioKey& row, const std::string& value,
                 const std::string& context) {
  using T = typename std::remove_reference_t<decltype(s.*Member)>::value_type;
  if constexpr (std::is_same_v<T, std::string>) {
    s.*Member = value;
  } else if constexpr (std::is_same_v<T, bool>) {
    s.*Member = to_bool(context, row.key, value);
  } else if constexpr (std::is_same_v<T, double>) {
    s.*Member = to_double(context, row.key, value);
  } else {
    const std::uint64_t parsed = to_unsigned(context, row.key, value);
    // Every narrower field is bounded well inside its width, so a value it
    // cannot hold is out of bounds: say so before narrowing would wrap it.
    if (parsed > std::numeric_limits<T>::max()) {
      fail(context, must_be(row, bound_rule(row), value));
    }
    s.*Member = static_cast<T>(parsed);
  }
}

template <auto Member>
constexpr ScenarioKey::Field field{&read_field<Member>, &write_field<Member>};

bool known_strategy(const std::string& value) {
  try {
    (void)core::parse_strategy(value);
    return true;
  } catch (const std::invalid_argument&) {
    return false;
  }
}

bool even(const std::string& value) { return std::stoull(value) % 2 == 0; }

constexpr const char* kTopologyModels =
    "cluster|planetlab|clustered-wan|fat-tree|random|barabasi-albert|"
    "watts-strogatz|degree-capped";

bool one_of(std::string_view names, std::string_view value) {
  for (;;) {
    const std::size_t bar = names.find('|');
    if (names.substr(0, bar) == value) return true;
    if (bar == std::string_view::npos) return false;
    names.remove_prefix(bar + 1);
  }
}

bool known_model(const std::string& value) {
  return one_of(kTopologyModels, normalize_topology_model(value));
}

constexpr ScenarioKey kKeys[] = {
    {"scenario", "name", field<&Scenario::name>, kString, {},
     "label stamped into banners and JSON output"},
    {"scenario", "report", field<&Scenario::report>, kString, {},
     "report to execute (brisa_run --list); default run"},
    {"scenario", "protocol", field<&Scenario::protocol>, kEnum, {},
     "system harness", "brisa|tree|gossip|tag"},
    {"scenario", "nodes", field<&Scenario::nodes>, kSize, {2},
     "bootstrap population"},
    {"scenario", "seed", field<&Scenario::seed>, kU64, {},
     "master RNG seed; output is deterministic per seed"},

    {"topology", "model", field<&Scenario::topology_model>, kEnum, {},
     "latency model and network preset (underscores read as hyphens)",
     kTopologyModels, known_model},
    {"topology", "clusters", field<&Scenario::clusters>, kSize, {},
     "clustered-wan: number of clusters"},
    {"topology", "intra-rtt-ms", field<&Scenario::intra_rtt_ms>, kDouble,
     kNonNegative, "clustered-wan: one-way latency inside a cluster"},
    {"topology", "inter-rtt-min-ms", field<&Scenario::inter_rtt_min_ms>,
     kDouble, kNonNegative, "clustered-wan: least inter-cluster latency"},
    {"topology", "inter-rtt-max-ms", field<&Scenario::inter_rtt_max_ms>,
     kDouble, kNonNegative, "clustered-wan: greatest inter-cluster latency"},
    {"topology", "jitter-ms", field<&Scenario::wan_jitter_ms>, kDouble,
     kNonNegative, "clustered-wan and generated: mean exponential jitter"},
    {"topology", "hosts-per-rack", field<&Scenario::hosts_per_rack>, kSize, {},
     "fat-tree: hosts per rack"},
    {"topology", "racks-per-pod", field<&Scenario::racks_per_pod>, kSize, {},
     "fat-tree: racks per pod"},
    {"topology", "intra-rack-us", field<&Scenario::intra_rack_us>, kDouble,
     kNonNegative, "fat-tree: one-way latency inside a rack"},
    {"topology", "intra-pod-us", field<&Scenario::intra_pod_us>, kDouble,
     kNonNegative, "fat-tree: one-way latency inside a pod"},
    {"topology", "inter-pod-us", field<&Scenario::inter_pod_us>, kDouble,
     kNonNegative, "fat-tree: one-way latency across pods"},
    {"topology", "jitter-us", field<&Scenario::fat_tree_jitter_us>, kDouble,
     kNonNegative, "fat-tree: mean exponential jitter"},
    {"topology", "ba-m", field<&Scenario::ba_m>, kSize, {1},
     "barabasi-albert: edges each new node attaches"},
    {"topology", "ws-k", field<&Scenario::ws_k>, kSize, {2},
     "watts-strogatz: ring-lattice degree", "an even integer", even},
    {"topology", "ws-beta", field<&Scenario::ws_beta>, kFraction, kUnit,
     "watts-strogatz: chord rewiring probability"},
    {"topology", "degree-cap", field<&Scenario::degree_cap>, kSize, {2},
     "degree-capped: per-node degree bound"},
    {"topology", "edge-ms", field<&Scenario::edge_ms>, kDouble, kPositive,
     "generated: one-way latency across a graph edge"},
    {"topology", "cross-ms", field<&Scenario::cross_ms>, kDouble, kPositive,
     "generated: one-way latency between non-adjacent nodes"},

    {"overlay", "active-view", field<&Scenario::active_view>, kSize, {1},
     "HyParView active view size"},
    {"overlay", "passive-view", field<&Scenario::passive_view>, kSize, {1},
     "HyParView passive view size (default active-view * 6)"},
    {"overlay", "expansion-factor", field<&Scenario::expansion_factor>,
     kDouble, {1}, "HyParView expansion factor"},
    {"overlay", "mode", field<&Scenario::mode>, kEnum, {},
     "BRISA structure mode", "tree|dag"},
    {"overlay", "parents", field<&Scenario::parents>, kSize, {1},
     "target parent count"},
    {"overlay", "strategy", field<&Scenario::strategy>, kEnum, {},
     "parent-selection strategy (core::parse_strategy names)",
     "first-come|delay|gerontocratic|load", known_strategy},
    {"overlay", "prune", field<&Scenario::prune>, kBool, {},
     "false: never deactivate links (pure flooding)"},

    {"streams", "count", field<&Scenario::streams>, kSize, {1},
     "concurrent streams, each with its own source"},
    {"streams", "messages", field<&Scenario::messages>, kSize, {},
     "messages injected per stream"},
    {"streams", "rate-per-s", field<&Scenario::rate>, kDouble, kPositive,
     "injection rate per stream"},
    {"streams", "payload", field<&Scenario::payload>, kSize, {},
     "payload bytes per message"},
    {"streams", "subscription-fraction",
     field<&Scenario::subscription_fraction>, kFraction, kUnit,
     "probability a node subscribes to a stream"},
    {"streams", "zipf", field<&Scenario::zipf_exponent>, kDouble,
     kNonNegative, "subscription-popularity skew; 0 = uniform"},
    {"streams", "flash-at-s", field<&Scenario::flash_at_s>, kDouble,
     kNonNegative, "flash crowd: burst start after the steady schedule"},
    {"streams", "flash-messages", field<&Scenario::flash_messages>, kSize, {},
     "flash crowd: extra messages per stream; 0 = off"},
    {"streams", "flash-rate-per-s", field<&Scenario::flash_rate>, kDouble,
     kPositive, "flash crowd: burst injection rate per stream"},

    {"run", "join-spread-s", field<&Scenario::join_spread_s>, kDouble,
     kNonNegative, "window over which bootstrap joins are spread"},
    {"run", "stabilization-s", field<&Scenario::stabilization_s>, kDouble,
     kNonNegative, "settling time after the last join"},
    {"run", "grace-s", field<&Scenario::grace_s>, kDouble, kNonNegative,
     "generic runner: time kept running after the last injection"},
    {"run", "shards", field<&Scenario::shards>, kU32, {1, 63},
     "event-lane shards; results are identical for every value"},

    {"limits", "store-entries", field<&Scenario::store_entries>, kSize, {},
     "max entries per (node, stream) store; 0 = unbounded"},
    {"limits", "store-bytes", field<&Scenario::store_bytes>, kSize, {},
     "max payload bytes per (node, stream) store; 0 = unbounded"},
    {"limits", "eviction", field<&Scenario::eviction>, kEnum, {},
     "what a full store evicts", "oldest-first|delivered-first"},
    {"limits", "bloom-digests", field<&Scenario::bloom_digests>, kBool, {},
     "Bloom-filter digests instead of exact seq lists"},
    {"limits", "bloom-fp", field<&Scenario::bloom_fp>, kDouble,
     {0, 1, true}, "target false-positive rate per digest"},
    {"limits", "rate-control", field<&Scenario::rate_control>, kBool, {},
     "defer optional traffic while the local backlog overuses"},
    {"limits", "overuse-ms", field<&Scenario::overuse_ms>, kDouble,
     kPositive, "backlog at or above this is overusing"},
    {"limits", "underuse-ms", field<&Scenario::underuse_ms>, kDouble,
     kPositive, "backlog at or below this is underusing"},
    {"limits", "recovery-ms", field<&Scenario::recovery_ms>, kDouble,
     kPositive, "AIMD recovery step period"},

    {"output", "json", field<&Scenario::json>, kBool, {},
     "generic runner: JSON lines after the table"},
    {"output", "cdf", field<&Scenario::cdf>, kBool, {},
     "generic runner: delivery-delay CDF"},
};

/// Every section, in to_text() order; [churn], [sweep] and [params] have
/// no rows and are written by hand.
constexpr std::string_view kSections[] = {
    "scenario", "topology", "overlay", "streams", "run",
    "limits",   "churn",    "sweep",   "output",  "params"};

bool known_section(std::string_view section) {
  return std::find(std::begin(kSections), std::end(kSections), section) !=
         std::end(kSections);
}

std::string dotted(const ScenarioKey& row) {
  return std::string(row.section) + "." + row.key;
}

const ScenarioKey* find_key(std::string_view section, std::string_view key) {
  for (const ScenarioKey& row : kKeys) {
    if (row.section == section && row.key == key) return &row;
  }
  return nullptr;
}

/// The row's diagnostic for the value `s` holds ("" when unset or valid).
std::string key_error(const Scenario& s, const ScenarioKey& row) {
  const std::optional<std::string> text = row.field.read(s);
  if (!text) return "";
  if (numeric(row.type) && !within(row.bounds, std::stod(*text))) {
    return must_be(row, bound_rule(row), *text);
  }
  const bool ok = row.check != nullptr ? row.check(*text)
                                       : row.type != kEnum ||
                                             one_of(row.rule, *text);
  return ok ? "" : must_be(row, row.rule, *text);
}

/// Where `dotted_key` came from ("" when `origins` records nothing).
std::string origin_of(const Scenario::KeyOrigins* origins,
                      const std::string& dotted_key) {
  if (origins == nullptr) return "";
  const auto it = origins->find(dotted_key);
  return it == origins->end() ? "" : it->second;
}

/// The per-key checks, in table order. A failure is anchored at the key's
/// origin when `origins` records one.
void check_keys(const Scenario& s, const Scenario::KeyOrigins* origins) {
  for (const ScenarioKey& row : kKeys) {
    const std::string error = key_error(s, row);
    if (error.empty()) continue;
    fail(origin_of(origins, dotted(row)), error);
  }
}

/// The rules that span keys or sections. A [sweep] entry at fault is
/// anchored at its origin when `origins` records one; the other rules have
/// no single line.
void check_rules(const Scenario& s, const Scenario::KeyOrigins* origins) {
  if (s.inter_rtt_min_ms && s.inter_rtt_max_ms &&
      *s.inter_rtt_min_ms > *s.inter_rtt_max_ms) {
    fail("", "topology inter-rtt-min-ms exceeds inter-rtt-max-ms");
  }
  if (s.nodes && s.streams && *s.streams > *s.nodes) {
    fail("", "streams count " + std::to_string(*s.streams) +
                 " exceeds scenario nodes " + std::to_string(*s.nodes) +
                 " (each stream needs its own source)");
  }
  if (s.overuse_ms && s.underuse_ms && *s.underuse_ms >= *s.overuse_ms) {
    fail("", "limits underuse-ms must be below overuse-ms");
  }
  if (!s.churn_dsl.empty()) {
    std::string diagnostic;
    if (!ChurnScript::try_parse(s.churn_dsl, &diagnostic)) {
      fail("", "churn DSL: " + diagnostic);
    }
  }
  if (s.has_sweep()) {
    std::string key;
    const std::string diagnostic = sweep_error(s, &key);
    if (!diagnostic.empty()) {
      fail(origin_of(origins, "sweep." + key), "sweep: " + diagnostic);
    }
  }
}

/// One assignment; `context` prefixes diagnostics ("scenario line N" from
/// the parser, empty from the builder).
void apply(Scenario& s, const std::string& section, const std::string& key,
           const std::string& value, const std::string& context) {
  if (const ScenarioKey* row = find_key(section, key)) {
    return row->field.write(s, *row, value, context);
  }
  if (section == "churn" && key == "dsl") {
    // Only reachable from the builder / --set surface: inside a file the
    // [churn] body is verbatim DSL, parsed before apply() is consulted.
    s.churn_dsl = value;
    if (!s.churn_dsl.empty() && s.churn_dsl.back() != '\n') {
      s.churn_dsl += '\n';
    }
    return;
  }
  if (section == "sweep") {
    if (const std::string error = sweep_key_error(key); !error.empty()) {
      fail(context, error);
    }
    for (auto& [existing, existing_value] : s.sweep) {
      if (existing == key) {
        // The builder (and `--set sweep.<axis>=...`) narrows a grid by
        // replacing the axis; a file repeating it is a copy/paste bug.
        if (!context.empty()) {
          fail(context, "duplicate sweep key '" + key + "'");
        }
        existing_value = value;
        return;
      }
    }
    s.sweep.emplace_back(key, value);
    return;
  }
  if (section == "params") {
    s.params[key] = value;
    return;
  }
  if (section == "run" && key == "queue") {
    fail(context, "run key 'queue' was removed: the 4-ary heap is now the "
                  "only pending-event set (DESIGN.md §14); remove the key");
  }
  if (!known_section(section)) {
    fail(context, "unknown section [" + section + "]");
  }
  fail(context, "unknown key '" + key + "' in section [" + section + "]");
}

void emit(std::string& out, std::string_view key, const std::string& value) {
  out.append(key).append(" = ").append(value).append("\n");
}

}  // namespace

std::span<const ScenarioKey> scenario_keys() { return kKeys; }

std::string canonical_value(const ScenarioKey& row, const std::string& value) {
  Scenario scratch;
  row.field.write(scratch, row, value, "");
  if (const std::string error = key_error(scratch, row); !error.empty()) {
    fail("", error);
  }
  return *row.field.read(scratch);
}

std::string normalize_topology_model(std::string model) {
  for (char& c : model) {
    if (c == '_') c = '-';
  }
  return model;
}

// --- [params] accessors -----------------------------------------------------

std::string Scenario::param_string(const std::string& key,
                                   const std::string& d) const {
  const auto it = params.find(key);
  return it == params.end() ? d : it->second;
}

std::int64_t Scenario::param_int(const std::string& key,
                                 std::int64_t d) const {
  const auto it = params.find(key);
  return it == params.end() ? d : to_int("param '" + key + "'", key,
                                         it->second);
}

double Scenario::param_double(const std::string& key, double d) const {
  const auto it = params.find(key);
  return it == params.end() ? d
                            : to_double("param '" + key + "'", key, it->second);
}

bool Scenario::param_bool(const std::string& key, bool d) const {
  const auto it = params.find(key);
  return it == params.end() ? d
                            : to_bool("param '" + key + "'", key, it->second);
}

std::vector<std::int64_t> Scenario::param_int_list(
    const std::string& key, std::vector<std::int64_t> d) const {
  const auto it = params.find(key);
  if (it == params.end()) return d;
  std::vector<std::int64_t> out;
  std::string token;
  for (const char c : it->second + ",") {
    if (c == ',') {
      if (!token.empty()) {
        out.push_back(to_int("param '" + key + "'", key, trim(token)));
      }
      token.clear();
    } else {
      token.push_back(c);
    }
  }
  return out;
}

// --- Parsing ----------------------------------------------------------------

Scenario Scenario::parse(const std::string& text, KeyOrigins* origins) {
  Scenario s;
  KeyOrigins own_origins;
  KeyOrigins& where = origins != nullptr ? *origins : own_origins;
  std::istringstream in(text);
  std::string line;
  std::string section;
  int line_number = 0;
  int churn_section_line = 0;
  int sweep_section_line = 0;
  while (std::getline(in, line)) {
    ++line_number;
    const std::string context = "scenario line " + std::to_string(line_number);
    // The churn section embeds the fault/churn DSL verbatim — its lines are
    // statements, not key = value pairs, and '#' comments are its own.
    if (section == "churn" && trim(line).rfind('[', 0) != 0) {
      const std::string stripped = trim(line);
      if (stripped.empty() || stripped[0] == '#') continue;
      s.churn_dsl += stripped;
      s.churn_dsl += "\n";
      continue;
    }
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    const std::string stripped = trim(line);
    if (stripped.empty()) continue;
    if (stripped.front() == '[') {
      if (stripped.back() != ']') {
        fail(context, "unterminated section header '" + stripped + "'");
      }
      section = trim(stripped.substr(1, stripped.size() - 2));
      if (!known_section(section)) {
        fail(context, "unknown section [" + section + "]");
      }
      if (section == "churn") churn_section_line = line_number;
      if (section == "sweep") sweep_section_line = line_number;
      continue;
    }
    if (section.empty()) {
      fail(context, "key before any [section] header: '" + stripped + "'");
    }
    const std::size_t eq = stripped.find('=');
    if (eq == std::string::npos) {
      fail(context, "expected 'key = value', got '" + stripped + "'");
    }
    const std::string key = trim(stripped.substr(0, eq));
    const std::string value = trim(stripped.substr(eq + 1));
    if (key.empty()) fail(context, "empty key");
    apply(s, section, key, value, context);
    where[section + "." + key] = context;
  }
  if (churn_section_line > 0) {
    where["churn"] = "scenario line " + std::to_string(churn_section_line);
  }
  check_keys(s, &where);
  try {
    check_rules(s, &where);
  } catch (const std::invalid_argument& e) {
    // Anchor the churn and section-wide sweep diagnostics at their section
    // header so the reader knows where to look; the other cross-key rules
    // have no single line.
    const std::string what = e.what();
    const int header = what.rfind("churn", 0) == 0   ? churn_section_line
                       : what.rfind("sweep", 0) == 0 ? sweep_section_line
                                                     : 0;
    if (header > 0) {
      throw std::invalid_argument("scenario line " + std::to_string(header) +
                                  ": " + what);
    }
    throw;
  }
  return s;
}

std::optional<Scenario> Scenario::try_parse(const std::string& text,
                                            std::string* diagnostic) {
  try {
    return parse(text);
  } catch (const std::invalid_argument& e) {
    if (diagnostic != nullptr) *diagnostic = e.what();
    return std::nullopt;
  }
}

Scenario Scenario::load(const std::string& path, KeyOrigins* origins) {
  std::ifstream in(path);
  if (!in) {
    throw std::invalid_argument(path + ": cannot open scenario file");
  }
  std::ostringstream text;
  text << in.rdbuf();
  try {
    return parse(text.str(), origins);
  } catch (const std::invalid_argument& e) {
    throw std::invalid_argument(path + ": " + e.what());
  }
}

void Scenario::validate(const KeyOrigins* origins) const {
  check_keys(*this, origins);
  check_rules(*this, origins);
}

// --- Serialization ----------------------------------------------------------

std::string Scenario::to_text() const {
  std::string out;
  for (const std::string_view section : kSections) {
    std::string body;
    if (section == "churn") {
      body = churn_dsl;
    } else if (section == "sweep") {
      for (const auto& [key, value] : sweep) emit(body, key, value);
    } else if (section == "params") {
      for (const auto& [key, value] : params) emit(body, key, value);
    } else {
      for (const ScenarioKey& row : kKeys) {
        if (row.section != section) continue;
        if (const auto text = row.field.read(*this)) emit(body, row.key, *text);
      }
    }
    if (body.empty()) continue;
    if (!out.empty()) out += "\n";
    out.append("[").append(section).append("]\n").append(body);
  }
  return out;
}

std::map<std::string, std::string> Scenario::set_keys() const {
  std::map<std::string, std::string> out;
  for (const ScenarioKey& row : kKeys) {
    if (const auto text = row.field.read(*this)) out[dotted(row)] = *text;
  }
  if (!churn_dsl.empty()) out["churn"] = churn_dsl;
  for (const auto& [key, value] : sweep) out["sweep." + key] = value;
  return out;
}

// --- Builder ----------------------------------------------------------------

Scenario& Scenario::set(const std::string& section, const std::string& key,
                        const std::string& value) {
  apply(*this, section, key, value, "");
  return *this;
}

Scenario& Scenario::set_path(const std::string& dotted_key,
                             const std::string& value) {
  const std::size_t dot = dotted_key.find('.');
  if (dot == std::string::npos) {
    fail("", "expected section.key, got '" + dotted_key + "'");
  }
  return set(dotted_key.substr(0, dot), dotted_key.substr(dot + 1), value);
}

// --- Materialization --------------------------------------------------------

TestbedKind scenario_testbed(const Scenario& s) {
  return s.topology_or("cluster") == "planetlab" ? TestbedKind::kPlanetLab
                                                 : TestbedKind::kCluster;
}

std::optional<TopologyOverride> scenario_topology(const Scenario& s) {
  const std::string model = normalize_topology_model(s.topology_or("cluster"));
  if (model == "clustered-wan") {
    net::ClusteredWanLatencyModel::Config config;
    if (s.clusters) config.clusters = *s.clusters;
    if (s.intra_rtt_ms) config.intra_ms = *s.intra_rtt_ms;
    if (s.inter_rtt_min_ms) config.inter_min_ms = *s.inter_rtt_min_ms;
    if (s.inter_rtt_max_ms) config.inter_max_ms = *s.inter_rtt_max_ms;
    if (s.wan_jitter_ms) config.jitter_mean_ms = *s.wan_jitter_ms;
    TopologyOverride topology;
    topology.latency = [config] {
      return net::make_clustered_wan_latency(config);
    };
    return topology;
  }
  if (model == "fat-tree") {
    net::FatTreeLatencyModel::Config config;
    if (s.hosts_per_rack) config.hosts_per_rack = *s.hosts_per_rack;
    if (s.racks_per_pod) config.racks_per_pod = *s.racks_per_pod;
    if (s.intra_rack_us) config.intra_rack_us = *s.intra_rack_us;
    if (s.intra_pod_us) config.intra_pod_us = *s.intra_pod_us;
    if (s.inter_pod_us) config.inter_pod_us = *s.inter_pod_us;
    if (s.fat_tree_jitter_us) config.jitter_mean_us = *s.fat_tree_jitter_us;
    TopologyOverride topology;
    topology.latency = [config] { return net::make_fat_tree_latency(config); };
    return topology;
  }
  if (model == "random") {
    // The flat-random control routed through the override path: the same
    // latency preset the bare testbed would install, so results are
    // byte-identical to the no-override default (pinned by a differential
    // golden) while still exercising the TopologyOverride machinery.
    const TestbedKind testbed = scenario_testbed(s);
    TopologyOverride topology;
    topology.latency = [testbed] { return testbed_latency(testbed); };
    return topology;
  }
  if (model == "barabasi-albert" || model == "watts-strogatz" ||
      model == "degree-capped") {
    TopologyGenConfig gen;
    gen.seed = s.seed_or(1);
    gen.nodes = static_cast<std::uint32_t>(s.nodes_or(512));
    if (s.ba_m) gen.ba_m = static_cast<std::uint32_t>(*s.ba_m);
    if (s.ws_k) gen.ws_k = static_cast<std::uint32_t>(*s.ws_k);
    if (s.ws_beta) gen.ws_beta = *s.ws_beta;
    if (s.degree_cap) {
      gen.degree_cap = static_cast<std::uint32_t>(*s.degree_cap);
    }
    GraphLatencyConfig lat;
    if (s.edge_ms) lat.edge_ms = *s.edge_ms;
    if (s.cross_ms) lat.cross_ms = *s.cross_ms;
    if (s.wan_jitter_ms) lat.jitter_mean_ms = *s.wan_jitter_ms;
    TopologyOverride topology;
    topology.graph = make_topology(model, gen);
    topology.latency = [graph = topology.graph, lat] {
      return make_graph_latency(graph, lat);
    };
    return topology;
  }
  return std::nullopt;
}

namespace {

/// The SystemConfig fields every protocol's Config shares.
void fill_common(const Scenario& s, SystemConfig& config) {
  config.seed = s.seed_or(1);
  config.num_nodes = s.nodes_or(512);
  config.testbed = scenario_testbed(s);
  config.topology = scenario_topology(s);
  config.num_streams = s.streams_or(1);
  config.shards = s.shards_or(1);
  if (s.join_spread_s) {
    config.join_spread = sim::Duration::milliseconds(
        static_cast<std::int64_t>(*s.join_spread_s * 1e3));
  }
  if (s.stabilization_s) {
    config.stabilization = sim::Duration::milliseconds(
        static_cast<std::int64_t>(*s.stabilization_s * 1e3));
  }
}

}  // namespace

net::Limits scenario_limits(const Scenario& s) {
  net::Limits limits;
  if (s.store_entries) limits.store_entries = *s.store_entries;
  if (s.store_bytes) limits.store_bytes = *s.store_bytes;
  if (s.eviction) {
    limits.eviction = *s.eviction == "delivered-first"
                          ? net::EvictionPolicy::kDeliveredFirst
                          : net::EvictionPolicy::kOldestFirst;
  }
  if (s.bloom_digests) limits.bloom_digests = *s.bloom_digests;
  if (s.bloom_fp) limits.bloom_fp = *s.bloom_fp;
  if (s.rate_control) limits.rate_control = *s.rate_control;
  if (s.overuse_ms) {
    limits.overuse_threshold = sim::Duration::microseconds(
        static_cast<std::int64_t>(*s.overuse_ms * 1e3));
  }
  if (s.underuse_ms) {
    limits.underuse_threshold = sim::Duration::microseconds(
        static_cast<std::int64_t>(*s.underuse_ms * 1e3));
  }
  if (s.recovery_ms) {
    limits.rate_recovery = sim::Duration::microseconds(
        static_cast<std::int64_t>(*s.recovery_ms * 1e3));
  }
  return limits;
}

BrisaSystem::Config scenario_brisa_config(const Scenario& s) {
  BrisaSystem::Config config;
  fill_common(s, config);
  config.brisa.limits = scenario_limits(s);
  if (s.active_view) {
    config.hyparview.active_size = *s.active_view;
    config.hyparview.passive_size = s.passive_view.value_or(*s.active_view * 6);
  } else if (s.passive_view) {
    config.hyparview.passive_size = *s.passive_view;
  }
  if (s.expansion_factor) {
    config.hyparview.expansion_factor = *s.expansion_factor;
  }
  if (s.mode) {
    config.brisa.mode = *s.mode == "dag" ? core::StructureMode::kDag
                                         : core::StructureMode::kTree;
  }
  if (s.parents) config.brisa.num_parents = *s.parents;
  if (s.strategy) config.brisa.strategy = core::parse_strategy(*s.strategy);
  if (s.prune) config.brisa.prune = *s.prune;
  return config;
}

SimpleTreeSystem::Config scenario_tree_config(const Scenario& s) {
  SimpleTreeSystem::Config config;
  fill_common(s, config);
  config.limits = scenario_limits(s);
  return config;
}

SimpleGossipSystem::Config scenario_gossip_config(const Scenario& s) {
  SimpleGossipSystem::Config config;
  fill_common(s, config);
  // Config's own 0 already means "the paper's ln(N)".
  config.fanout = static_cast<std::size_t>(s.param_int("fanout", 0));
  config.gossip.limits = scenario_limits(s);
  return config;
}

TagSystem::Config scenario_tag_config(const Scenario& s) {
  TagSystem::Config config;
  fill_common(s, config);
  config.tag.limits = scenario_limits(s);
  return config;
}

std::unique_ptr<SystemBase> make_system(const Scenario& s) {
  const std::string protocol = s.protocol_or("brisa");
  if (protocol == "brisa") {
    return std::make_unique<BrisaSystem>(scenario_brisa_config(s));
  }
  if (protocol == "tree") {
    return std::make_unique<SimpleTreeSystem>(scenario_tree_config(s));
  }
  if (protocol == "gossip") {
    return std::make_unique<SimpleGossipSystem>(scenario_gossip_config(s));
  }
  if (protocol == "tag") {
    return std::make_unique<TagSystem>(scenario_tag_config(s));
  }
  throw std::invalid_argument("unknown protocol '" + protocol + "'");
}

}  // namespace brisa::workload
