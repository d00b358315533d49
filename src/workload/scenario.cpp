#include "workload/scenario.h"

#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
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

std::size_t to_size(const std::string& context, const std::string& key,
                    const std::string& value) {
  const std::int64_t parsed = to_int(context, key, value);
  if (parsed < 0) {
    fail(context, "key '" + key + "' must be non-negative, got '" + value +
                      "'");
  }
  return static_cast<std::size_t>(parsed);
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

double to_fraction(const std::string& context, const std::string& key,
                   const std::string& value) {
  const double parsed = to_double(context, key, value);
  if (parsed < 0.0 || parsed > 1.0) {
    fail(context, "key '" + key + "' must be a fraction in [0, 1], got '" +
                      value + "'");
  }
  return parsed;
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

/// One typed assignment; `context` prefixes diagnostics ("scenario line N"
/// from the parser, empty from the builder).
void apply(Scenario& s, const std::string& section, const std::string& key,
           const std::string& value, const std::string& context) {
  if (section == "scenario") {
    if (key == "name") return void(s.name = value);
    if (key == "report") return void(s.report = value);
    if (key == "protocol") {
      if (value != "brisa" && value != "tree" && value != "gossip" &&
          value != "tag") {
        fail(context, "protocol must be brisa|tree|gossip|tag, got '" +
                          value + "'");
      }
      return void(s.protocol = value);
    }
    if (key == "nodes") return void(s.nodes = to_size(context, key, value));
    if (key == "seed") {
      return void(s.seed =
                      static_cast<std::uint64_t>(to_int(context, key, value)));
    }
  } else if (section == "topology") {
    if (key == "model") return void(s.topology_model = value);
    if (key == "clusters") {
      return void(s.clusters = to_size(context, key, value));
    }
    if (key == "intra-rtt-ms") {
      return void(s.intra_rtt_ms = to_double(context, key, value));
    }
    if (key == "inter-rtt-min-ms") {
      return void(s.inter_rtt_min_ms = to_double(context, key, value));
    }
    if (key == "inter-rtt-max-ms") {
      return void(s.inter_rtt_max_ms = to_double(context, key, value));
    }
    if (key == "jitter-ms") {
      return void(s.wan_jitter_ms = to_double(context, key, value));
    }
    if (key == "hosts-per-rack") {
      return void(s.hosts_per_rack = to_size(context, key, value));
    }
    if (key == "racks-per-pod") {
      return void(s.racks_per_pod = to_size(context, key, value));
    }
    if (key == "intra-rack-us") {
      return void(s.intra_rack_us = to_double(context, key, value));
    }
    if (key == "intra-pod-us") {
      return void(s.intra_pod_us = to_double(context, key, value));
    }
    if (key == "inter-pod-us") {
      return void(s.inter_pod_us = to_double(context, key, value));
    }
    if (key == "jitter-us") {
      return void(s.fat_tree_jitter_us = to_double(context, key, value));
    }
    if (key == "ba-m") return void(s.ba_m = to_size(context, key, value));
    if (key == "ws-k") return void(s.ws_k = to_size(context, key, value));
    if (key == "ws-beta") {
      return void(s.ws_beta = to_fraction(context, key, value));
    }
    if (key == "degree-cap") {
      return void(s.degree_cap = to_size(context, key, value));
    }
    if (key == "edge-ms") {
      return void(s.edge_ms = to_double(context, key, value));
    }
    if (key == "cross-ms") {
      return void(s.cross_ms = to_double(context, key, value));
    }
  } else if (section == "overlay") {
    if (key == "active-view") {
      return void(s.active_view = to_size(context, key, value));
    }
    if (key == "passive-view") {
      return void(s.passive_view = to_size(context, key, value));
    }
    if (key == "expansion-factor") {
      return void(s.expansion_factor = to_double(context, key, value));
    }
    if (key == "mode") return void(s.mode = value);
    if (key == "parents") {
      return void(s.parents = to_size(context, key, value));
    }
    if (key == "strategy") return void(s.strategy = value);
    if (key == "prune") return void(s.prune = to_bool(context, key, value));
  } else if (section == "streams") {
    if (key == "count") return void(s.streams = to_size(context, key, value));
    if (key == "messages") {
      return void(s.messages = to_size(context, key, value));
    }
    if (key == "rate-per-s") {
      return void(s.rate = to_double(context, key, value));
    }
    if (key == "payload") {
      return void(s.payload = to_size(context, key, value));
    }
    if (key == "subscription-fraction") {
      return void(s.subscription_fraction = to_fraction(context, key, value));
    }
    if (key == "zipf") {
      return void(s.zipf_exponent = to_double(context, key, value));
    }
    if (key == "flash-at-s") {
      return void(s.flash_at_s = to_double(context, key, value));
    }
    if (key == "flash-messages") {
      return void(s.flash_messages = to_size(context, key, value));
    }
    if (key == "flash-rate-per-s") {
      return void(s.flash_rate = to_double(context, key, value));
    }
  } else if (section == "run") {
    if (key == "join-spread-s") {
      return void(s.join_spread_s = to_double(context, key, value));
    }
    if (key == "stabilization-s") {
      return void(s.stabilization_s = to_double(context, key, value));
    }
    if (key == "grace-s") {
      return void(s.grace_s = to_double(context, key, value));
    }
    if (key == "warmup-messages") {
      return void(s.warmup_messages = to_size(context, key, value));
    }
    if (key == "shards") {
      return void(s.shards =
                      static_cast<std::uint32_t>(to_size(context, key, value)));
    }
    if (key == "queue") {
      fail(context, "run key 'queue' was removed: the 4-ary heap is now the "
                    "only pending-event set (DESIGN.md §14); remove the key");
    }
  } else if (section == "limits") {
    if (key == "store-entries") {
      return void(s.store_entries = to_size(context, key, value));
    }
    if (key == "store-bytes") {
      return void(s.store_bytes = to_size(context, key, value));
    }
    if (key == "eviction") return void(s.eviction = value);
    if (key == "bloom-digests") {
      return void(s.bloom_digests = to_bool(context, key, value));
    }
    if (key == "bloom-fp") {
      return void(s.bloom_fp = to_double(context, key, value));
    }
    if (key == "rate-control") {
      return void(s.rate_control = to_bool(context, key, value));
    }
    if (key == "overuse-ms") {
      return void(s.overuse_ms = to_double(context, key, value));
    }
    if (key == "underuse-ms") {
      return void(s.underuse_ms = to_double(context, key, value));
    }
    if (key == "recovery-ms") {
      return void(s.recovery_ms = to_double(context, key, value));
    }
  } else if (section == "churn") {
    // Only reachable from the builder / --set surface: inside a file the
    // [churn] body is verbatim DSL, parsed before apply() is consulted.
    if (key == "dsl") {
      s.churn_dsl = value;
      if (!s.churn_dsl.empty() && s.churn_dsl.back() != '\n') {
        s.churn_dsl += '\n';
      }
      return;
    }
  } else if (section == "sweep") {
    const bool axis = key == "protocol" || key == "nodes" || key == "seeds" ||
                      key == "faulted" || key == "topology" ||
                      (key.rfind("param.", 0) == 0 && key.size() > 6);
    if (!axis && key != "cell-timeout-s") {
      fail(context, "unknown sweep key '" + key +
                        "' (axes: protocol, nodes, seeds, faulted, topology, "
                        "param.<name>; knobs: cell-timeout-s)");
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
  } else if (section == "output") {
    if (key == "json") return void(s.json = to_bool(context, key, value));
    if (key == "cdf") return void(s.cdf = to_bool(context, key, value));
  } else if (section == "params") {
    s.params[key] = value;
    return;
  } else {
    fail(context, "unknown section [" + section + "]");
  }
  fail(context, "unknown key '" + key + "' in section [" + section + "]");
}

void emit(std::string& out, const char* key, const std::string& value) {
  out += key;
  out += " = ";
  out += value;
  out += "\n";
}

std::string fmt_double(double value) {
  char buffer[64];
  // Shortest representation that still round-trips through stod.
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  double parsed = 0;
  for (int precision = 1; precision < 17; ++precision) {
    char candidate[64];
    std::snprintf(candidate, sizeof candidate, "%.*g", precision, value);
    std::sscanf(candidate, "%lf", &parsed);
    if (parsed == value) return candidate;
  }
  return buffer;
}

std::string fmt_size(std::size_t value) { return std::to_string(value); }

}  // namespace

std::string normalize_topology_model(std::string model) {
  for (char& c : model) {
    if (c == '_') c = '-';
  }
  return model;
}

bool known_topology_model(const std::string& normalized) {
  return normalized == "cluster" || normalized == "planetlab" ||
         normalized == "clustered-wan" || normalized == "fat-tree" ||
         normalized == "random" || normalized == "barabasi-albert" ||
         normalized == "watts-strogatz" || normalized == "degree-capped";
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

Scenario Scenario::parse(const std::string& text, KeyLines* lines) {
  Scenario s;
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
      const bool known =
          section == "scenario" || section == "topology" ||
          section == "overlay" || section == "streams" || section == "run" ||
          section == "limits" || section == "churn" || section == "sweep" ||
          section == "output" || section == "params";
      if (!known) fail(context, "unknown section [" + section + "]");
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
    if (lines != nullptr) (*lines)[section + "." + key] = line_number;
  }
  if (lines != nullptr && churn_section_line > 0) {
    (*lines)["churn"] = churn_section_line;
  }
  try {
    s.validate();
  } catch (const std::invalid_argument& e) {
    // Re-anchor churn and sweep diagnostics at their section header so the
    // reader knows where to look; other semantic errors have no single line.
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

Scenario Scenario::load(const std::string& path, KeyLines* lines) {
  std::ifstream in(path);
  if (!in) {
    throw std::invalid_argument(path + ": cannot open scenario file");
  }
  std::ostringstream text;
  text << in.rdbuf();
  try {
    return parse(text.str(), lines);
  } catch (const std::invalid_argument& e) {
    throw std::invalid_argument(path + ": " + e.what());
  }
}

void Scenario::validate() const {
  if (topology_model &&
      !known_topology_model(normalize_topology_model(*topology_model))) {
    fail("", "topology model must be cluster|planetlab|clustered-wan|"
             "fat-tree|random|barabasi-albert|watts-strogatz|degree-capped, "
             "got '" +
                 *topology_model + "'");
  }
  if (mode && *mode != "tree" && *mode != "dag") {
    fail("", "overlay mode must be tree|dag, got '" + *mode + "'");
  }
  if (strategy) {
    try {
      (void)core::parse_strategy(*strategy);
    } catch (const std::exception& e) {
      fail("", std::string("overlay strategy: ") + e.what());
    }
  }
  if (inter_rtt_min_ms && inter_rtt_max_ms &&
      *inter_rtt_min_ms > *inter_rtt_max_ms) {
    fail("", "topology inter-rtt-min-ms exceeds inter-rtt-max-ms");
  }
  if (nodes && *nodes < 2) {
    fail("", "scenario nodes must be >= 2, got " + fmt_size(*nodes));
  }
  if (nodes && streams && *streams > *nodes) {
    fail("", "streams count " + fmt_size(*streams) +
                 " exceeds scenario nodes " + fmt_size(*nodes) +
                 " (each stream needs its own source)");
  }
  // Latencies and run phases: a negative value aborts the simulator (or,
  // for grace-s, silently sends nothing).
  const std::pair<const char*, const std::optional<double>*> non_negative[] = {
      {"topology intra-rtt-ms", &intra_rtt_ms},
      {"topology inter-rtt-min-ms", &inter_rtt_min_ms},
      {"topology inter-rtt-max-ms", &inter_rtt_max_ms},
      {"topology jitter-ms", &wan_jitter_ms},
      {"topology intra-rack-us", &intra_rack_us},
      {"topology intra-pod-us", &intra_pod_us},
      {"topology inter-pod-us", &inter_pod_us},
      {"topology jitter-us", &fat_tree_jitter_us},
      {"run join-spread-s", &join_spread_s},
      {"run stabilization-s", &stabilization_s},
      {"run grace-s", &grace_s},
  };
  for (const auto& [key, value] : non_negative) {
    if (*value && **value < 0.0) {
      fail("", std::string(key) + " must be non-negative, got " +
                   fmt_double(**value));
    }
  }
  if (ba_m && *ba_m == 0) fail("", "topology ba-m must be >= 1");
  if (ws_k && (*ws_k < 2 || *ws_k % 2 != 0)) {
    fail("", "topology ws-k must be an even integer >= 2, got " +
                 fmt_size(*ws_k));
  }
  if (degree_cap && *degree_cap < 2) {
    fail("", "topology degree-cap must be >= 2, got " + fmt_size(*degree_cap));
  }
  if (edge_ms && *edge_ms <= 0.0) {
    fail("", "topology edge-ms must be positive");
  }
  if (cross_ms && *cross_ms <= 0.0) {
    fail("", "topology cross-ms must be positive");
  }
  if (zipf_exponent && *zipf_exponent < 0.0) {
    fail("", "streams zipf must be non-negative");
  }
  if (flash_at_s && *flash_at_s < 0.0) {
    fail("", "streams flash-at-s must be non-negative");
  }
  if (flash_rate && *flash_rate <= 0.0) {
    fail("", "streams flash-rate-per-s must be positive");
  }
  if (rate && *rate <= 0.0) {
    fail("", "streams rate-per-s must be positive, got " + fmt_double(*rate));
  }
  if (active_view && *active_view == 0) {
    fail("", "overlay active-view must be >= 1");
  }
  if (passive_view && *passive_view == 0) {
    fail("", "overlay passive-view must be >= 1");
  }
  if (expansion_factor && *expansion_factor < 1.0) {
    fail("", "overlay expansion-factor must be >= 1, got " +
                 fmt_double(*expansion_factor));
  }
  if (parents && *parents == 0) fail("", "overlay parents must be >= 1");
  if (shards && (*shards == 0 || *shards > 63)) {
    fail("", "run shards must be in 1..63, got " + std::to_string(*shards));
  }
  if (streams && *streams == 0) fail("", "streams count must be >= 1");
  if (eviction && *eviction != "oldest-first" &&
      *eviction != "delivered-first") {
    fail("", "limits eviction must be oldest-first|delivered-first, got '" +
                 *eviction + "'");
  }
  if (bloom_fp && (*bloom_fp <= 0.0 || *bloom_fp >= 1.0)) {
    fail("", "limits bloom-fp must be in (0, 1), got '" +
                 fmt_double(*bloom_fp) + "'");
  }
  if (overuse_ms && *overuse_ms <= 0.0) {
    fail("", "limits overuse-ms must be positive");
  }
  if (underuse_ms && *underuse_ms <= 0.0) {
    fail("", "limits underuse-ms must be positive");
  }
  if (recovery_ms && *recovery_ms <= 0.0) {
    fail("", "limits recovery-ms must be positive");
  }
  if (overuse_ms && underuse_ms && *underuse_ms >= *overuse_ms) {
    fail("", "limits underuse-ms must be below overuse-ms");
  }
  if (!churn_dsl.empty()) {
    std::string diagnostic;
    if (!ChurnScript::try_parse(churn_dsl, &diagnostic)) {
      fail("", "churn DSL: " + diagnostic);
    }
  }
  if (has_sweep()) {
    const std::string diagnostic = sweep_error(*this);
    if (!diagnostic.empty()) fail("", "sweep: " + diagnostic);
  }
}

// --- Serialization ----------------------------------------------------------

std::string Scenario::to_text() const {
  std::string out;
  out += "[scenario]\n";
  if (name) emit(out, "name", *name);
  if (report) emit(out, "report", *report);
  if (protocol) emit(out, "protocol", *protocol);
  if (nodes) emit(out, "nodes", fmt_size(*nodes));
  if (seed) emit(out, "seed", std::to_string(*seed));
  const bool any_topology =
      topology_model || clusters || intra_rtt_ms || inter_rtt_min_ms ||
      inter_rtt_max_ms || wan_jitter_ms || hosts_per_rack || racks_per_pod ||
      intra_rack_us || intra_pod_us || inter_pod_us || fat_tree_jitter_us ||
      ba_m || ws_k || ws_beta || degree_cap || edge_ms || cross_ms;
  if (any_topology) {
    out += "\n[topology]\n";
    if (topology_model) emit(out, "model", *topology_model);
    if (clusters) emit(out, "clusters", fmt_size(*clusters));
    if (intra_rtt_ms) emit(out, "intra-rtt-ms", fmt_double(*intra_rtt_ms));
    if (inter_rtt_min_ms) {
      emit(out, "inter-rtt-min-ms", fmt_double(*inter_rtt_min_ms));
    }
    if (inter_rtt_max_ms) {
      emit(out, "inter-rtt-max-ms", fmt_double(*inter_rtt_max_ms));
    }
    if (wan_jitter_ms) emit(out, "jitter-ms", fmt_double(*wan_jitter_ms));
    if (hosts_per_rack) emit(out, "hosts-per-rack", fmt_size(*hosts_per_rack));
    if (racks_per_pod) emit(out, "racks-per-pod", fmt_size(*racks_per_pod));
    if (intra_rack_us) emit(out, "intra-rack-us", fmt_double(*intra_rack_us));
    if (intra_pod_us) emit(out, "intra-pod-us", fmt_double(*intra_pod_us));
    if (inter_pod_us) emit(out, "inter-pod-us", fmt_double(*inter_pod_us));
    if (fat_tree_jitter_us) {
      emit(out, "jitter-us", fmt_double(*fat_tree_jitter_us));
    }
    if (ba_m) emit(out, "ba-m", fmt_size(*ba_m));
    if (ws_k) emit(out, "ws-k", fmt_size(*ws_k));
    if (ws_beta) emit(out, "ws-beta", fmt_double(*ws_beta));
    if (degree_cap) emit(out, "degree-cap", fmt_size(*degree_cap));
    if (edge_ms) emit(out, "edge-ms", fmt_double(*edge_ms));
    if (cross_ms) emit(out, "cross-ms", fmt_double(*cross_ms));
  }
  const bool any_overlay = active_view || passive_view || expansion_factor ||
                           mode || parents || strategy || prune;
  if (any_overlay) {
    out += "\n[overlay]\n";
    if (active_view) emit(out, "active-view", fmt_size(*active_view));
    if (passive_view) emit(out, "passive-view", fmt_size(*passive_view));
    if (expansion_factor) {
      emit(out, "expansion-factor", fmt_double(*expansion_factor));
    }
    if (mode) emit(out, "mode", *mode);
    if (parents) emit(out, "parents", fmt_size(*parents));
    if (strategy) emit(out, "strategy", *strategy);
    if (prune) emit(out, "prune", *prune ? "true" : "false");
  }
  const bool any_streams = streams || messages || rate || payload ||
                           subscription_fraction || zipf_exponent ||
                           flash_at_s || flash_messages || flash_rate;
  if (any_streams) {
    out += "\n[streams]\n";
    if (streams) emit(out, "count", fmt_size(*streams));
    if (messages) emit(out, "messages", fmt_size(*messages));
    if (rate) emit(out, "rate-per-s", fmt_double(*rate));
    if (payload) emit(out, "payload", fmt_size(*payload));
    if (subscription_fraction) {
      emit(out, "subscription-fraction", fmt_double(*subscription_fraction));
    }
    if (zipf_exponent) emit(out, "zipf", fmt_double(*zipf_exponent));
    if (flash_at_s) emit(out, "flash-at-s", fmt_double(*flash_at_s));
    if (flash_messages) {
      emit(out, "flash-messages", fmt_size(*flash_messages));
    }
    if (flash_rate) emit(out, "flash-rate-per-s", fmt_double(*flash_rate));
  }
  const bool any_run = join_spread_s || stabilization_s || grace_s ||
                       warmup_messages || shards;
  if (any_run) {
    out += "\n[run]\n";
    if (join_spread_s) emit(out, "join-spread-s", fmt_double(*join_spread_s));
    if (stabilization_s) {
      emit(out, "stabilization-s", fmt_double(*stabilization_s));
    }
    if (grace_s) emit(out, "grace-s", fmt_double(*grace_s));
    if (warmup_messages) {
      emit(out, "warmup-messages", fmt_size(*warmup_messages));
    }
    if (shards) emit(out, "shards", fmt_size(*shards));
  }
  const bool any_limits = store_entries || store_bytes || eviction ||
                          bloom_digests || bloom_fp || rate_control ||
                          overuse_ms || underuse_ms || recovery_ms;
  if (any_limits) {
    out += "\n[limits]\n";
    if (store_entries) emit(out, "store-entries", fmt_size(*store_entries));
    if (store_bytes) emit(out, "store-bytes", fmt_size(*store_bytes));
    if (eviction) emit(out, "eviction", *eviction);
    if (bloom_digests) {
      emit(out, "bloom-digests", *bloom_digests ? "true" : "false");
    }
    if (bloom_fp) emit(out, "bloom-fp", fmt_double(*bloom_fp));
    if (rate_control) {
      emit(out, "rate-control", *rate_control ? "true" : "false");
    }
    if (overuse_ms) emit(out, "overuse-ms", fmt_double(*overuse_ms));
    if (underuse_ms) emit(out, "underuse-ms", fmt_double(*underuse_ms));
    if (recovery_ms) emit(out, "recovery-ms", fmt_double(*recovery_ms));
  }
  if (!churn_dsl.empty()) {
    out += "\n[churn]\n";
    out += churn_dsl;
  }
  if (has_sweep()) {
    out += "\n[sweep]\n";
    for (const auto& [key, value] : sweep) emit(out, key.c_str(), value);
  }
  if (json || cdf) {
    out += "\n[output]\n";
    if (json) emit(out, "json", *json ? "true" : "false");
    if (cdf) emit(out, "cdf", *cdf ? "true" : "false");
  }
  if (!params.empty()) {
    out += "\n[params]\n";
    for (const auto& [key, value] : params) emit(out, key.c_str(), value);
  }
  return out;
}

std::map<std::string, std::string> Scenario::set_keys() const {
  std::map<std::string, std::string> out;
  const auto put_str = [&out](const char* key,
                              const std::optional<std::string>& value) {
    if (value) out[key] = *value;
  };
  const auto put_size = [&out](const char* key,
                               const std::optional<std::size_t>& value) {
    if (value) out[key] = fmt_size(*value);
  };
  const auto put_double = [&out](const char* key,
                                 const std::optional<double>& value) {
    if (value) out[key] = fmt_double(*value);
  };
  const auto put_bool = [&out](const char* key,
                               const std::optional<bool>& value) {
    if (value) out[key] = *value ? "true" : "false";
  };
  put_str("scenario.name", name);
  put_str("scenario.report", report);
  put_str("scenario.protocol", protocol);
  put_size("scenario.nodes", nodes);
  if (seed) out["scenario.seed"] = std::to_string(*seed);
  put_str("topology.model", topology_model);
  put_size("topology.clusters", clusters);
  put_double("topology.intra-rtt-ms", intra_rtt_ms);
  put_double("topology.inter-rtt-min-ms", inter_rtt_min_ms);
  put_double("topology.inter-rtt-max-ms", inter_rtt_max_ms);
  put_double("topology.jitter-ms", wan_jitter_ms);
  put_size("topology.hosts-per-rack", hosts_per_rack);
  put_size("topology.racks-per-pod", racks_per_pod);
  put_double("topology.intra-rack-us", intra_rack_us);
  put_double("topology.intra-pod-us", intra_pod_us);
  put_double("topology.inter-pod-us", inter_pod_us);
  put_double("topology.jitter-us", fat_tree_jitter_us);
  put_size("topology.ba-m", ba_m);
  put_size("topology.ws-k", ws_k);
  put_double("topology.ws-beta", ws_beta);
  put_size("topology.degree-cap", degree_cap);
  put_double("topology.edge-ms", edge_ms);
  put_double("topology.cross-ms", cross_ms);
  put_size("overlay.active-view", active_view);
  put_size("overlay.passive-view", passive_view);
  put_double("overlay.expansion-factor", expansion_factor);
  put_str("overlay.mode", mode);
  put_size("overlay.parents", parents);
  put_str("overlay.strategy", strategy);
  put_bool("overlay.prune", prune);
  put_size("streams.count", streams);
  put_size("streams.messages", messages);
  put_double("streams.rate-per-s", rate);
  put_size("streams.payload", payload);
  put_double("streams.subscription-fraction", subscription_fraction);
  put_double("streams.zipf", zipf_exponent);
  put_double("streams.flash-at-s", flash_at_s);
  put_size("streams.flash-messages", flash_messages);
  put_double("streams.flash-rate-per-s", flash_rate);
  put_double("run.join-spread-s", join_spread_s);
  put_double("run.stabilization-s", stabilization_s);
  put_double("run.grace-s", grace_s);
  put_size("run.warmup-messages", warmup_messages);
  if (shards) out["run.shards"] = std::to_string(*shards);
  put_size("limits.store-entries", store_entries);
  put_size("limits.store-bytes", store_bytes);
  put_str("limits.eviction", eviction);
  put_bool("limits.bloom-digests", bloom_digests);
  put_double("limits.bloom-fp", bloom_fp);
  put_bool("limits.rate-control", rate_control);
  put_double("limits.overuse-ms", overuse_ms);
  put_double("limits.underuse-ms", underuse_ms);
  put_double("limits.recovery-ms", recovery_ms);
  put_bool("output.json", json);
  put_bool("output.cdf", cdf);
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
