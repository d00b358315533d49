// Scenario-engine coverage: grammar round-trips, defaulting, line-numbered
// diagnostics on malformed files, materialization into system configs, the
// two scenario-selectable topology models, and the report goldens — the
// checked-in fig02 scenario file must describe exactly the registry's
// default run, reproduce its output byte-identically, and match the recorded
// output, and eight more figure reports must print their recorded output at
// reduced shapes.
#include "workload/scenario.h"

#include <gtest/gtest.h>
#include <sys/wait.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "net/latency.h"
#include "reports/reports.h"
#include "sim/rng.h"

namespace brisa {
namespace {

using workload::Scenario;

// --- Parsing & round-trip ---------------------------------------------------

TEST(Scenario, ParsesEverySection) {
  const Scenario s = Scenario::parse(
      "# full example\n"
      "[scenario]\n"
      "name = everything\n"
      "report = run\n"
      "protocol = gossip\n"
      "nodes = 300\n"
      "seed = 9\n"
      "[topology]\n"
      "model = clustered-wan\n"
      "clusters = 4\n"
      "intra-rtt-ms = 1.5\n"
      "inter-rtt-min-ms = 25\n"
      "inter-rtt-max-ms = 90\n"
      "[overlay]\n"
      "active-view = 6\n"
      "mode = dag\n"
      "parents = 2\n"
      "strategy = delay\n"
      "prune = true\n"
      "[streams]\n"
      "count = 3\n"
      "messages = 40\n"
      "rate-per-s = 2.5\n"
      "payload = 256\n"
      "subscription-fraction = 0.5\n"
      "[run]\n"
      "grace-s = 12\n"
      "[churn]\n"
      "from 0 s to 10 s drop 5%\n"
      "at 60 s stop\n"
      "[output]\n"
      "json = false\n"
      "cdf = true\n"
      "[params]\n"
      "min-reliability = 0.9\n");
  EXPECT_EQ(s.name_or(""), "everything");
  EXPECT_EQ(s.protocol_or(""), "gossip");
  EXPECT_EQ(s.nodes_or(0), 300u);
  EXPECT_EQ(s.seed_or(0), 9u);
  EXPECT_EQ(s.topology_or(""), "clustered-wan");
  EXPECT_EQ(s.clusters, std::optional<std::size_t>(4));
  EXPECT_EQ(s.active_view, std::optional<std::size_t>(6));
  EXPECT_EQ(s.mode, std::optional<std::string>("dag"));
  EXPECT_EQ(s.streams_or(0), 3u);
  EXPECT_DOUBLE_EQ(s.rate_or(0), 2.5);
  EXPECT_DOUBLE_EQ(s.subscription_fraction_or(0), 0.5);
  EXPECT_EQ(s.churn_dsl, "from 0 s to 10 s drop 5%\nat 60 s stop\n");
  EXPECT_EQ(s.json, std::optional<bool>(false));
  EXPECT_EQ(s.cdf, std::optional<bool>(true));
  EXPECT_DOUBLE_EQ(s.param_double("min-reliability", 0), 0.9);
}

TEST(Scenario, TextRoundTripIsExact) {
  Scenario s;
  s.set("scenario", "name", "round_trip")
      .set("scenario", "protocol", "brisa")
      .set("scenario", "nodes", "128")
      .set("scenario", "seed", "3")
      .set("topology", "model", "fat-tree")
      .set("topology", "hosts-per-rack", "20")
      .set("topology", "intra-rack-us", "35.5")
      .set("overlay", "active-view", "8")
      .set("overlay", "prune", "false")
      .set("streams", "count", "2")
      .set("streams", "rate-per-s", "7.25")
      .set("run", "grace-s", "20")
      .set("output", "cdf", "true")
      .set("params", "views", "4,6");
  s.churn_dsl = "at 5 s crash 3 for 2 s\nat 30 s stop\n";
  const Scenario reparsed = Scenario::parse(s.to_text());
  EXPECT_EQ(reparsed, s);
  // A second round trip is a fixed point.
  EXPECT_EQ(Scenario::parse(reparsed.to_text()).to_text(), reparsed.to_text());
}

TEST(Scenario, UnsetKeysStayUnsetAndDefault) {
  const Scenario s = Scenario::parse("[scenario]\nname = sparse\n");
  EXPECT_FALSE(s.nodes.has_value());
  EXPECT_FALSE(s.report.has_value());
  EXPECT_FALSE(s.messages.has_value());
  EXPECT_EQ(s.nodes_or(512), 512u);
  EXPECT_EQ(s.report_or("run"), "run");
  EXPECT_EQ(s.messages_or(77), 77u);
  EXPECT_EQ(s.param_int("absent", -4), -4);
  EXPECT_TRUE(s.param_int_list("absent", {1, 2}) ==
              (std::vector<std::int64_t>{1, 2}));
}

// --- Diagnostics ------------------------------------------------------------

/// The diagnostic for `text` (empty when it parses).
std::string diagnostic_of(const std::string& text) {
  std::string diagnostic;
  if (Scenario::try_parse(text, &diagnostic)) return "";
  return diagnostic;
}

/// The diagnostic of setting `path` = `value` through the builder and then
/// validating (empty when both pass).
std::string builder_diagnostic(const std::string& path,
                               const std::string& value) {
  try {
    Scenario s;
    s.set_path(path, value);
    s.validate();
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

TEST(Scenario, DiagnosticsCarryLineNumbers) {
  EXPECT_NE(diagnostic_of("[scenario]\nnodes = twelve\n")
                .find("scenario line 2"),
            std::string::npos);
  EXPECT_NE(diagnostic_of("[scenario]\nnodes = twelve\n").find("integer"),
            std::string::npos);
  EXPECT_NE(diagnostic_of("[nope]\n").find("scenario line 1"),
            std::string::npos);
  EXPECT_NE(diagnostic_of("[nope]\n").find("unknown section"),
            std::string::npos);
  EXPECT_NE(diagnostic_of("nodes = 4\n").find("before any [section]"),
            std::string::npos);
  EXPECT_NE(diagnostic_of("[scenario]\n\n\nbogus-key = 1\n")
                .find("scenario line 4"),
            std::string::npos);
  EXPECT_NE(diagnostic_of("[scenario]\njust words\n")
                .find("expected 'key = value'"),
            std::string::npos);
  EXPECT_NE(diagnostic_of("[streams]\nsubscription-fraction = 1.5\n")
                .find("fraction in [0, 1]"),
            std::string::npos);
  // A misspelt protocol is named at its line, not after the whole file.
  const std::string protocol =
      diagnostic_of("[scenario]\nnodes = 64\nprotocol = brsia\n");
  EXPECT_NE(protocol.find("scenario line 3"), std::string::npos) << protocol;
  EXPECT_NE(protocol.find("protocol must be"), std::string::npos) << protocol;
}

TEST(Scenario, SemanticValidation) {
  EXPECT_NE(diagnostic_of("[scenario]\nprotocol = carrier-pigeon\n")
                .find("protocol must be"),
            std::string::npos);
  EXPECT_NE(diagnostic_of("[topology]\nmodel = torus\n")
                .find("topology model"),
            std::string::npos);
  EXPECT_NE(diagnostic_of("[overlay]\nmode = forest\n").find("tree|dag"),
            std::string::npos);
  EXPECT_NE(diagnostic_of("[topology]\ninter-rtt-min-ms = 90\n"
                          "inter-rtt-max-ms = 10\n")
                .find("exceeds"),
            std::string::npos);
}

TEST(Scenario, RejectsValuesThatWouldAbortOrEmptyARun) {
  // Each of these used to reach a runtime assertion (SIGABRT) or run with
  // nothing measured; validate() must name the key instead.
  struct Case {
    std::vector<std::pair<std::string, std::string>> set;
    std::string expected;
  };
  const Case cases[] = {
      {{{"scenario.nodes", "0"}}, "scenario nodes"},
      {{{"scenario.nodes", "1"}}, "scenario nodes"},
      {{{"scenario.nodes", "2"}, {"streams.count", "4"}},
       "exceeds scenario nodes"},
      {{{"streams.rate-per-s", "0"}}, "streams rate-per-s"},
      {{{"streams.rate-per-s", "-1"}}, "streams rate-per-s"},
      {{{"overlay.active-view", "0"}}, "overlay active-view"},
      {{{"overlay.passive-view", "0"}}, "overlay passive-view"},
      {{{"overlay.expansion-factor", "0"}}, "overlay expansion-factor"},
      {{{"run.join-spread-s", "-3"}}, "run join-spread-s"},
      {{{"run.stabilization-s", "-1"}}, "run stabilization-s"},
      {{{"run.grace-s", "-5"}}, "run grace-s"},
      {{{"topology.intra-rtt-ms", "-1"}}, "topology intra-rtt-ms"},
      {{{"topology.inter-rtt-min-ms", "-1"}}, "topology inter-rtt-min-ms"},
      {{{"topology.inter-rtt-max-ms", "-1"}}, "topology inter-rtt-max-ms"},
      {{{"topology.jitter-ms", "-1"}}, "topology jitter-ms"},
      {{{"topology.intra-rack-us", "-5"}}, "topology intra-rack-us"},
      {{{"topology.intra-pod-us", "-5"}}, "topology intra-pod-us"},
      {{{"topology.inter-pod-us", "-5"}}, "topology inter-pod-us"},
      {{{"topology.jitter-us", "-5"}}, "topology jitter-us"},
  };
  for (const Case& c : cases) {
    Scenario s;
    for (const auto& [key, value] : c.set) s.set_path(key, value);
    std::string diagnostic;
    try {
      s.validate();
    } catch (const std::invalid_argument& e) {
      diagnostic = e.what();
    }
    EXPECT_NE(diagnostic.find(c.expected), std::string::npos)
        << c.set.front().first << "=" << c.set.front().second << " -> '"
        << diagnostic << "'";
  }
  // The boundary values stay legal.
  Scenario ok;
  ok.set_path("scenario.nodes", "2")
      .set_path("streams.count", "2")
      .set_path("run.grace-s", "0")
      .set_path("topology.intra-rtt-ms", "0")
      .set_path("overlay.expansion-factor", "1");
  EXPECT_NO_THROW(ok.validate());
}

TEST(Scenario, RemovedQueueKeyIsRejectedNotIgnored) {
  // [run] queue used to pick heap|calendar. The heap is now the only
  // pending-event set, so a scenario naming the key must be told, at its
  // line, rather than run as if the choice had been honored.
  for (const std::string value : {"heap", "calendar", "bogus"}) {
    const std::string diagnostic = diagnostic_of(
        "[scenario]\nname = old\n[run]\nshards = 2\nqueue = " + value +
        "\n");
    EXPECT_NE(diagnostic.find("scenario line 5"), std::string::npos)
        << diagnostic;
    EXPECT_NE(diagnostic.find("only pending-event set"), std::string::npos)
        << diagnostic;
  }
  Scenario s;
  EXPECT_THROW(s.set_path("run.queue", "heap"), std::invalid_argument);
  EXPECT_EQ(s.set_keys().count("run.queue"), 0u);
  EXPECT_EQ(s.to_text().find("queue"), std::string::npos);
}

TEST(Scenario, WarmupMessagesIsRefusedAtItsLine) {
  // No report ever read [run] warmup-messages; a scenario setting it would
  // pass --check and run as if the value had been honored.
  const std::string diagnostic =
      diagnostic_of("[scenario]\nname = old\n[run]\nwarmup-messages = 5\n");
  EXPECT_NE(diagnostic.find("scenario line 4"), std::string::npos)
      << diagnostic;
  EXPECT_NE(diagnostic.find("unknown key 'warmup-messages'"),
            std::string::npos)
      << diagnostic;
}

/// Runs `brisa_run <args>` and returns {exit status, stdout + stderr}.
std::pair<int, std::string> run_brisa(const std::string& args) {
  const std::string command =
      std::string(BRISA_BINARY_DIR "/brisa_run ") + args + " 2>&1";
  std::string out;
  FILE* pipe = ::popen(command.c_str(), "r");
  if (pipe == nullptr) return {-1, out};
  char buffer[512];
  std::size_t n = 0;
  while ((n = std::fread(buffer, 1, sizeof buffer, pipe)) > 0) {
    out.append(buffer, n);
  }
  return {::pclose(pipe), out};
}

TEST(Scenario, RemovedQueueKeyIsRejectedOnTheCommandLine) {
  const auto [status, out] =
      run_brisa("--check " BRISA_SOURCE_DIR
                "/scenarios/fig02_flood_duplicates.scn "
                "--set run.queue=calendar");
  EXPECT_NE(status, 0) << out;
  EXPECT_NE(out.find("--set run.queue=calendar"), std::string::npos) << out;
  EXPECT_NE(out.find("only pending-event set"), std::string::npos) << out;
}

TEST(Scenario, AbortingValueIsAUsageErrorOnTheCommandLine) {
  // Without --check: the run itself must refuse (exit 2), not abort (134).
  const auto [status, out] =
      run_brisa("--set scenario.nodes=40 --set streams.messages=5 "
                "--set overlay.active-view=0 " BRISA_SOURCE_DIR
                "/scenarios/clustered_wan_feed.scn");
  ASSERT_TRUE(WIFEXITED(status)) << out;
  EXPECT_EQ(WEXITSTATUS(status), 2) << out;
  EXPECT_NE(out.find("overlay active-view"), std::string::npos) << out;
}

TEST(Scenario, ValidateFailuresNameTheSetOverride) {
  // A value that passes the parser but fails its row check in validate()
  // carries the override as its origin, the way a file line does.
  const std::string file = BRISA_SOURCE_DIR "/scenarios/clustered_wan_feed.scn";
  {
    const auto [status, out] = run_brisa(
        "--check --set scenario.nodes=40 --set overlay.active-view=0 " + file);
    EXPECT_NE(status, 0) << out;
    EXPECT_NE(out.find("error: --set overlay.active-view=0: overlay "
                       "active-view must be >= 1, got 0"),
              std::string::npos)
        << out;
  }
  {
    const auto [status, out] =
        run_brisa("--check --set scenario.protocol=brsia " + file);
    EXPECT_NE(status, 0) << out;
    EXPECT_NE(out.find("error: --set scenario.protocol=brsia: scenario "
                       "protocol must be"),
              std::string::npos)
        << out;
  }
  {
    // A [sweep] axis value is named by its override too.
    const auto [status, out] =
        run_brisa("--check --set sweep.limits.eviction=oldest " BRISA_SOURCE_DIR
                  "/scenarios/buffer_tradeoff.scn");
    EXPECT_NE(status, 0) << out;
    EXPECT_NE(out.find("error: --set sweep.limits.eviction=oldest: sweep: "
                       "axis 'limits.eviction'"),
              std::string::npos)
        << out;
  }
  // The same through the API: an origin per key.
  Scenario s;
  s.set_path("overlay.active-view", "0");
  const Scenario::KeyOrigins origins = {
      {"overlay.active-view", "--set overlay.active-view=0"}};
  try {
    s.validate(&origins);
    ADD_FAILURE() << "active-view 0 validated";
  } catch (const std::invalid_argument& e) {
    EXPECT_EQ(std::string(e.what()),
              "--set overlay.active-view=0: overlay active-view must be >= 1, "
              "got 0");
  }
}

TEST(Scenario, RoundNumbersPrintWithoutExponents) {
  Scenario s;
  s.set("topology", "inter-rtt-min-ms", "20")
      .set("topology", "inter-rtt-max-ms", "160");
  EXPECT_EQ(s.set_keys().at("topology.inter-rtt-min-ms"), "20");
  EXPECT_EQ(s.set_keys().at("topology.inter-rtt-max-ms"), "160");
  // Shortest round-trip text; an exponent only where %g would use one.
  for (const std::string text :
       {"0", "0.1", "2.5", "0.0001", "100000", "123456789", "1e-05", "1e-06",
        "1e+20", "0.30000000000000004"}) {
    Scenario v;
    v.set("run", "grace-s", text);
    EXPECT_EQ(v.set_keys().at("run.grace-s"), text);
    EXPECT_EQ(Scenario::parse(v.to_text()), v) << text;
  }
  const auto [status, out] = run_brisa(
      "--print " BRISA_SOURCE_DIR "/scenarios/clustered_wan_feed.scn");
  EXPECT_EQ(status, 0) << out;
  EXPECT_NE(out.find("inter-rtt-min-ms = 20\n"), std::string::npos) << out;
  EXPECT_NE(out.find("inter-rtt-max-ms = 160\n"), std::string::npos) << out;
  EXPECT_EQ(out.find("e+0"), std::string::npos) << out;
}

TEST(Scenario, SweepJobsKnobIsCheckedNotRejected) {
  struct Case {
    std::string jobs;
    bool ok;
  };
  const std::string path = ::testing::TempDir() + "scenario_test_jobs.scn";
  for (const Case& c : {Case{"2", true}, Case{"auto", true},
                        Case{"0", false}, Case{"x", false}}) {
    SCOPED_TRACE("jobs = " + c.jobs);
    {
      std::FILE* file = std::fopen(path.c_str(), "w");
      ASSERT_NE(file, nullptr);
      std::fprintf(file, "[scenario]\nname = j\n[sweep]\njobs = %s\n"
                         "seeds = 1, 2\n",
                   c.jobs.c_str());
      std::fclose(file);
    }
    const auto [status, out] = run_brisa("--check " + path);
    if (c.ok) {
      EXPECT_EQ(status, 0) << out;
      EXPECT_NE(out.find("OK " + path + " (report run, sweep 2 cells)"),
                std::string::npos)
          << out;
    } else {
      EXPECT_NE(status, 0) << out;
      // Anchored at the knob's own line, like every sweep entry error.
      EXPECT_NE(out.find(path + ": scenario line 4: sweep: jobs expects a "
                                "positive integer or 'auto', got '" +
                         c.jobs + "'"),
                std::string::npos)
          << out;
    }
  }
  std::remove(path.c_str());
}

TEST(Scenario, ChurnDslErrorsAnchorAtTheSection) {
  const std::string diagnostic = diagnostic_of(
      "[scenario]\n"
      "name = bad-churn\n"
      "[churn]\n"
      "at twelve s stop\n");
  EXPECT_NE(diagnostic.find("scenario line 3"), std::string::npos)
      << diagnostic;
  EXPECT_NE(diagnostic.find("churn"), std::string::npos) << diagnostic;
}

TEST(Scenario, ChurnSectionKeepsItsOwnComments) {
  // '#' inside [churn] belongs to the DSL (which strips it itself); the
  // scenario parser must not corrupt statements containing '%'.
  const Scenario s = Scenario::parse(
      "[churn]\n"
      "# trace comment\n"
      "from 0 s to 9 s drop 12%\n"
      "at 60 s stop\n");
  EXPECT_EQ(s.churn_dsl, "from 0 s to 9 s drop 12%\nat 60 s stop\n");
}

TEST(Scenario, BuilderRejectsUnknownKeys) {
  Scenario s;
  EXPECT_THROW(s.set("scenario", "nodez", "12"), std::invalid_argument);
  EXPECT_THROW(s.set("nope", "nodes", "12"), std::invalid_argument);
  EXPECT_THROW(s.set_path("no-dot", "1"), std::invalid_argument);
  s.set_path("scenario.nodes", "64");
  EXPECT_EQ(s.nodes_or(0), 64u);
}

TEST(Scenario, SeedIsAnUnsigned64BitIntegerThatRoundTrips) {
  // The largest seed prints and re-parses to itself.
  Scenario s;
  s.set_path("scenario.seed", "18446744073709551615");
  EXPECT_EQ(s.set_keys().at("scenario.seed"), "18446744073709551615");
  EXPECT_EQ(Scenario::parse(s.to_text()), s);
  // A sign is refused rather than wrapped to 2^64 - 1 (which --print would
  // then write as a seed --check could not read back).
  EXPECT_EQ(builder_diagnostic("scenario.seed", "-1"),
            "key 'seed' must be non-negative, got '-1'");
  EXPECT_EQ(diagnostic_of("[scenario]\nseed = -1\n"),
            "scenario line 2: key 'seed' must be non-negative, got '-1'");
  EXPECT_NE(diagnostic_of("[scenario]\nseed = 18446744073709551616\n")
                .find("expects an integer"),
            std::string::npos);
}

TEST(Scenario, ShardsAreBoundedBeforeNarrowing) {
  // Both values used to wrap in the 32-bit field (to 1 and 0) before the
  // 1..63 check ran.
  for (const std::string value : {"4294967297", "4294967296"}) {
    EXPECT_EQ(builder_diagnostic("run.shards", value),
              "run shards must be in 1..63, got " + value);
    EXPECT_EQ(diagnostic_of("[run]\nshards = " + value + "\n"),
              "scenario line 2: run shards must be in 1..63, got " + value);
  }
}

TEST(Scenario, PerKeyFailuresFromFilesNameTheLine) {
  EXPECT_EQ(diagnostic_of("[scenario]\nname = x\nnodes = 1\n"),
            "scenario line 3: scenario nodes must be >= 2, got 1");
  EXPECT_EQ(diagnostic_of("[overlay]\nprune = true\nmode = forest\n"),
            "scenario line 3: overlay mode must be tree|dag, got 'forest'");
  EXPECT_EQ(diagnostic_of("[scenario]\nnodes = 64\n\n[run]\nshards = 99\n"),
            "scenario line 5: run shards must be in 1..63, got 99");
  EXPECT_EQ(diagnostic_of("[topology]\nws-k = 3\n"),
            "scenario line 2: topology ws-k must be an even integer, got 3");
  // The builder reports the same text, without a line.
  EXPECT_EQ(builder_diagnostic("scenario.nodes", "1"),
            "scenario nodes must be >= 2, got 1");
  // Cross-key rules have no single line and stay unanchored.
  EXPECT_EQ(diagnostic_of("[scenario]\nnodes = 2\n[streams]\ncount = 4\n"),
            "streams count 4 exceeds scenario nodes 2 (each stream needs its "
            "own source)");
  // From a file on disk, through brisa_run.
  const std::string path = ::testing::TempDir() + "scenario_test_line.scn";
  {
    std::FILE* file = std::fopen(path.c_str(), "w");
    ASSERT_NE(file, nullptr);
    std::fputs("[scenario]\nnodes = 1\n", file);
    std::fclose(file);
  }
  const auto [status, out] = run_brisa("--check " + path);
  EXPECT_NE(status, 0) << out;
  EXPECT_NE(out.find(path + ": scenario line 2: scenario nodes must be >= 2, "
                            "got 1"),
            std::string::npos)
      << out;
  std::remove(path.c_str());
}

// --- The key table ----------------------------------------------------------

using Type = workload::ScenarioKey::Type;

bool numeric(Type type) {
  return type != Type::kString && type != Type::kEnum && type != Type::kBool;
}

std::string number_text(double value) {
  char buffer[32];
  std::snprintf(buffer, sizeof buffer, "%g", value);
  return buffer;
}

/// A value every row accepts, already in canonical form.
std::string in_range(const workload::ScenarioKey& row) {
  if (row.type == Type::kBool) return "true";
  if (row.type == Type::kString) return "x";
  if (row.type == Type::kEnum) {
    return std::string(row.rule).substr(0, std::string(row.rule).find('|'));
  }
  const auto& b = row.bounds;
  if (!std::isfinite(b.min)) return "3";
  if (!b.open) return number_text(b.min);
  return number_text(std::isfinite(b.max) ? (b.min + b.max) / 2 : b.min + 1);
}

std::string dotted(const workload::ScenarioKey& row) {
  return std::string(row.section) + "." + row.key;
}

TEST(ScenarioKeys, EveryRowRoundTripsAndRejectsValuesOutsideItsBounds) {
  std::size_t bounded = 0;
  for (const workload::ScenarioKey& row : workload::scenario_keys()) {
    SCOPED_TRACE(dotted(row));
    const std::string value = in_range(row);
    Scenario s;
    s.set_path(dotted(row), value);
    EXPECT_NO_THROW(s.validate());
    EXPECT_EQ(s.set_keys().at(dotted(row)), value);
    const std::string text = s.to_text();
    const Scenario reparsed = Scenario::parse(text);
    EXPECT_EQ(reparsed, s);
    EXPECT_EQ(reparsed.to_text(), text);

    const std::string names = std::string(row.section) + " " + row.key;
    std::vector<std::string> outside;
    if (numeric(row.type)) {
      const auto& b = row.bounds;
      // Just outside: the excluded end itself, or one past the included end.
      if (std::isfinite(b.min)) {
        outside.push_back(number_text(b.open ? b.min : b.min - 1));
      }
      if (std::isfinite(b.max)) {
        outside.push_back(number_text(b.open ? b.max : b.max + 1));
      }
      // An unbounded side still takes finite values only.
      if (row.type == Type::kDouble || row.type == Type::kFraction) {
        outside.push_back("inf");
      }
    } else if (row.type == Type::kEnum) {
      outside.push_back("bogus");
    }
    bounded += outside.empty() ? 0 : 1;
    for (const std::string& bad : outside) {
      const std::string built = builder_diagnostic(dotted(row), bad);
      EXPECT_EQ(built.rfind(names + " must be ", 0), 0u) << bad << ": "
                                                         << built;
      const std::string diagnostic = diagnostic_of(
          "[" + std::string(row.section) + "]\n" + row.key + " = " + bad +
          "\n");
      EXPECT_EQ(diagnostic.rfind("scenario line 2: " + names + " must be ", 0),
                0u)
          << diagnostic;
    }
  }
  EXPECT_EQ(workload::scenario_keys().size(), 54u);
  EXPECT_GT(bounded, 30u);
}

TEST(ScenarioKeys, EveryCheckedInScenarioRoundTrips) {
  std::size_t files = 0;
  for (const auto& entry : std::filesystem::directory_iterator(
           std::string(BRISA_SOURCE_DIR) + "/scenarios")) {
    if (entry.path().extension() != ".scn") continue;
    SCOPED_TRACE(entry.path().string());
    const Scenario s = Scenario::load(entry.path().string());
    EXPECT_EQ(Scenario::parse(s.to_text()), s);
    ++files;
  }
  EXPECT_GT(files, 20u);
}

TEST(ScenarioKeys, EveryRowIsDocumentedInItsSection) {
  // Each key must appear as `key` inside the "### `[section]`" block of
  // docs/scenarios.md, so the reference cannot drift from the table.
  std::ifstream in(std::string(BRISA_SOURCE_DIR) + "/docs/scenarios.md");
  ASSERT_TRUE(in);
  std::map<std::string, std::string> blocks;
  std::string line;
  std::string section;
  while (std::getline(in, line)) {
    if (line.rfind("## ", 0) == 0 || line.rfind("### ", 0) == 0) {
      section.clear();
      if (line.rfind("### `[", 0) == 0) {
        section = line.substr(6, line.find("]`") - 6);
      }
      continue;
    }
    if (!section.empty()) blocks[section] += line + "\n";
  }
  for (const workload::ScenarioKey& row : workload::scenario_keys()) {
    EXPECT_NE(blocks[row.section].find("`" + std::string(row.key) + "`"),
              std::string::npos)
        << dotted(row) << " is missing from docs/scenarios.md";
    EXPECT_NE(std::string(row.doc), "") << dotted(row);
  }
}

// --- Materialization --------------------------------------------------------

TEST(Scenario, MaterializesBrisaConfig) {
  const Scenario s = Scenario::parse(
      "[scenario]\nnodes = 200\nseed = 5\n"
      "[overlay]\nactive-view = 8\nmode = dag\nparents = 2\nprune = true\n"
      "[streams]\ncount = 4\n");
  const workload::BrisaSystem::Config config = workload::scenario_brisa_config(s);
  EXPECT_EQ(config.num_nodes, 200u);
  EXPECT_EQ(config.seed, 5u);
  EXPECT_EQ(config.hyparview.active_size, 8u);
  EXPECT_EQ(config.hyparview.passive_size, 48u);  // active * 6 by default
  EXPECT_EQ(config.brisa.mode, core::StructureMode::kDag);
  EXPECT_EQ(config.brisa.num_parents, 2u);
  EXPECT_EQ(config.num_streams, 4u);
  EXPECT_EQ(config.testbed, workload::TestbedKind::kCluster);
  EXPECT_FALSE(config.topology.has_value());
}

TEST(Scenario, MaterializesTopologyOverride) {
  const Scenario s = Scenario::parse(
      "[topology]\nmodel = clustered-wan\nclusters = 3\n");
  const auto topology = workload::scenario_topology(s);
  ASSERT_TRUE(topology.has_value());
  ASSERT_TRUE(topology->latency);
  const auto model = topology->latency();
  EXPECT_STREQ(model->name(), "clustered-wan");
  // The plain testbeds need no override.
  EXPECT_FALSE(workload::scenario_topology(
                   Scenario::parse("[topology]\nmodel = planetlab\n"))
                   .has_value());
}

// --- The scenario-selectable latency models ---------------------------------

TEST(ClusteredWanLatency, TwoTiersAndDeterminism) {
  net::ClusteredWanLatencyModel::Config config;
  config.clusters = 4;
  net::ClusteredWanLatencyModel model(config);
  // Find an intra-cluster and an inter-cluster pair.
  bool saw_intra = false, saw_inter = false;
  for (std::uint32_t i = 1; i < 64 && !(saw_intra && saw_inter); ++i) {
    const net::NodeId a(0), b(i);
    const sim::Duration base = model.base(a, b);
    EXPECT_EQ(base, model.base(a, b));  // deterministic
    EXPECT_EQ(base, model.base(b, a));  // symmetric
    if (model.cluster_of(a) == model.cluster_of(b)) {
      saw_intra = true;
      EXPECT_EQ(base, sim::Duration::microseconds(1000));
    } else {
      saw_inter = true;
      EXPECT_GE(base, sim::Duration::microseconds(20000));
      EXPECT_LE(base, sim::Duration::microseconds(160000));
    }
  }
  EXPECT_TRUE(saw_intra);
  EXPECT_TRUE(saw_inter);
  // Jitter only ever adds.
  sim::CounterRng rng(7);
  for (int i = 0; i < 16; ++i) {
    EXPECT_GE(model.sample(net::NodeId(0), net::NodeId(1), rng),
              model.base(net::NodeId(0), net::NodeId(1)));
  }
}

TEST(FatTreeLatency, TierOrdering) {
  net::FatTreeLatencyModel::Config config;
  config.hosts_per_rack = 4;
  config.racks_per_pod = 2;  // pod = 8 hosts
  net::FatTreeLatencyModel model(config);
  const net::NodeId host(0);
  const sim::Duration same_rack = model.base(host, net::NodeId(1));
  const sim::Duration same_pod = model.base(host, net::NodeId(5));
  const sim::Duration cross_pod = model.base(host, net::NodeId(9));
  EXPECT_LT(same_rack, same_pod);
  EXPECT_LT(same_pod, cross_pod);
  EXPECT_EQ(same_rack, sim::Duration::microseconds(30));
  EXPECT_EQ(same_pod, sim::Duration::microseconds(120));
  EXPECT_EQ(cross_pod, sim::Duration::microseconds(300));
}

// --- The fig02 golden -------------------------------------------------------

/// Every figure scenario checked into scenarios/ must describe exactly the
/// registry's default scenario for its report — otherwise the file stops
/// documenting what the report runs.
TEST(ScenarioGolden, CheckedInFilesMatchReportDefaults) {
  for (const reports::Report& report : reports::all()) {
    if (report.name == "run") continue;
    const std::string path =
        std::string(BRISA_SOURCE_DIR) + "/scenarios/" + report.name + ".scn";
    const Scenario from_file = Scenario::load(path);
    const Scenario defaults = report.defaults();
    EXPECT_EQ(from_file, defaults) << "drift between " << path
                                   << " and the " << report.name
                                   << " report defaults";
  }
}

/// The buffer grid is rectangular: 5 entry bounds x 1 byte bound x 2
/// policies x 4 protocols, the unbounded delivered-first cells included.
TEST(ScenarioGolden, BufferTradeoffGridIsFortyCells) {
  const auto [status, out] =
      run_brisa("--check " BRISA_SOURCE_DIR "/scenarios/buffer_tradeoff.scn");
  EXPECT_EQ(status, 0) << out;
  EXPECT_NE(out.find("(report buffer_tradeoff, sweep 40 cells)"),
            std::string::npos)
      << out;
}

/// A figure report must refuse scenario keys outside its surface instead of
/// silently running its pinned configuration.
TEST(ScenarioGolden, FigureReportsRejectUnconsumedKeys) {
  const reports::Report* fig02 = reports::find("fig02_flood_duplicates");
  ASSERT_NE(fig02, nullptr);
  EXPECT_EQ(reports::scenario_key_error(fig02->defaults(), *fig02), "");

  Scenario pinned = fig02->defaults();
  pinned.set("overlay", "prune", "true");  // the figure pins prune = false
  EXPECT_NE(reports::scenario_key_error(pinned, *fig02), "");

  Scenario unconsumed = fig02->defaults();
  unconsumed.set("streams", "count", "4");  // fig02 is single-stream
  EXPECT_NE(reports::scenario_key_error(unconsumed, *fig02), "");

  Scenario typo = fig02->defaults();
  typo.set("params", "viewz", "4");
  EXPECT_NE(reports::scenario_key_error(typo, *fig02), "");

  // The generic runner accepts everything.
  EXPECT_EQ(reports::scenario_key_error(typo, *reports::find("run")), "");

  // Inputs that used to run silently as something else (exit 0): each one
  // now stops brisa_run with a diagnostic, at its line when it comes from
  // a file.
  struct BadInput {
    std::string report;
    std::string body;  ///< .scn text after the [scenario] header lines
    std::string line;  ///< expected "scenario line N"
    std::string what;  ///< expected diagnostic fragment
  };
  const std::vector<BadInput> files = {
      {"fault_recovery", "protocol = brsia\n", "scenario line 3",
       "protocol must be"},
      {"fault_recovery", "protocol = tag\n", "scenario line 3",
       "brisa|gossip|tree"},
      {"fault_recovery", "[params]\nregime = loss_abc\n", "scenario line 4",
       "got 'loss_abc'"},
      {"fault_recovery", "[params]\nregime = loss_150\n", "scenario line 4",
       "got 'loss_150'"},
      {"fault_recovery", "[params]\nregime = partition_xs\n",
       "scenario line 4", "got 'partition_xs'"},
      {"fault_recovery", "[sweep]\nprotocol = brisa\nparam.regime = loss_0, "
       "loss_05\n", "scenario line 5", "got 'loss_05'"},
      {"fault_recovery", "[sweep]\nparam.regimes = loss_0\n",
       "scenario line 4", "does not consume"},
      {"scale_sweep", "[params]\nvariant = faultd\n", "scenario line 4",
       "variant must be clean|faulted"},
      {"scale_sweep", "[sweep]\nparam.variant = clean, faultd\n",
       "scenario line 4", "variant must be clean|faulted"},
      {"scale_sweep", "[params]\nquick = true\n", "scenario line 4",
       "not consumed"},
      {"scale_sweep", "[params]\nsizes = 1000,10000\n", "scenario line 4",
       "not consumed"},
      {"buffer_tradeoff", "[params]\nprotocols = brsia\n", "scenario line 4",
       "not consumed"},
      {"buffer_tradeoff", "[params]\npolicies = oldest\n", "scenario line 4",
       "not consumed"},
      {"buffer_tradeoff",
       "[sweep]\nprotocol = brisa\nlimits.eviction = oldest-first, oldest\n",
       "scenario line 5", "axis 'limits.eviction'"},
  };
  for (const BadInput& input : files) {
    const std::string path = ::testing::TempDir() + "scenario_test_bad_" +
                             std::to_string(&input - files.data()) + ".scn";
    {
      std::FILE* file = std::fopen(path.c_str(), "w");
      ASSERT_NE(file, nullptr);
      std::fprintf(file, "[scenario]\nreport = %s\n%s",
                   input.report.c_str(), input.body.c_str());
      std::fclose(file);
    }
    const auto [status, out] = run_brisa("--check " + path);
    EXPECT_NE(status, 0) << input.body << out;
    EXPECT_NE(out.find(input.line), std::string::npos) << input.body << out;
    EXPECT_NE(out.find(input.what), std::string::npos) << input.body << out;
    std::remove(path.c_str());
  }
  // The removed params of the three sweep reports, as they used to be
  // given on the command line.
  const std::string fault_recovery =
      BRISA_SOURCE_DIR "/scenarios/fault_recovery.scn";
  const std::string scale_sweep = BRISA_SOURCE_DIR "/scenarios/scale_sweep.scn";
  const std::string buffer_tradeoff =
      BRISA_SOURCE_DIR "/scenarios/buffer_tradeoff.scn";
  for (const std::string& args :
       {"--set params.protocols=brsia " + fault_recovery,
        "--set params.regimes=loss_abc " + fault_recovery,
        "--set params.regime=loss_abc " + fault_recovery,
        "--set sweep.param.regime=loss_0,partition_xs " + fault_recovery,
        "--set params.variants=faultd " + scale_sweep,
        "--set params.protocols=gosip " + scale_sweep,
        "--set params.quick=true " + scale_sweep,
        "--set params.sizes=1000 " + scale_sweep,
        "--set params.fault-variant=false " + scale_sweep,
        "--set params.baseline-cap=100000 " + scale_sweep,
        "--set params.protocols=brsia " + buffer_tradeoff,
        "--set params.protocols=brisa,,tag " + buffer_tradeoff,
        "--set params.policies=oldest " + buffer_tradeoff,
        "--set params.entries=0,8 " + buffer_tradeoff,
        "--set params.quick=true " + buffer_tradeoff,
        "--set params.bloom=true " + buffer_tradeoff,
        "--set params.faults=false " + buffer_tradeoff}) {
    const auto [status, out] = run_brisa("--check " + args);
    EXPECT_NE(status, 0) << args << "\n" << out;
    EXPECT_NE(out.find("error:"), std::string::npos) << args << "\n" << out;
  }
}

/// The checked-in fig02 scenario reproduces the fig02 report output byte for
/// byte, and that output equals the recorded tests/data/fig02_48x20.txt.
/// Scaled-down overrides (applied identically to both runs) keep the test
/// fast; the parameters that remain — payload, prune, view list semantics —
/// all come from the file.
TEST(ScenarioGolden, Fig02ScenarioFileReproducesReportOutput) {
  const reports::Report* report = reports::find("fig02_flood_duplicates");
  ASSERT_NE(report, nullptr);
  const auto shrink = [](Scenario s) {
    s.set("scenario", "nodes", "48")
        .set("streams", "messages", "20")
        .set("params", "views", "4");
    return s;
  };

  Scenario from_file = shrink(Scenario::load(
      std::string(BRISA_SOURCE_DIR) + "/scenarios/fig02_flood_duplicates.scn"));
  testing::internal::CaptureStdout();
  ASSERT_EQ(report->run(from_file), 0);
  const std::string file_output = testing::internal::GetCapturedStdout();

  Scenario from_defaults = shrink(report->defaults());
  testing::internal::CaptureStdout();
  ASSERT_EQ(report->run(from_defaults), 0);
  const std::string defaults_output = testing::internal::GetCapturedStdout();

  EXPECT_NE(file_output.find("=== Fig 2"), std::string::npos);
  EXPECT_NE(file_output.find("paper check"), std::string::npos);
  EXPECT_EQ(file_output, defaults_output);

  std::ifstream golden(std::string(BRISA_SOURCE_DIR) +
                       "/tests/data/fig02_48x20.txt");
  ASSERT_TRUE(golden);
  std::stringstream expected;
  expected << golden.rdbuf();
  EXPECT_EQ(file_output, expected.str());
}

/// A checked-in figure scenario at a reduced shape (the `--set` overrides
/// of CI's report smoke runs) and the output it must print.
struct ReportGolden {
  std::string scenario;  ///< scenarios/<scenario>.scn
  std::vector<std::pair<std::string, std::string>> overrides;
  std::string golden;  ///< tests/data/<golden>.txt
};

class ScenarioGolden : public testing::TestWithParam<ReportGolden> {};

/// Each figure report prints exactly its recorded output at the reduced
/// shape, so a change to how a report builds or measures its systems
/// shows up here as a diff.
TEST_P(ScenarioGolden, ReducedShapeMatchesRecordedOutput) {
  const ReportGolden& param = GetParam();
  Scenario scenario = Scenario::load(std::string(BRISA_SOURCE_DIR) +
                                     "/scenarios/" + param.scenario + ".scn");
  for (const auto& [path, value] : param.overrides) {
    scenario.set_path(path, value);
  }
  const reports::Report* report = reports::find(scenario.report_or(""));
  ASSERT_NE(report, nullptr) << param.scenario;
  ASSERT_EQ(reports::scenario_key_error(scenario, *report), "");
  testing::internal::CaptureStdout();
  ASSERT_EQ(report->run(scenario), 0);
  const std::string output = testing::internal::GetCapturedStdout();

  std::ifstream golden(std::string(BRISA_SOURCE_DIR) + "/tests/data/" +
                       param.golden + ".txt");
  ASSERT_TRUE(golden) << param.golden;
  std::stringstream expected;
  expected << golden.rdbuf();
  EXPECT_EQ(output, expected.str());
}

INSTANTIATE_TEST_SUITE_P(
    Reports, ScenarioGolden,
    testing::Values(
        ReportGolden{"ablation_strategies",
                     {{"scenario.nodes", "64"}, {"streams.messages", "20"}},
                     "ablation_64x20"},
        ReportGolden{"fig07_degree",
                     {{"scenario.nodes", "64"}, {"streams.messages", "20"}},
                     "fig07_64x20"},
        ReportGolden{"fig08_tree_shape", {{"scenario.nodes", "48"}},
                     "fig08_48"},
        ReportGolden{"fig09_routing_delay",
                     {{"scenario.nodes", "48"}, {"streams.messages", "30"}},
                     "fig09_48x30"},
        ReportGolden{"fig10_bandwidth_down",
                     {{"scenario.nodes", "64"},
                      {"streams.messages", "20"},
                      {"params.payloads", "1024"}},
                     "fig10_64x20"},
        ReportGolden{"fig11_bandwidth_up",
                     {{"scenario.nodes", "64"},
                      {"streams.messages", "20"},
                      {"params.payloads", "1024"}},
                     "fig11_64x20"},
        ReportGolden{"fig13_construction_time",
                     {{"params.cluster-nodes", "64"},
                      {"params.planetlab-nodes", "48"}},
                     "fig13_64_48"},
        ReportGolden{"tab1_churn",
                     {{"params.sizes", "48"}, {"params.churn-seconds", "60"}},
                     "tab1_48_churn60"}),
    [](const testing::TestParamInfo<ReportGolden>& info) {
      return info.param.golden;
    });

}  // namespace
}  // namespace brisa
