// Sweep-executor coverage: [sweep] grammar round-trips and line-numbered
// negative parses, grid expansion (row-major order, axis -> override
// mapping, seed ranges), and end-to-end executor runs through the built
// brisa_run binary — the merged stdout must be byte-identical for --jobs 1
// and --jobs 4 (including a deterministically failing cell), a timed-out
// cell is killed and retried exactly once, and SIGTERM to the scheduler
// leaves no orphaned workers. The fault_recovery and scale_sweep grids
// reproduce the rows of the serial reports they replaced, and the reports
// that build systems through make_system() reproduce their pinned rows.
#include "workload/sweep.h"

#include <gtest/gtest.h>
#include <signal.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "util/run_metadata.h"
#include "util/subprocess.h"
#include "workload/scenario.h"

namespace brisa {
namespace {

using workload::Scenario;
using workload::SweepCell;

constexpr const char kRunner[] = BRISA_BINARY_DIR "/brisa_run";

// --- Grammar ----------------------------------------------------------------

TEST(SweepGrammar, RoundTripsThroughText) {
  const Scenario s = Scenario::parse(
      "[scenario]\n"
      "nodes = 100\n"
      "[churn]\n"
      "from 0 s to 10 s drop 5%\n"
      "at 60 s stop\n"
      "[sweep]\n"
      "protocol = brisa, gossip\n"
      "seeds = 1..3\n"
      "faulted = false, true\n"
      "param.sizes = 10, 20\n"
      "cell-timeout-s = 120\n");
  ASSERT_TRUE(s.has_sweep());
  EXPECT_EQ(s.sweep.size(), 5u);
  const Scenario reparsed = Scenario::parse(s.to_text());
  EXPECT_EQ(s, reparsed);
}

TEST(SweepGrammar, SetPathReplacesAxis) {
  Scenario s = Scenario::parse(
      "[scenario]\nnodes = 10\n[sweep]\nseeds = 1..4\n");
  s.set_path("sweep.seeds", "7");
  ASSERT_EQ(s.sweep.size(), 1u);
  EXPECT_EQ(s.sweep[0].second, "7");
  EXPECT_EQ(workload::expand_sweep(s).size(), 1u);
}

TEST(SweepGrammar, RejectsUnknownKeyWithLineNumber) {
  try {
    (void)Scenario::parse("[scenario]\nnodes = 10\n[sweep]\nbogus = 1\n");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("scenario line 4"),
              std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("unknown sweep key 'bogus'"),
              std::string::npos)
        << e.what();
  }
}

TEST(SweepGrammar, RejectsDuplicateAxisWithLineNumber) {
  try {
    (void)Scenario::parse(
        "[scenario]\nnodes = 10\n[sweep]\nseeds = 1\nseeds = 2\n");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("scenario line 5"),
              std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("duplicate sweep key 'seeds'"),
              std::string::npos)
        << e.what();
  }
}

TEST(SweepGrammar, ValidateRejectsMalformedAxes) {
  const auto diagnostic = [](const std::string& sweep_body) {
    try {
      const Scenario s = Scenario::parse("[scenario]\nnodes = 10\n[sweep]\n" +
                                         sweep_body);
      s.validate();
      return std::string();
    } catch (const std::invalid_argument& e) {
      return std::string(e.what());
    }
  };
  EXPECT_NE(diagnostic("nodes = 10, frog\n").find("expects integers"),
            std::string::npos);
  EXPECT_NE(diagnostic("faulted = yes\n").find("expects true/false"),
            std::string::npos);
  EXPECT_NE(diagnostic("seeds = 5..1\n").find("malformed range"),
            std::string::npos);
  EXPECT_NE(diagnostic("protocol = brisa, smtp\n")
                .find("unknown protocol 'smtp'"),
            std::string::npos);
  // Axis diagnostics point at the [sweep] header (line 3 here).
  const std::string misspelt = diagnostic("protocol = brsia\n");
  EXPECT_NE(misspelt.find("scenario line 3: sweep: axis 'protocol'"),
            std::string::npos)
      << misspelt;
  EXPECT_NE(diagnostic("seeds = 1, 2, 1\n").find("repeats value '1'"),
            std::string::npos);
  EXPECT_NE(diagnostic("seeds = ,\n").find("has no values"),
            std::string::npos);
  // Faulted axis with true needs a churn trace to keep.
  EXPECT_NE(diagnostic("faulted = false, true\n").find("no [churn] trace"),
            std::string::npos);
  // A section with only the knob has nothing to expand.
  EXPECT_NE(diagnostic("cell-timeout-s = 5\n").find("at least one axis"),
            std::string::npos);
  EXPECT_NE(diagnostic("cell-timeout-s = soon\nseeds = 1\n")
                .find("cell-timeout-s"),
            std::string::npos);
}

// --- Expansion --------------------------------------------------------------

TEST(SweepExpansion, RowMajorOrderAndOverrides) {
  const Scenario s = Scenario::parse(
      "[scenario]\n"
      "nodes = 100\n"
      "[churn]\n"
      "from 0 s to 10 s drop 5%\n"
      "at 60 s stop\n"
      "[sweep]\n"
      "protocol = brisa, gossip\n"
      "faulted = true, false\n");
  const std::vector<SweepCell> cells = workload::expand_sweep(s);
  ASSERT_EQ(cells.size(), 4u);
  // First axis outermost, second spins fastest; values in written order.
  EXPECT_EQ(cells[0].label, "protocol=brisa faulted=true");
  EXPECT_EQ(cells[1].label, "protocol=brisa faulted=false");
  EXPECT_EQ(cells[2].label, "protocol=gossip faulted=true");
  EXPECT_EQ(cells[3].label, "protocol=gossip faulted=false");
  EXPECT_EQ(cells[3].index, 3u);
  EXPECT_EQ(cells[0].axes_json, "\"protocol\":\"brisa\",\"faulted\":true");
  // faulted=true keeps [churn] (no override); false clears it.
  ASSERT_EQ(cells[0].overrides.size(), 1u);
  EXPECT_EQ(cells[0].overrides[0].first, "scenario.protocol");
  ASSERT_EQ(cells[1].overrides.size(), 2u);
  EXPECT_EQ(cells[1].overrides[1].first, "churn.dsl");
  EXPECT_EQ(cells[1].overrides[1].second, "");
  // Applying a cell's overrides yields a valid single-run scenario.
  Scenario cell = s;
  cell.sweep.clear();
  for (const auto& [key, value] : cells[1].overrides) {
    cell.set_path(key, value);
  }
  EXPECT_NO_THROW(cell.validate());
  EXPECT_EQ(cell.protocol_or(""), "brisa");
  EXPECT_TRUE(cell.churn_dsl.empty());
}

TEST(SweepExpansion, SeedRangesAndParamAxes) {
  const Scenario s = Scenario::parse(
      "[scenario]\nnodes = 10\n[sweep]\n"
      "seeds = 1..3, 10\n"
      "param.sizes = 1000, 2000\n");
  const std::vector<SweepCell> cells = workload::expand_sweep(s);
  ASSERT_EQ(cells.size(), 8u);
  EXPECT_EQ(cells[0].label, "seed=1 sizes=1000");
  EXPECT_EQ(cells[7].label, "seed=10 sizes=2000");
  EXPECT_EQ(cells[0].axes_json, "\"seed\":1,\"sizes\":\"1000\"");
  EXPECT_EQ(cells[0].overrides[0].first, "scenario.seed");
  EXPECT_EQ(cells[0].overrides[1].first, "params.sizes");
}

TEST(SweepExpansion, CellTimeoutKnob) {
  const Scenario s = Scenario::parse(
      "[scenario]\nnodes = 10\n[sweep]\nseeds = 1\ncell-timeout-s = 2.5\n");
  EXPECT_DOUBLE_EQ(workload::sweep_cell_timeout_s(s), 2.5);
  const Scenario none =
      Scenario::parse("[scenario]\nnodes = 10\n[sweep]\nseeds = 1\n");
  EXPECT_DOUBLE_EQ(workload::sweep_cell_timeout_s(none), 0.0);
}

TEST(SweepExpansion, CheckedInGridsExpandClean) {
  for (const auto& [name, cells] :
       {std::pair<const char*, std::size_t>{"scale_sweep.scn", 24},
        {"fault_recovery.scn", 18},
        {"sweep_smoke.scn", 4}}) {
    const Scenario s = Scenario::load(std::string(BRISA_SOURCE_DIR) +
                                      "/scenarios/" + name);
    ASSERT_TRUE(s.has_sweep()) << name;
    EXPECT_EQ(workload::expand_sweep(s).size(), cells) << name;
  }
}

// --- Run metadata -----------------------------------------------------------

TEST(RunMetadata, EmitsTheProvenanceFields) {
  const std::string meta = util::run_metadata_json(8);
  EXPECT_EQ(meta.find("{\"meta\":\"run\",\"timestamp\":\""), 0u) << meta;
  EXPECT_NE(meta.find("\"hostname\":\""), std::string::npos);
  EXPECT_NE(meta.find("\"cpus\":"), std::string::npos);
  EXPECT_NE(meta.find("\"jobs\":8"), std::string::npos);
  EXPECT_NE(meta.find("\"git\":\""), std::string::npos);
  // jobs is omitted when not applicable (serial bench runs).
  EXPECT_EQ(util::run_metadata_json(0).find("\"jobs\""), std::string::npos);
}

// --- End-to-end through the built brisa_run ---------------------------------

struct CommandResult {
  int status = -1;
  std::string out;
};

CommandResult run_command(const std::string& command) {
  CommandResult result;
  FILE* pipe = ::popen(command.c_str(), "r");
  if (pipe == nullptr) return result;
  char buffer[4096];
  std::size_t n = 0;
  while ((n = std::fread(buffer, 1, sizeof buffer, pipe)) > 0) {
    result.out.append(buffer, n);
  }
  result.status = ::pclose(pipe);
  return result;
}

std::string write_temp_scenario(const char* tag, const std::string& text) {
  const std::string path = ::testing::TempDir() + "sweep_test_" + tag +
                           "_" + std::to_string(::getpid()) + ".scn";
  std::ofstream file(path);
  file << text;
  return path;
}

std::string read_file(const std::string& path) {
  std::ifstream file(path);
  std::stringstream buffer;
  buffer << file.rdbuf();
  return buffer.str();
}

TEST(SweepExecutor, MergedOutputIsByteIdenticalAcrossJobCounts) {
  // A 2x2 grid over the generic runner; the min-reliability=2 cells fail
  // deterministically (reliability can never exceed 1), so the golden
  // also covers non-zero worker exits.
  const std::string scn = write_temp_scenario(
      "golden",
      "[scenario]\n"
      "name = golden\n"
      "nodes = 32\n"
      "[streams]\n"
      "messages = 5\n"
      "payload = 64\n"
      "[run]\n"
      "join-spread-s = 5\n"
      "stabilization-s = 5\n"
      "grace-s = 10\n"
      "[sweep]\n"
      "seeds = 1..2\n"
      "param.min-reliability = 0, 2\n");
  const CommandResult serial = run_command(std::string(kRunner) +
                                           " --jobs 1 " + scn +
                                           " 2>/dev/null");
  const CommandResult wide = run_command(std::string(kRunner) + " --jobs 4 " +
                                         scn + " 2>/dev/null");
  // Both invocations report the failing cells...
  ASSERT_TRUE(WIFEXITED(serial.status));
  EXPECT_EQ(WEXITSTATUS(serial.status), 1);
  ASSERT_TRUE(WIFEXITED(wide.status));
  EXPECT_EQ(WEXITSTATUS(wide.status), 1);
  // ...and the merged stdout is byte-identical regardless of parallelism.
  EXPECT_FALSE(serial.out.empty());
  EXPECT_EQ(serial.out, wide.out);
  EXPECT_NE(serial.out.find("\"cell\":0,\"seed\":1,\"min-reliability\":"
                            "\"0\",\"exit\":0"),
            std::string::npos)
      << serial.out;
  EXPECT_NE(serial.out.find("\"min-reliability\":\"2\",\"exit\":1"),
            std::string::npos)
      << serial.out;
  std::remove(scn.c_str());
}

/// The JSON data rows of a report's stdout (human rows and sweep cell
/// headers dropped), with the wall-clock fields cut so rows compare exactly.
std::string data_rows(const std::string& merged) {
  std::istringstream in(merged);
  std::string rows;
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind('{', 0) != 0 || line.rfind("{\"cell\":", 0) == 0) {
      continue;
    }
    const std::size_t wall = line.find(",\"wall_seconds\":");
    if (wall != std::string::npos) line = line.substr(0, wall) + "}";
    rows += line + "\n";
  }
  return rows;
}

// The two sweep reports are single cells under a [sweep]; their merged rows
// must be the rows the serial reports printed when they looped over
// regimes/protocols/sizes themselves, and every report that builds its
// systems through make_system() must keep the rows it printed when each
// report built the four protocols itself (all checked in under tests/data).
TEST(SweepEquivalence, FaultRecoveryGridMatchesSerialRows) {
  const CommandResult result = run_command(
      std::string(kRunner) + " --jobs 2 --set scenario.nodes=32 " +
      "--set streams.messages=10 " BRISA_SOURCE_DIR
      "/scenarios/fault_recovery.scn 2>/dev/null");
  ASSERT_TRUE(WIFEXITED(result.status));
  EXPECT_EQ(WEXITSTATUS(result.status), 0);
  EXPECT_NE(result.out.find("{\"cell\":17,\"regime\":\"partition_30s\","
                            "\"protocol\":\"tree\",\"exit\":0}"),
            std::string::npos)
      << result.out;
  EXPECT_EQ(data_rows(result.out),
            read_file(BRISA_SOURCE_DIR
                      "/tests/data/fault_recovery_32x10.jsonl"));
}

TEST(SweepEquivalence, ScaleSweepCellsMatchSerialRows) {
  const CommandResult result = run_command(
      std::string(kRunner) + " --jobs 2 --set sweep.nodes=1000 " +
      BRISA_SOURCE_DIR "/scenarios/scale_sweep.scn 2>/dev/null");
  ASSERT_TRUE(WIFEXITED(result.status));
  EXPECT_EQ(WEXITSTATUS(result.status), 0);
  EXPECT_EQ(data_rows(result.out),
            read_file(BRISA_SOURCE_DIR "/tests/data/scale_sweep_1k.jsonl"));
}

// Four protocols x both eviction policies x an entries and a store-bytes
// bound, plus the unbounded controls.
TEST(SweepEquivalence, BufferTradeoffRowsMatchGolden) {
  const CommandResult result = run_command(
      std::string(kRunner) + " --set scenario.nodes=128 " +
      "--set streams.messages=20 --set params.entries=0,4 " +
      "--set params.store-bytes=0,512 " BRISA_SOURCE_DIR
      "/scenarios/buffer_tradeoff.scn 2>/dev/null");
  ASSERT_TRUE(WIFEXITED(result.status));
  EXPECT_EQ(WEXITSTATUS(result.status), 0);
  EXPECT_EQ(data_rows(result.out),
            read_file(BRISA_SOURCE_DIR
                      "/tests/data/buffer_tradeoff_128x20.jsonl"));
}

// The generic runner over all four protocols on a flat and a generated
// overlay, clean and faulted (the CI cut of the topology grid).
TEST(SweepEquivalence, GenericRunnerTopologyCutMatchesGolden) {
  const CommandResult result = run_command(
      std::string(kRunner) + " --jobs 2 --set scenario.nodes=96 " +
      "--set sweep.topology=random,barabasi-albert " +
      "--set sweep.protocol=brisa,gossip,tree,tag " BRISA_SOURCE_DIR
      "/scenarios/topology_phase_grid.scn 2>/dev/null");
  ASSERT_TRUE(WIFEXITED(result.status));
  EXPECT_EQ(WEXITSTATUS(result.status), 0);
  EXPECT_EQ(result.out,
            read_file(BRISA_SOURCE_DIR "/tests/data/topology_cut_96.jsonl"));
}

// The fixed paper line-ups, built through make_system() (fig12, tab2) or
// from per-cell scenario copies (fig14), keep the stdout they printed when
// each report built the four harnesses by hand.
TEST(SweepEquivalence, Fig12LineUpMatchesGolden) {
  const CommandResult result = run_command(
      std::string(kRunner) + " --set scenario.nodes=128 " +
      "--set streams.messages=60 --set params.payloads=0,10240 "
      BRISA_SOURCE_DIR "/scenarios/fig12_protocol_bandwidth.scn 2>/dev/null");
  ASSERT_TRUE(WIFEXITED(result.status));
  EXPECT_EQ(WEXITSTATUS(result.status), 0);
  EXPECT_EQ(result.out,
            read_file(BRISA_SOURCE_DIR "/tests/data/fig12_128x60.txt"));
}

TEST(SweepEquivalence, Tab2LineUpMatchesGolden) {
  const CommandResult result = run_command(
      std::string(kRunner) + " --set scenario.nodes=64 " +
      "--set streams.messages=40 " BRISA_SOURCE_DIR
      "/scenarios/tab2_latency.scn 2>/dev/null");
  ASSERT_TRUE(WIFEXITED(result.status));
  EXPECT_EQ(WEXITSTATUS(result.status), 0);
  EXPECT_EQ(result.out,
            read_file(BRISA_SOURCE_DIR "/tests/data/tab2_64x40.txt"));
}

TEST(SweepEquivalence, Fig14RecoveryMatchesGolden) {
  const CommandResult result = run_command(
      std::string(kRunner) + " --set scenario.nodes=96 " +
      "--set params.churn-seconds=180 " BRISA_SOURCE_DIR
      "/scenarios/fig14_recovery_delay.scn 2>/dev/null");
  ASSERT_TRUE(WIFEXITED(result.status));
  EXPECT_EQ(WEXITSTATUS(result.status), 0);
  EXPECT_EQ(result.out,
            read_file(BRISA_SOURCE_DIR "/tests/data/fig14_96_churn180.txt"));
}

// Total loss delivers nothing: the row must still be valid JSON, with zero
// (not NaN) latency percentiles.
TEST(SweepEquivalence, FaultRecoveryTotalLossRowHasNoNan) {
  const CommandResult result = run_command(
      std::string(kRunner) + " --set sweep.protocol=gossip " +
      "--set sweep.param.regime=loss_100 --set scenario.nodes=32 " +
      "--set streams.messages=5 " BRISA_SOURCE_DIR
      "/scenarios/fault_recovery.scn 2>/dev/null");
  ASSERT_TRUE(WIFEXITED(result.status));
  EXPECT_EQ(WEXITSTATUS(result.status), 0);
  EXPECT_NE(result.out.find("\"scenario\":\"loss_100\""), std::string::npos)
      << result.out;
  EXPECT_NE(result.out.find("\"reliability\":0.000000,\"p50_ms\":0.000,"
                            "\"p99_ms\":0.000,"),
            std::string::npos)
      << result.out;
  EXPECT_EQ(result.out.find("nan"), std::string::npos) << result.out;
}

TEST(SweepExecutor, SweepOverridesShapeTheGridWithoutReachingWorkers) {
  // `--set sweep.*` narrows the grid in the scheduler. It must NOT be
  // forwarded into the worker cells: a worker that re-applies it would
  // re-create the [sweep] section it just stripped, become a scheduler
  // itself, and self-exec forever.
  const std::string scn = write_temp_scenario(
      "narrow",
      "[scenario]\n"
      "name = narrow\n"
      "nodes = 32\n"
      "[streams]\n"
      "messages = 5\n"
      "payload = 64\n"
      "[run]\n"
      "join-spread-s = 5\n"
      "stabilization-s = 5\n"
      "grace-s = 10\n"
      "[sweep]\n"
      "seeds = 1..3\n");
  const CommandResult result = run_command(std::string(kRunner) +
                                           " --jobs 2 --set sweep.seeds=2 " +
                                           scn + " 2>/dev/null");
  ASSERT_TRUE(WIFEXITED(result.status));
  EXPECT_EQ(WEXITSTATUS(result.status), 0);
  // One cell, for the seed the override kept.
  EXPECT_NE(result.out.find("{\"cell\":0,\"seed\":2,\"exit\":0}"),
            std::string::npos)
      << result.out;
  EXPECT_EQ(result.out.find("\"seed\":1,"), std::string::npos) << result.out;
  EXPECT_EQ(result.out.find("\"seed\":3,"), std::string::npos) << result.out;
  std::remove(scn.c_str());
}

TEST(SweepExecutor, JobsFlagWithoutSweepSectionIsAnError) {
  const std::string scn = write_temp_scenario(
      "nosweep", "[scenario]\nnodes = 32\n[streams]\nmessages = 5\n");
  const CommandResult result = run_command(std::string(kRunner) +
                                           " --jobs 2 " + scn +
                                           " 2>&1 >/dev/null");
  ASSERT_TRUE(WIFEXITED(result.status));
  EXPECT_EQ(WEXITSTATUS(result.status), 2);
  EXPECT_NE(result.out.find("needs a [sweep] section"), std::string::npos)
      << result.out;
  std::remove(scn.c_str());
}

TEST(SweepExecutor, TimedOutCellIsKilledAndRetriedOnce) {
  // 20k nodes cannot bootstrap in 50 ms, so the single cell times out,
  // retries once, times out again and the sweep reports failure.
  const std::string scn = write_temp_scenario(
      "timeout",
      "[scenario]\n"
      "name = timeout\n"
      "nodes = 20000\n"
      "[streams]\n"
      "messages = 5\n"
      "[sweep]\n"
      "seeds = 1\n"
      "cell-timeout-s = 0.05\n");
  const std::string spool = ::testing::TempDir() + "sweep_test_timeout_" +
                            std::to_string(::getpid());
  const CommandResult result = run_command(std::string(kRunner) +
                                           " --jobs 1 --spool " + spool +
                                           " " + scn + " 2>/dev/null");
  ASSERT_TRUE(WIFEXITED(result.status));
  EXPECT_EQ(WEXITSTATUS(result.status), 1);
  // The merged header records the kill as 128+SIGKILL.
  EXPECT_NE(result.out.find("\"exit\":137"), std::string::npos)
      << result.out;
  const std::string events = read_file(spool + "/cells.jsonl");
  // Exactly two attempts: start, kill, exit, retry, start, kill, exit.
  std::size_t starts = 0;
  std::size_t position = 0;
  while ((position = events.find("\"event\":\"start\"", position)) !=
         std::string::npos) {
    ++starts;
    ++position;
  }
  EXPECT_EQ(starts, 2u) << events;
  EXPECT_NE(events.find("\"event\":\"kill-timeout\""), std::string::npos)
      << events;
  EXPECT_NE(events.find("\"event\":\"retry\",\"cell\":0,\"attempt\":2"),
            std::string::npos)
      << events;
  std::remove(scn.c_str());
}

TEST(SweepExecutor, SigtermStopsSchedulerAndReapsWorkers) {
  // A grid of slow cells: SIGTERM the scheduler mid-flight, then verify it
  // exits 128+15 and both in-flight worker pids are gone (no orphans).
  const std::string scn = write_temp_scenario(
      "sigterm",
      "[scenario]\n"
      "name = sigterm\n"
      "nodes = 20000\n"
      "[streams]\n"
      "messages = 20\n"
      "[sweep]\n"
      "seeds = 1..4\n");
  const std::string spool = ::testing::TempDir() + "sweep_test_sigterm_" +
                            std::to_string(::getpid());
  std::vector<std::string> argv = {kRunner, "--jobs", "2", "--spool", spool,
                                   scn};
  std::string spawn_error;
  const pid_t scheduler = util::spawn_process(argv, spool + ".out",
                                              spool + ".err", &spawn_error);
  ASSERT_GT(scheduler, 0) << spawn_error;

  // Wait until two workers have started (their pids land in cells.jsonl).
  std::vector<int> worker_pids;
  for (int tick = 0; tick < 500 && worker_pids.size() < 2; ++tick) {
    ::usleep(10 * 1000);
    worker_pids.clear();
    const std::string events = read_file(spool + "/cells.jsonl");
    std::size_t position = 0;
    while ((position = events.find("\"pid\":", position)) !=
           std::string::npos) {
      worker_pids.push_back(std::atoi(events.c_str() + position + 6));
      ++position;
    }
  }
  ASSERT_EQ(worker_pids.size(), 2u);

  ASSERT_EQ(::kill(scheduler, SIGTERM), 0);
  int status = 0;
  ASSERT_EQ(::waitpid(scheduler, &status, 0), scheduler);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 128 + SIGTERM);
  // The workers must be dead (ESRCH) — the scheduler forwarded the signal
  // and reaped them before exiting. A brief grace covers kernel teardown.
  for (const int pid : worker_pids) {
    bool gone = false;
    for (int tick = 0; tick < 100 && !gone; ++tick) {
      gone = ::kill(pid, 0) != 0;
      if (!gone) ::usleep(10 * 1000);
    }
    EXPECT_TRUE(gone) << "worker " << pid << " outlived the scheduler";
  }
  std::remove(scn.c_str());
}

}  // namespace
}  // namespace brisa
