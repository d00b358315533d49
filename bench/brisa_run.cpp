// brisa_run — the one binary behind every experiment in this repo.
//
//   brisa_run <scenario.scn>...          run each scenario's report
//   brisa_run --check <scenario.scn>...  parse + validate only (CI lint)
//   brisa_run --print <scenario.scn>     echo the canonical scenario text
//   brisa_run --list                     list the available reports
//   brisa_run --set sec.key=value ...    override scenario keys before running
//   brisa_run --jobs N <sweep.scn>       parallel sweep executor knobs
//   brisa_run --jobs 0                   (0 = all hardware threads):
//   brisa_run --spool DIR --cell-timeout S
//
// A scenario file names a report ([scenario] report = fig06_depth) or omits
// it for the generic declarative runner (report = run). A scenario with a
// [sweep] section expands into a grid of cells; the executor forks one
// worker subprocess per cell (`--jobs` at a time) and merges their output
// in grid order, so stdout is byte-identical for any job count. `--cell`
// is the internal worker mode (strip [sweep], run one configuration). This
// is the only entry point to the paper's figures and tables. Grammar:
// docs/scenarios.md.
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <vector>

#include "reports/reports.h"
#include "util/subprocess.h"
#include "workload/scenario.h"
#include "workload/sweep.h"

namespace {

constexpr const char kUsage[] =
    "brisa_run [--check|--print] [--set section.key=value]... "
    "[--jobs N|0=auto] [--spool DIR] [--cell-timeout S] <scenario.scn>...\n"
    "brisa_run --list\n";

void print_report_list() {
  std::printf("available reports ([scenario] report = <name>):\n");
  for (const brisa::reports::Report& report : brisa::reports::all()) {
    std::printf("  %-26s %s\n", report.name.c_str(), report.title.c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  using brisa::reports::Report;
  using brisa::workload::Scenario;

  bool check_only = false;
  bool print_only = false;
  bool cell_mode = false;
  int jobs = -1;  // -1 = flag not given; sweeps then read [sweep] jobs
  std::string spool_dir;
  double cell_timeout_s = 0.0;
  std::vector<std::pair<std::string, std::string>> overrides;
  std::vector<std::string> files;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      std::printf("%s", kUsage);
      return 0;
    }
    if (arg == "--list") {
      print_report_list();
      return 0;
    }
    if (arg == "--check") {
      check_only = true;
      continue;
    }
    if (arg == "--print") {
      print_only = true;
      continue;
    }
    if (arg == "--cell") {
      cell_mode = true;
      continue;
    }
    if (arg == "--jobs") {
      // 0 = auto (all hardware threads); resolved once here so the sweep
      // banner and meta.json record the concrete worker count.
      if (i + 1 >= argc ||
          std::string(argv[i + 1]).find_first_not_of("0123456789") !=
              std::string::npos) {
        std::fprintf(stderr,
                     "error: --jobs needs a non-negative integer "
                     "(0 = all hardware threads)\n%s",
                     kUsage);
        return 2;
      }
      jobs = std::atoi(argv[++i]);
      if (jobs == 0) jobs = brisa::workload::auto_jobs();
      continue;
    }
    if (arg == "--spool") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "error: --spool needs a directory\n%s", kUsage);
        return 2;
      }
      spool_dir = argv[++i];
      continue;
    }
    if (arg == "--cell-timeout") {
      if (i + 1 >= argc || std::atof(argv[i + 1]) < 0.0) {
        std::fprintf(stderr,
                     "error: --cell-timeout needs a non-negative number of "
                     "seconds\n%s",
                     kUsage);
        return 2;
      }
      cell_timeout_s = std::atof(argv[++i]);
      continue;
    }
    if (arg == "--set") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "error: --set needs section.key=value\n%s",
                     kUsage);
        return 2;
      }
      const std::string assignment = argv[++i];
      const std::size_t eq = assignment.find('=');
      if (eq == std::string::npos) {
        std::fprintf(stderr,
                     "error: --set expects section.key=value, got '%s'\n",
                     assignment.c_str());
        return 2;
      }
      overrides.emplace_back(assignment.substr(0, eq),
                             assignment.substr(eq + 1));
      continue;
    }
    if (arg.rfind("--", 0) == 0) {
      std::fprintf(stderr, "error: unknown flag %s\n%s", arg.c_str(), kUsage);
      return 2;
    }
    files.push_back(arg);
  }
  if (files.empty()) {
    std::fprintf(stderr, "error: no scenario file given\n%s", kUsage);
    return 2;
  }

  int exit_code = 0;
  for (std::size_t file_index = 0; file_index < files.size(); ++file_index) {
    const std::string& file = files[file_index];
    Scenario scenario;
    Scenario::KeyOrigins origins;
    try {
      scenario = Scenario::load(file, &origins);
      // Worker mode: the [sweep] section belongs to the scheduler; strip
      // it before overrides so a faulted=false cell's `churn.dsl=` cannot
      // trip the sweep's faulted-needs-churn check. `sweep.*` overrides
      // were consumed upstream when the scheduler expanded the grid —
      // applying them here would re-create the section and turn the
      // worker into another scheduler, recursing forever.
      if (cell_mode) scenario.sweep.clear();
      for (const auto& [key, value] : overrides) {
        if (cell_mode && key.rfind("sweep.", 0) == 0) continue;
        // Anchor diagnostics at the offending override, the way file
        // diagnostics carry their line: now, and in the checks below.
        const std::string origin = "--set " + key + "=" + value;
        try {
          scenario.set_path(key, value);
        } catch (const std::invalid_argument& e) {
          throw std::invalid_argument(origin + ": " + e.what());
        }
        origins[key] = origin;
      }
      scenario.validate(&origins);
    } catch (const std::invalid_argument& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      return 2;
    }
    const std::string report_name = scenario.report_or("run");
    const Report* report = brisa::reports::find(report_name);
    if (report == nullptr) {
      std::fprintf(stderr, "error: %s: unknown report '%s'\n", file.c_str(),
                   report_name.c_str());
      print_report_list();
      return 2;
    }
    // A figure report silently ignores keys outside its surface; refuse
    // them so a --set typo (or stale file) cannot masquerade as a run
    // with the requested parameters.
    const std::string key_error =
        brisa::reports::scenario_key_error(scenario, *report, &origins);
    if (!key_error.empty()) {
      std::fprintf(stderr, "error: %s: %s\n", file.c_str(),
                   key_error.c_str());
      return 2;
    }
    if (scenario.has_sweep()) {
      // Pre-validate every expanded cell so a malformed grid fails fast
      // here (and under --check) instead of as worker exit codes mid-run.
      std::vector<brisa::workload::SweepCell> cells;
      try {
        cells = brisa::workload::expand_sweep(scenario);
      } catch (const std::invalid_argument& e) {
        std::fprintf(stderr, "error: %s: %s\n", file.c_str(), e.what());
        return 2;
      }
      for (const brisa::workload::SweepCell& cell : cells) {
        Scenario cell_scenario = scenario;
        cell_scenario.sweep.clear();
        try {
          for (const auto& [key, value] : cell.overrides) {
            cell_scenario.set_path(key, value);
          }
          cell_scenario.validate();
        } catch (const std::invalid_argument& e) {
          std::fprintf(stderr, "error: %s: cell %zu (%s): %s\n", file.c_str(),
                       cell.index, cell.label.c_str(), e.what());
          return 2;
        }
        const std::string cell_key_error =
            brisa::reports::scenario_key_error(cell_scenario, *report);
        if (!cell_key_error.empty()) {
          std::fprintf(stderr, "error: %s: cell %zu (%s): %s\n", file.c_str(),
                       cell.index, cell.label.c_str(),
                       cell_key_error.c_str());
          return 2;
        }
      }
      if (print_only) {
        std::printf("%s", scenario.to_text().c_str());
        continue;
      }
      if (check_only) {
        std::printf("OK %s (report %s, sweep %zu cells)\n", file.c_str(),
                    report_name.c_str(), cells.size());
        continue;
      }
      brisa::workload::SweepOptions options;
      // Precedence: --jobs flag, then the scenario's `[sweep] jobs`
      // (N or auto), then 1.
      const int scenario_jobs = brisa::workload::sweep_jobs(scenario);
      options.jobs = jobs > 0 ? jobs : scenario_jobs > 0 ? scenario_jobs : 1;
      options.spool_dir =
          spool_dir.empty() || files.size() == 1
              ? spool_dir
              : spool_dir + "." + std::to_string(file_index);
      options.cell_timeout_s = cell_timeout_s;
      options.self_exe = brisa::util::self_exe_path(argv[0]);
      options.scenario_path = file;
      // Workers re-load the scenario file, so user overrides must travel
      // with them — except `sweep.*`, which shaped the grid right here
      // and means nothing to (and must never reach) a single cell.
      for (const auto& override_pair : overrides) {
        if (override_pair.first.rfind("sweep.", 0) == 0) continue;
        options.user_overrides.push_back(override_pair);
      }
      const int run_code = brisa::workload::run_sweep(scenario, options);
      if (run_code >= 128 || run_code == 2) return run_code;
      if (run_code != 0) exit_code = run_code;
      continue;
    }
    if (jobs > 0) {
      std::fprintf(stderr,
                   "error: %s: --jobs needs a [sweep] section (this "
                   "scenario is a single run)\n",
                   file.c_str());
      return 2;
    }
    if (print_only) {
      std::printf("%s", scenario.to_text().c_str());
      continue;
    }
    if (check_only) {
      std::printf("OK %s (report %s)\n", file.c_str(), report_name.c_str());
      continue;
    }
    int run_code = 0;
    try {
      run_code = report->run(scenario);
    } catch (const std::invalid_argument& e) {
      // A malformed report parameter (e.g. a non-integer list entry).
      std::fprintf(stderr, "error: %s: %s\n", file.c_str(), e.what());
      return 2;
    }
    if (run_code != 0) exit_code = run_code;
  }
  return exit_code;
}
