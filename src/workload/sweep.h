// The parallel sweep executor: expands a scenario's [sweep] section into a
// grid of independent cells and fans them across worker subprocesses.
//
// A sweep scenario is an ordinary scenario plus axes:
//
//   [sweep]
//   protocol = brisa, gossip        # -> scenario.protocol per cell
//   nodes    = 1000, 10000          # -> scenario.nodes   per cell
//   seeds    = 1..4                 # -> scenario.seed    per cell
//   streams.count = 1, 8            # any typed key, as <section>.<key>
//   faulted  = false, true          # true keeps [churn], false clears it
//   param.sizes = 1000, 10000       # -> params.<name>    per cell
//   cell-timeout-s = 600            # executor knob, not an axis
//
// An axis that assigns a typed key is one lookup in the key table
// (scenario_keys()): `protocol`, `nodes`, `seeds` and `topology` are
// aliases of their rows, and the row's type, bounds, enum names or check
// decide whether `a..b` ranges expand, whether the header value is a bare
// JSON number or a string, and which values the file may name.
//
// Expansion is row-major with axes in declaration order (first axis
// outermost, values in written order), so a grid has one canonical cell
// ordering independent of how it is executed. Each cell is one worker
// subprocess — a self-exec of brisa_run in --cell mode with the cell's
// axis assignments as --set overrides — because a cell is a complete,
// deterministic, single-threaded simulation: process isolation gives
// per-cell peak-RSS/wall accounting, timeout kills, and crash containment
// for free, and the merge step re-orders captured output by grid position
// so stdout is byte-identical for any --jobs value. See DESIGN.md §11.
#pragma once

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "workload/scenario.h"

namespace brisa::workload {

/// One expanded grid cell.
struct SweepCell {
  std::size_t index = 0;  ///< row-major grid position
  /// Human label, e.g. "protocol=brisa nodes=1000 seed=1".
  std::string label;
  /// Typed JSON fragment of the axis assignments (no braces), e.g.
  /// `"protocol":"brisa","nodes":1000,"faulted":false,"seed":1` — merged
  /// into the cell's header line.
  std::string axes_json;
  /// Dotted-path overrides (the `--set` form) that turn the parent
  /// scenario into this cell's single-run scenario.
  std::vector<std::pair<std::string, std::string>> overrides;
};

/// One [sweep] axis as declared: the section key (`protocol`,
/// `streams.count`, `param.regime`, ...), the dotted scenario key every
/// cell assigns (`scenario.protocol`, `streams.count`, `params.regime`;
/// `churn.dsl` for `faulted`), and the expanded values in written order.
struct SweepAxis {
  std::string key;
  std::string path;
  std::vector<std::string> values;
};

/// The axes in declaration order. Throws std::invalid_argument with the
/// sweep_error() diagnostic on malformed sections.
[[nodiscard]] std::vector<SweepAxis> sweep_axes(const Scenario& s);

/// The diagnostic for a [sweep] key that is neither an axis nor a knob
/// ("" = known); Scenario::set() asks it for every key of the section.
[[nodiscard]] std::string sweep_key_error(const std::string& key);

/// Semantic check of the [sweep] section ("" = well-formed); called by
/// Scenario::validate(). Catches values their key's row refuses,
/// malformed value lists and ranges, empty axes, two axes that assign one
/// key, a `faulted` axis without a [churn] trace, and a section with knobs
/// but no axis. When one entry is at fault, its key goes to `*failed_key`
/// (when non-null), so a caller can point at that entry's line.
[[nodiscard]] std::string sweep_error(const Scenario& s,
                                      std::string* failed_key = nullptr);

/// Expands the grid (row-major, declaration order). Throws
/// std::invalid_argument with the sweep_error() diagnostic on malformed
/// sections.
[[nodiscard]] std::vector<SweepCell> expand_sweep(const Scenario& s);

/// The scenario's `cell-timeout-s` knob (0 = no timeout).
[[nodiscard]] double sweep_cell_timeout_s(const Scenario& s);

/// The scenario's `jobs` knob: N, hardware concurrency for `auto`, or 0
/// when the key is absent (callers then apply their own default). The CLI
/// --jobs flag overrides this.
[[nodiscard]] int sweep_jobs(const Scenario& s);

/// Hardware concurrency with a floor of 1 (what `jobs = auto` and
/// `--jobs 0` resolve to).
[[nodiscard]] int auto_jobs();

/// Executor configuration assembled by brisa_run.
struct SweepOptions {
  /// Concurrent worker processes (>= 1).
  int jobs = 1;
  /// Spool directory for per-cell stdout/stderr captures, the cells.jsonl
  /// event log, meta.json and summary.json; empty = mkdtemp under /tmp.
  std::string spool_dir;
  /// CLI override of the scenario's cell-timeout-s (0 = scenario's value).
  double cell_timeout_s = 0.0;
  /// The brisa_run binary to self-exec per cell.
  std::string self_exe;
  /// The .scn file handed to workers.
  std::string scenario_path;
  /// User `--set` overrides, re-applied in every worker before the cell's
  /// own overrides (so the cell's axis assignment wins).
  std::vector<std::pair<std::string, std::string>> user_overrides;
};

/// Runs every cell of `s` through worker subprocesses, `jobs` at a time:
/// per-cell wall-clock + rusage accounting, one retry after a timeout or
/// signal death, live progress/ETA on stderr, SIGINT/SIGTERM forwarded to
/// in-flight workers (no orphans), and a final merge that writes each
/// cell's header + captured JSON lines to stdout in grid order. Returns 0
/// when every cell exits 0; 1 when any cell fails; 128+signal when
/// interrupted; 2 on executor errors.
[[nodiscard]] int run_sweep(const Scenario& s, const SweepOptions& options);

}  // namespace brisa::workload
