// The report registry: every paper figure/table harness as a named,
// scenario-driven entry point.
//
// A Report couples a name ("fig02_flood_duplicates") to a run function that
// consumes a workload::Scenario, the default scenario for that figure (the
// same description that is checked in under scenarios/<name>.scn), and the
// dotted scenario keys the run function reads. `brisa_run <file.scn>` is the
// one way to run a report; a [sweep] section turns the file into a grid of
// single-run cells. See DESIGN.md §10.
#pragma once

#include <string>
#include <vector>

#include "workload/scenario.h"

namespace brisa::reports {

struct Report {
  std::string name;
  /// One-line summary for `brisa_run --list` and the README matrix.
  std::string title;
  /// Dotted scenario keys the run function reads ("scenario.nodes",
  /// "params.views", ...). Every other key is rejected unless it restates
  /// the default scenario's value.
  std::vector<std::string> keys;
  workload::Scenario (*defaults)();
  int (*run)(const workload::Scenario&);
  /// Strict value check for one of `keys` ("" = fine; nullptr = none),
  /// applied to the scenario's value and to every [sweep] value for it.
  std::string (*check)(const std::string& key,
                       const std::string& value) = nullptr;
};

/// All registered reports, figure order.
[[nodiscard]] const std::vector<Report>& all();

/// nullptr when no report has that name.
[[nodiscard]] const Report* find(const std::string& name);

/// Rejects scenario keys a figure report does not consume. Returns a
/// diagnostic (empty = fine) naming the first key — set directly or as a
/// [sweep] axis — that is not in the report's `keys` (and, set directly,
/// does not restate the default scenario's value), or whose value fails the
/// report's `check`: a figure would silently ignore such a key, which is
/// exactly the fall-back-to-defaults failure this layer exists to prevent.
/// With `origins` (from Scenario::load, plus any `--set` overrides) the
/// diagnostic starts with the offending key's origin ("scenario line N" or
/// "--set section.key=value"). The generic "run" report accepts
/// everything.
[[nodiscard]] std::string scenario_key_error(
    const workload::Scenario& scenario, const Report& report,
    const workload::Scenario::KeyOrigins* origins = nullptr);

}  // namespace brisa::reports
