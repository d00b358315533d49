#include "workload/sweep.h"

#include <signal.h>
#include <stdlib.h>
#include <time.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <filesystem>
#include <fstream>
#include <map>
#include <stdexcept>
#include <thread>

#include "util/run_metadata.h"
#include "util/subprocess.h"

namespace brisa::workload {

namespace {

// --- Axis model -------------------------------------------------------------

/// The axis names older than the key table, kept as aliases of their rows
/// so checked-in grids keep their labels and header keys.
struct Alias {
  const char* key;    ///< the [sweep] key
  const char* label;  ///< its header/label key
  const char* path;   ///< the row it assigns
};
constexpr Alias kAliases[] = {{"protocol", "protocol", "scenario.protocol"},
                              {"nodes", "nodes", "scenario.nodes"},
                              {"seeds", "seed", "scenario.seed"},
                              {"topology", "topology", "topology.model"}};

constexpr const char* kAxisNames =
    "<section>.<key> of a typed key, protocol, nodes, seeds, topology, "
    "faulted, param.<name>";

struct Axis {
  std::string key;    ///< the [sweep] key that declared the axis
  std::string label;  ///< header/label key ("protocol", "seed", ...)
  std::string path;   ///< dotted scenario key each cell assigns
  /// The key table row the axis assigns; nullptr for faulted and
  /// param.<name>.
  const ScenarioKey* row = nullptr;
  std::vector<std::string> values;
};

/// The row a [sweep] key assigns, through an alias or as its dotted
/// `<section>.<key>`, with its header key in `*label` and its dotted key in
/// `*path`; nullptr when the key names no row.
const ScenarioKey* axis_row(const std::string& key, std::string* label,
                            std::string* path) {
  *label = key;
  *path = key;
  for (const Alias& alias : kAliases) {
    if (key == alias.key) {
      *label = alias.label;
      *path = alias.path;
    }
  }
  for (const ScenarioKey& row : scenario_keys()) {
    if (*path == std::string(row.section) + "." + row.key) return &row;
  }
  return nullptr;
}

bool integral(ScenarioKey::Type type) {
  using enum ScenarioKey::Type;
  return type == kSize || type == kU64 || type == kU32;
}

/// A header value is a bare JSON number or boolean unless the row holds
/// text; faulted is a boolean and a param is verbatim text.
bool bare_json(const Axis& axis) {
  using enum ScenarioKey::Type;
  if (axis.row == nullptr) return axis.key == "faulted";
  return axis.row->type != kString && axis.row->type != kEnum;
}

std::string trim(const std::string& s) {
  const std::size_t begin = s.find_first_not_of(" \t");
  if (begin == std::string::npos) return "";
  const std::size_t end = s.find_last_not_of(" \t");
  return s.substr(begin, end - begin + 1);
}

/// Every integer row is unsigned, so ranges are read as the rows read them:
/// no sign, and the full 64-bit width.
bool parse_u64(const std::string& text, std::uint64_t* out) {
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, *out);
  return ec == std::errc() && ptr == end;
}

/// Splits a comma list; integer axes additionally expand `a..b` inclusive
/// ranges. Returns a diagnostic ("" = ok).
std::string split_values(const std::string& axis, const std::string& raw,
                         bool integers, std::vector<std::string>* out) {
  std::string token;
  std::vector<std::string> tokens;
  for (const char c : raw + ",") {
    if (c == ',') {
      const std::string trimmed = trim(token);
      if (!trimmed.empty()) tokens.push_back(trimmed);
      token.clear();
    } else {
      token.push_back(c);
    }
  }
  if (tokens.empty()) return "axis '" + axis + "' has no values";
  for (const std::string& value : tokens) {
    const std::size_t dots = value.find("..");
    if (integers && dots != std::string::npos) {
      std::uint64_t lo = 0;
      std::uint64_t hi = 0;
      if (!parse_u64(value.substr(0, dots), &lo) ||
          !parse_u64(value.substr(dots + 2), &hi) || lo > hi) {
        return "axis '" + axis + "': malformed range '" + value + "'";
      }
      if (hi - lo >= 10000) {
        return "axis '" + axis + "': range '" + value +
               "' expands to more than 10000 values";
      }
      // Counted from lo, so a range ending at 2^64 - 1 cannot wrap.
      for (std::uint64_t i = 0; i <= hi - lo; ++i) {
        out->push_back(std::to_string(lo + i));
      }
      continue;
    }
    std::uint64_t parsed = 0;
    if (integers && !parse_u64(value, &parsed)) {
      return "axis '" + axis + "' expects integers, got '" + value + "'";
    }
    out->push_back(value);
  }
  return "";
}

/// Checks and canonicalizes one axis's values. Returns a diagnostic
/// ("" = ok).
std::string check_values(Axis& axis) {
  for (std::string& value : axis.values) {
    if (axis.row != nullptr) {
      try {
        value = canonical_value(*axis.row, value);
      } catch (const std::invalid_argument& e) {
        if (axis.row->type != ScenarioKey::Type::kEnum) {
          return "axis '" + axis.key + "': " + e.what();
        }
        return "axis '" + axis.key + "': unknown " + axis.row->key + " '" +
               value + "' (" + e.what() + ")";
      }
    } else if (axis.key == "faulted" && value != "true" && value != "false") {
      return "axis 'faulted' expects true/false values, got '" + value + "'";
    }
  }
  for (std::size_t i = 0; i < axis.values.size(); ++i) {
    for (std::size_t j = i + 1; j < axis.values.size(); ++j) {
      if (axis.values[i] == axis.values[j]) {
        return "axis '" + axis.key + "' repeats value '" + axis.values[i] +
               "'";
      }
    }
  }
  return "";
}

/// Parses one [sweep] entry, appending it to `axes` when it is an axis.
/// Returns a diagnostic ("" = ok).
std::string parse_entry(const Scenario& s, const std::string& key,
                        const std::string& raw, std::vector<Axis>* axes) {
  if (key == "cell-timeout-s") {
    try {
      std::size_t used = 0;
      const double parsed = std::stod(raw, &used);
      if (used != raw.size() || parsed < 0.0) throw std::exception();
    } catch (const std::exception&) {
      return "cell-timeout-s expects a non-negative number, got '" + raw + "'";
    }
    return "";
  }
  if (key == "jobs") {
    if (raw != "auto") {
      try {
        std::size_t used = 0;
        const long parsed = std::stol(raw, &used);
        if (used != raw.size() || parsed < 1) throw std::exception();
      } catch (const std::exception&) {
        return "jobs expects a positive integer or 'auto', got '" + raw + "'";
      }
    }
    return "";
  }
  Axis axis{key, key, "", nullptr, {}};
  if (key == "faulted") {
    axis.path = "churn.dsl";
  } else if (key.rfind("param.", 0) == 0) {
    axis.label = key.substr(6);
    axis.path = "params." + axis.label;
  } else {
    axis.row = axis_row(key, &axis.label, &axis.path);
    if (axis.row == nullptr) return sweep_key_error(key);
  }
  const bool integers = axis.row != nullptr && integral(axis.row->type);
  if (std::string e = split_values(key, raw, integers, &axis.values);
      !e.empty()) {
    return e;
  }
  if (std::string e = check_values(axis); !e.empty()) return e;
  if (key == "faulted" && s.churn_dsl.empty() &&
      std::count(axis.values.begin(), axis.values.end(), "true") > 0) {
    return "axis 'faulted' includes true but the scenario has no [churn] "
           "trace to keep";
  }
  for (const Axis& earlier : *axes) {
    if (earlier.path == axis.path) {
      return "axes '" + earlier.key + "' and '" + key + "' both set " +
             axis.path;
    }
  }
  axes->push_back(std::move(axis));
  return "";
}

/// Parses the [sweep] section into ordered axes. Returns a diagnostic
/// ("" = ok); when one entry is at fault, its key goes to `*failed_key`.
std::string parse_axes(const Scenario& s, std::vector<Axis>* axes,
                       std::string* failed_key = nullptr) {
  for (const auto& [key, raw] : s.sweep) {
    if (std::string e = parse_entry(s, key, raw, axes); !e.empty()) {
      if (failed_key != nullptr) *failed_key = key;
      return e;
    }
  }
  if (axes->empty()) {
    return std::string("a [sweep] section needs at least one axis (") +
           kAxisNames + ")";
  }
  std::size_t cells = 1;
  for (const Axis& axis : *axes) {
    cells *= axis.values.size();
    if (cells > 100000) return "grid expands to more than 100000 cells";
  }
  return "";
}

std::string json_quote(const std::string& raw) {
  std::string out = "\"";
  for (const char c : raw) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  out += "\"";
  return out;
}

}  // namespace

std::string sweep_key_error(const std::string& key) {
  std::string label;
  std::string path;
  if (key == "cell-timeout-s" || key == "jobs" || key == "faulted" ||
      (key.rfind("param.", 0) == 0 && key.size() > 6) ||
      axis_row(key, &label, &path) != nullptr) {
    return "";
  }
  return "unknown sweep key '" + key + "' (axes: " + kAxisNames +
         "; knobs: cell-timeout-s, jobs)";
}

std::string sweep_error(const Scenario& s, std::string* failed_key) {
  std::vector<Axis> axes;
  return parse_axes(s, &axes, failed_key);
}

std::vector<SweepAxis> sweep_axes(const Scenario& s) {
  std::vector<Axis> axes;
  const std::string diagnostic = parse_axes(s, &axes);
  if (!diagnostic.empty()) {
    throw std::invalid_argument("sweep: " + diagnostic);
  }
  std::vector<SweepAxis> out;
  for (Axis& axis : axes) {
    out.push_back({axis.key, axis.path, std::move(axis.values)});
  }
  return out;
}

double sweep_cell_timeout_s(const Scenario& s) {
  for (const auto& [key, raw] : s.sweep) {
    if (key == "cell-timeout-s") return std::stod(raw);
  }
  return 0.0;
}

int sweep_jobs(const Scenario& s) {
  for (const auto& [key, raw] : s.sweep) {
    if (key == "jobs") {
      return raw == "auto" ? auto_jobs() : static_cast<int>(std::stol(raw));
    }
  }
  return 0;
}

int auto_jobs() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<int>(n);
}

std::vector<SweepCell> expand_sweep(const Scenario& s) {
  std::vector<Axis> axes;
  const std::string diagnostic = parse_axes(s, &axes);
  if (!diagnostic.empty()) {
    throw std::invalid_argument("sweep: " + diagnostic);
  }
  std::size_t total = 1;
  for (const Axis& axis : axes) total *= axis.values.size();

  std::vector<SweepCell> cells;
  cells.reserve(total);
  std::vector<std::size_t> cursor(axes.size(), 0);
  for (std::size_t index = 0; index < total; ++index) {
    SweepCell cell;
    cell.index = index;
    for (std::size_t a = 0; a < axes.size(); ++a) {
      const Axis& axis = axes[a];
      const std::string& value = axis.values[cursor[a]];
      if (!cell.label.empty()) cell.label += ' ';
      cell.label += axis.label + "=" + value;
      if (!cell.axes_json.empty()) cell.axes_json += ',';
      cell.axes_json += "\"" + axis.label + "\":";
      cell.axes_json += bare_json(axis) ? value : json_quote(value);
      if (axis.key == "faulted") {
        // true keeps the scenario's [churn] trace; false clears it.
        if (value == "false") cell.overrides.emplace_back("churn.dsl", "");
      } else {
        cell.overrides.emplace_back(axis.path, value);
      }
    }
    cells.push_back(std::move(cell));
    // Row-major advance: last axis spins fastest.
    for (std::size_t a = axes.size(); a-- > 0;) {
      if (++cursor[a] < axes[a].values.size()) break;
      cursor[a] = 0;
    }
  }
  return cells;
}

// --- Executor ---------------------------------------------------------------

namespace {

volatile sig_atomic_t g_sweep_signal = 0;

void sweep_signal_handler(int signo) { g_sweep_signal = signo; }

struct CellState {
  int attempts = 0;
  bool done = false;
  /// SIGKILL sent to the current attempt because it overran the timeout.
  bool timeout_kill_sent = false;
  bool ever_timed_out = false;
  int final_status = 0;  ///< shell-style: exit code or 128+signal
  double wall_seconds = 0.0;
  double user_seconds = 0.0;
  double system_seconds = 0.0;
  long max_rss_kb = 0;
  pid_t pid = -1;
  std::chrono::steady_clock::time_point started;
};

std::string cell_file(const std::string& spool, std::size_t index,
                      const char* suffix) {
  char name[64];
  std::snprintf(name, sizeof name, "cell_%05zu.%s", index, suffix);
  return spool + "/" + name;
}

double elapsed_s(std::chrono::steady_clock::time_point since) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       since)
      .count();
}

void sleep_ms(long ms) {
  timespec ts{};
  ts.tv_sec = ms / 1000;
  ts.tv_nsec = (ms % 1000) * 1000000;
  nanosleep(&ts, nullptr);
}

/// RAII: install SIGINT/SIGTERM forwarding for the scheduler's lifetime.
class SignalScope {
 public:
  SignalScope() {
    g_sweep_signal = 0;
    struct sigaction action {};
    action.sa_handler = sweep_signal_handler;
    sigemptyset(&action.sa_mask);
    sigaction(SIGINT, &action, &old_int_);
    sigaction(SIGTERM, &action, &old_term_);
  }
  ~SignalScope() {
    sigaction(SIGINT, &old_int_, nullptr);
    sigaction(SIGTERM, &old_term_, nullptr);
  }

 private:
  struct sigaction old_int_ {};
  struct sigaction old_term_ {};
};

}  // namespace

int run_sweep(const Scenario& s, const SweepOptions& options) {
  std::vector<SweepCell> cells;
  try {
    cells = expand_sweep(s);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
  const int jobs = options.jobs < 1 ? 1 : options.jobs;
  const double timeout_s = options.cell_timeout_s > 0.0
                               ? options.cell_timeout_s
                               : sweep_cell_timeout_s(s);

  // Spool directory: per-cell stdout/stderr, the event log, metadata.
  std::string spool = options.spool_dir;
  if (spool.empty()) {
    // Honor TMPDIR (sandboxed CI, per-user tmp quotas); fall back to /tmp.
    const char* tmpdir = std::getenv("TMPDIR");
    std::string base = tmpdir != nullptr && tmpdir[0] != '\0' ? tmpdir : "/tmp";
    while (base.size() > 1 && base.back() == '/') base.pop_back();
    std::string tmpl = base + "/brisa_sweep_XXXXXX";
    if (mkdtemp(tmpl.data()) == nullptr) {
      std::fprintf(stderr, "error: cannot create spool dir under %s\n",
                   base.c_str());
      return 2;
    }
    spool = tmpl;
  } else {
    std::error_code ec;
    std::filesystem::create_directories(spool, ec);
    if (ec) {
      std::fprintf(stderr, "error: cannot create spool dir %s: %s\n",
                   spool.c_str(), ec.message().c_str());
      return 2;
    }
  }
  const std::string meta = util::run_metadata_json(jobs);
  if (std::FILE* f = std::fopen((spool + "/meta.json").c_str(), "w")) {
    std::fprintf(f, "%s\n", meta.c_str());
    std::fclose(f);
  }
  std::FILE* events = std::fopen((spool + "/cells.jsonl").c_str(), "w");
  const auto event = [events](const char* format, auto... args) {
    if (events == nullptr) return;
    std::fprintf(events, format, args...);
    std::fflush(events);
  };

  std::fprintf(stderr, "sweep %s: %zu cells, jobs %d%s, spool %s\n",
               s.name_or("(unnamed)").c_str(), cells.size(), jobs,
               timeout_s > 0.0
                   ? (", cell timeout " + std::to_string(timeout_s) + " s")
                         .c_str()
                   : "",
               spool.c_str());
  std::fprintf(stderr, "%s\n", meta.c_str());

  const auto sweep_start = std::chrono::steady_clock::now();
  std::vector<CellState> states(cells.size());
  std::deque<std::size_t> pending;
  for (std::size_t i = 0; i < cells.size(); ++i) pending.push_back(i);
  std::map<pid_t, std::size_t> running;
  std::size_t completed = 0;
  double completed_wall_sum = 0.0;

  SignalScope signals;

  const auto spawn_cell = [&](std::size_t index) -> bool {
    CellState& st = states[index];
    ++st.attempts;
    st.timeout_kill_sent = false;
    std::vector<std::string> argv = {options.self_exe, "--cell"};
    for (const auto& [key, value] : options.user_overrides) {
      argv.push_back("--set");
      argv.push_back(key + "=" + value);
    }
    for (const auto& [key, value] : cells[index].overrides) {
      argv.push_back("--set");
      argv.push_back(key + "=" + value);
    }
    argv.push_back(options.scenario_path);
    std::string spawn_error;
    const pid_t pid =
        util::spawn_process(argv, cell_file(spool, index, "out"),
                            cell_file(spool, index, "err"), &spawn_error);
    if (pid < 0) {
      std::fprintf(stderr, "error: cell %zu: %s\n", index,
                   spawn_error.c_str());
      return false;
    }
    st.pid = pid;
    st.started = std::chrono::steady_clock::now();
    running[pid] = index;
    event("{\"event\":\"start\",\"cell\":%zu,\"attempt\":%d,\"pid\":%d}\n",
          index, st.attempts, static_cast<int>(pid));
    return true;
  };

  const auto abort_run = [&](int signo) -> int {
    std::fprintf(stderr,
                 "sweep: caught signal %d, stopping %zu in-flight "
                 "worker(s)\n",
                 signo, running.size());
    for (const auto& [pid, index] : running) {
      (void)index;
      util::signal_process_group(pid, SIGTERM);
    }
    // Grace window for SIGTERM, then SIGKILL stragglers; reap everything
    // so no worker outlives the scheduler.
    for (int tick = 0; tick < 200 && !running.empty(); ++tick) {
      while (auto exited = util::wait_any_child(false)) {
        running.erase(exited->pid);
      }
      if (!running.empty()) sleep_ms(10);
    }
    for (const auto& [pid, index] : running) {
      (void)index;
      util::signal_process_group(pid, SIGKILL);
    }
    while (!running.empty()) {
      if (auto exited = util::wait_any_child(true)) {
        running.erase(exited->pid);
      } else {
        break;
      }
    }
    event("{\"event\":\"signal\",\"signo\":%d}\n", signo);
    if (events != nullptr) std::fclose(events);
    return 128 + signo;
  };

  while (completed < cells.size()) {
    if (g_sweep_signal != 0) return abort_run(g_sweep_signal);
    while (static_cast<int>(running.size()) < jobs && !pending.empty()) {
      const std::size_t index = pending.front();
      pending.pop_front();
      if (!spawn_cell(index)) {
        (void)abort_run(SIGTERM);
        return 2;
      }
    }
    const auto exited = util::wait_any_child(false);
    if (!exited) {
      if (timeout_s > 0.0) {
        for (auto& [pid, index] : running) {
          CellState& st = states[index];
          if (!st.timeout_kill_sent && elapsed_s(st.started) > timeout_s) {
            st.timeout_kill_sent = true;
            st.ever_timed_out = true;
            event("{\"event\":\"kill-timeout\",\"cell\":%zu,\"attempt\":%d,"
                  "\"pid\":%d,\"timeout\":true,\"timeout_s\":%.3f}\n",
                  index, st.attempts, static_cast<int>(pid), timeout_s);
            util::signal_process_group(pid, SIGKILL);
          }
        }
      }
      sleep_ms(10);
      continue;
    }
    const auto it = running.find(exited->pid);
    if (it == running.end()) continue;  // not one of our workers
    const std::size_t index = it->second;
    running.erase(it);
    CellState& st = states[index];
    const double wall = elapsed_s(st.started);
    const bool timed_out = st.timeout_kill_sent;
    st.wall_seconds = wall;
    st.user_seconds = exited->user_seconds;
    st.system_seconds = exited->system_seconds;
    if (exited->max_rss_kb > st.max_rss_kb) st.max_rss_kb = exited->max_rss_kb;
    event("{\"event\":\"exit\",\"cell\":%zu,\"attempt\":%d,\"pid\":%d,"
          "\"exit\":%d,\"signal\":%d,\"timeout\":%s,\"wall_s\":%.3f,"
          "\"user_s\":%.3f,\"sys_s\":%.3f,\"max_rss_kb\":%ld}\n",
          index, st.attempts, static_cast<int>(exited->pid),
          exited->exit_code, exited->term_signal,
          timed_out ? "true" : "false", wall, exited->user_seconds,
          exited->system_seconds, exited->max_rss_kb);
    // One retry after a timeout or signal death (infra flakes); a clean
    // non-zero exit is deterministic and retrying it would only repeat it.
    if ((timed_out || exited->term_signal != 0) && st.attempts < 2) {
      event("{\"event\":\"retry\",\"cell\":%zu,\"attempt\":%d}\n", index,
            st.attempts + 1);
      std::fprintf(stderr, "cell %zu (%s): %s after %.1fs, retrying\n",
                   index, cells[index].label.c_str(),
                   timed_out ? "timed out" : "died on a signal", wall);
      pending.push_front(index);
      continue;
    }
    st.done = true;
    st.final_status = timed_out ? 128 + SIGKILL : exited->status();
    ++completed;
    completed_wall_sum += wall;
    const double eta =
        completed_wall_sum / static_cast<double>(completed) *
        static_cast<double>(cells.size() - completed) /
        static_cast<double>(jobs);
    std::fprintf(stderr,
                 "[%zu/%zu] cell %zu (%s): exit %d in %.1fs, rss %ld MB%s"
                 "%s%.0fs\n",
                 completed, cells.size(), index, cells[index].label.c_str(),
                 st.final_status, wall, st.max_rss_kb / 1024,
                 st.attempts > 1 ? " (retried)" : "",
                 completed < cells.size() ? " | ETA " : " | done in ",
                 completed < cells.size() ? eta : elapsed_s(sweep_start));
  }

  // --- Deterministic merge: grid order, headers + captured JSON lines ------
  std::size_t failures = 0;
  long max_rss_kb = 0;
  double cell_walls = 0.0;
  double cpu_seconds = 0.0;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const CellState& st = states[i];
    if (st.final_status != 0) ++failures;
    if (st.max_rss_kb > max_rss_kb) max_rss_kb = st.max_rss_kb;
    cell_walls += st.wall_seconds;
    cpu_seconds += st.user_seconds + st.system_seconds;
    std::printf("{\"cell\":%zu,%s,\"exit\":%d}\n", i,
                cells[i].axes_json.c_str(), st.final_status);
    std::ifstream out(cell_file(spool, i, "out"));
    std::string line;
    while (std::getline(out, line)) {
      if (!line.empty() && line.front() == '{') {
        std::printf("%s\n", line.c_str());
      }
    }
  }
  std::fflush(stdout);

  const double wall = elapsed_s(sweep_start);
  // Speedup is cpu/wall, not sum-of-cell-walls/wall: on an oversubscribed
  // host per-cell walls inflate with the multiprogramming level, so their
  // sum measures average concurrency, not how much time parallelism saved.
  // Summed CPU is what the cells would cost run back to back, anywhere.
  const double speedup = wall > 0.0 ? cpu_seconds / wall : 0.0;
  char summary[512];
  std::snprintf(summary, sizeof summary,
                "{\"meta\":\"sweep\",\"scenario\":\"%s\",\"cells\":%zu,"
                "\"jobs\":%d,\"failures\":%zu,\"wall_seconds\":%.2f,"
                "\"cpu_seconds\":%.2f,\"cell_wall_seconds\":%.2f,"
                "\"speedup\":%.2f,\"max_cell_rss_kb\":%ld}",
                s.name_or("").c_str(), cells.size(), jobs, failures, wall,
                cpu_seconds, cell_walls, speedup, max_rss_kb);
  if (std::FILE* f = std::fopen((spool + "/summary.json").c_str(), "w")) {
    std::fprintf(f, "%s\n", summary);
    std::fclose(f);
  }
  event("{\"event\":\"done\",\"failures\":%zu}\n", failures);
  if (events != nullptr) std::fclose(events);
  std::fprintf(stderr,
               "sweep %s: %zu/%zu cells ok, wall %.1fs, cpu %.1fs, speedup "
               "%.2fx (cpu/wall) at jobs %d, peak cell rss %ld MB\n",
               s.name_or("(unnamed)").c_str(), cells.size() - failures,
               cells.size(), wall, cpu_seconds, speedup, jobs,
               max_rss_kb / 1024);
  std::fprintf(stderr, "%s\n", summary);
  return failures == 0 ? 0 : 1;
}

}  // namespace brisa::workload
