// The repo benchmark program: builds a workload::BrisaSystem from public calls
// only, times each phase from outside, checks the simulated outcomes and
// prints every metric by name with its unit. README.md in this directory
// explains the workloads, the metrics and the layer map.
//
//   perfbench --workload bcast|churn|topics --seed N --seconds S --trace 0|1
//             [--scale full|tiny] [--trace-out FILE]
//
// One process, one thread. An untraced run simulates kSystems independent
// systems (system seeds derived from --seed) and pools their outcomes, then
// keeps repeating them in turn until --seconds of host time is spent; the
// host-time metrics are medians over all reps, and every repeat of a system
// must reproduce its simulated outcome exactly. A traced run repeats system 0
// alternately without and with spans. The last stdout line is one JSON
// object {"correct","attempted","failed","metrics"}: --trace 0 reports the
// end-to-end metrics, --trace 1 the per-layer ones.
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "analysis/stats.h"
#include "net/message_pool.h"
#include "workload/brisa_system.h"
#include "workload/churn.h"
#include "workload/pubsub.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

namespace {

using namespace brisa;

/// Independent systems per untraced run. Simulated outcomes vary with the
/// system seed (tree shape, churn victims); pooling five keeps the
/// seed-to-seed spread of churn's delivery_p50_ms under 0.08 of its median
/// (a single system spreads up to 0.35).
constexpr int kSystems = 5;

// --- Host clocks -----------------------------------------------------------

double wall_now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double cpu_now_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// Peak resident set of this process so far (getrusage reports KiB).
double peak_rss_bytes() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) * 1024.0;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double pct(const std::vector<double>& v, double p) {
  return v.empty() ? 0.0 : analysis::percentile(v, p);
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

// --- Workloads -------------------------------------------------------------

/// One workload's inputs, fixed per (workload, scale). The seed reaches the
/// system only through BrisaSystem::Config::seed and the subscription salt.
struct WorkloadSpec {
  std::string name;
  std::size_t nodes = 0;
  std::size_t streams = 1;
  std::size_t messages = 0;  ///< per stream
  double rate_per_s = 0;     ///< per stream
  std::size_t payload = 0;
  double zipf = 0.0;
  double join_spread_s = 50;
  double stabilization_s = 30;
  double grace_s = 10;
  /// Churn/fault DSL (times relative to the first publish); empty = none.
  std::string churn;
  net::Limits limits;
  std::size_t retransmit_buffer = core::Brisa::Config{}.retransmit_buffer;
  /// Minimum obligation-based reliability for a correct run.
  double reliability_floor = 1.0;
};

std::optional<WorkloadSpec> make_workload(const std::string& name,
                                          bool tiny) {
  WorkloadSpec w;
  w.name = name;
  if (name == "bcast") {
    // Data path: one long 1 KiB stream on a clean cluster, 600k deliveries
    // per system. 300 nodes rather than thousands: at 3000 nodes x 200
    // messages the same deliveries swung +-20% in host time with other
    // tenants' memory pressure, at 300 x 2000 about +-6%. 100/s keeps the
    // stream 20 s long, so membership timers stay a small share.
    w.nodes = tiny ? 80 : 300;
    w.messages = tiny ? 20 : 2000;
    w.rate_per_s = 100;
    w.payload = 1024;
  } else if (name == "churn") {
    // Repair path: continuous churn, a late crash burst and link loss under
    // [limits] bounded stores, Bloom digests and rate control.
    w.nodes = tiny ? 80 : 1500;
    w.messages = tiny ? 30 : 300;
    w.rate_per_s = 5;
    w.payload = 256;
    w.join_spread_s = 20;
    w.stabilization_s = 20;
    w.grace_s = 30;
    w.churn = "from 0 s to 60 s const churn 1% each 10 s\n"
              "at 30 s crash " + std::to_string(w.nodes / 5) + " for 15 s\n"
              "from 0 s to 60 s drop 1%\n";
    // The [limits] store bound, not the built-in buffer trim, decides what
    // is kept, so evictions go through the [limits] path.
    w.limits.store_entries = 256;
    w.retransmit_buffer = 512;
    w.limits.bloom_digests = true;
    w.limits.rate_control = true;
    w.reliability_floor = 0.999;
  } else if (name == "topics") {
    // Per-(node, stream) path: 32 Zipf-subscribed streams of 64 B payloads.
    // 150 nodes (about 34 MB) rather than 1000 (about 200 MB): the large
    // working set swung +-20% and more in host time with other tenants'
    // memory pressure, 150 nodes about +-7% over the same rounds.
    w.nodes = tiny ? 80 : 150;
    w.streams = tiny ? 4 : 32;
    w.messages = tiny ? 10 : 40;
    w.rate_per_s = 2;
    w.payload = 64;
    w.zipf = 1.0;
    w.join_spread_s = 30;
    w.stabilization_s = 20;
  } else {
    return std::nullopt;
  }
  if (tiny) {
    w.join_spread_s = 10;
    w.stabilization_s = 10;
  }
  return w;
}

// --- Tracing ---------------------------------------------------------------

/// Spans recorded from this program's own code around its calls into each
/// layer: kept in memory, written out when the run ends.
class Tracer {
 public:
  struct Span {
    const char* name;
    double start = 0;
    double end = 0;
    int parent = -1;
  };

  int begin(const char* name) {
    const int parent = open_.empty() ? -1 : open_.back();
    spans_.push_back({name, wall_now_s(), 0.0, parent});
    open_.push_back(static_cast<int>(spans_.size()) - 1);
    return open_.back();
  }
  void end(int index) {
    spans_[static_cast<std::size_t>(index)].end = wall_now_s();
    open_.pop_back();
  }

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// Self time summed per span name: duration minus the children's.
  [[nodiscard]] std::map<std::string, double> self_seconds() const {
    std::vector<double> self(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      self[i] = spans_[i].end - spans_[i].start;
    }
    for (const Span& s : spans_) {
      if (s.parent >= 0) {
        self[static_cast<std::size_t>(s.parent)] -= s.end - s.start;
      }
    }
    std::map<std::string, double> by_name;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      by_name[spans_[i].name] += self[i];
    }
    return by_name;
  }

  /// Durations of every span called `name`, in microseconds.
  [[nodiscard]] std::vector<double> durations_us(
      const std::string& name) const {
    std::vector<double> out;
    for (const Span& s : spans_) {
      if (name == s.name) out.push_back((s.end - s.start) * 1e6);
    }
    return out;
  }

 private:
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span; a null tracer (untraced reps) records nothing.
class Scope {
 public:
  Scope(Tracer* tracer, const char* name)
      : tracer_(tracer), index_(tracer ? tracer->begin(name) : -1) {}
  ~Scope() {
    if (tracer_ != nullptr) tracer_->end(index_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer* tracer_;
  int index_;
};

constexpr const char* kSpanNames[] = {
    "setup.construct", "setup.bootstrap",     "churn.arm",
    "run",             "core.publish",        "membership.spawn",
    "workload.kill",   "workload.population", "analysis.collect"};

// --- One rep ---------------------------------------------------------------

/// One per-layer counter of a system's outcome.
struct Counter {
  const char* name;
  const char* unit;
  double value;
};

/// A system's simulated outcome: exactly reproducible from its seed.
struct Outcome {
  double obligations = 0;       ///< (obligated subscriber, sent message)
  double met = 0;               ///< obligations delivered
  double first_deliveries = 0;  ///< all non-source nodes, all streams
  double duplicates = 0;
  double wire_bytes = 0;        ///< every traffic class, timed phase
  std::vector<double> delays_ms;  ///< one per met obligation
  double p50_ms = 0;  ///< the rows' delay percentiles
  double p99_ms = 0;
  std::vector<Counter> counters;  ///< per-layer, in print order
};

struct RepResult {
  double setup_s = 0;
  double wall_s = 0;
  double cpu_s = 0;
  double rss_after_construct = 0;
  double rss_after_setup = 0;
  double peak_rss = 0;
  double pool_reuse_ratio = 0;  ///< thread-wide pool: warm after rep 1
  Outcome outcome;
  std::vector<std::string> errors;
};

struct ClassTotals {
  std::array<double, net::kTrafficClassCount> msgs{};
  std::array<double, net::kTrafficClassCount> bytes{};
};

ClassTotals sum_upload(const net::Network& network,
                       const std::vector<net::NodeId>& ids) {
  ClassTotals t;
  for (const net::NodeId id : ids) {
    const net::BandwidthStats& s = network.stats(id);
    for (std::size_t c = 0; c < net::kTrafficClassCount; ++c) {
      t.msgs[c] += static_cast<double>(s.up_messages[c]);
      t.bytes[c] += static_cast<double>(s.up_bytes[c]);
    }
  }
  return t;
}

RepResult run_rep(const WorkloadSpec& w, std::uint64_t seed, Tracer* tracer) {
  RepResult r;
  Outcome& o = r.outcome;
  const double t0 = wall_now_s();
  std::unique_ptr<workload::BrisaSystem> owned;
  {
    Scope span(tracer, "setup.construct");
    workload::BrisaSystem::Config config;
    config.seed = seed;
    config.num_nodes = w.nodes;
    config.num_streams = w.streams;
    config.brisa.limits = w.limits;
    config.brisa.retransmit_buffer = w.retransmit_buffer;
    config.join_spread = sim::Duration::from_seconds(w.join_spread_s);
    config.stabilization = sim::Duration::from_seconds(w.stabilization_s);
    owned = std::make_unique<workload::BrisaSystem>(config);
  }
  r.rss_after_construct = peak_rss_bytes();
  workload::BrisaSystem& system = *owned;
  {
    Scope span(tracer, "setup.bootstrap");
    system.bootstrap();
  }
  r.setup_s = wall_now_s() - t0;
  r.rss_after_setup = peak_rss_bytes();

  sim::Simulator& simulator = system.simulator();
  net::Network& network = system.network();

  // Snapshots at the first publish (outside the timed phase).
  const std::vector<net::NodeId> members_at_start = system.member_ids();
  const sim::Simulator::Stats sim_at_start = simulator.stats();
  const ClassTotals net_at_start = sum_upload(network, system.all_ids());
  const net::MessagePoolStats pool_at_start = net::message_pool_stats();

  // Timed phase: from the first publish until the delivery rows exist.
  const double w0 = wall_now_s();
  const double c0 = cpu_now_s();

  // Churn hooks and the publish callback; traced reps wrap each in a span.
  workload::ChurnHooks hooks = system.churn_hooks();
  workload::PubSubDriver::PublishFn publish =
      [&system](net::StreamId stream, std::size_t bytes) {
        return system.publish(stream, bytes);
      };
  if (tracer != nullptr) {
    hooks.spawn = [tracer, inner = hooks.spawn] {
      Scope span(tracer, "membership.spawn");
      inner();
    };
    hooks.kill = [tracer, inner = hooks.kill](net::NodeId node) {
      Scope span(tracer, "workload.kill");
      inner(node);
    };
    hooks.population = [tracer, inner = hooks.population] {
      Scope span(tracer, "workload.population");
      return inner();
    };
    publish = [tracer, inner = publish](net::StreamId stream,
                                        std::size_t bytes) {
      Scope span(tracer, "core.publish");
      return inner(stream, bytes);
    };
  }

  std::unique_ptr<workload::ChurnDriver> churn;
  if (!w.churn.empty()) {
    Scope span(tracer, "churn.arm");
    churn = std::make_unique<workload::ChurnDriver>(
        simulator,
        workload::ChurnScript::parse(w.churn), hooks);
    churn->arm();
  }

  // Open loop in simulated time: every stream publishes on its schedule
  // whatever the backlog.
  workload::PubSubDriver::Config pubsub;
  pubsub.streams = workload::uniform_streams(w.streams, w.messages,
                                             w.rate_per_s, w.payload);
  pubsub.zipf_exponent = w.zipf;
  pubsub.subscription_seed ^= seed;
  workload::PubSubDriver publisher(simulator, pubsub, publish);
  {
    Scope span(tracer, "run");
    publisher.run(sim::Duration::from_seconds(w.grace_s));
  }

  // Delivery rows over obligations: (subscriber alive from the first publish
  // to the end, message actually sent) pairs. Late joiners owe nothing.
  double obligated_delivered = 0;  // per-node core.delivered over the rows
  std::vector<double> delays;
  {
    Scope span(tracer, "analysis.collect");
    std::vector<net::NodeId> obligated;
    const std::vector<net::NodeId> members_at_end = system.member_ids();
    std::set_intersection(members_at_start.begin(), members_at_start.end(),
                          members_at_end.begin(), members_at_end.end(),
                          std::back_inserter(obligated));
    for (const workload::PubSubStreamSpec& spec : pubsub.streams) {
      const net::NodeId source = system.source_id(spec.stream);
      const std::uint64_t sent = publisher.sent(spec.stream);
      const auto& source_times =
          system.brisa(source, spec.stream).stats().delivery_time;
      for (const net::NodeId id : obligated) {
        if (id == source || !publisher.subscribed(spec.stream, id)) continue;
        const core::Brisa::Stats& stats =
            system.brisa(id, spec.stream).stats();
        o.obligations += static_cast<double>(sent);
        obligated_delivered += static_cast<double>(stats.delivered);
        for (const auto& [seq, at] : stats.delivery_time) {
          const auto injected = source_times.find(seq);
          if (seq >= sent || injected == source_times.end()) {
            r.errors.push_back("a node delivered a sequence never sent");
            continue;
          }
          o.met += 1;
          delays.push_back((at - injected->second).to_milliseconds());
        }
      }
    }
    o.p50_ms = pct(delays, 50);
    o.p99_ms = pct(delays, 99);
  }
  r.wall_s = wall_now_s() - w0;
  r.cpu_s = cpu_now_s() - c0;
  r.peak_rss = peak_rss_bytes();
  o.delays_ms = std::move(delays);

  // --- Everything below is outside the timed phase. -----------------------
  const std::vector<net::NodeId> all = system.all_ids();
  core::Brisa::Stats core;
  std::vector<double> hard_repair_ms;
  for (const net::NodeId id : all) {
    for (std::size_t s = 0; s < w.streams; ++s) {
      const auto stream = static_cast<net::StreamId>(s);
      const core::Brisa::Stats& st = system.brisa(id, stream).stats();
      // delivery_time holds one entry per distinct sequence; a second
      // application delivery of one sequence would bump only `delivered`.
      if (st.delivered != st.delivery_time.size()) {
        r.errors.push_back("a node delivered a sequence twice");
      }
      if (id != system.source_id(stream)) {
        o.first_deliveries += static_cast<double>(st.delivered);
      }
      core.delivered += st.delivered;
      core.duplicates += st.duplicates;
      core.deactivations_sent += st.deactivations_sent;
      core.cycle_rejections += st.cycle_rejections;
      core.parents_lost += st.parents_lost;
      core.orphan_events += st.orphan_events;
      core.soft_repairs += st.soft_repairs;
      core.hard_repairs += st.hard_repairs;
      core.retransmissions_served += st.retransmissions_served;
      core.gap_recoveries += st.gap_recoveries;
      core.buffer_evictions += st.buffer_evictions;
      core.rate_deferrals += st.rate_deferrals;
      for (const sim::Duration d : st.hard_repair_delays) {
        hard_repair_ms.push_back(d.to_milliseconds());
      }
    }
  }
  o.duplicates = static_cast<double>(core.duplicates);
  if (obligated_delivered != o.met) {
    r.errors.push_back("per-node core.delivered does not sum to the rows");
  }
  if (o.met > o.obligations) {
    r.errors.push_back("more deliveries than obligations");
  }

  const sim::Simulator::Stats sim_end = simulator.stats();
  const ClassTotals net_end = sum_upload(network, all);
  ClassTotals net_run;
  for (std::size_t c = 0; c < net::kTrafficClassCount; ++c) {
    net_run.msgs[c] = net_end.msgs[c] - net_at_start.msgs[c];
    net_run.bytes[c] = net_end.bytes[c] - net_at_start.bytes[c];
    o.wire_bytes += net_run.bytes[c];
  }
  const net::MessagePoolStats pool = net::message_pool_stats();
  r.pool_reuse_ratio = ratio(
      static_cast<double>(pool.reused - pool_at_start.reused),
      static_cast<double>(pool.messages_created() -
                          pool_at_start.messages_created()));

  membership::HyParView::Counters hv;
  for (const net::NodeId id : all) {
    const membership::HyParView::Counters& c = system.hyparview(id).counters();
    hv.joins_handled += c.joins_handled;
    hv.forward_joins += c.forward_joins;
    hv.shuffles_sent += c.shuffles_sent;
    hv.failures_detected += c.failures_detected;
    hv.promotions += c.promotions;
    hv.neighbor_rejects += c.neighbor_rejects;
  }

  double published = 0;
  for (const workload::PubSubStreamSpec& spec : pubsub.streams) {
    published += static_cast<double>(publisher.sent(spec.stream));
  }
  if (published <= 0) r.errors.push_back("nothing was published");
  const workload::ChurnDriver::Counters cc =
      churn ? churn->counters() : workload::ChurnDriver::Counters{};
  const net::Network::FaultTotals faults = network.fault_totals();
  const double events_run =
      static_cast<double>(sim_end.events_fired - sim_at_start.events_fired);
  const auto d = [](auto v) { return static_cast<double>(v); };

  // Event counts and bytes cover the timed phase; membership and core
  // counters the whole rep (the overlay forms in setup, the trees once data
  // flows); gauges are read at the end.
  static_assert(net::kTrafficClassCount == 3);
  o.counters = {
      {"sim.events_fired", "count", events_run},
      {"sim.events_scheduled", "count",
       d(sim_end.events_scheduled - sim_at_start.events_scheduled)},
      {"sim.events_cancelled", "count",
       d(sim_end.events_cancelled - sim_at_start.events_cancelled)},
      {"sim.peak_pending_events", "count", d(sim_end.peak_pending_events)},
      {"sim.event_slab_slots", "count", d(sim_end.event_slab_slots)},
      {"sim.active_periodics", "count", d(sim_end.active_periodics)},
      {"sim.callback_heap_fallbacks", "count",
       d(sim_end.callback_heap_fallbacks)},
      {"sim.events_per_delivery", "ratio",
       ratio(events_run, o.first_deliveries)},
      {"sim.setup_events_fired", "count", d(sim_at_start.events_fired)},
      {"net.msgs.membership", "count", net_run.msgs[0]},
      {"net.msgs.control", "count", net_run.msgs[1]},
      {"net.msgs.data", "count", net_run.msgs[2]},
      {"net.bytes.membership", "B", net_run.bytes[0]},
      {"net.bytes.control", "B", net_run.bytes[1]},
      {"net.bytes.data", "B", net_run.bytes[2]},
      {"net.datagrams_dropped", "count", d(faults.datagrams_dropped)},
      {"net.segments_dropped", "count", d(faults.segments_dropped)},
      {"net.retransmissions", "count", d(faults.retransmissions)},
      {"net.rx_suppressed", "count", d(faults.rx_suppressed)},
      {"net.peak_nic_backlog_ms", "ms",
       network.peak_nic_backlog().to_milliseconds()},
      {"net.peak_cpu_backlog_ms", "ms",
       network.peak_cpu_backlog().to_milliseconds()},
      {"membership.joins_handled", "count", d(hv.joins_handled)},
      {"membership.forward_joins", "count", d(hv.forward_joins)},
      {"membership.shuffles_sent", "count", d(hv.shuffles_sent)},
      {"membership.failures_detected", "count", d(hv.failures_detected)},
      {"membership.promotions", "count", d(hv.promotions)},
      {"membership.neighbor_rejects", "count", d(hv.neighbor_rejects)},
      {"core.delivered", "count", d(core.delivered)},
      {"core.duplicates", "count", d(core.duplicates)},
      {"core.useful_ratio", "ratio",
       ratio(d(core.delivered), d(core.delivered + core.duplicates))},
      {"core.deactivations_sent", "count", d(core.deactivations_sent)},
      {"core.cycle_rejections", "count", d(core.cycle_rejections)},
      {"core.parents_lost", "count", d(core.parents_lost)},
      {"core.orphan_events", "count", d(core.orphan_events)},
      {"core.soft_repairs", "count", d(core.soft_repairs)},
      {"core.hard_repairs", "count", d(core.hard_repairs)},
      {"core.repairs_per_orphan", "ratio",
       ratio(d(core.soft_repairs + core.hard_repairs),
             d(core.orphan_events))},
      {"core.hard_repair_p99_ms", "ms", pct(hard_repair_ms, 99)},
      {"core.retransmissions_served", "count",
       d(core.retransmissions_served)},
      {"core.gap_recoveries", "count", d(core.gap_recoveries)},
      {"core.buffer_evictions", "count", d(core.buffer_evictions)},
      {"core.rate_deferrals", "count", d(core.rate_deferrals)},
      {"workload.published", "count", published},
      {"workload.publish_skipped", "count",
       d(w.streams * w.messages) - published},
      {"workload.joins", "count", d(cc.joins)},
      {"workload.kills", "count", d(cc.kills)},
      {"workload.crashes", "count", d(cc.crashes)},
      {"workload.recoveries", "count", d(cc.recoveries)}};
  return r;
}

// --- Deterministic fingerprint --------------------------------------------

std::uint64_t fnv1a(std::uint64_t h, const void* data, std::size_t n) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) h = (h ^ bytes[i]) * 1099511628211ULL;
  return h;
}

/// Hash of everything simulated: counters, outcome totals and every delay
/// sample. Two commits that simulate identically print the same value.
std::uint64_t fingerprint(const Outcome& o, std::uint64_t h) {
  for (const double v : {o.obligations, o.met, o.first_deliveries,
                         o.duplicates, o.wire_bytes, o.p50_ms, o.p99_ms}) {
    h = fnv1a(h, &v, sizeof v);
  }
  for (const Counter& c : o.counters) h = fnv1a(h, &c.value, sizeof c.value);
  for (const double v : o.delays_ms) h = fnv1a(h, &v, sizeof v);
  return h;
}

bool same_outcome(const Outcome& a, const Outcome& b) {
  const auto values = [](const Outcome& o) {
    std::vector<double> v = {o.obligations, o.met,        o.first_deliveries,
                             o.duplicates,  o.wire_bytes, o.p50_ms,
                             o.p99_ms};
    for (const Counter& c : o.counters) v.push_back(c.value);
    return v;
  };
  return values(a) == values(b) && a.delays_ms == b.delays_ms;
}

// --- Output ----------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string json_metrics(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics[i].name.c_str(),
                  std::isfinite(metrics[i].value) ? metrics[i].value : 0.0,
                  metrics[i].unit.c_str());
    out += buf;
  }
  return out + "}";
}

bool write_trace(const std::string& path, const Tracer& tracer) {
  std::ofstream out(path);
  const std::vector<Tracer::Span>& spans = tracer.spans();
  const double origin = spans.empty() ? 0.0 : spans.front().start;
  out << "[\n";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "  {\"id\": %zu, \"name\": \"%s\", \"start_s\": %.9f, "
                  "\"end_s\": %.9f, \"parent\": %d}%s\n",
                  i, spans[i].name, spans[i].start - origin,
                  spans[i].end - origin, spans[i].parent,
                  i + 1 == spans.size() ? "" : ",");
    out << buf;
  }
  out << "]\n";
  out.close();
  return static_cast<bool>(out);
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload bcast|churn|topics --seed N "
               "--seconds S --trace 0|1 [--scale full|tiny] "
               "[--trace-out FILE]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::map<std::string, std::string> args;
  if (argc % 2 == 0) return usage();
  for (int i = 1; i < argc; i += 2) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0 || args.count(key.substr(2)) > 0) {
      return usage();
    }
    args[key.substr(2)] = argv[i + 1];
  }
  for (const auto& [key, value] : args) {
    if (key != "workload" && key != "seed" && key != "seconds" &&
        key != "trace" && key != "scale" && key != "trace-out") {
      return usage();
    }
  }
  if (!args.count("workload") || !args.count("seed") ||
      !args.count("seconds") || !args.count("trace")) {
    return usage();
  }
  const bool traced = args["trace"] == "1";
  if (!traced && args["trace"] != "0") return usage();
  const std::string scale = args.count("scale") ? args["scale"] : "full";
  if (scale != "full" && scale != "tiny") return usage();
  std::uint64_t seed = 0;
  double seconds = 0;
  try {
    seed = std::stoull(args["seed"]);
    seconds = std::stod(args["seconds"]);
  } catch (const std::exception&) {
    return usage();
  }
  const std::optional<WorkloadSpec> spec =
      make_workload(args["workload"], scale == "tiny");
  if (!spec) return usage();
  const WorkloadSpec& w = *spec;

#ifdef NDEBUG
  const bool assertions = false;
#else
  const bool assertions = true;
#endif
  std::printf(
      "provenance {\"nproc\": %u, \"compiler\": \"%s\", \"build_type\": "
      "\"%s\", \"assertions\": %s, \"threads\": 1}\n",
      std::thread::hardware_concurrency(), PERFBENCH_COMPILER,
      PERFBENCH_BUILD_TYPE, assertions ? "true" : "false");
  std::fflush(stdout);
  if (assertions && scale == "full") {
    std::fprintf(stderr,
                 "perfbench: refusing to time a build with assertions on "
                 "(build type %s); configure with "
                 "-DCMAKE_BUILD_TYPE=Release\n",
                 PERFBENCH_BUILD_TYPE);
    return 3;
  }

  const int systems = traced ? 1 : kSystems;
  const auto system_seed = [seed](int system) {
    return (seed * 0x9E3779B97F4A7C15ULL) ^
           (static_cast<std::uint64_t>(system) + 1) * 0xD1B54A32D192ED03ULL;
  };

  std::vector<double> setup, wall, cpu, wall_untraced, wall_traced;
  std::vector<std::map<std::string, double>> self_by_rep;
  std::vector<double> publish_us, spawn_us, kill_us;
  Tracer last_trace;
  std::vector<std::optional<RepResult>> firsts(systems);
  std::vector<std::string> errors;
  const double start = wall_now_s();
  const int min_reps = traced ? 2 : systems;
  int reps = 0;
  while (true) {
    const int system = reps % systems;
    // Traced runs alternate untraced and traced reps of one system, so the
    // tracing overhead is measured under the same conditions.
    const bool trace_this = traced && reps % 2 == 1;
    Tracer tracer;
    RepResult rep =
        run_rep(w, system_seed(system), trace_this ? &tracer : nullptr);
    ++reps;
    setup.push_back(rep.setup_s);
    wall.push_back(rep.wall_s);
    cpu.push_back(rep.cpu_s);
    (trace_this ? wall_traced : wall_untraced).push_back(rep.wall_s);
    if (trace_this) {
      self_by_rep.push_back(tracer.self_seconds());
      for (const double us : tracer.durations_us("core.publish")) {
        publish_us.push_back(us);
      }
      for (const double us : tracer.durations_us("membership.spawn")) {
        spawn_us.push_back(us);
      }
      for (const double us : tracer.durations_us("workload.kill")) {
        kill_us.push_back(us);
      }
      last_trace = std::move(tracer);
    }
    std::fprintf(stderr,
                 "rep %d (system %d%s): setup %.3f s, wall %.3f s, "
                 "cpu %.3f s, unmet obligations %.0f\n",
                 reps, system, trace_this ? ", traced" : "", rep.setup_s,
                 rep.wall_s, rep.cpu_s,
                 rep.outcome.obligations - rep.outcome.met);
    errors.insert(errors.end(), rep.errors.begin(), rep.errors.end());
    std::optional<RepResult>& first = firsts[static_cast<std::size_t>(system)];
    if (!first) {
      first = std::move(rep);
    } else if (!same_outcome(rep.outcome, first->outcome)) {
      errors.push_back("a repeated system simulated a different outcome");
    }
    const double elapsed = wall_now_s() - start;
    if (reps >= min_reps && elapsed + elapsed / reps > seconds) break;
  }

  // Pool the systems' simulated outcomes.
  Outcome pooled;
  std::uint64_t print = 1469598103934665603ULL;
  std::vector<double> delays;
  for (const std::optional<RepResult>& f : firsts) {
    const Outcome& o = f->outcome;
    pooled.obligations += o.obligations;
    pooled.met += o.met;
    pooled.first_deliveries += o.first_deliveries;
    pooled.duplicates += o.duplicates;
    pooled.wire_bytes += o.wire_bytes;
    delays.insert(delays.end(), o.delays_ms.begin(), o.delays_ms.end());
    print = fingerprint(o, print);
  }
  const double reliability = ratio(pooled.met, pooled.obligations);
  if (reliability < w.reliability_floor) {
    char buf[128];
    std::snprintf(buf, sizeof buf, "reliability %.6f below floor %.6f",
                  reliability, w.reliability_floor);
    errors.push_back(buf);
  }
  if (pooled.first_deliveries <= 0) errors.push_back("no deliveries");
  const double failed = pooled.obligations - pooled.met;
  const double p50 = pct(delays, 50);
  const double p99 = pct(delays, 99);
  const double p999 = pct(delays, 99.9);

  std::printf(
      "outcome {\"workload\": \"%s\", \"scale\": \"%s\", \"seed\": %llu, "
      "\"nodes\": %zu, \"streams\": %zu, \"systems\": %d, \"reps\": %d, "
      "\"obligations\": %.0f, \"failed\": %.0f, \"delivery_samples\": %zu, "
      "\"delivery_p999_ms\": %.3f, \"fingerprint\": \"%016llx\"}\n",
      w.name.c_str(), scale.c_str(), static_cast<unsigned long long>(seed),
      w.nodes, w.streams, systems, reps, pooled.obligations, failed,
      delays.size(), p999, static_cast<unsigned long long>(print));
  for (const std::string& e : errors) {
    std::printf("check failed: %s\n", e.c_str());
  }

  std::vector<Metric> metrics;
  if (!traced) {
    metrics = {
        {"setup_s", median(setup), "s"},
        {"wall_s", median(wall), "s"},
        {"cpu_s", median(cpu), "s"},
        {"rss_bytes_per_node",
         firsts[0]->peak_rss / static_cast<double>(w.nodes), "B"},
        {"reliability", reliability, "ratio"},
        {"delivery_p50_ms", p50, "ms"},
        {"delivery_p99_ms", p99, "ms"},
        {"dup_per_delivery", ratio(pooled.duplicates, pooled.first_deliveries),
         "ratio"},
        {"wire_bytes_per_delivery",
         ratio(pooled.wire_bytes, pooled.first_deliveries), "B"},
    };
  } else {
    const RepResult& first = *firsts[0];
    std::map<std::string, double> self;
    for (const char* name : kSpanNames) {
      std::vector<double> v;
      for (const auto& rep : self_by_rep) {
        const auto it = rep.find(name);
        v.push_back(it == rep.end() ? 0.0 : it->second);
      }
      self[name] = median(v);
    }
    for (const Counter& c : first.outcome.counters) {
      metrics.push_back({c.name, c.value, c.unit});
    }
    const double run_self = self["run"];
    metrics.push_back({"sim.ns_per_event",
                       ratio(run_self * 1e9,  // front(): sim.events_fired
                             first.outcome.counters.front().value),
                       "ns"});
    metrics.push_back({"sim.run_self_s", run_self, "s"});
    metrics.push_back({"net.pool_reuse_ratio", first.pool_reuse_ratio,
                       "ratio"});
    metrics.push_back({"membership.spawn_us_p50", pct(spawn_us, 50), "us"});
    metrics.push_back({"core.publish_us_p50", pct(publish_us, 50), "us"});
    metrics.push_back({"core.publish_us_p99", pct(publish_us, 99), "us"});
    metrics.push_back({"workload.kill_us_p50", pct(kill_us, 50), "us"});
    metrics.push_back({"analysis.collect_s", self["analysis.collect"], "s"});
    metrics.push_back(
        {"mem.rss_after_construct_bytes", first.rss_after_construct, "B"});
    metrics.push_back(
        {"mem.rss_after_setup_bytes", first.rss_after_setup, "B"});
    for (const char* name : kSpanNames) {
      metrics.push_back(
          {std::string("span.") + name + ".self_s", self[name], "s"});
    }
    metrics.push_back({"trace.overhead_s",
                       median(wall_traced) - median(wall_untraced), "s"});
    std::printf(
        "note: span.run.self_s (= sim.run_self_s) is the event loop together "
        "with every sim, net, membership and core handler it dispatches; "
        "splitting it by layer needs spans inside the program, which this "
        "benchmark does not add.\n");
    if (args.count("trace-out")) {
      if (write_trace(args["trace-out"], last_trace)) {
        std::printf("trace: %zu spans written to %s\n",
                    last_trace.spans().size(), args["trace-out"].c_str());
      } else {
        errors.push_back("cannot write the trace file");
      }
    }
  }

  std::printf(
      "{\"correct\": %s, \"attempted\": %.0f, \"failed\": %.0f, "
      "\"metrics\": %s}\n",
      errors.empty() ? "true" : "false", pooled.obligations, failed,
      json_metrics(metrics).c_str());
  return 0;
}
