// BRISA: epidemic dissemination with emergent tree/DAG structures (§II),
// multiplexed as a forest of per-stream structures over one shared PSS.
//
// Two classes split the work:
//
//   * BrisaStream holds everything that is per-stream: parents/children
//     links, path/depth position, dedup and delivery bookkeeping, repair
//     state machines and their one-shot timers, and Stats. It is a plain
//     state machine — not a net::Process — driven by its engine, and it
//     arms no periodic timer of its own.
//   * BrisaEngine is the single net::Process + PssListener per node. It owns
//     the one Config its streams share and N BrisaStream instances in a flat
//     vector indexed by StreamId, demultiplexes incoming messages by their
//     stream id, fans membership events out to every stream, keeps the
//     keep-alive progress table (one contiguous entry per stream, handed to
//     HyParView as the shared keep-alive snapshot), and runs the periodic
//     maintenance: at most two ticks per node (starvation, plus refine or
//     DAG top-up), each walking the streams in id order.
//
// This is the paper's §IV "Multiple Trees" argument made structural: because
// the tree *emerges* from the epidemic substrate, additional trees cost only
// their per-stream state — the membership layer, failure detection,
// keep-alive probing and the maintenance ticks are shared across the whole
// forest.
//
// The protocol per stream is unchanged from the single-stream original:
//   * bootstraps by flooding the first stream message over the PSS overlay;
//   * lets each node prune inbound links down to `num_parents` by sending
//     DEACTIVATE messages to duplicate senders (parent selection, §II-C/E);
//   * prevents cycles exactly via path embedding (trees, §II-D) or
//     approximately via depth tags (DAGs, §II-G);
//   * repairs parent failures through the PSS: soft repair re-activates a
//     cached eligible neighbor with one message; hard repair re-floods a
//     bounded region through re-activation orders (§II-F);
//   * recovers messages missed during repair from the new parent's buffer.
//
// Setting `prune = false` disables deactivation entirely, yielding the pure
// flooding baseline of Fig 2 / Fig 9.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "core/messages.h"
#include "core/parent_selection.h"
#include "membership/peer_sampling.h"
#include "net/delivery_log.h"
#include "net/network.h"
#include "net/process.h"
#include "sim/rng.h"
#include "util/flat_map.h"
#include "util/flat_seq_map.h"
#include "util/seq_ring.h"

namespace brisa::core {

class BrisaEngine;

class BrisaStream final {
 public:
  struct Config {
    StructureMode mode = StructureMode::kTree;
    /// Target number of parents p; must be 1 in tree mode (§II-G).
    std::size_t num_parents = 1;
    ParentSelectionStrategy strategy =
        ParentSelectionStrategy::kFirstComeFirstPicked;
    /// false = never deactivate: pure flooding over the PSS (Fig 2 baseline).
    bool prune = true;
    /// §II-E symmetric deactivation (applied only when the strategy allows).
    bool symmetric_deactivation = true;
    /// How many recent payloads each node buffers for child recovery.
    std::size_t retransmit_buffer = 128;
    /// Bandwidth-discipline layer ([limits] scenario section): extra bounds
    /// on the retransmit buffer, Bloom digests on retransmit requests, and
    /// gap-probe/topup backoff under send-side congestion. Default = off.
    net::Limits limits;
  };

  // --- Timing constants ------------------------------------------------------
  // Shared by every stream; the periodic ones drive BrisaEngine's
  // maintenance ticks.

  /// Patience for a BrisaResume acknowledgment before trying the next
  /// candidate (or escalating to hard repair).
  static constexpr sim::Duration kRepairAckTimeout =
      sim::Duration::milliseconds(500);
  /// How often a DAG node below its parent target probes for another
  /// eligible parent (§II-G acquisition guarantee).
  static constexpr sim::Duration kTopupPeriod = sim::Duration::seconds(5);
  /// Patience before pulling a sequence hole from a parent's buffer
  /// (covers losses from deactivation/swap races).
  static constexpr sim::Duration kGapProbeDelay =
      sim::Duration::milliseconds(750);
  /// Starvation surveillance (§II-F fallback): when neighbors' keep-alive
  /// watermarks advance past ours and nothing arrives for
  /// kStarvationTimeout, the structure above us is stale — reset hard
  /// through the substrate.
  static constexpr sim::Duration kStarvationCheckPeriod =
      sim::Duration::seconds(2);
  static constexpr sim::Duration kStarvationTimeout = sim::Duration::seconds(4);
  /// Period of the delay-aware parent re-evaluation (tree mode only).
  static constexpr sim::Duration kRefinePeriod = sim::Duration::seconds(5);

  /// Per-(node, stream) protocol statistics; the experiment harnesses
  /// aggregate these across nodes into the paper's tables and figures.
  /// `duplicates` counts live-dissemination copies only; retransmission
  /// copies count in retransmissions_received.
  struct Stats : net::DeliveryLog {
    std::uint64_t deactivations_sent = 0;
    std::uint64_t deactivations_received = 0;
    std::uint64_t cycle_rejections = 0;  ///< senders rejected by cycle check
    std::uint64_t parents_lost = 0;
    std::uint64_t orphan_events = 0;
    std::uint64_t soft_repairs = 0;
    std::uint64_t hard_repairs = 0;
    std::uint64_t hard_repair_retries = 0;  ///< resume re-broadcasts
    std::uint64_t retransmissions_served = 0;
    std::uint64_t retransmissions_received = 0;
    std::uint64_t reactivate_orders_sent = 0;
    std::uint64_t reactivate_orders_received = 0;
    std::uint64_t order_rebuilds = 0;  ///< repairs triggered by orders
    std::uint64_t parent_topups = 0;   ///< DAG nodes regaining parent #p
    std::uint64_t gap_recoveries = 0;  ///< sequence holes pulled from parents
    std::uint64_t starvation_resets = 0;  ///< stale-structure hard resets
    std::uint64_t refinements = 0;  ///< delay-aware parent improvements
    /// Retransmit-buffer entries dropped by the `[limits]` bound (the
    /// built-in retransmit_buffer trim is not counted — it predates the
    /// limits layer and is part of baseline behavior).
    std::uint64_t buffer_evictions = 0;
    /// Gap probes / topups skipped while the local NIC/CPU was overusing.
    std::uint64_t rate_deferrals = 0;
    /// Time from orphaning to regained parenthood, per repair kind.
    std::vector<sim::Duration> soft_repair_delays;
    std::vector<sim::Duration> hard_repair_delays;
    /// Construction-time probes (Fig 13): when this node sent its first
    /// deactivation, and when its inbound links first reached the target.
    std::optional<sim::TimePoint> first_deactivation_at;
    std::optional<sim::TimePoint> structure_stable_at;
    /// Per-sequence reception counts (Fig 2), kept in flood mode only
    /// (`prune = false`); a pruned run leaves it empty, and its duplicates
    /// show in the log's `duplicates` count. Retransmissions are not
    /// counted. A flat vector indexed by sequence: in flood mode it is
    /// written on every reception, and a tree walk per stream message is
    /// measurable at sweep sizes.
    util::FlatSeqMap<std::uint32_t> receptions_per_seq;
  };

  using DeliveryHandler =
      std::function<void(std::uint64_t seq, std::size_t payload_bytes)>;

  BrisaStream(BrisaEngine& engine, net::StreamId stream);

  // --- Source API -----------------------------------------------------------

  /// Marks this node as the stream source (depth 0 / path = {self}).
  void become_source();
  [[nodiscard]] bool is_source() const { return is_source_; }

  /// Injects the next stream message; flooding bootstraps the structure on
  /// the first call (§II-C). Returns the sequence number used.
  std::uint64_t broadcast(std::size_t payload_bytes);

  // --- Introspection ---------------------------------------------------------

  [[nodiscard]] net::StreamId stream_id() const { return stream_; }
  [[nodiscard]] std::vector<net::NodeId> parents() const;
  /// Neighbors we actively relay to (outbound-active, non-parent): the
  /// node's out-degree in the emergent structure (Fig 7).
  [[nodiscard]] std::vector<net::NodeId> children() const;
  /// Structure depth: tree = |path|-1, DAG = depth tag; -1 before the first
  /// delivery (Fig 6).
  [[nodiscard]] std::int32_t depth() const;
  /// Tree mode: the source-to-self path, sharing its parent's cell.
  [[nodiscard]] const TreePath& path() const { return path_; }
  /// Cumulative per-hop RTT from the source (§III-B's routing-delay metric).
  [[nodiscard]] sim::Duration cumulative_path_rtt() const {
    return sim::Duration::microseconds(
        static_cast<std::int64_t>(cum_delay_us()));
  }
  [[nodiscard]] const Stats& stats() const { return stats_; }
  /// The engine's Config, shared by all of its streams.
  [[nodiscard]] const Config& config() const;
  /// Largest delivered seq + 1; 0 before the first delivery. Read from the
  /// engine's progress table, which keeps it current on every delivery.
  [[nodiscard]] std::uint64_t delivered_watermark() const;
  /// Sequences the retransmit buffer can serve right now, in buffer
  /// (arrival) order.
  [[nodiscard]] std::vector<std::uint64_t> buffered_seqs() const;
  [[nodiscard]] bool repair_in_progress() const { return repair_ != nullptr; }

  void set_delivery_handler(DeliveryHandler handler) {
    delivery_handler_ = std::move(handler);
  }

  // --- Events from the engine -------------------------------------------------

  void on_neighbor_up(net::NodeId peer);
  void on_neighbor_down(net::NodeId peer,
                        membership::NeighborLossReason reason);

 private:
  friend class BrisaEngine;  // routes demultiplexed messages to handle_*

  /// Per-neighbor dissemination link state (distinct from the PSS view
  /// entry; §II-C: deactivation does not remove the HyParView link).
  /// Declared widest first: 32 bytes, eight of them inline per stream.
  struct Link {
    /// Last position metadata seen from this neighbor (data messages,
    /// deactivations, resume acks); drives soft repair and strategies.
    PositionInfo position;
    /// Consecutive §II-G depth bumps this parent caused; a persistent
    /// ratchet marks a depth-tag cycle (see handle_data).
    std::uint32_t depth_bumps = 0;
    /// We accept stream traffic from this neighbor (they are a parent or a
    /// not-yet-pruned bootstrap link).
    bool inbound_active = true;
    /// We relay stream traffic to this neighbor.
    bool outbound_active = true;
    /// This neighbor has relayed stream data to us at least once; drives the
    /// Fig 13 construction-time probe.
    bool seen_data = false;
    /// The cum_delay field has been refreshed by a keep-alive (§II-F
    /// piggyback), even if the rest of the position is stale or unknown.
    bool ka_cum_fresh = false;
  };
  static_assert(sizeof(Link) == 32, "Link layout");

  /// Cumulative bumps a single parent may cause before being treated as a
  /// cycle. A legitimate upstream reorganization causes one bump; a cycle
  /// ratchets on every circulating message, so a handful of bumps from one
  /// link is decisive. Low values heal stale-depth cycles within ~1 s at the
  /// paper's 5 msg/s rate.
  static constexpr std::uint32_t kMaxDepthBumpsPerParent = 5;

  /// Repair flavors; only failure-orphans count toward Table I.
  enum class RepairKind : std::uint8_t {
    kOrphanFailure,  ///< lost every parent to failures (§II-F)
    kOrderRebuild,   ///< upstream sent a re-activation order
    kTopUp,          ///< DAG node regaining its p-th parent; best effort
    kStarvation,     ///< live parents feeding nothing: stale structure
    kRefine,         ///< delay-aware periodic parent improvement (§II-E)
  };

  struct RepairState {
    sim::TimePoint started_at;
    bool hard = false;
    bool demoted = false;  ///< top-up already used its one self-demotion
    std::vector<net::NodeId> pending_candidates;
    net::NodeId awaiting_ack;  ///< invalid when none outstanding
    std::uint64_t timeout_token = 0;
    /// Pending ack-timeout timer; cancelled when the repair resolves first
    /// (the common case — most repair timers never fire).
    sim::EventId timeout_event;
  };

  // Engine access shims: the stream borrows its engine's identity, clock,
  // timers, and PSS. Defined out of line (BrisaEngine is incomplete here).
  [[nodiscard]] net::NodeId id() const;
  [[nodiscard]] sim::TimePoint now() const;
  [[nodiscard]] membership::PeerSamplingService& pss() const;
  [[nodiscard]] net::Network& network() const;
  sim::EventId after(sim::Duration delay, sim::Callback fn);
  void cancel(sim::EventId event);

  // Periodic maintenance, run by the engine's ticks (one tick per mechanism
  // per node, walking the streams in id order).
  /// Delay-aware refinement (§II-E): switch to a clearly cheaper parent.
  void check_refine();
  /// Starvation surveillance (§II-F fallback): hard reset a stale structure.
  void check_starvation();
  /// DAG top-up (§II-G): probe for a missing parent while below target.
  void check_topup();

  /// A neighbor's keep-alive advertised its cumulative path delay (§III-B);
  /// the engine forwards it only under the delay-aware strategy, the one
  /// reader of the keep-alive-fresh link cache.
  void note_keepalive_delay(net::NodeId peer, std::uint64_t cum_delay_us);
  /// Accumulated hop delay from the source (the progress entry's aux).
  [[nodiscard]] std::uint64_t cum_delay_us() const;

  // Message handlers (invoked by the engine after stream demux).
  void handle_data(net::NodeId from, const BrisaData& msg);
  void handle_deactivate(net::NodeId from, const BrisaDeactivate& msg);
  void handle_resume(net::NodeId from, const BrisaResume& msg);
  void handle_resume_ack(net::NodeId from, const BrisaResumeAck& msg);
  void handle_reactivate_order(net::NodeId from);
  void handle_retransmit_request(net::NodeId from,
                                 const BrisaRetransmitRequest& msg);

  // Structure emergence.
  void deliver_and_relay(net::NodeId from, const BrisaData& msg);
  void arm_gap_probe();
  void prune_with(net::NodeId duplicate_sender);
  void deactivate_inbound(net::NodeId peer);
  [[nodiscard]] bool position_eligible(net::NodeId candidate,
                                       const PositionInfo& position) const;
  void adopt_position_from(net::NodeId parent, const PositionInfo& parent_pos);
  /// Caches a neighbor's position in its link (when the position is known).
  static void record_position(Link& link, const PositionInfo& position);
  [[nodiscard]] PositionInfo my_position() const;
  [[nodiscard]] CandidateInfo make_candidate(net::NodeId peer,
                                             bool incumbent) const;
  void note_structure_stability();
  /// The one definition of "peer is a child we relay to": shared by
  /// children() and out_degree() so the degree a node advertises in
  /// PositionInfo can never desync from its actual relay fan-out.
  [[nodiscard]] bool is_child(net::NodeId peer, const Link& link) const;
  /// children().size() without materializing the vector: the out-degree
  /// feeds PositionInfo on every relayed message.
  [[nodiscard]] std::size_t out_degree() const;

  // Repair (§II-F).
  void start_repair(bool allow_soft);
  void start_repair_with_kind(RepairKind kind, bool allow_soft,
                              net::NodeId exclude);
  void try_next_repair_candidate();
  void escalate_to_hard_repair();
  void arm_hard_repair_retry();
  void finish_repair(net::NodeId new_parent);
  void request_missing(net::NodeId parent);
  [[nodiscard]] std::vector<net::NodeId> soft_repair_candidates() const;

  // Sending helpers.
  void send_to(net::NodeId peer, net::MessagePtr message,
               net::TrafficClass traffic_class);
  void relay(const BrisaData& msg, net::NodeId except);
  void buffer_payload(const BrisaData& msg);
  /// Appends to the retransmit buffer and trims: first the historical
  /// retransmit_buffer count cap, then any `[limits]` entry/byte bound with
  /// its eviction policy.
  void store_payload(std::uint64_t seq, std::size_t payload_bytes);
  /// A retransmit request for holes >= from_seq, carrying a Bloom digest of
  /// the seqs we already hold above from_seq when [limits] bloom_digests is
  /// on (so the parent skips them instead of resending the whole window).
  [[nodiscard]] net::MessagePtr make_retransmit_request(
      std::uint64_t from_seq);

  // Members are ordered so that small fields share words instead of each
  // padding out its own (perfbench topics runs 32 streams per node).
  BrisaEngine& engine_;
  net::StreamId stream_;
  bool is_source_ = false;
  sim::Rng rng_;
  DeliveryHandler delivery_handler_;

  sim::TimePoint started_at_;
  std::uint64_t next_seq_ = 0;

  /// Per-neighbor dissemination links, sorted by id (flat storage keeps the
  /// deterministic iteration order the std::map version had, minus the
  /// pointer chases on every handle_data lookup).
  util::FlatMap<net::NodeId, Link, 8> links_;
  util::FlatSet<net::NodeId, 4> parents_;

  // Position in the structure.
  TreePath path_;                  ///< tree mode; includes self when known
  std::int32_t depth_ = -1;        ///< DAG mode
  bool position_known_ = false;
  RepairKind repair_kind_ = RepairKind::kOrphanFailure;  ///< see repair_
  bool gap_probe_armed_ = false;

  /// Retransmit buffer in arrival order (see util/seq_ring.h for why not
  /// seq order).
  util::SeqRing payload_buffer_;
  std::size_t payload_buffer_bytes_ = 0;
  std::uint64_t digest_rounds_ = 0;  ///< per-round Bloom salt counter

  /// Heap-held: repairs are rare, and an inline RepairState would cost
  /// every idle stream its full size.
  std::unique_ptr<RepairState> repair_;
  sim::TimePoint last_delivery_at_;
  std::uint64_t repair_token_counter_ = 0;

  Stats stats_;
};

// The per-(node, stream) footprint (perfbench topics runs 32 streams per
// node). std::function and friends differ in size across standard
// libraries; the figure is libstdc++'s on a 64-bit target.
#if defined(__GLIBCXX__) && UINTPTR_MAX == UINT64_MAX
static_assert(sizeof(BrisaStream) == 928, "BrisaStream layout");
#endif

/// Single-stream deployments read naturally with the historical name.
using Brisa = BrisaStream;

/// One BRISA endpoint per node: the net::Process and PssListener that a
/// forest of BrisaStream instances shares. Streams are stored in a flat
/// vector indexed by StreamId (ids are expected to be small and dense), so
/// the per-message demux is one bounds check + one pointer load and the
/// single-stream hot path pays no multiplexing tax.
class BrisaEngine final : public net::Process, public membership::PssListener {
 public:
  /// `config` applies to every stream the engine runs.
  BrisaEngine(net::Network& network, membership::PeerSamplingService& pss,
              net::NodeId id, const BrisaStream::Config& config);

  /// Creates and owns the state machine for `stream`. Ids must be unique;
  /// keep them dense from 0 (the demux vector grows to the largest id).
  BrisaStream& add_stream(net::StreamId stream);

  [[nodiscard]] const BrisaStream::Config& config() const { return config_; }

  /// The stream's state machine; asserts it exists.
  [[nodiscard]] BrisaStream& stream(net::StreamId stream);
  [[nodiscard]] const BrisaStream& stream(net::StreamId stream) const;
  /// nullptr when `stream` is not locally active.
  [[nodiscard]] BrisaStream* find_stream(net::StreamId stream);
  [[nodiscard]] const BrisaStream* find_stream(net::StreamId stream) const;

  [[nodiscard]] std::size_t stream_count() const { return progress_->size(); }
  /// Ids of the locally active streams, ascending.
  [[nodiscard]] std::vector<net::StreamId> stream_ids() const;

  [[nodiscard]] membership::PeerSamplingService& pss() { return pss_; }

  // --- PssListener ------------------------------------------------------------

  void on_neighbor_up(net::NodeId peer) override;
  void on_neighbor_down(net::NodeId peer,
                        membership::NeighborLossReason reason) override;
  void on_app_message(net::NodeId from, net::MessagePtr message) override;
  /// Raises each local stream's heard watermark in the progress table; the
  /// stream objects are touched only under the delay-aware strategy.
  void on_neighbor_watermarks(
      net::NodeId peer,
      const std::vector<membership::AppWatermark>& entries) override;
  /// The progress table itself, one entry per local stream in id order. The
  /// same object until a stream's watermark or path delay changes.
  [[nodiscard]] membership::WatermarkSnapshot watermark_snapshot() override;

 private:
  friend class BrisaStream;  // writes its own progress entry

  /// Runs one maintenance check on every local stream, in id order.
  void tick(void (BrisaStream::*check)());

  [[nodiscard]] const membership::AppWatermark& progress(
      net::StreamId stream) const {
    return (*progress_)[local_[stream].slot];
  }
  /// Newest watermark any neighbor's keep-alive advertised for `stream`.
  [[nodiscard]] std::uint64_t heard_watermark(net::StreamId stream) const {
    return local_[stream].heard;
  }
  /// The progress table, ready to write: copied first when it was handed
  /// out since the last write (copy-on-write), so a snapshot never changes.
  std::vector<membership::AppWatermark>& writable_progress();
  void note_delivered(net::StreamId stream, std::uint64_t seq);
  void note_cum_delay(net::StreamId stream, std::uint64_t cum_delay_us);

  membership::PeerSamplingService& pss_;
  BrisaStream::Config config_;
  /// Index = StreamId; nullptr for ids never added (sparse use).
  std::vector<std::unique_ptr<BrisaStream>> streams_;
  /// Keep-alive progress table: {stream, delivered watermark, cumulative
  /// path delay} per local stream, ascending by id. It is the snapshot
  /// every keep-alive carries (DESIGN.md §8). Never null.
  std::shared_ptr<std::vector<membership::AppWatermark>> progress_;
  /// progress_ was handed out since its last write.
  bool progress_shared_ = false;
  static constexpr std::uint32_t kNoSlot = ~std::uint32_t{0};
  /// Per-stream state the keep-alives never carry.
  struct LocalProgress {
    /// Newest watermark heard from any neighbor.
    std::uint64_t heard = 0;
    /// Slot in progress_; kNoSlot when the stream is not local.
    std::uint32_t slot = kNoSlot;
  };
  /// Index = StreamId.
  std::vector<LocalProgress> local_;
};

inline const BrisaStream::Config& BrisaStream::config() const {
  return engine_.config();
}

inline std::uint64_t BrisaStream::delivered_watermark() const {
  return engine_.progress(stream_).watermark;
}

inline std::uint64_t BrisaStream::cum_delay_us() const {
  return engine_.progress(stream_).aux;
}

}  // namespace brisa::core
