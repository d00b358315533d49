// TAG baseline (Liu & Zhou 2006; §III-D c).
//
// TAG, like BRISA, pairs a tree with a gossip overlay — but with opposite
// design choices that the paper's comparison highlights:
//   * membership is a doubly linked list sorted by join time, with nodes
//     knowing predecessors/successors up to two hops;
//   * joining traverses the list backwards from the tail, opening a fresh
//     connection per hop (the construction cost measured in Fig 13),
//     collecting k random gossip peers and choosing a parent with free
//     capacity along the way;
//   * dissemination is pull-based: children poll their tree parent
//     periodically and prefetch from gossip peers (the latency cost of
//     Table II);
//   * a broken list (two consecutive failures) forces re-insertion through
//     the head — TAG's hard repair (Fig 14).
//
// The list head doubles as the bootstrap registry (tail pointer), matching
// the centralized join entry point the paper attributes to TAG-like systems.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "baselines/messages.h"
#include "net/bounded_store.h"
#include "net/delivery_log.h"
#include "net/network.h"
#include "net/process.h"
#include "net/transport.h"
#include "sim/rng.h"
#include "util/assert.h"
#include "util/flat_map.h"

namespace brisa::baselines {

class TagNode final : public net::Process,
                      public net::TransportHandler,
                      public net::Network::DatagramHandler {
 public:
  struct Config {
    std::uint32_t capacity = 4;   ///< max tree children (≈ view size)
    std::size_t gossip_peers = 4;  ///< k random peers collected while joining
    /// Pull cadence (2.5/s toward the parent): polling on a period is what
    /// gives TAG its Table II 2x dissemination latency vs BRISA's push.
    sim::Duration pull_period = sim::Duration::milliseconds(400);
    sim::Duration gossip_pull_period = sim::Duration::seconds(1);
    /// Payloads per pull reply. A full reply (exactly pull_batch updates)
    /// signals backlog at the responder, and the receiver follows up
    /// immediately instead of waiting out the next poll period — without
    /// that continuation the per-node drain capacity tops out at
    /// pull-rate * batch (3.5 msg/s here) below the 5 msg/s injection rate,
    /// so every node fell behind linearly and reliability collapsed at
    /// scale. Caught-up nodes see partial or empty replies and keep the
    /// periodic cadence (which is what gives TAG its Table II 2x
    /// dissemination latency vs push).
    std::size_t pull_batch = 1;
    std::size_t probe_max = 6;    ///< traversal bound before forced accept
    double accept_probability = 0.6;
    /// Concurrent streams (topics) 0..num_streams-1 on this node.
    std::size_t num_streams = 1;
    /// Bandwidth-discipline layer; default = off (unbounded, exact, no
    /// backoff).
    net::Limits limits;
  };

  struct Stats : net::DeliveryLog {
    std::uint64_t pulls_sent = 0;
    std::uint64_t probes_sent = 0;
    /// Largest number of simultaneously outstanding dials (join/probe/bridge
    /// connection attempts) — the backlog gauge the 100k collapse diagnosis
    /// asked for.
    std::uint64_t peak_pending_dials = 0;
    /// Pull rounds skipped because the local NIC/CPU was overusing
    /// ([limits] rate_control).
    std::uint64_t rate_deferrals = 0;
    std::uint64_t parents_lost = 0;
    std::uint64_t soft_repairs = 0;   ///< parent found via local traversal
    std::uint64_t hard_repairs = 0;   ///< list broken: re-insertion via head
    std::vector<sim::Duration> soft_repair_delays;
    std::vector<sim::Duration> hard_repair_delays;
    /// Join start -> parent selected (Fig 13 construction time).
    std::optional<sim::TimePoint> join_started_at;
    std::optional<sim::TimePoint> parent_acquired_at;
  };

  TagNode(net::Network& network, net::Transport& transport, net::NodeId id,
          net::NodeId head, Config config);

  /// The first node: list head, tree root, stream source.
  void start_as_head();

  /// Full join: tail query -> append -> backward traversal.
  void join();

  /// Injects the next message on `stream` (head only). Returns the
  /// sequence number.
  std::uint64_t broadcast(net::StreamId stream, std::size_t payload_bytes);
  std::uint64_t broadcast(std::size_t payload_bytes) {
    return broadcast(net::kDefaultStream, payload_bytes);
  }

  /// Per-stream delivery statistics. Structure-level events (probes, list
  /// repairs, join timing) are recorded on stream 0: the list/tree is one
  /// shared structure, not per-stream.
  [[nodiscard]] const Stats& stats(net::StreamId stream) const {
    BRISA_ASSERT(stream < streams_.size());
    return streams_[stream].stats;
  }
  [[nodiscard]] const Stats& stats() const {
    return stats(net::kDefaultStream);
  }
  [[nodiscard]] net::NodeId parent() const { return parent_; }
  [[nodiscard]] net::NodeId list_pred() const { return pred_; }
  [[nodiscard]] net::NodeId list_succ() const { return succ_; }
  [[nodiscard]] std::size_t child_count() const { return child_conns_.size(); }
  [[nodiscard]] bool joined() const { return is_head_ || parent_.valid(); }
  [[nodiscard]] const std::vector<net::NodeId>& gossip_view() const {
    return gossip_peers_;
  }
  /// Store evictions under a `[limits]` bound (0 when unbounded).
  [[nodiscard]] std::uint64_t evictions(
      net::StreamId stream = net::kDefaultStream) const {
    BRISA_ASSERT(stream < streams_.size());
    return streams_[stream].store.evictions();
  }

  // TransportHandler
  void on_connection_up(net::ConnectionId conn, net::NodeId peer,
                        bool initiated) override;
  void on_connection_down(net::ConnectionId conn, net::NodeId peer,
                          net::CloseReason reason) override;
  void on_message(net::ConnectionId conn, net::NodeId from,
                  net::MessagePtr message) override;

  // DatagramHandler (tail queries/replies + gossip prefetch)
  void on_datagram(net::NodeId from, net::MessagePtr message) override;

 private:
  /// What we dialed a connection for; drives the first message sent on it.
  enum class DialIntent : std::uint8_t {
    kAppend,      ///< TagAppendRequest to the (believed) tail
    kProbe,       ///< TagListProbe during a traversal
    kAdoptParent, ///< keep as the parent link; start pulling
    kBridge,      ///< reconnect to pred2 after our pred died
  };

  struct PendingDial {
    DialIntent intent;
    net::NodeId peer;
  };

  // Join / traversal state machine.
  void query_tail();
  void append_to(net::NodeId tail);
  void begin_traversal(net::NodeId start, bool for_repair);
  void probe(net::NodeId target);
  void handle_probe_reply(net::ConnectionId conn, net::NodeId from,
                          const TagListProbeReply& msg);
  void adopt_parent(net::NodeId parent, net::ConnectionId conn);
  void traversal_failed_hop(net::NodeId next_hint);

  // List maintenance.
  void handle_append_request(net::ConnectionId conn, net::NodeId from);
  void handle_append_reply(net::ConnectionId conn, net::NodeId from,
                           const TagAppendReply& msg);
  void handle_list_update(net::ConnectionId conn, net::NodeId from,
                          const TagListUpdate& msg);
  void pred_died();
  void succ_died();
  void reinsert();

  // Dissemination.
  void on_pull_timer();
  void on_gossip_pull_timer();
  void handle_pull_request(net::ConnectionId conn, net::NodeId from,
                           const TagPullRequest& msg, bool datagram);
  void deliver(net::StreamId stream, std::uint64_t seq,
               std::size_t payload_bytes);
  void send_pull(net::ConnectionId conn, net::NodeId datagram_peer);
  void send_pull_one(net::ConnectionId conn, net::NodeId datagram_peer,
                     net::StreamId stream);
  void handle_pull_reply(net::ConnectionId conn, net::NodeId from,
                         const TagPullReply& reply);
  void record_parent_recovery();

  void add_gossip_peers(const std::vector<net::NodeId>& sample);
  [[nodiscard]] std::vector<net::NodeId> peer_sample();
  /// Head only: reservoir-samples every member the head learns of, so tail
  /// replies can hand joiners an unbiased global peer sample.
  void note_member(net::NodeId member);
  void note_pending_dial();
  void start_timers();

  /// Per-stream sequence space: the pull store (ordered, lower_bound-driven)
  /// and delivery stats, whose delivery log (not the store, which evicts
  /// under `[limits]`) is the duplicate-suppression set. The list/tree
  /// structure is shared by every stream.
  struct StreamState {
    std::uint64_t next_seq = 0;
    net::BoundedSeqStore store;
    Stats stats;
  };

  /// Structure-level stats live on stream 0.
  [[nodiscard]] Stats& node_stats() { return streams_[0].stats; }

  net::Transport& transport_;
  net::NodeId head_;
  Config config_;
  sim::Rng rng_;
  bool is_head_ = false;
  bool started_ = false;

  // Linked list links (ids; pred/succ also hold persistent connections).
  net::NodeId pred_;
  net::NodeId pred2_;
  net::NodeId succ_;
  net::ConnectionId pred_conn_ = net::kInvalidConnectionId;
  net::ConnectionId succ_conn_ = net::kInvalidConnectionId;
  net::NodeId tail_;  ///< maintained by the head only

  // Tree links.
  net::NodeId parent_;
  net::ConnectionId parent_conn_ = net::kInvalidConnectionId;
  util::FlatSet<net::ConnectionId, 8> child_conns_;

  // Join / repair traversal state.
  util::FlatMap<net::ConnectionId, PendingDial, 4> pending_dials_;
  bool traversing_ = false;
  bool traversal_for_repair_ = false;
  std::size_t probes_this_traversal_ = 0;
  std::optional<sim::TimePoint> orphaned_at_;
  bool repair_is_hard_ = false;

  std::vector<net::NodeId> gossip_peers_;
  /// Head only: reservoir sample over all members seen (kNewTail updates +
  /// direct appends), feeding TagTailReply peer samples.
  std::vector<net::NodeId> member_sample_;
  std::uint64_t members_seen_ = 0;
  /// Indexed by StreamId, sized num_streams at construction.
  std::vector<StreamState> streams_;
};

}  // namespace brisa::baselines
