// HyParView membership protocol (Leitão et al., DSN 2007) with the BRISA
// paper's expansion-factor modification (§II-A).
//
// Each node keeps a small *active view* (bidirectional, TCP-backed,
// keep-alive monitored — this is what the application sees) and a larger
// *passive view* refreshed by periodic shuffles and used as a reservoir of
// replacement neighbors. Evictions do not trigger replacement while the
// active view holds between `active_size` and `active_size ×
// expansion_factor` members, which prevents the join-time eviction chain
// reactions the paper describes.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "membership/messages.h"
#include "membership/peer_sampling.h"
#include "net/network.h"
#include "net/process.h"
#include "net/transport.h"
#include "sim/rng.h"
#include "util/flat_map.h"

namespace brisa::membership {

class HyParView final : public PeerSamplingService,
                        public net::Process,
                        public net::TransportHandler,
                        public net::Network::DatagramHandler {
 public:
  struct Config {
    std::size_t active_size = 4;      ///< target active view size (paper: 4–10)
    double expansion_factor = 2.0;    ///< §II-A; Fig 8 uses 1.0
    std::size_t passive_size = 24;
    int active_rwl = 6;               ///< ARWL for forward-join walks
    int passive_rwl = 3;              ///< PRWL
    std::size_t shuffle_active_sample = 3;
    std::size_t shuffle_passive_sample = 4;
    int shuffle_ttl = 3;
    sim::Duration shuffle_period = sim::Duration::seconds(5);
    sim::Duration keepalive_period = sim::Duration::seconds(1);
    int keepalive_miss_limit = 3;
    /// EWMA weight of a new RTT sample.
    double rtt_alpha = 0.3;
  };

  HyParView(net::Network& network, net::Transport& transport, net::NodeId id,
            Config config);

  /// Bootstraps as the very first node (no contact): starts timers only.
  void start();

  /// Joins through `contact` (§II-F): connect, send JOIN, start timers.
  void join(net::NodeId contact);

  // --- PeerSamplingService --------------------------------------------------
  [[nodiscard]] std::vector<net::NodeId> view() const override;
  [[nodiscard]] const std::vector<net::NodeId>& view_ref() const override {
    return established_;
  }
  [[nodiscard]] bool is_neighbor(net::NodeId peer) const override;
  bool send_app(net::NodeId peer, net::MessagePtr message,
                net::TrafficClass traffic_class) override;
  [[nodiscard]] sim::Duration rtt_estimate(net::NodeId peer) const override;
  void set_listener(PssListener* listener) override { listener_ = listener; }

  // --- TransportHandler ------------------------------------------------------
  void on_connection_up(net::ConnectionId conn, net::NodeId peer,
                        bool initiated) override;
  void on_connection_down(net::ConnectionId conn, net::NodeId peer,
                          net::CloseReason reason) override;
  void on_message(net::ConnectionId conn, net::NodeId from,
                  net::MessagePtr message) override;

  // --- DatagramHandler (shuffle replies travel connectionless) --------------
  void on_datagram(net::NodeId from, net::MessagePtr message) override;

  // --- Introspection (tests, structure analysis) -----------------------------
  [[nodiscard]] const Config& config() const { return config_; }
  [[nodiscard]] std::size_t active_count() const;
  [[nodiscard]] std::vector<net::NodeId> passive_view() const;
  [[nodiscard]] std::size_t capacity() const;

  struct Counters {
    std::uint64_t joins_handled = 0;
    std::uint64_t forward_joins = 0;
    std::uint64_t evictions = 0;
    std::uint64_t neighbor_accepts = 0;
    std::uint64_t neighbor_rejects = 0;
    std::uint64_t failures_detected = 0;
    std::uint64_t promotions = 0;
    std::uint64_t shuffles_sent = 0;
  };
  [[nodiscard]] const Counters& counters() const { return counters_; }

 private:
  enum class LinkState : std::uint8_t {
    kDialing,      ///< transport connect in flight
    kAwaitReply,   ///< NEIGHBOR/JOIN sent, waiting for the verdict
    kInbound,      ///< accepted connection, waiting for first message
    kEstablished,  ///< full member of the active view
  };

  /// Why we dialed a peer (determines the first message on the link).
  enum class DialPurpose : std::uint8_t {
    kJoin,
    kNeighborHigh,
    kNeighborLow,
    kForwardJoinAccept,
  };

  struct Link {
    net::ConnectionId conn = net::kInvalidConnectionId;
    LinkState state = LinkState::kDialing;
    DialPurpose purpose = DialPurpose::kNeighborLow;
    // RTT bookkeeping (established links only).
    double rtt_ewma_us = -1.0;
    std::uint64_t outstanding_probe = 0;
    sim::TimePoint probe_sent_at;
    int missed_probes = 0;
  };

  // Message handlers.
  void handle_join(net::ConnectionId conn, net::NodeId from);
  void handle_forward_join(net::NodeId from, const HpvForwardJoin& msg);
  void handle_neighbor(net::ConnectionId conn, net::NodeId from,
                       const HpvNeighbor& msg);
  void handle_neighbor_reply(net::ConnectionId conn, net::NodeId from,
                             const HpvNeighborReply& msg);
  void handle_disconnect(net::ConnectionId conn, net::NodeId from);
  void handle_shuffle(net::NodeId from, const HpvShuffle& msg);
  void integrate_shuffle_sample(const std::vector<net::NodeId>& sample,
                                const std::vector<net::NodeId>& sent);
  [[nodiscard]] WatermarkSnapshot current_watermarks() const;
  void handle_keepalive(net::ConnectionId conn, net::NodeId from,
                        const HpvKeepAlive& msg);
  void handle_keepalive_reply(net::NodeId from, const HpvKeepAliveReply& msg);

  // View management.
  void establish(net::NodeId peer, net::ConnectionId conn);
  void drop_active(net::NodeId peer, NeighborLossReason reason,
                   bool close_conn);
  void evict_if_needed(net::NodeId keep, std::size_t threshold);
  void maybe_promote_replacement();
  void add_passive(net::NodeId peer);
  void dial(net::NodeId peer, DialPurpose purpose);
  void send_control(net::NodeId peer, net::MessagePtr message);
  /// The established-peer cache, ascending by id (the iteration order the
  /// std::map-based implementation produced). Copy before mutating the view.
  [[nodiscard]] const std::vector<net::NodeId>& established_peers() const {
    return established_;
  }
  [[nodiscard]] std::vector<net::NodeId> passive_candidates() const;

  // Timers.
  void start_timers();
  void on_shuffle_timer();
  void on_keepalive_timer();
  void fail_link(net::NodeId peer);

  net::Transport& transport_;
  Config config_;
  sim::Rng rng_;
  PssListener* listener_ = nullptr;

  /// Active view + in-progress links. Sorted flat storage: the per-send
  /// lookup is a binary search over one or two cache lines, and iteration
  /// stays in the ascending-id order the determinism contract requires.
  util::FlatMap<net::NodeId, Link, 8> links_;
  util::FlatSet<net::NodeId, 8> passive_;
  /// Ids of the kEstablished subset of links_, ascending — maintained by
  /// establish/drop_active so view()/send fan-outs never rebuild it.
  std::vector<net::NodeId> established_;
  net::NodeId rejoin_contact_;  ///< last join contact; isolation fallback
  std::vector<net::NodeId> last_shuffle_sent_;
  std::uint64_t next_probe_id_ = 1;
  bool started_ = false;
  Counters counters_;
};

}  // namespace brisa::membership
