// SimpleTree baseline (§III-D b): a centrally coordinated random tree.
//
// The efficiency end of the design spectrum. A coordinator assigns every
// joiner a uniformly random parent among previously joined nodes (which
// makes the structure acyclic by construction, join-order style, as in TAG);
// data is pushed down tree edges immediately. There is no repair: the paper
// uses SimpleTree only in static scenarios (Fig 12, Table II).
#pragma once

#include <cstdint>
#include <vector>

#include "baselines/messages.h"
#include "net/delivery_log.h"
#include "net/network.h"
#include "net/process.h"
#include "net/transport.h"
#include "sim/rng.h"
#include "util/assert.h"
#include "util/flat_map.h"

namespace brisa::baselines {

/// The centralized membership point. Runs on its own host so that the single
/// communication step of a join is charged to the network like any other
/// traffic.
class SimpleTreeCoordinator final : public net::Process,
                                    public net::Network::DatagramHandler {
 public:
  SimpleTreeCoordinator(net::Network& network, net::NodeId id);

  /// Declares the tree root (the stream source); must precede any join.
  void register_root(net::NodeId root);

  void on_datagram(net::NodeId from, net::MessagePtr message) override;

  [[nodiscard]] std::size_t joined_count() const { return joined_.size(); }

 private:
  std::vector<net::NodeId> joined_;
  sim::Rng rng_;
};

class SimpleTreeNode final : public net::Process, public net::TransportHandler,
                             public net::Network::DatagramHandler {
 public:
  struct Stats : net::DeliveryLog {
    bool parent_lost = false;
  };

  SimpleTreeNode(net::Network& network, net::Transport& transport,
                 net::NodeId id, net::NodeId coordinator,
                 std::size_t num_streams = 1);

  /// Root bootstrap: no join round-trip, just registration with the
  /// coordinator (done by the scenario via register_root).
  void start_as_root() { is_root_ = true; }

  /// Contacts the coordinator for a parent assignment.
  void join();

  /// Injects the next message on `stream` (root only). Returns the
  /// sequence number.
  std::uint64_t broadcast(net::StreamId stream, std::size_t payload_bytes);
  std::uint64_t broadcast(std::size_t payload_bytes) {
    return broadcast(net::kDefaultStream, payload_bytes);
  }

  [[nodiscard]] const Stats& stats(net::StreamId stream) const {
    BRISA_ASSERT(stream < streams_.size());
    return streams_[stream].stats;
  }
  [[nodiscard]] const Stats& stats() const {
    return stats(net::kDefaultStream);
  }
  [[nodiscard]] net::NodeId parent() const { return parent_; }
  [[nodiscard]] std::size_t child_count() const { return children_.size(); }
  [[nodiscard]] bool joined() const { return is_root_ || parent_.valid(); }

  // TransportHandler
  void on_connection_up(net::ConnectionId conn, net::NodeId peer,
                        bool initiated) override;
  void on_connection_down(net::ConnectionId conn, net::NodeId peer,
                          net::CloseReason reason) override;
  void on_message(net::ConnectionId conn, net::NodeId from,
                  net::MessagePtr message) override;

  // DatagramHandler (join replies arrive connectionless)
  void on_datagram(net::NodeId from, net::MessagePtr message) override;

 private:
  /// Per-stream sequence space; the tree topology itself is shared by every
  /// stream (one set of child connections).
  struct StreamState {
    std::uint64_t next_seq = 0;
    Stats stats;
  };

  void forward_to_children(net::StreamId stream, std::uint64_t seq,
                           std::size_t payload_bytes);

  net::Transport& transport_;
  net::NodeId coordinator_;
  bool is_root_ = false;

  net::NodeId parent_;
  net::ConnectionId parent_conn_ = net::kInvalidConnectionId;
  util::FlatSet<net::ConnectionId, 8> children_;

  /// Indexed by StreamId, sized num_streams at construction.
  std::vector<StreamState> streams_;
};

}  // namespace brisa::baselines
