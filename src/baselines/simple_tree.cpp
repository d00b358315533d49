#include "baselines/simple_tree.h"

#include "net/message_pool.h"
#include "util/assert.h"

namespace brisa::baselines {

namespace {
constexpr net::TrafficClass kCtl = net::TrafficClass::kMembership;
constexpr net::TrafficClass kData = net::TrafficClass::kData;
}  // namespace

SimpleTreeCoordinator::SimpleTreeCoordinator(net::Network& network,
                                             net::NodeId id)
    : net::Process(network, id),
      rng_(network.simulator().rng().split(0x51357ULL ^ id.index())) {
  network.bind_datagram_handler(id, this);
}

void SimpleTreeCoordinator::register_root(net::NodeId root) {
  BRISA_ASSERT_MSG(joined_.empty(), "root must register first");
  joined_.push_back(root);
}

void SimpleTreeCoordinator::on_datagram(net::NodeId from,
                                        net::MessagePtr message) {
  if (message->kind() != net::MessageKind::kTreeJoinRequest) return;
  BRISA_ASSERT_MSG(!joined_.empty(), "join before root registration");
  // Uniformly random parent among earlier joiners: acyclic by join order.
  const net::NodeId parent = rng_.pick(joined_);
  joined_.push_back(from);
  network().send_datagram(id(), from, net::make_message<TreeJoinReply>(parent),
                          kCtl);
}

SimpleTreeNode::SimpleTreeNode(net::Network& network, net::Transport& transport,
                               net::NodeId id, net::NodeId coordinator,
                               std::size_t num_streams)
    : net::Process(network, id), transport_(transport),
      coordinator_(coordinator), streams_(num_streams) {
  BRISA_ASSERT(num_streams >= 1);
  transport_.bind(id, this);
  network.bind_datagram_handler(id, this);
}

void SimpleTreeNode::join() {
  BRISA_ASSERT(!is_root_);
  network().send_datagram(id(), coordinator_,
                          net::make_message<TreeJoinRequest>(), kCtl);
}

std::uint64_t SimpleTreeNode::broadcast(net::StreamId stream,
                                        std::size_t payload_bytes) {
  BRISA_ASSERT_MSG(is_root_, "broadcast requires the root");
  BRISA_ASSERT(stream < streams_.size());
  StreamState& state = streams_[stream];
  const std::uint64_t seq = state.next_seq++;
  state.stats.record(seq, now());
  forward_to_children(stream, seq, payload_bytes);
  return seq;
}

void SimpleTreeNode::on_datagram(net::NodeId /*from*/,
                                 net::MessagePtr message) {
  if (message->kind() != net::MessageKind::kTreeJoinReply) return;
  const auto& reply = static_cast<const TreeJoinReply&>(*message);
  parent_ = reply.parent();
  parent_conn_ = transport_.connect(id(), parent_);
}

void SimpleTreeNode::on_connection_up(net::ConnectionId conn,
                                      net::NodeId /*peer*/, bool initiated) {
  if (!initiated || conn != parent_conn_) return;
  transport_.send(conn, id(), net::make_message<TreeAttach>(), kCtl);
}

void SimpleTreeNode::on_connection_down(net::ConnectionId conn,
                                        net::NodeId /*peer*/,
                                        net::CloseReason /*reason*/) {
  if (conn == parent_conn_) {
    // No repair by design: the subtree silently stops receiving.
    for (StreamState& state : streams_) state.stats.parent_lost = true;
    parent_conn_ = net::kInvalidConnectionId;
    parent_ = net::NodeId::invalid();
    return;
  }
  children_.erase(conn);
}

void SimpleTreeNode::on_message(net::ConnectionId conn, net::NodeId /*from*/,
                                net::MessagePtr message) {
  switch (message->kind()) {
    case net::MessageKind::kTreeAttach:
      children_.insert(conn);
      return;
    case net::MessageKind::kTreeData: {
      const auto& data = static_cast<const TreeData&>(*message);
      if (data.stream() >= streams_.size()) return;
      if (!streams_[data.stream()].stats.receive(data.seq(), now())) return;
      forward_to_children(data.stream(), data.seq(), data.payload_bytes());
      return;
    }
    default:
      return;
  }
}

void SimpleTreeNode::forward_to_children(net::StreamId stream,
                                         std::uint64_t seq,
                                         std::size_t payload_bytes) {
  for (const net::ConnectionId conn : children_) {
    transport_.send(conn, id(),
                    net::make_message<TreeData>(stream, seq, payload_bytes),
                    kData);
  }
}

}  // namespace brisa::baselines
