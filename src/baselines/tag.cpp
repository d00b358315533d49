#include "baselines/tag.h"

#include <algorithm>

#include "net/message_pool.h"
#include "util/assert.h"
#include "util/logging.h"

namespace brisa::baselines {

namespace {
constexpr net::TrafficClass kMem = net::TrafficClass::kMembership;
constexpr net::TrafficClass kCtl = net::TrafficClass::kControl;
constexpr net::TrafficClass kData = net::TrafficClass::kData;
}  // namespace

TagNode::TagNode(net::Network& network, net::Transport& transport,
                 net::NodeId id, net::NodeId head, Config config)
    : net::Process(network, id),
      transport_(transport),
      head_(head),
      config_(config),
      rng_(network.simulator().rng().split(0x7A6ULL ^ id.index())),
      streams_(config.num_streams) {
  BRISA_ASSERT(config_.num_streams >= 1);
  for (StreamState& state : streams_) state.store.configure(config_.limits);
  transport_.bind(id, this);
  network.bind_datagram_handler(id, this);
}

void TagNode::start_as_head() {
  is_head_ = true;
  tail_ = id();
  start_timers();
}

void TagNode::join() {
  node_stats().join_started_at = now();
  query_tail();
  start_timers();
}

void TagNode::start_timers() {
  if (started_) return;
  started_ = true;
  const auto phase = sim::Duration::microseconds(
      static_cast<std::int64_t>(rng_.uniform(static_cast<std::uint64_t>(
          config_.pull_period.us()))));
  after(phase, [this]() {
    every(config_.pull_period, [this]() { on_pull_timer(); });
    every(config_.gossip_pull_period, [this]() { on_gossip_pull_timer(); });
  });
}

std::uint64_t TagNode::broadcast(net::StreamId stream,
                                 std::size_t payload_bytes) {
  BRISA_ASSERT_MSG(is_head_, "only the head injects the stream");
  BRISA_ASSERT(stream < streams_.size());
  const std::uint64_t seq = streams_[stream].next_seq++;
  deliver(stream, seq, payload_bytes);
  return seq;
}

// --- Join: tail query, append, traversal ------------------------------------

void TagNode::query_tail() {
  network().send_datagram(id(), head_, net::make_message<TagTailQuery>(), kMem);
  // Retry in case the reply (or our request) raced a head-side tail change.
  after(sim::Duration::seconds(2), [this]() {
    if (!joined() && !traversing_ && pending_dials_.empty()) query_tail();
  });
}

void TagNode::append_to(net::NodeId tail) {
  if (tail == id()) return;
  const net::ConnectionId conn = transport_.connect(id(), tail);
  pending_dials_[conn] = PendingDial{DialIntent::kAppend, tail};
  note_pending_dial();
}

void TagNode::begin_traversal(net::NodeId start, bool for_repair) {
  traversing_ = true;
  traversal_for_repair_ = for_repair;
  probes_this_traversal_ = 0;
  probe(start);
}

void TagNode::probe(net::NodeId target) {
  if (!target.valid() || target == id()) {
    // Ran off the front of the list: the head itself becomes the parent.
    if (head_ != id()) {
      const net::ConnectionId conn = transport_.connect(id(), head_);
      pending_dials_[conn] = PendingDial{DialIntent::kAdoptParent, head_};
      note_pending_dial();
    }
    traversing_ = false;
    return;
  }
  ++node_stats().probes_sent;
  ++probes_this_traversal_;
  const net::ConnectionId conn = transport_.connect(id(), target);
  pending_dials_[conn] = PendingDial{DialIntent::kProbe, target};
  note_pending_dial();
}

void TagNode::handle_probe_reply(net::ConnectionId conn, net::NodeId from,
                                 const TagListProbeReply& msg) {
  add_gossip_peers(msg.peer_sample());
  const bool has_room = msg.child_count() < msg.capacity();
  const bool forced = probes_this_traversal_ >= config_.probe_max ||
                      !msg.pred().valid();
  const bool accept =
      has_room && (forced || rng_.bernoulli(config_.accept_probability));
  if (accept) {
    traversing_ = false;
    adopt_parent(from, conn);
    return;
  }
  // Keep walking backwards; this probe connection is torn down (the per-hop
  // cost that dominates TAG's construction time on PlanetLab, Fig 13).
  transport_.close(conn, id());
  probe(msg.pred());
}

void TagNode::adopt_parent(net::NodeId parent, net::ConnectionId conn) {
  if (parent_conn_ != net::kInvalidConnectionId && parent_conn_ != conn) {
    transport_.close(parent_conn_, id());
  }
  parent_ = parent;
  parent_conn_ = conn;
  if (!node_stats().parent_acquired_at.has_value()) {
    node_stats().parent_acquired_at = now();
  }
  record_parent_recovery();
  // First pull doubles as the attach signal for the parent's child count.
  send_pull(conn, net::NodeId::invalid());
}

void TagNode::traversal_failed_hop(net::NodeId next_hint) {
  // The probed node died mid-traversal: continue past it if we know how,
  // otherwise restart from the tail.
  if (next_hint.valid() && next_hint != id()) {
    probe(next_hint);
  } else {
    traversing_ = false;
    reinsert();
  }
}

// --- List maintenance ----------------------------------------------------------

void TagNode::handle_append_request(net::ConnectionId conn, net::NodeId from) {
  if (succ_.valid()) {
    // No longer the tail: redirect the joiner to our successor.
    transport_.send(conn, id(),
                    net::make_message<TagAppendReply>(
                        false, succ_, net::NodeId::invalid(),
                        net::NodeId::invalid()),
                    kMem);
    return;
  }
  succ_ = from;
  succ_conn_ = conn;
  transport_.send(conn, id(),
                  net::make_message<TagAppendReply>(true, id(), pred_,
                                                   net::NodeId::invalid()),
                  kMem);
  // Tell the head the tail moved, and our pred that `from` is now two hops
  // behind it... i.e. `from` is its succ2.
  if (head_ != id()) {
    network().send_datagram(
        id(), head_,
        net::make_message<TagListUpdate>(TagListUpdate::Role::kNewTail, from),
        kMem);
  } else {
    tail_ = from;
    note_member(from);
  }
  if (pred_.valid() && pred_conn_ != net::kInvalidConnectionId) {
    transport_.send(pred_conn_, id(),
                    net::make_message<TagListUpdate>(
                        TagListUpdate::Role::kYourPred2, from),
                    kMem);
  }
}

void TagNode::handle_append_reply(net::ConnectionId conn, net::NodeId from,
                                  const TagAppendReply& msg) {
  if (!msg.accepted()) {
    transport_.close(conn, id());
    if (msg.redirect().valid()) {
      append_to(msg.redirect());
    } else {
      query_tail();
    }
    return;
  }
  pred_ = from;
  pred_conn_ = conn;
  pred2_ = msg.pred();
  // Traverse backwards from our new predecessor looking for a parent. The
  // predecessor is already connected, so probe it over the existing link.
  traversing_ = true;
  traversal_for_repair_ = false;
  probes_this_traversal_ = 1;
  ++node_stats().probes_sent;
  transport_.send(conn, id(), net::make_message<TagListProbe>(), kMem);
}

void TagNode::handle_list_update(net::ConnectionId conn, net::NodeId from,
                                 const TagListUpdate& msg) {
  switch (msg.role()) {
    case TagListUpdate::Role::kNewTail:
      if (is_head_) {
        tail_ = msg.subject();
        note_member(msg.subject());
      }
      return;
    case TagListUpdate::Role::kYourPred2:
      // Our successor appended a new node: it is two hops behind... ahead of
      // us; remember it as succ2 replacement knowledge — in this simplified
      // two-hop model we only track pred2, so nothing to do beyond liveness.
      return;
    case TagListUpdate::Role::kYourSuccessor:
      // A bridging node (its pred — our old succ — died) adopts us.
      succ_ = from;
      succ_conn_ = conn;
      transport_.send(conn, id(),
                      net::make_message<TagListUpdate>(
                          TagListUpdate::Role::kYourPred2, pred_),
                      kMem);
      return;
  }
}

void TagNode::pred_died() {
  pred_ = net::NodeId::invalid();
  pred_conn_ = net::kInvalidConnectionId;
  if (pred2_.valid() && pred2_ != id()) {
    // Bridge over the failure using two-hop knowledge.
    const net::ConnectionId conn = transport_.connect(id(), pred2_);
    pending_dials_[conn] = PendingDial{DialIntent::kBridge, pred2_};
    note_pending_dial();
    return;
  }
  // List broken: two consecutive failures (§III-D) — re-insert via the head.
  reinsert();
}

void TagNode::succ_died() {
  succ_ = net::NodeId::invalid();
  succ_conn_ = net::kInvalidConnectionId;
  // Our new successor (the dead node's successor) bridges to us; if the dead
  // node was the tail, the head learns on the next append redirect chain.
  if (is_head_) tail_ = id();
}

void TagNode::reinsert() {
  ++node_stats().hard_repairs;
  repair_is_hard_ = true;
  pred_ = pred2_ = net::NodeId::invalid();
  pred_conn_ = net::kInvalidConnectionId;
  query_tail();
}

// --- Dissemination ----------------------------------------------------------------

void TagNode::on_pull_timer() {
  if (parent_conn_ == net::kInvalidConnectionId) return;
  if (network().tx_defer(id())) {
    ++node_stats().rate_deferrals;
    return;
  }
  send_pull(parent_conn_, net::NodeId::invalid());
}

void TagNode::on_gossip_pull_timer() {
  if (gossip_peers_.empty()) return;
  if (network().tx_defer(id())) {
    ++node_stats().rate_deferrals;
    return;
  }
  const net::NodeId peer = rng_.pick(gossip_peers_);
  send_pull(net::kInvalidConnectionId, peer);
}

/// One TagPullRequest per stream, over a connection (parent) or as a
/// datagram (gossip prefetch).
void TagNode::send_pull(net::ConnectionId conn, net::NodeId datagram_peer) {
  for (net::StreamId stream = 0; stream < streams_.size(); ++stream) {
    send_pull_one(conn, datagram_peer, stream);
  }
}

void TagNode::send_pull_one(net::ConnectionId conn, net::NodeId datagram_peer,
                            net::StreamId stream) {
  ++node_stats().pulls_sent;
  auto request = net::make_message<TagPullRequest>(
      stream, streams_[stream].stats.contiguous_upto());
  if (datagram_peer.valid()) {
    network().send_datagram(id(), datagram_peer, std::move(request), kCtl);
  } else {
    transport_.send(conn, id(), std::move(request), kCtl);
  }
}

void TagNode::handle_pull_reply(net::ConnectionId conn, net::NodeId from,
                                const TagPullReply& reply) {
  if (reply.stream() >= streams_.size()) return;
  const net::DeliveryLog& log = streams_[reply.stream()].stats;
  const std::uint64_t watermark_before = log.contiguous_upto();
  for (const auto& [seq, bytes] : reply.updates()) {
    deliver(reply.stream(), seq, bytes);
  }
  // Backlog continuation: a full reply means the responder most likely has
  // more queued than one batch — follow up now rather than waiting out the
  // poll period. Caught-up nodes get partial (or no) replies, so steady
  // state keeps the periodic cadence; only a lagging node tightens its loop,
  // draining at round-trip speed until it catches up.
  if (reply.updates().size() < config_.pull_batch) return;
  // ...but only while the watermark moves. Pulls re-request from the
  // contiguous watermark; when the responder evicted that seq ([limits]
  // bound), a full reply of higher seqs advances nothing and the identical
  // follow-up request would fetch the identical reply — a duplicate livelock
  // at round-trip speed. Stuck gaps wait out the poll period instead.
  if (log.contiguous_upto() == watermark_before) return;
  if (network().tx_defer(id())) {
    ++node_stats().rate_deferrals;  // next timer tick retries
    return;
  }
  if (conn != net::kInvalidConnectionId) {
    send_pull_one(conn, net::NodeId::invalid(), reply.stream());
  } else {
    send_pull_one(net::kInvalidConnectionId, from, reply.stream());
  }
}

void TagNode::handle_pull_request(net::ConnectionId conn, net::NodeId from,
                                  const TagPullRequest& msg, bool datagram) {
  if (!datagram) child_conns_.insert(conn);
  if (msg.stream() >= streams_.size()) return;
  StreamState& state = streams_[msg.stream()];
  std::vector<std::pair<std::uint64_t, std::size_t>> updates;
  for (auto it = state.store.lower_bound(msg.from_seq());
       it != state.store.end() && updates.size() < config_.pull_batch; ++it) {
    updates.emplace_back(it->first, it->second);
  }
  if (updates.empty()) return;
  auto reply = net::make_message<TagPullReply>(msg.stream(),
                                              std::move(updates));
  if (datagram) {
    network().send_datagram(id(), from, std::move(reply), kData);
  } else {
    transport_.send(conn, id(), std::move(reply), kData);
  }
}

void TagNode::deliver(net::StreamId stream, std::uint64_t seq,
                      std::size_t payload_bytes) {
  StreamState& state = streams_[stream];
  if (!state.stats.receive(seq, now())) return;
  state.store.insert(seq, payload_bytes, state.stats.contiguous_upto());
}

void TagNode::record_parent_recovery() {
  if (!orphaned_at_.has_value()) return;
  const sim::Duration delay = now() - *orphaned_at_;
  if (repair_is_hard_) {
    node_stats().hard_repair_delays.push_back(delay);
  } else {
    ++node_stats().soft_repairs;
    node_stats().soft_repair_delays.push_back(delay);
  }
  orphaned_at_.reset();
  repair_is_hard_ = false;
}

// --- Peer bookkeeping ----------------------------------------------------------

void TagNode::add_gossip_peers(const std::vector<net::NodeId>& sample) {
  for (const net::NodeId peer : sample) {
    if (peer == id()) continue;
    if (std::find(gossip_peers_.begin(), gossip_peers_.end(), peer) !=
        gossip_peers_.end()) {
      continue;
    }
    if (gossip_peers_.size() < config_.gossip_peers) {
      gossip_peers_.push_back(peer);
    } else {
      // Reservoir-style replacement keeps the sample unbiased.
      const std::size_t slot =
          static_cast<std::size_t>(rng_.uniform(gossip_peers_.size()));
      gossip_peers_[slot] = peer;
    }
  }
}

std::vector<net::NodeId> TagNode::peer_sample() {
  std::vector<net::NodeId> pool = gossip_peers_;
  if (pred_.valid()) pool.push_back(pred_);
  if (succ_.valid()) pool.push_back(succ_);
  return rng_.sample(pool, config_.gossip_peers);
}

void TagNode::note_member(net::NodeId member) {
  if (member == id() || !member.valid()) return;
  // Classic reservoir sampling: every member the head ever learns of has an
  // equal chance of sitting in the sample, so tail replies hand joiners
  // peers drawn uniformly from the whole list, not just its recent end.
  constexpr std::size_t kReservoir = 32;
  ++members_seen_;
  if (member_sample_.size() < kReservoir) {
    member_sample_.push_back(member);
    return;
  }
  const auto slot = static_cast<std::size_t>(rng_.uniform(members_seen_));
  if (slot < kReservoir) member_sample_[slot] = member;
}

void TagNode::note_pending_dial() {
  Stats& stats = node_stats();
  if (pending_dials_.size() > stats.peak_pending_dials) {
    stats.peak_pending_dials = pending_dials_.size();
  }
}

// --- Transport events ------------------------------------------------------------

void TagNode::on_connection_up(net::ConnectionId conn, net::NodeId peer,
                               bool initiated) {
  if (!initiated) return;
  const auto it = pending_dials_.find(conn);
  if (it == pending_dials_.end()) return;
  const DialIntent intent = it->second.intent;
  switch (intent) {
    case DialIntent::kAppend:
      transport_.send(conn, id(), net::make_message<TagAppendRequest>(), kMem);
      return;
    case DialIntent::kProbe:
      transport_.send(conn, id(), net::make_message<TagListProbe>(), kMem);
      return;
    case DialIntent::kAdoptParent:
      pending_dials_.erase(it);
      adopt_parent(peer, conn);
      return;
    case DialIntent::kBridge:
      pending_dials_.erase(it);
      pred_ = peer;
      pred_conn_ = conn;
      pred2_ = net::NodeId::invalid();  // refreshed by the kYourPred2 reply
      transport_.send(conn, id(),
                      net::make_message<TagListUpdate>(
                          TagListUpdate::Role::kYourSuccessor, id()),
                      kMem);
      // If our parent also died (it often was the same pred), repair the
      // tree by traversing from the new predecessor.
      if (!parent_.valid() && !traversing_) {
        begin_traversal(peer, /*for_repair=*/true);
      }
      return;
  }
}

void TagNode::on_connection_down(net::ConnectionId conn, net::NodeId peer,
                                 net::CloseReason reason) {
  const auto pending = pending_dials_.find(conn);
  if (pending != pending_dials_.end()) {
    const DialIntent intent = pending->second.intent;
    pending_dials_.erase(pending);
    switch (intent) {
      case DialIntent::kAppend:
        query_tail();  // stale tail pointer; ask again
        return;
      case DialIntent::kProbe:
        traversal_failed_hop(net::NodeId::invalid());
        return;
      case DialIntent::kAdoptParent:
        reinsert();
        return;
      case DialIntent::kBridge:
        reinsert();  // pred2 also dead: the list is broken here
        return;
    }
  }

  const bool was_parent = conn == parent_conn_;
  if (was_parent) {
    parent_ = net::NodeId::invalid();
    parent_conn_ = net::kInvalidConnectionId;
    if (reason == net::CloseReason::kPeerFailure) {
      ++node_stats().parents_lost;
      orphaned_at_ = now();
      repair_is_hard_ = false;
    }
  }
  if (conn == pred_conn_ && peer == pred_) {
    if (reason == net::CloseReason::kPeerFailure) {
      pred_died();
    } else {
      pred_ = net::NodeId::invalid();
      pred_conn_ = net::kInvalidConnectionId;
    }
  }
  if (conn == succ_conn_ && peer == succ_) succ_died();
  child_conns_.erase(conn);

  // Tree repair: traverse for a new parent from our predecessor if the list
  // survives; pred_died()/reinsert() handle the broken-list path.
  if (was_parent && reason == net::CloseReason::kPeerFailure &&
      !traversing_ && pred_.valid() && pred_ != id()) {
    begin_traversal(pred_, /*for_repair=*/true);
  }
}

void TagNode::on_message(net::ConnectionId conn, net::NodeId from,
                         net::MessagePtr message) {
  switch (message->kind()) {
    case net::MessageKind::kTagAppendRequest:
      handle_append_request(conn, from);
      return;
    case net::MessageKind::kTagAppendReply: {
      pending_dials_.erase(conn);
      handle_append_reply(conn, from, static_cast<const TagAppendReply&>(*message));
      return;
    }
    case net::MessageKind::kTagListProbe: {
      transport_.send(
          conn, id(),
          net::make_message<TagListProbeReply>(
              pred_, pred2_, static_cast<std::uint32_t>(child_conns_.size()),
              config_.capacity, peer_sample()),
          kMem);
      return;
    }
    case net::MessageKind::kTagListProbeReply:
      pending_dials_.erase(conn);
      handle_probe_reply(conn, from,
                         static_cast<const TagListProbeReply&>(*message));
      return;
    case net::MessageKind::kTagListUpdate:
      handle_list_update(conn, from,
                         static_cast<const TagListUpdate&>(*message));
      return;
    case net::MessageKind::kTagPullRequest:
      handle_pull_request(conn, from,
                          static_cast<const TagPullRequest&>(*message),
                          /*datagram=*/false);
      return;
    case net::MessageKind::kTagPullReply:
      handle_pull_reply(conn, from,
                        static_cast<const TagPullReply&>(*message));
      return;
    default:
      return;
  }
}

void TagNode::on_datagram(net::NodeId from, net::MessagePtr message) {
  switch (message->kind()) {
    case net::MessageKind::kTagTailQuery:
      if (is_head_) {
        network().send_datagram(
            id(), from,
            net::make_message<TagTailReply>(
                tail_, rng_.sample(member_sample_, config_.gossip_peers)),
            kMem);
      }
      return;
    case net::MessageKind::kTagTailReply: {
      const auto& reply = static_cast<const TagTailReply&>(*message);
      // Seed the gossip view even when this reply lost the append race:
      // the head's sample is the only source of global (non-list-local)
      // peers, and a view without them leaves the overlay shortcut-free.
      add_gossip_peers(reply.peer_sample());
      if (joined() || traversing_ || !pending_dials_.empty()) return;
      append_to(reply.tail());
      return;
    }
    case net::MessageKind::kTagListUpdate:
      handle_list_update(net::kInvalidConnectionId, from,
                         static_cast<const TagListUpdate&>(*message));
      return;
    case net::MessageKind::kTagPullRequest:
      handle_pull_request(net::kInvalidConnectionId, from,
                          static_cast<const TagPullRequest&>(*message),
                          /*datagram=*/true);
      return;
    case net::MessageKind::kTagPullReply:
      handle_pull_reply(net::kInvalidConnectionId, from,
                        static_cast<const TagPullReply&>(*message));
      return;
    default:
      return;
  }
}

}  // namespace brisa::baselines
