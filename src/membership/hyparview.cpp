#include "membership/hyparview.h"

#include <algorithm>
#include <cmath>

#include "net/message_pool.h"
#include "util/assert.h"
#include "util/logging.h"

namespace brisa::membership {

namespace {
constexpr net::TrafficClass kTc = net::TrafficClass::kMembership;
}  // namespace

HyParView::HyParView(net::Network& network, net::Transport& transport,
                     net::NodeId id, Config config)
    : net::Process(network, id),
      transport_(transport),
      config_(config),
      rng_(network.simulator().rng().split(0x487056ULL ^ id.index())) {
  BRISA_ASSERT(config_.active_size >= 1);
  BRISA_ASSERT(config_.expansion_factor >= 1.0);
  transport_.bind(id, this);
  network.bind_datagram_handler(id, this);
}

std::size_t HyParView::capacity() const {
  return static_cast<std::size_t>(std::llround(
      static_cast<double>(config_.active_size) * config_.expansion_factor));
}

void HyParView::start() { start_timers(); }

void HyParView::join(net::NodeId contact) {
  BRISA_ASSERT_MSG(contact != id(), "cannot join through self");
  rejoin_contact_ = contact;
  dial(contact, DialPurpose::kJoin);
  start_timers();
}

void HyParView::start_timers() {
  if (started_) return;
  started_ = true;
  // Small deterministic phase offset so the whole network does not shuffle
  // in lock-step.
  const auto phase = sim::Duration::microseconds(
      static_cast<std::int64_t>(rng_.uniform(1'000'000)));
  after(phase, [this]() {
    every(config_.shuffle_period, [this]() { on_shuffle_timer(); });
    every(config_.keepalive_period, [this]() { on_keepalive_timer(); });
  });
}

// --- PeerSamplingService ----------------------------------------------------

std::vector<net::NodeId> HyParView::view() const { return established_; }

bool HyParView::is_neighbor(net::NodeId peer) const {
  const auto it = links_.find(peer);
  return it != links_.end() && it->second.state == LinkState::kEstablished;
}

bool HyParView::send_app(net::NodeId peer, net::MessagePtr message,
                         net::TrafficClass traffic_class) {
  const auto it = links_.find(peer);
  if (it == links_.end() || it->second.state != LinkState::kEstablished) {
    return false;
  }
  return transport_.send(it->second.conn, id(), std::move(message),
                         traffic_class);
}

sim::Duration HyParView::rtt_estimate(net::NodeId peer) const {
  const auto it = links_.find(peer);
  if (it == links_.end() || it->second.rtt_ewma_us < 0.0) {
    return sim::Duration::max();
  }
  return sim::Duration::microseconds(
      static_cast<std::int64_t>(it->second.rtt_ewma_us));
}

// --- Transport events -------------------------------------------------------

void HyParView::on_connection_up(net::ConnectionId conn, net::NodeId peer,
                                 bool initiated) {
  if (!initiated) return;  // inbound links materialize on their first message
  const auto it = links_.find(peer);
  if (it == links_.end() || it->second.conn != conn) return;
  Link& link = it->second;
  BRISA_ASSERT(link.state == LinkState::kDialing);
  link.state = LinkState::kAwaitReply;
  switch (link.purpose) {
    case DialPurpose::kJoin:
      transport_.send(conn, id(), net::make_message<HpvJoin>(), kTc);
      break;
    case DialPurpose::kNeighborHigh:
    case DialPurpose::kForwardJoinAccept:
      transport_.send(conn, id(), net::make_message<HpvNeighbor>(true), kTc);
      break;
    case DialPurpose::kNeighborLow:
      transport_.send(conn, id(), net::make_message<HpvNeighbor>(false), kTc);
      break;
  }
}

void HyParView::on_connection_down(net::ConnectionId conn, net::NodeId peer,
                                   net::CloseReason reason) {
  const auto it = links_.find(peer);
  if (it == links_.end() || it->second.conn != conn) return;  // stale conn
  const LinkState state = it->second.state;
  if (state == LinkState::kEstablished) {
    // Remote close without DISCONNECT, a crash, or keep-alive timeout at the
    // other end: treat everything except an orderly close as failure.
    const bool failed = reason == net::CloseReason::kPeerFailure ||
                        reason == net::CloseReason::kRefused;
    if (failed) {
      ++counters_.failures_detected;
      passive_.erase(peer);
    }
    drop_active(peer,
                failed ? NeighborLossReason::kFailed
                       : NeighborLossReason::kEvicted,
                /*close_conn=*/false);
    // An orderly close means the peer is alive: keep it as a passive
    // candidate so an otherwise-isolated node can reconnect.
    if (!failed) add_passive(peer);
    maybe_promote_replacement();
    return;
  }
  // A dial in progress failed (dead contact or rejected link).
  links_.erase(it);
  passive_.erase(peer);
  maybe_promote_replacement();
}

void HyParView::on_message(net::ConnectionId conn, net::NodeId from,
                           net::MessagePtr message) {
  using net::MessageKind;
  switch (message->kind()) {
    case MessageKind::kHpvJoin:
      handle_join(conn, from);
      return;
    case MessageKind::kHpvForwardJoin:
      handle_forward_join(
          from, static_cast<const HpvForwardJoin&>(*message));
      return;
    case MessageKind::kHpvNeighbor:
      handle_neighbor(conn, from, static_cast<const HpvNeighbor&>(*message));
      return;
    case MessageKind::kHpvNeighborReply:
      handle_neighbor_reply(
          conn, from, static_cast<const HpvNeighborReply&>(*message));
      return;
    case MessageKind::kHpvDisconnect:
      handle_disconnect(conn, from);
      return;
    case MessageKind::kHpvShuffle:
      handle_shuffle(from, static_cast<const HpvShuffle&>(*message));
      return;
    case MessageKind::kHpvKeepAlive:
      handle_keepalive(conn, from, static_cast<const HpvKeepAlive&>(*message));
      return;
    case MessageKind::kHpvKeepAliveReply:
      handle_keepalive_reply(
          from, static_cast<const HpvKeepAliveReply&>(*message));
      return;
    default:
      // Application traffic riding on the membership links (BRISA, §II-C).
      if (listener_ != nullptr && is_neighbor(from)) {
        listener_->on_app_message(from, std::move(message));
      }
      return;
  }
}

void HyParView::on_datagram(net::NodeId /*from*/, net::MessagePtr message) {
  if (message->kind() == net::MessageKind::kHpvShuffleReply) {
    integrate_shuffle_sample(
        static_cast<const HpvShuffleReply&>(*message).sample(),
        last_shuffle_sent_);
  }
}

// --- Handlers ---------------------------------------------------------------

void HyParView::handle_join(net::ConnectionId conn, net::NodeId from) {
  ++counters_.joins_handled;
  // The contact unconditionally accepts the joiner (§II-A / HyParView).
  establish(from, conn);
  transport_.send(conn, id(), net::make_message<HpvNeighborReply>(true), kTc);
  evict_if_needed(from, config_.active_size);
  // Propagate the joiner through forward-join random walks.
  for (const net::NodeId peer : established_peers()) {
    if (peer == from) continue;
    send_control(peer, net::make_message<HpvForwardJoin>(from,
                                                        config_.active_rwl));
  }
}

void HyParView::handle_forward_join(net::NodeId from,
                                    const HpvForwardJoin& msg) {
  ++counters_.forward_joins;
  const net::NodeId joiner = msg.joiner();
  if (joiner == id()) return;
  const std::vector<net::NodeId> peers = established_peers();
  if (msg.ttl() <= 0 || peers.size() <= 1) {
    if (links_.find(joiner) == links_.end()) {
      dial(joiner, DialPurpose::kForwardJoinAccept);
    }
    return;
  }
  if (msg.ttl() == config_.passive_rwl) add_passive(joiner);
  // Forward the walk to a random neighbor that is neither the sender nor the
  // joiner itself.
  std::vector<net::NodeId> candidates;
  for (const net::NodeId peer : peers) {
    if (peer != from && peer != joiner) candidates.push_back(peer);
  }
  if (candidates.empty()) {
    if (links_.find(joiner) == links_.end()) {
      dial(joiner, DialPurpose::kForwardJoinAccept);
    }
    return;
  }
  const net::NodeId next = rng_.pick(candidates);
  send_control(next,
               net::make_message<HpvForwardJoin>(joiner, msg.ttl() - 1));
}

void HyParView::handle_neighbor(net::ConnectionId conn, net::NodeId from,
                                const HpvNeighbor& msg) {
  const auto it = links_.find(from);
  if (it != links_.end()) {
    Link& existing = it->second;
    if (existing.state == LinkState::kEstablished) {
      // Duplicate link (both sides dialed at some point). Adopt the newer
      // connection on both sides: accept and retire the old one.
      const net::ConnectionId old_conn = existing.conn;
      existing.conn = conn;
      transport_.send(conn, id(), net::make_message<HpvNeighborReply>(true),
                      kTc);
      transport_.close(old_conn, id());
      return;
    }
    // Cross-dial: both ends dialed simultaneously. Deterministic tie-break:
    // the lower-id node's dial wins.
    if (from.index() < id().index()) {
      const net::ConnectionId mine = existing.conn;
      links_.erase(it);
      transport_.close(mine, id());
      ++counters_.neighbor_accepts;
      establish(from, conn);
      transport_.send(conn, id(), net::make_message<HpvNeighborReply>(true),
                      kTc);
      evict_if_needed(from, capacity());
    } else {
      ++counters_.neighbor_rejects;
      transport_.send(conn, id(), net::make_message<HpvNeighborReply>(false),
                      kTc);
    }
    return;
  }
  // §II-A expansion band: promotion-driven (low-priority) links are absorbed
  // without evictions while the view is below target × expansion, breaking
  // the bootstrap chain reactions; high-priority requests always succeed.
  const std::size_t established = active_count();
  const bool accept = msg.high_priority() || established < capacity();
  if (!accept) {
    ++counters_.neighbor_rejects;
    transport_.send(conn, id(), net::make_message<HpvNeighborReply>(false),
                    kTc);
    return;
  }
  ++counters_.neighbor_accepts;
  establish(from, conn);
  transport_.send(conn, id(), net::make_message<HpvNeighborReply>(true), kTc);
  evict_if_needed(from, capacity());
}

void HyParView::handle_neighbor_reply(net::ConnectionId conn,
                                      net::NodeId from,
                                      const HpvNeighborReply& msg) {
  const auto it = links_.find(from);
  if (it == links_.end() || it->second.conn != conn) {
    // Reply for a dial we already abandoned (e.g. lost a cross-dial race).
    if (it == links_.end()) transport_.close(conn, id());
    return;
  }
  if (it->second.state != LinkState::kAwaitReply) return;
  if (msg.accepted()) {
    const bool walk_end_add = it->second.purpose == DialPurpose::kForwardJoinAccept;
    establish(from, conn);
    evict_if_needed(from,
                    walk_end_add ? config_.active_size : capacity());
    return;
  }
  // Rejected: withdraw the dial and look for another candidate.
  links_.erase(it);
  transport_.close(conn, id());
  maybe_promote_replacement();
}

void HyParView::handle_disconnect(net::ConnectionId conn, net::NodeId from) {
  const auto it = links_.find(from);
  if (it == links_.end() || it->second.conn != conn) return;
  drop_active(from, NeighborLossReason::kEvicted, /*close_conn=*/true);
  add_passive(from);
  // The expansion-factor rule (§II-A): only seek a replacement if we fell
  // below the target size — which maybe_promote_replacement checks.
  maybe_promote_replacement();
}

void HyParView::handle_shuffle(net::NodeId from, const HpvShuffle& msg) {
  const std::vector<net::NodeId> peers = established_peers();
  if (msg.ttl() > 0 && peers.size() > 1) {
    std::vector<net::NodeId> candidates;
    for (const net::NodeId peer : peers) {
      if (peer != from && peer != msg.origin()) candidates.push_back(peer);
    }
    if (!candidates.empty()) {
      send_control(rng_.pick(candidates),
                   net::make_message<HpvShuffle>(msg.origin(), msg.ttl() - 1,
                                                msg.sample()));
      return;
    }
  }
  // Accept the shuffle: reply with a passive sample of the same size, then
  // integrate the received identifiers.
  if (msg.origin() != id()) {
    const std::vector<net::NodeId> reply_sample =
        rng_.sample(passive_candidates(), msg.sample().size());
    network().send_datagram(
        id(), msg.origin(), net::make_message<HpvShuffleReply>(reply_sample),
        kTc);
    integrate_shuffle_sample(msg.sample(), {});
  }
}

void HyParView::integrate_shuffle_sample(
    const std::vector<net::NodeId>& sample,
    const std::vector<net::NodeId>& sent) {
  std::size_t sent_cursor = 0;
  for (const net::NodeId candidate : sample) {
    if (candidate == id()) continue;
    if (links_.find(candidate) != links_.end()) continue;
    if (passive_.count(candidate) > 0) continue;
    if (passive_.size() >= config_.passive_size) {
      // Prefer evicting entries we just shipped to the shuffle partner.
      bool evicted = false;
      while (sent_cursor < sent.size()) {
        const net::NodeId victim = sent[sent_cursor++];
        if (passive_.erase(victim) > 0) {
          evicted = true;
          break;
        }
      }
      if (!evicted) {
        const std::vector<net::NodeId> pool(passive_.begin(), passive_.end());
        passive_.erase(rng_.pick(pool));
      }
    }
    passive_.insert(candidate);
  }
}

WatermarkSnapshot HyParView::current_watermarks() const {
  return listener_ != nullptr ? listener_->watermark_snapshot() : nullptr;
}

void HyParView::handle_keepalive(net::ConnectionId conn, net::NodeId from,
                                 const HpvKeepAlive& msg) {
  if (listener_ != nullptr) {
    listener_->on_neighbor_watermarks(from, msg.watermarks());
  }
  transport_.send(conn, id(),
                  net::make_message<HpvKeepAliveReply>(msg.probe_id(),
                                                      current_watermarks()),
                  kTc);
}

void HyParView::handle_keepalive_reply(net::NodeId from,
                                       const HpvKeepAliveReply& msg) {
  if (listener_ != nullptr) {
    listener_->on_neighbor_watermarks(from, msg.watermarks());
  }
  const auto it = links_.find(from);
  if (it == links_.end()) return;
  Link& link = it->second;
  if (link.outstanding_probe != msg.probe_id()) return;
  link.outstanding_probe = 0;
  link.missed_probes = 0;
  const double sample_us =
      static_cast<double>((now() - link.probe_sent_at).us());
  if (link.rtt_ewma_us < 0.0) {
    link.rtt_ewma_us = sample_us;
  } else {
    link.rtt_ewma_us = (1.0 - config_.rtt_alpha) * link.rtt_ewma_us +
                       config_.rtt_alpha * sample_us;
  }
}

// --- View management --------------------------------------------------------

void HyParView::establish(net::NodeId peer, net::ConnectionId conn) {
  Link& link = links_[peer];
  link.conn = conn;
  const bool was_established = link.state == LinkState::kEstablished;
  link.state = LinkState::kEstablished;
  passive_.erase(peer);
  if (!was_established) {
    const auto pos =
        std::lower_bound(established_.begin(), established_.end(), peer);
    established_.insert(pos, peer);
    if (listener_ != nullptr) listener_->on_neighbor_up(peer);
  }
}

void HyParView::drop_active(net::NodeId peer, NeighborLossReason reason,
                            bool close_conn) {
  const auto it = links_.find(peer);
  if (it == links_.end()) return;
  const bool was_established = it->second.state == LinkState::kEstablished;
  const net::ConnectionId conn = it->second.conn;
  links_.erase(it);
  if (was_established) {
    const auto pos =
        std::lower_bound(established_.begin(), established_.end(), peer);
    if (pos != established_.end() && *pos == peer) established_.erase(pos);
  }
  if (close_conn) transport_.close(conn, id());
  if (was_established && listener_ != nullptr) {
    listener_->on_neighbor_down(peer, reason);
  }
}

void HyParView::evict_if_needed(net::NodeId keep, std::size_t threshold) {
  while (active_count() > threshold) {
    ++counters_.evictions;
    std::vector<net::NodeId> peers = established_;
    // The node just accommodated stays (the joiner displaces someone else).
    if (peers.size() > 1 && keep.valid()) {
      peers.erase(std::remove(peers.begin(), peers.end(), keep), peers.end());
    }
    const net::NodeId victim = rng_.pick(peers);
    send_control(victim, net::make_message<HpvDisconnect>());
    drop_active(victim, NeighborLossReason::kEvicted, /*close_conn=*/true);
    add_passive(victim);
  }
}

void HyParView::maybe_promote_replacement() {
  // Replacements are only sought below the *target* size; between target and
  // target × expansion the view absorbs losses without action (§II-A).
  std::size_t in_progress = 0;
  for (const auto& [peer, link] : links_) {
    if (link.state != LinkState::kEstablished) ++in_progress;
  }
  while (active_count() + in_progress < config_.active_size) {
    const std::vector<net::NodeId> candidates = passive_candidates();
    if (candidates.empty()) return;
    const net::NodeId candidate = rng_.pick(candidates);
    ++counters_.promotions;
    dial(candidate, active_count() == 0 ? DialPurpose::kNeighborHigh
                                        : DialPurpose::kNeighborLow);
    ++in_progress;
  }
}

void HyParView::add_passive(net::NodeId peer) {
  if (peer == id() || links_.find(peer) != links_.end()) return;
  if (passive_.count(peer) > 0) return;
  if (passive_.size() >= config_.passive_size) {
    const std::vector<net::NodeId> pool(passive_.begin(), passive_.end());
    passive_.erase(rng_.pick(pool));
  }
  passive_.insert(peer);
}

void HyParView::dial(net::NodeId peer, DialPurpose purpose) {
  BRISA_ASSERT(peer != id());
  if (links_.find(peer) != links_.end()) return;
  if (!alive()) return;
  Link link;
  link.conn = transport_.connect(id(), peer);
  link.state = LinkState::kDialing;
  link.purpose = purpose;
  links_.emplace(peer, link);
}

void HyParView::send_control(net::NodeId peer, net::MessagePtr message) {
  const auto it = links_.find(peer);
  if (it == links_.end() || it->second.state != LinkState::kEstablished) {
    return;
  }
  transport_.send(it->second.conn, id(), std::move(message), kTc);
}

std::vector<net::NodeId> HyParView::passive_candidates() const {
  return {passive_.begin(), passive_.end()};
}

std::size_t HyParView::active_count() const { return established_.size(); }

std::vector<net::NodeId> HyParView::passive_view() const {
  return passive_candidates();
}

// --- Timers -----------------------------------------------------------------

void HyParView::on_shuffle_timer() {
  const std::vector<net::NodeId> peers = established_peers();
  if (peers.empty()) {
    // Isolated node: promote from the passive view, or — with nothing left
    // at all — fall back to re-joining through the original contact.
    maybe_promote_replacement();
    if (links_.empty() && passive_.empty() && rejoin_contact_.valid() &&
        rejoin_contact_ != id()) {
      dial(rejoin_contact_, DialPurpose::kJoin);
    }
    return;
  }
  ++counters_.shuffles_sent;
  std::vector<net::NodeId> sample;
  sample.push_back(id());
  for (const net::NodeId peer :
       rng_.sample(peers, config_.shuffle_active_sample)) {
    sample.push_back(peer);
  }
  for (const net::NodeId peer :
       rng_.sample(passive_candidates(), config_.shuffle_passive_sample)) {
    sample.push_back(peer);
  }
  last_shuffle_sent_ = sample;
  send_control(rng_.pick(peers),
               net::make_message<HpvShuffle>(id(), config_.shuffle_ttl,
                                            std::move(sample)));
}

void HyParView::on_keepalive_timer() {
  // One snapshot per tick; each link's probe shares it by refcount instead
  // of copying the entries.
  const WatermarkSnapshot watermarks = current_watermarks();
  // Collect first: fail_link mutates links_.
  std::vector<net::NodeId> timed_out;
  for (auto&& [peer, link] : links_) {
    if (link.state != LinkState::kEstablished) continue;
    if (link.outstanding_probe != 0) {
      ++link.missed_probes;
      if (link.missed_probes >= config_.keepalive_miss_limit) {
        timed_out.push_back(peer);
        continue;
      }
    }
    const std::uint64_t probe = next_probe_id_++;
    link.outstanding_probe = probe;
    link.probe_sent_at = now();
    transport_.send(link.conn, id(),
                    net::make_message<HpvKeepAlive>(probe, watermarks),
                    kTc);
  }
  for (const net::NodeId peer : timed_out) fail_link(peer);
}

void HyParView::fail_link(net::NodeId peer) {
  ++counters_.failures_detected;
  passive_.erase(peer);
  drop_active(peer, NeighborLossReason::kFailed, /*close_conn=*/true);
  maybe_promote_replacement();
}

}  // namespace brisa::membership
