#include "core/brisa.h"

#include <algorithm>

#include "net/message_pool.h"
#include "util/assert.h"
#include "util/logging.h"

namespace brisa::core {

namespace {

constexpr net::TrafficClass kData = net::TrafficClass::kData;
constexpr net::TrafficClass kCtl = net::TrafficClass::kControl;

/// Most entries the retransmit buffer keeps between pushes: the count cap,
/// tightened by a `[limits]` entry bound when one is set.
std::size_t buffer_bound(const BrisaStream::Config& config) {
  const std::size_t entries = config.limits.store_entries;
  return entries > 0 ? std::min(config.retransmit_buffer, entries)
                     : config.retransmit_buffer;
}

}  // namespace

BrisaStream::BrisaStream(BrisaEngine& engine, net::StreamId stream)
    : engine_(engine),
      stream_(stream),
      // Stream 0 splits exactly like the historical single-stream instance,
      // so single-stream runs keep their RNG trajectory; further streams
      // fold the id into the split key for independent randomness.
      rng_(engine.simulator().rng().split(
          0xB015AULL ^ engine.id().index() ^
          (static_cast<std::uint64_t>(stream) << 32))),
      started_at_(engine.simulator().now()),
      payload_buffer_(buffer_bound(engine.config())) {
  BRISA_ASSERT_MSG(
      config().mode == StructureMode::kDag || config().num_parents == 1,
      "tree mode requires exactly one parent");
  BRISA_ASSERT(config().num_parents >= 1);
  // Adopt any neighbors that existed before this stream attached.
  for (const net::NodeId peer : pss().view_ref()) links_.try_emplace(peer);
}

// --- Engine access shims ------------------------------------------------------

net::NodeId BrisaStream::id() const { return engine_.id(); }
sim::TimePoint BrisaStream::now() const { return engine_.now(); }
membership::PeerSamplingService& BrisaStream::pss() const {
  return engine_.pss();
}
sim::EventId BrisaStream::after(sim::Duration delay, sim::Callback fn) {
  return engine_.after(delay, std::move(fn));
}
void BrisaStream::cancel(sim::EventId event) { engine_.cancel(event); }
net::Network& BrisaStream::network() const { return engine_.network(); }

// --- Periodic maintenance (run by the engine's ticks) ------------------------

void BrisaStream::check_refine() {
  // Delay-aware refinement (§II-E): keep-alive piggybacked cumulative
  // delays let a node periodically re-evaluate its parent choice against
  // fresher estimates — the continuing optimization the paper attributes to
  // measuring RTTs at the HyParView level.
  if (is_source_ || !position_known_ || repair_ != nullptr) return;
  if (parents_.empty()) return;
  const net::NodeId parent = *parents_.begin();
  const double parent_cost =
      candidate_cost(config().strategy, make_candidate(parent, true));
  net::NodeId best;
  double best_cost = parent_cost;
  for (const net::NodeId peer : pss().view_ref()) {
    if (parents_.count(peer) > 0) continue;
    const auto it = links_.find(peer);
    if (it == links_.end()) continue;
    // Rank by the keep-alive-fresh cumulative delay; cycle safety is
    // confirmed by the resume/ack handshake, not the stale path cache.
    if (!it->second.ka_cum_fresh && !it->second.position.known) continue;
    const sim::Duration rtt = pss().rtt_estimate(peer);
    if (rtt == sim::Duration::max()) continue;
    const double cost =
        static_cast<double>(it->second.position.cum_delay_us) +
        static_cast<double>(rtt.us());
    if (cost < best_cost) {
      best_cost = cost;
      best = peer;
    }
  }
  BRISA_TRACE("brisa") << this->id() << " refine check: parent_cost="
                       << parent_cost << " best_cost=" << best_cost
                       << " best=" << best;
  // Switch only for a clear win; hysteresis prevents oscillation.
  if (best.valid() && best_cost < parent_cost * 0.9) {
    start_repair_with_kind(RepairKind::kRefine, /*allow_soft=*/true,
                           net::NodeId::invalid());
    if (repair_ != nullptr) {
      repair_->pending_candidates = {best};
      try_next_repair_candidate();
    }
  }
}

void BrisaStream::check_starvation() {
  // Starvation surveillance (§II-F fallback): keep-alive watermarks reveal
  // when the stream has advanced at our neighbors while our own parents feed
  // us nothing — the signature of a stale structure (e.g. an adoption cycle
  // of mutually-starved nodes). The remedy is a hard reset through the
  // epidemic substrate.
  if (is_source_ || !position_known_ || repair_ != nullptr) return;
  if (stats_.delivered == 0 || parents_.empty()) return;
  // Nothing newer than our own deliveries exists nearby.
  if (engine_.heard_watermark(stream_) <= delivered_watermark()) return;
  if (now() - last_delivery_at_ < kStarvationTimeout) return;
  stats_.starvation_resets += 1;
  const std::vector<net::NodeId> stale(parents_.begin(), parents_.end());
  for (const net::NodeId parent : stale) deactivate_inbound(parent);
  start_repair_with_kind(RepairKind::kStarvation, /*allow_soft=*/false,
                         net::NodeId::invalid());
}

void BrisaStream::check_topup() {
  // DAG nodes keep probing for missing parents: bootstrap order or depth
  // false-negatives can leave a node below target even without failures
  // (§II-G: "nodes always obtained the desired number of parents").
  if (is_source_ || !position_known_ || repair_ != nullptr) return;
  if (parents_.size() >= config().num_parents) return;
  if (network().tx_defer(id())) {
    stats_.rate_deferrals += 1;
    return;
  }
  start_repair_with_kind(RepairKind::kTopUp, /*allow_soft=*/true,
                         net::NodeId::invalid());
}

// --- Source API --------------------------------------------------------------

void BrisaStream::become_source() {
  is_source_ = true;
  position_known_ = true;
  path_ = TreePath().extended(id());
  depth_ = 0;
}

std::uint64_t BrisaStream::broadcast(std::size_t payload_bytes) {
  BRISA_ASSERT_MSG(is_source_, "broadcast() requires become_source()");
  const std::uint64_t seq = next_seq_++;
  stats_.record(seq, now());
  engine_.note_delivered(stream_, seq);
  store_payload(seq, payload_bytes);
  const BrisaData msg(stream_, seq, payload_bytes, config().mode,
                      my_position(), /*retransmission=*/false);
  relay(msg, net::NodeId::invalid());
  if (delivery_handler_) delivery_handler_(seq, payload_bytes);
  return seq;
}

// --- Introspection ------------------------------------------------------------

std::vector<net::NodeId> BrisaStream::parents() const {
  return {parents_.begin(), parents_.end()};
}

bool BrisaStream::is_child(net::NodeId peer, const Link& link) const {
  return link.outbound_active && parents_.count(peer) == 0 &&
         pss().is_neighbor(peer);
}

std::vector<net::NodeId> BrisaStream::children() const {
  std::vector<net::NodeId> out;
  for (const auto& [peer, link] : links_) {
    if (is_child(peer, link)) out.push_back(peer);
  }
  return out;
}

std::size_t BrisaStream::out_degree() const {
  std::size_t degree = 0;
  for (const auto& [peer, link] : links_) {
    if (is_child(peer, link)) ++degree;
  }
  return degree;
}

std::int32_t BrisaStream::depth() const {
  if (!position_known_) return -1;
  if (config().mode == StructureMode::kTree) {
    return static_cast<std::int32_t>(path_.size()) - 1;
  }
  return depth_;
}

std::vector<std::uint64_t> BrisaStream::buffered_seqs() const {
  std::vector<std::uint64_t> seqs;
  seqs.reserve(payload_buffer_.size());
  for (std::size_t i = 0; i < payload_buffer_.size(); ++i) {
    seqs.push_back(payload_buffer_[i].seq());
  }
  return seqs;
}

// --- PSS events ----------------------------------------------------------------

void BrisaStream::on_neighbor_up(net::NodeId peer) {
  links_.try_emplace(peer);  // both directions start active (§II-F)
  // A node stuck in hard repair greets every new neighbor with a resume
  // request — the PSS replenishing the view is what unblocks it.
  if (repair_ != nullptr && repair_->hard) {
    send_to(peer, net::make_message<BrisaResume>(stream_, true), kCtl);
  }
}

void BrisaStream::on_neighbor_down(net::NodeId peer,
                             membership::NeighborLossReason /*reason*/) {
  const bool was_parent = parents_.erase(peer) > 0;
  links_.erase(peer);
  if (repair_ != nullptr) {
    auto& pending = repair_->pending_candidates;
    pending.erase(std::remove(pending.begin(), pending.end(), peer),
                  pending.end());
    if (repair_->awaiting_ack == peer) try_next_repair_candidate();
  }
  if (!was_parent) return;
  stats_.parents_lost += 1;
  if (is_source_) return;
  if (parents_.empty()) {
    stats_.orphan_events += 1;
    if (repair_ == nullptr) start_repair(/*allow_soft=*/true);
    return;
  }
  // DAG with surviving parents: the stream keeps flowing; opportunistically
  // top up to the target parent count.
  if (config().mode == StructureMode::kDag && repair_ == nullptr &&
      parents_.size() < config().num_parents) {
    start_repair_with_kind(RepairKind::kTopUp, /*allow_soft=*/true,
                           net::NodeId::invalid());
  }
}

void BrisaStream::note_keepalive_delay(net::NodeId peer,
                                       std::uint64_t cum_delay_us) {
  // Keeping the cache fresh is what lets the delay-aware strategy keep
  // refining after the bootstrap duplicates dry up — even for neighbors
  // whose full position (path) we never saw.
  const auto it = links_.find(peer);
  if (it != links_.end()) {
    it->second.position.cum_delay_us = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(cum_delay_us, 0xffffffff));
    it->second.ka_cum_fresh = true;
  }
}

// --- Data path -----------------------------------------------------------------

void BrisaStream::handle_data(net::NodeId from, const BrisaData& msg) {
  auto [it, inserted] = links_.try_emplace(from);
  Link& link = it->second;
  record_position(link, msg.sender_position());
  link.seen_data = true;

  const bool duplicate = stats_.seen(msg.seq());

  if (msg.retransmission()) {
    stats_.retransmissions_received += 1;
    if (!duplicate) deliver_and_relay(from, msg);
    return;
  }

  if (!config().prune) stats_.receptions_per_seq[msg.seq()] += 1;

  // DAG depth maintenance (§II-G): receiving from a node at our own depth or
  // deeper pushes us one level down. A parent that keeps forcing bumps is in
  // a feedback loop with us (a depth-tag false negative turned cycle), so
  // after a bounded number of bumps the link is treated as a detected cycle
  // and deactivated — the DAG analogue of §II-D's steady-state detection.
  if (config().mode == StructureMode::kDag && position_known_ &&
      parents_.count(from) > 0 && msg.sender_position().known &&
      msg.sender_position().depth >= depth_) {
    depth_ = msg.sender_position().depth + 1;
    // Cumulative count: in a cycle the bumps may alternate with quiet
    // receptions as the inflated depths circulate, so the counter must
    // never reset.
    if (++link.depth_bumps > kMaxDepthBumpsPerParent) {
      stats_.cycle_rejections += 1;
      deactivate_inbound(from);
      if (parents_.empty() && repair_ == nullptr && !is_source_) {
        // Orphaned by the cycle guard rather than by a failure; still an
        // orphan event, so the Table I accounting (repairs <= orphanings)
        // stays consistent on every trajectory.
        stats_.orphan_events += 1;
        start_repair(/*allow_soft=*/true);
      }
    }
  }

  if (!duplicate) {
    // Tree steady-state cycle detection (§II-D): a parent whose path now
    // includes us signals a stale structure — drop it and repair.
    if (config().prune && config().mode == StructureMode::kTree &&
        parents_.count(from) > 0 &&
        !position_eligible(from, msg.sender_position())) {
      stats_.cycle_rejections += 1;
      deactivate_inbound(from);
      deliver_and_relay(from, msg);
      if (parents_.empty() && repair_ == nullptr) {
        stats_.orphan_events += 1;  // cycle-orphaned (see the DAG guard)
        start_repair(/*allow_soft=*/true);
      }
      return;
    }
    if (config().prune && parents_.count(from) == 0) {
      if (parents_.size() < config().num_parents) {
        // Still collecting parents: the sender is a candidate (§II-C).
        prune_with(from);
      } else {
        // Parents are full and someone else relays to us (repair spillover,
        // a new joiner, an in-flight race). Strategy re-selection only
        // happens on *duplicates* (§II-C) — fresh data from a non-parent
        // just means its outbound link to us should be off.
        deactivate_inbound(from);
      }
    } else if (parents_.count(from) > 0 &&
               config().mode == StructureMode::kTree &&
               msg.sender_position().known) {
      // Refresh our path: upstream repairs may have moved the parent.
      adopt_position_from(from, msg.sender_position());
    }
    deliver_and_relay(from, msg);
    if (repair_ != nullptr) {
      const std::size_t needed =
          repair_kind_ == RepairKind::kTopUp ? config().num_parents : 1;
      if (parents_.size() >= needed) finish_repair(from);
    }
    return;
  }

  // Duplicate reception: the structure-emergence trigger (§II-C).
  stats_.duplicates += 1;
  if (!config().prune) return;
  if (parents_.count(from) > 0) return;  // expected copies from DAG parents
  if (!link.inbound_active) return;      // deactivation already in flight
  prune_with(from);
}

void BrisaStream::deliver_and_relay(net::NodeId from, const BrisaData& msg) {
  // Flood mode never adopts parents, but Fig 9 still needs the cumulative
  // path RTT of the delivery paths: accumulate it per first reception.
  if (!config().prune && !msg.retransmission()) {
    const sim::Duration rtt = pss().rtt_estimate(from);
    const std::uint64_t hop_us =
        rtt == sim::Duration::max()
            ? 100'000
            : static_cast<std::uint64_t>(rtt.us());
    engine_.note_cum_delay(stream_,
                           msg.sender_position().cum_delay_us + hop_us);
  }
  stats_.record(msg.seq(), now());
  engine_.note_delivered(stream_, msg.seq());
  last_delivery_at_ = now();
  buffer_payload(msg);
  if (delivery_handler_) delivery_handler_(msg.seq(), msg.payload_bytes());
  if (!msg.retransmission()) {
    const BrisaData relayed(stream_, msg.seq(), msg.payload_bytes(),
                            config().mode, my_position(),
                            /*retransmission=*/false);
    relay(relayed, from);
  }
  // Gap surveillance: a hole below the newest delivery means some message
  // was lost in a deactivation/swap race. Give in-flight copies a moment,
  // then pull the hole from a parent's buffer (§II-F recovery, generalized
  // beyond repairs).
  if (stats_.contiguous_upto() <= msg.seq() && !gap_probe_armed_) {
    arm_gap_probe();
  }
}

void BrisaStream::arm_gap_probe() {
  // Re-arms itself until the hole closes: the first pull can legitimately
  // fail when the parent is missing the same suffix (it heals from *its*
  // parent one probe period earlier), and an interior hole is invisible to
  // starvation surveillance — keep-alive watermarks advertise the newest
  // delivery, which the hole sits below. Retrying at the probe cadence
  // walks the recovery down the tree one level per period.
  gap_probe_armed_ = true;
  after(kGapProbeDelay, [this]() {
    gap_probe_armed_ = false;
    const std::uint64_t watermark = delivered_watermark();
    if (watermark == 0) return;
    const std::uint64_t newest = watermark - 1;
    if (stats_.contiguous_upto() > newest) return;  // gap healed meanwhile
    if (parents_.empty()) return;  // repair flow handles it
    // Sequences more than one retention window below the newest delivery
    // are unrecoverable by design: no parent's bounded retransmit buffer
    // still holds them (a late joiner's pre-join prefix). Pursue only the
    // in-window part of the hole, and stop probing — rather than pulling a
    // full buffer of duplicates every period forever — once that part has
    // closed.
    const std::uint64_t floor =
        newest + 1 >= config().retransmit_buffer
            ? newest + 1 - config().retransmit_buffer
            : 0;
    std::uint64_t target = std::max(stats_.contiguous_upto(), floor);
    while (target <= newest && stats_.seen(target)) ++target;
    if (target > newest) return;  // in-window hole closed
    if (network().tx_defer(id())) {
      // Send side is backlogged: pulling a window of retransmissions now
      // would only deepen the queue. Re-arm and retry once it drains.
      stats_.rate_deferrals += 1;
      arm_gap_probe();
      return;
    }
    stats_.gap_recoveries += 1;
    send_to(*parents_.begin(), make_retransmit_request(target), kCtl);
    arm_gap_probe();
  });
}

void BrisaStream::prune_with(net::NodeId duplicate_sender) {
  Link& link = links_[duplicate_sender];
  const PositionInfo& sender_pos = link.position;

  if (!position_eligible(duplicate_sender, sender_pos)) {
    stats_.cycle_rejections += 1;
    deactivate_inbound(duplicate_sender);
    return;
  }

  if (parents_.size() < config().num_parents) {
    // Still collecting parents (bootstrap, or DAG below target).
    parents_.insert(duplicate_sender);
    link.inbound_active = true;
    if (!position_known_ || config().mode == StructureMode::kTree) {
      adopt_position_from(duplicate_sender, sender_pos);
    } else if (config().mode == StructureMode::kDag && sender_pos.known &&
               sender_pos.depth >= depth_) {
      depth_ = sender_pos.depth + 1;
    }
    note_structure_stability();
    return;
  }

  // Full house: rank the challenger against the incumbents; evict the worst.
  CandidateInfo challenger = make_candidate(duplicate_sender, false);
  net::NodeId victim = duplicate_sender;
  double worst_cost = candidate_cost(config().strategy, challenger);
  for (const net::NodeId parent : parents_) {
    const CandidateInfo incumbent = make_candidate(parent, true);
    const double cost = candidate_cost(config().strategy, incumbent);
    // Strictly-greater comparison: on ties the challenger loses, which is
    // exactly first-come-first-picked semantics.
    if (cost > worst_cost) {
      worst_cost = cost;
      victim = parent;
    }
  }

  if (victim == duplicate_sender) {
    deactivate_inbound(duplicate_sender);
    // §II-E symmetric deactivation: the duplicate sender had the message
    // before our relay could reach it, so we cannot be its parent either.
    if (config().symmetric_deactivation &&
        allows_symmetric_deactivation(config().strategy) &&
        config().mode == StructureMode::kTree) {
      links_[duplicate_sender].outbound_active = false;
    }
    return;
  }

  // The challenger beats a current parent: swap.
  deactivate_inbound(victim);
  parents_.insert(duplicate_sender);
  links_[duplicate_sender].inbound_active = true;
  if (config().mode == StructureMode::kTree) {
    adopt_position_from(duplicate_sender, sender_pos);
  }
  note_structure_stability();
}

void BrisaStream::deactivate_inbound(net::NodeId peer) {
  Link& link = links_[peer];
  link.inbound_active = false;
  parents_.erase(peer);
  stats_.deactivations_sent += 1;
  if (!stats_.first_deactivation_at.has_value()) {
    stats_.first_deactivation_at = now();
  }
  send_to(peer,
          net::make_message<BrisaDeactivate>(stream_, config().mode,
                                            my_position()),
          kCtl);
  note_structure_stability();
}

bool BrisaStream::position_eligible(net::NodeId candidate,
                              const PositionInfo& position) const {
  if (!position.known) return false;
  if (config().mode == StructureMode::kTree) {
    return !position.path.contains(id());
  }
  // DAG (§II-G): candidates at a depth not greater than ours, with a
  // deterministic id tie-break at equal depth. During the bootstrap flood a
  // wave of equal-depth nodes relays the same message to each other; without
  // the tie-break both sides of such a pair adopt each other simultaneously
  // and their depth tags ratchet forever. With it, any would-be cycle of
  // adoptions needs strictly decreasing ids around the loop — impossible.
  if (depth_ < 0) return true;
  if (position.depth < depth_) return true;
  return position.depth == depth_ && candidate.index() < id().index();
}

void BrisaStream::adopt_position_from(net::NodeId parent,
                                const PositionInfo& parent_pos) {
  if (!parent_pos.known) return;
  if (config().mode == StructureMode::kTree) {
    // Most refreshes find the parent where it was: keep our cell.
    if (!path_.extends(parent_pos.path, id())) {
      path_ = parent_pos.path.extended(id());
    }
  } else {
    depth_ = std::max(depth_, parent_pos.depth + 1);
  }
  // Accumulate the hop cost for the delay-aware metric. Units follow
  // §III-B: *full* round-trip times summed per hop (the paper's Fig 9
  // y-axis), measured from the PSS keep-alives.
  const sim::Duration rtt = pss().rtt_estimate(parent);
  const std::uint64_t hop_us =
      rtt == sim::Duration::max()
          ? 100'000  // no estimate yet: assume a generic 100 ms RTT
          : static_cast<std::uint64_t>(rtt.us());
  engine_.note_cum_delay(stream_, parent_pos.cum_delay_us + hop_us);
  position_known_ = true;
}

void BrisaStream::record_position(Link& link, const PositionInfo& position) {
  if (position.known) link.position = position;
}

PositionInfo BrisaStream::my_position() const {
  PositionInfo pos;
  pos.known = position_known_;
  if (config().mode == StructureMode::kTree) {
    pos.path = path_;
  }
  pos.depth = depth_;
  pos.uptime_s = static_cast<std::uint32_t>(
      std::max<std::int64_t>(0, (now() - started_at_).us() / 1'000'000));
  pos.degree = static_cast<std::uint16_t>(
      std::min<std::size_t>(out_degree(), 0xffff));
  pos.cum_delay_us = static_cast<std::uint32_t>(
      std::min<std::uint64_t>(cum_delay_us(), 0xffffffffULL));
  return pos;
}

CandidateInfo BrisaStream::make_candidate(net::NodeId peer, bool incumbent) const {
  CandidateInfo info;
  info.node = peer;
  info.rtt = pss().rtt_estimate(peer);
  const auto it = links_.find(peer);
  if (it != links_.end()) info.position = it->second.position;
  info.incumbent = incumbent;
  return info;
}

void BrisaStream::note_structure_stability() {
  if (stats_.structure_stable_at.has_value()) return;
  if (!stats_.first_deactivation_at.has_value()) return;
  std::size_t active_senders = 0;
  for (const auto& [peer, link] : links_) {
    if (link.seen_data && link.inbound_active) ++active_senders;
  }
  if (active_senders <= config().num_parents) {
    stats_.structure_stable_at = now();
  }
}

// --- Control path ----------------------------------------------------------------

void BrisaStream::handle_deactivate(net::NodeId from, const BrisaDeactivate& msg) {
  Link& link = links_[from];
  record_position(link, msg.sender_position());
  link.outbound_active = false;
  stats_.deactivations_received += 1;
}

void BrisaStream::handle_resume(net::NodeId from, const BrisaResume& msg) {
  links_[from].outbound_active = true;
  if (msg.want_ack()) {
    // A node never serves its own parent: answering with a valid position
    // would let the requester adopt us right back, closing a two-cycle.
    PositionInfo pos = my_position();
    if (parents_.count(from) > 0) pos.known = false;
    send_to(from,
            net::make_message<BrisaResumeAck>(stream_, config().mode,
                                             std::move(pos)),
            kCtl);
  }
}

void BrisaStream::handle_resume_ack(net::NodeId from, const BrisaResumeAck& msg) {
  record_position(links_[from], msg.responder_position());
  if (repair_ == nullptr) return;
  // Soft repair awaits one specific candidate; hard repair broadcast resumes
  // to every neighbor and adopts the first eligible responder.
  const bool relevant = repair_->awaiting_ack == from || repair_->hard;
  if (!relevant) return;
  bool eligible = msg.responder_position().known &&
                  position_eligible(from, msg.responder_position());
  // A DAG repair may descend to serve under an equal-depth responder
  // (an equal-depth node cannot be a descendant while depths are current).
  // An *orphan* with nothing shallower left may even descend below a deeper
  // responder — the §II-F soft repair lets the node take any active-view
  // neighbor; the rare adoption of a true descendant forms a cycle that the
  // bump guard / starvation reset dismantles within seconds.
  if (!eligible && config().mode == StructureMode::kDag &&
      repair_kind_ != RepairKind::kRefine &&
      msg.responder_position().known && position_known_) {
    const std::int32_t responder_depth = msg.responder_position().depth;
    const bool orphaned = parents_.empty();
    if (responder_depth == depth_ || (orphaned && responder_depth > depth_)) {
      depth_ = std::max(depth_, responder_depth) + 1;
      eligible = true;
    }
  }
  if (eligible) {
    BRISA_TRACE("brisa") << id() << " adopts " << from << " via resume-ack";
    // A tree holds exactly one parent: a refine adoption displaces the
    // incumbent.
    if (config().mode == StructureMode::kTree) {
      const std::vector<net::NodeId> old(parents_.begin(), parents_.end());
      for (const net::NodeId prev : old) {
        if (prev != from) deactivate_inbound(prev);
      }
    }
    parents_.insert(from);
    links_[from].inbound_active = true;
    adopt_position_from(from, msg.responder_position());
    finish_repair(from);
    return;
  }
  BRISA_TRACE("brisa") << id() << " resume-ack from " << from
                       << " ineligible (known="
                       << msg.responder_position().known
                       << " depth=" << msg.responder_position().depth
                       << " mine=" << depth_ << ")";
  if (repair_->hard) return;  // keep waiting for a better responder
  if (repair_kind_ == RepairKind::kRefine) {
    // The incumbent still serves us; the candidate just was not suitable.
    repair_.reset();
    return;
  }
  // Stale cache: the candidate cannot serve us. Undo and move on.
  deactivate_inbound(from);
  try_next_repair_candidate();
}

void BrisaStream::handle_reactivate_order(net::NodeId from) {
  // Only meaningful coming from a node we depend on (§II-F: the order stops
  // at nodes that can replace the sender).
  if (parents_.count(from) == 0) return;
  parents_.erase(from);
  if (!parents_.empty()) return;  // DAG: other parents still feed us
  if (repair_ != nullptr) return;
  stats_.reactivate_orders_received += 1;
  start_repair_with_kind(RepairKind::kOrderRebuild, /*allow_soft=*/true,
                         /*exclude=*/from);
}

void BrisaStream::handle_retransmit_request(net::NodeId from,
                                      const BrisaRetransmitRequest& msg) {
  links_[from].outbound_active = true;
  for (std::size_t i = 0; i < payload_buffer_.size(); ++i) {
    const util::SeqRing::Entry& entry = payload_buffer_[i];
    const std::uint64_t seq = entry.seq();
    if (seq < msg.from_seq()) continue;
    if (msg.known(seq)) continue;  // requester already holds it (Bloom form)
    stats_.retransmissions_served += 1;
    send_to(from,
            net::make_message<BrisaData>(stream_, seq, entry.bytes,
                                        config().mode, my_position(),
                                        /*retransmission=*/true),
            kData);
  }
}

// --- Repair (§II-F) -----------------------------------------------------------------

void BrisaStream::start_repair(bool allow_soft) {
  start_repair_with_kind(RepairKind::kOrphanFailure, allow_soft,
                         net::NodeId::invalid());
}

void BrisaStream::start_repair_with_kind(RepairKind kind, bool allow_soft,
                                   net::NodeId exclude) {
  RepairState state;
  state.started_at = now();
  state.hard = false;
  state.awaiting_ack = net::NodeId::invalid();
  if (allow_soft) {
    state.pending_candidates = soft_repair_candidates();
    if (exclude.valid()) {
      auto& cands = state.pending_candidates;
      cands.erase(std::remove(cands.begin(), cands.end(), exclude),
                  cands.end());
    }
  }
  repair_ = std::make_unique<RepairState>(std::move(state));
  repair_kind_ = kind;
  try_next_repair_candidate();
}

void BrisaStream::try_next_repair_candidate() {
  if (repair_ == nullptr) return;
  cancel(repair_->timeout_event);  // previous candidate's timer, if any
  repair_->awaiting_ack = net::NodeId::invalid();
  if (repair_->pending_candidates.empty()) {
    BRISA_TRACE("brisa") << id() << " repair candidates exhausted";
    escalate_to_hard_repair();
    return;
  }
  const net::NodeId candidate = repair_->pending_candidates.front();
  BRISA_TRACE("brisa") << id() << " repair: trying candidate " << candidate;
  repair_->pending_candidates.erase(repair_->pending_candidates.begin());
  repair_->awaiting_ack = candidate;
  const std::uint64_t token = ++repair_token_counter_;
  repair_->timeout_token = token;
  send_to(candidate, net::make_message<BrisaResume>(stream_, true),
          kCtl);
  // The token check stays as a second line of defense: a handle is only as
  // fresh as the RepairState that stored it.
  repair_->timeout_event = after(kRepairAckTimeout, [this, token]() {
    if (repair_ != nullptr && repair_->timeout_token == token &&
        repair_->awaiting_ack.valid()) {
      try_next_repair_candidate();
    }
  });
}

void BrisaStream::escalate_to_hard_repair() {
  if (repair_ == nullptr) return;
  if (repair_kind_ == RepairKind::kRefine) {
    repair_.reset();  // refinement is opportunistic; no fallback
    return;
  }
  if (repair_kind_ == RepairKind::kTopUp) {
    // Out of strictly-eligible candidates. A node may voluntarily descend
    // one level to adopt an equal-depth neighbor (descendants are strictly
    // deeper, so this cannot adopt its own subtree); the resume/ack
    // handshake still verifies the candidate's current position. One
    // demotion per attempt keeps depths from drifting.
    if (config().mode == StructureMode::kDag && !repair_->demoted &&
        position_known_) {
      std::vector<net::NodeId> equal_depth;
      for (const net::NodeId peer : pss().view_ref()) {
        if (parents_.count(peer) > 0) continue;
        const auto it = links_.find(peer);
        if (it == links_.end() || !it->second.position.known) continue;
        if (it->second.position.depth == depth_) equal_depth.push_back(peer);
      }
      if (!equal_depth.empty()) {
        repair_->demoted = true;
        depth_ += 1;
        repair_->pending_candidates = std::move(equal_depth);
        try_next_repair_candidate();
        return;
      }
    }
    // Best-effort only: a DAG node that cannot find an extra parent keeps
    // running on its remaining ones (observed in Fig 10's percentiles).
    repair_.reset();
    return;
  }
  repair_->hard = true;
  repair_->pending_candidates.clear();
  repair_->awaiting_ack = net::NodeId::invalid();

  // Snapshot children before resetting state: the re-activation order goes
  // to the subtree we were feeding.
  const std::vector<net::NodeId> order_targets = children();

  // Become a fresh node (§II-F): forget the position used by cycle
  // detection and re-activate every inbound link.
  position_known_ = false;
  path_.clear();
  depth_ = -1;
  for (auto&& [peer, link] : links_) link.inbound_active = true;

  net::MessagePtr resume;
  for (const net::NodeId peer : pss().view_ref()) {
    if (resume == nullptr) {
      resume = net::make_message<BrisaResume>(stream_, true);
    }
    send_to(peer, resume, kCtl);
  }
  net::MessagePtr order;
  for (const net::NodeId child : order_targets) {
    stats_.reactivate_orders_sent += 1;
    if (order == nullptr) {
      order = net::make_message<BrisaReactivateOrder>(stream_);
    }
    send_to(child, order, kCtl);
  }
  arm_hard_repair_retry();
}

void BrisaStream::arm_hard_repair_retry() {
  // Liveness guard: the hard-repair resume broadcast is a one-shot, and
  // every neighbor may legitimately answer "unknown position" if it still
  // counted us as a parent when the resume arrived (it refuses to serve its
  // own parent, §II-F). The re-activation orders break that dependency a
  // round trip later — so a node whose first broadcast raced the orders
  // would wait forever. Re-probe the view until a parent is found; each
  // retry is one small control message per neighbor.
  const std::uint64_t token = ++repair_token_counter_;
  repair_->timeout_token = token;
  repair_->timeout_event = after(kRepairAckTimeout, [this, token]() {
    if (repair_ == nullptr || !repair_->hard) return;
    if (repair_->timeout_token != token) return;
    stats_.hard_repair_retries += 1;
    net::MessagePtr resume;
    for (const net::NodeId peer : pss().view_ref()) {
      if (resume == nullptr) {
        resume = net::make_message<BrisaResume>(stream_, true);
      }
      send_to(peer, resume, kCtl);
    }
    arm_hard_repair_retry();
  });
}

void BrisaStream::finish_repair(net::NodeId new_parent) {
  if (repair_ == nullptr) return;
  cancel(repair_->timeout_event);
  const sim::Duration delay = now() - repair_->started_at;
  if (repair_kind_ == RepairKind::kOrphanFailure) {
    if (repair_->hard) {
      stats_.hard_repairs += 1;
      stats_.hard_repair_delays.push_back(delay);
    } else {
      stats_.soft_repairs += 1;
      stats_.soft_repair_delays.push_back(delay);
    }
  } else if (repair_kind_ == RepairKind::kOrderRebuild) {
    stats_.order_rebuilds += 1;
  } else if (repair_kind_ == RepairKind::kTopUp) {
    stats_.parent_topups += 1;
  } else if (repair_kind_ == RepairKind::kRefine) {
    stats_.refinements += 1;
  }
  repair_.reset();
  request_missing(new_parent);
}

void BrisaStream::request_missing(net::NodeId parent) {
  send_to(parent, make_retransmit_request(stats_.contiguous_upto()), kCtl);
}

std::vector<net::NodeId> BrisaStream::soft_repair_candidates() const {
  // Candidate order (§II-F, with the keep-alive piggyback optimization that
  // makes every neighbor a potential candidate):
  //   1. neighbors whose cached position is known and eligible, ranked by
  //      the parent-selection strategy;
  //   2. DAG only: known equal-depth neighbors (the ack handshake adopts
  //      them by descending one level);
  //   3. neighbors with unknown position — the resume/ack round trip
  //      fetches their current position and verifies eligibility.
  // Known-ineligible neighbors are excluded outright.
  std::vector<std::pair<double, net::NodeId>> ranked;
  std::vector<net::NodeId> equal_depth;
  std::vector<net::NodeId> unknown;
  for (const net::NodeId peer : pss().view_ref()) {
    const auto it = links_.find(peer);
    if (it == links_.end()) continue;
    if (parents_.count(peer) > 0) continue;
    const PositionInfo& pos = it->second.position;
    if (!pos.known) {
      unknown.push_back(peer);
      continue;
    }
    if (position_eligible(peer, pos)) {
      const CandidateInfo info = make_candidate(peer, false);
      ranked.emplace_back(candidate_cost(config().strategy, info), peer);
    } else if (config().mode == StructureMode::kDag && position_known_ &&
               pos.depth == depth_) {
      equal_depth.push_back(peer);
    }
  }
  std::sort(ranked.begin(), ranked.end());
  std::vector<net::NodeId> out;
  out.reserve(ranked.size() + equal_depth.size() + unknown.size());
  for (const auto& [cost, peer] : ranked) out.push_back(peer);
  for (const net::NodeId peer : equal_depth) out.push_back(peer);
  for (const net::NodeId peer : unknown) out.push_back(peer);
  return out;
}

// --- Sending helpers ---------------------------------------------------------------

void BrisaStream::send_to(net::NodeId peer, net::MessagePtr message,
                    net::TrafficClass traffic_class) {
  pss().send_app(peer, std::move(message), traffic_class);
}

void BrisaStream::relay(const BrisaData& msg, net::NodeId except) {
  // One pooled copy shared by every receiver: fan-out is a refcount bump
  // per child, not an allocation per child.
  net::MessagePtr shared;
  for (const net::NodeId peer : pss().view_ref()) {
    if (peer == except) continue;
    const auto it = links_.find(peer);
    if (it != links_.end() && !it->second.outbound_active) continue;
    if (shared == nullptr) shared = net::make_message<BrisaData>(msg);
    send_to(peer, shared, kData);
  }
  // Source liveness guard: if every neighbor deactivated us (they all
  // bootstrapped onto other parents — increasingly likely with many
  // concurrent sources sharing one substrate), the stream would be severed
  // at its origin with nobody noticing: receivers cannot gap-probe data
  // they never heard about. The origin may always flood (§II-C): receivers
  // deliver and relay fresh data regardless of their parent set, at the
  // cost of one repeated deactivation per neighbor per message while the
  // out-degree stays zero.
  if (shared == nullptr && is_source_) {
    for (const net::NodeId peer : pss().view_ref()) {
      if (peer == except) continue;
      if (shared == nullptr) shared = net::make_message<BrisaData>(msg);
      send_to(peer, shared, kData);
    }
  }
}

void BrisaStream::buffer_payload(const BrisaData& msg) {
  store_payload(msg.seq(), msg.payload_bytes());
}

void BrisaStream::store_payload(std::uint64_t seq, std::size_t payload_bytes) {
  payload_buffer_.push_back(seq, payload_bytes);
  payload_buffer_bytes_ += payload_bytes;
  // Historical count cap — part of baseline behavior, not counted as a
  // limits-layer eviction.
  while (payload_buffer_.size() > config().retransmit_buffer) {
    payload_buffer_bytes_ -= payload_buffer_.front().bytes;
    payload_buffer_.pop_front();
  }
  const net::Limits& limits = config().limits;
  if (!limits.bounded()) return;
  const auto over = [&]() {
    return (limits.store_entries > 0 &&
            payload_buffer_.size() > limits.store_entries) ||
           (limits.store_bytes > 0 &&
            payload_buffer_bytes_ > limits.store_bytes);
  };
  while (over() && !payload_buffer_.empty()) {
    // Victims are chosen in sequence space, like net::BoundedSeqStore: the
    // buffer is in arrival order, and a late joiner back-fills old seqs
    // *after* its first live ones, so the front is not the oldest seq.
    // kDeliveredFirst drops the lowest seq only while it sits below the
    // delivery watermark (children had a full window to pull it); above the
    // watermark it drops the highest instead (drop-tail), preserving the
    // oldest still-unconfirmed seqs a repairing child is most likely to ask
    // for. kOldestFirst always drops the lowest.
    std::size_t lowest = 0;
    std::size_t highest = 0;
    for (std::size_t i = 1; i < payload_buffer_.size(); ++i) {
      const std::uint64_t seq = payload_buffer_[i].seq();
      if (seq < payload_buffer_[lowest].seq()) lowest = i;
      if (seq > payload_buffer_[highest].seq()) highest = i;
    }
    std::size_t victim = lowest;
    if (limits.eviction == net::EvictionPolicy::kDeliveredFirst &&
        payload_buffer_[lowest].seq() >= stats_.contiguous_upto()) {
      victim = highest;
    }
    payload_buffer_bytes_ -= payload_buffer_[victim].bytes;
    payload_buffer_.erase(victim);
    stats_.buffer_evictions += 1;
  }
}

net::MessagePtr BrisaStream::make_retransmit_request(std::uint64_t from_seq) {
  const std::uint64_t watermark = delivered_watermark();
  if (!config().limits.bloom_digests || watermark == 0) {
    return net::make_message<BrisaRetransmitRequest>(stream_, from_seq);
  }
  // Out-of-order seqs we already hold at or above from_seq: the parent
  // serves its whole window >= from_seq, so advertising these prunes the
  // retransmissions down to the actual holes plus Bloom false positives.
  std::vector<std::uint64_t> held;
  for (std::uint64_t seq = from_seq; seq < watermark; ++seq) {
    if (stats_.seen(seq)) held.push_back(seq);
  }
  if (held.empty()) {
    return net::make_message<BrisaRetransmitRequest>(stream_, from_seq);
  }
  // Salted per (node, request) so a false positive — a hole wrongly
  // advertised as held — resolves on the next differently-salted probe.
  const std::uint64_t salt =
      (static_cast<std::uint64_t>(id().index()) << 24) ^ ++digest_rounds_;
  util::BloomFilter digest = util::BloomFilter::with_capacity(
      held.size(), config().limits.bloom_fp, salt);
  for (const std::uint64_t seq : held) digest.insert(seq);
  return net::make_message<BrisaRetransmitRequest>(stream_, from_seq,
                                                   std::move(digest));
}

}  // namespace brisa::core
