#include "baselines/simple_gossip.h"

#include <algorithm>

#include "net/message_pool.h"
#include "util/assert.h"

namespace brisa::baselines {

namespace {
constexpr net::TrafficClass kCtl = net::TrafficClass::kControl;
constexpr net::TrafficClass kData = net::TrafficClass::kData;
}  // namespace

SimpleGossip::SimpleGossip(net::Network& network, net::NodeId id,
                           Config config)
    : net::Process(network, id),
      config_(config),
      rng_(network.simulator().rng().split(0x6055BULL ^ id.index())),
      cyclon_(network, id, config.cyclon),
      streams_(config.num_streams) {
  BRISA_ASSERT(config_.num_streams >= 1);
  for (StreamState& state : streams_) state.store.configure(config_.limits);
  network.bind_datagram_handler(id, this);
}

void SimpleGossip::bootstrap(const std::vector<net::NodeId>& seeds) {
  cyclon_.bootstrap(seeds);
  start_timers();
}

void SimpleGossip::join(net::NodeId contact) {
  cyclon_.join(contact);
  start_timers();
}

void SimpleGossip::start_timers() {
  if (started_) return;
  started_ = true;
  const auto phase = sim::Duration::microseconds(
      static_cast<std::int64_t>(rng_.uniform(static_cast<std::uint64_t>(
          config_.anti_entropy_period.us()))));
  after(phase, [this]() {
    every(config_.anti_entropy_period, [this]() { on_anti_entropy_timer(); });
  });
}

std::uint64_t SimpleGossip::broadcast(net::StreamId stream,
                                      std::size_t payload_bytes) {
  BRISA_ASSERT(stream < streams_.size());
  const std::uint64_t seq = streams_[stream].next_seq++;
  deliver(stream, seq, payload_bytes, /*push=*/true);
  return seq;
}

void SimpleGossip::on_datagram(net::NodeId from, net::MessagePtr message) {
  switch (message->kind()) {
    case net::MessageKind::kCyclonShuffle:
    case net::MessageKind::kCyclonShuffleReply:
      cyclon_.on_datagram(from, std::move(message));
      return;
    case net::MessageKind::kGossipRumor: {
      const auto& rumor = static_cast<const GossipRumor&>(*message);
      if (rumor.stream() >= streams_.size()) return;
      StreamState& state = streams_[rumor.stream()];
      if (state.stats.seen(rumor.seq())) {
        state.stats.duplicates += 1;
        return;  // infect-and-die: duplicates are dropped silently
      }
      deliver(rumor.stream(), rumor.seq(), rumor.payload_bytes(),
              /*push=*/true);
      return;
    }
    case net::MessageKind::kGossipAntiEntropyRequest:
      handle_anti_entropy_request(
          from, static_cast<const GossipAntiEntropyRequest&>(*message));
      return;
    case net::MessageKind::kGossipAntiEntropyReply: {
      const auto& reply = static_cast<const GossipAntiEntropyReply&>(*message);
      if (reply.stream() >= streams_.size()) return;
      StreamState& state = streams_[reply.stream()];
      for (const auto& [seq, payload_bytes] : reply.updates()) {
        if (state.stats.seen(seq)) continue;
        state.stats.anti_entropy_recoveries += 1;
        // Anti-entropy recoveries are not re-pushed: rumor mongering already
        // saturated; re-pushing old updates would only add duplicates.
        deliver(reply.stream(), seq, payload_bytes, /*push=*/false);
      }
      return;
    }
    default:
      return;
  }
}

void SimpleGossip::deliver(net::StreamId stream, std::uint64_t seq,
                           std::size_t payload_bytes, bool push) {
  StreamState& state = streams_[stream];
  state.stats.record(seq, now());
  state.store.insert(seq, payload_bytes, state.stats.contiguous_upto());
  if (push) push_rumor(stream, seq, payload_bytes);
}

void SimpleGossip::push_rumor(net::StreamId stream, std::uint64_t seq,
                              std::size_t payload_bytes) {
  for (const net::NodeId peer : cyclon_.random_peers(config_.fanout)) {
    streams_[stream].stats.rumors_sent += 1;
    network().send_datagram(
        id(), peer,
        net::make_message<GossipRumor>(stream, seq, payload_bytes), kData);
  }
}

void SimpleGossip::on_anti_entropy_timer() {
  if (network().tx_defer(id())) {
    streams_[0].stats.rate_deferrals += 1;
    return;
  }
  const std::vector<net::NodeId> peers = cyclon_.random_peers(1);
  if (peers.empty()) return;
  // One digest per stream, all to the same partner this round.
  for (net::StreamId stream = 0; stream < streams_.size(); ++stream) {
    StreamState& state = streams_[stream];
    state.stats.anti_entropy_rounds += 1;
    // Digest: everything below the contiguous watermark plus out-of-order
    // seqs held above it. Walk the *present* entries above the watermark —
    // O(stored entries), where a per-integer reverse scan would degrade to
    // O(max_seq) on a store that is sparse above the watermark (fresh
    // rejoiner).
    std::vector<std::uint64_t> extras;
    if (config_.digest_extras > 0 || config_.limits.bloom_digests) {
      for (auto it = state.store.lower_bound(state.stats.contiguous_upto());
           it != state.store.end(); ++it) {
        extras.push_back(it->first);
      }
    }
    if (config_.limits.bloom_digests) {
      // Bloom form: the whole out-of-order set fits the filter (its size is
      // set by the fp target, not the list length), salted per (node, round)
      // so false positives decorrelate across rounds.
      const std::uint64_t salt =
          (static_cast<std::uint64_t>(id().index()) << 24) ^ ++digest_rounds_;
      util::BloomFilter digest = util::BloomFilter::with_capacity(
          std::max<std::size_t>(extras.size(), 1), config_.limits.bloom_fp,
          salt);
      for (const std::uint64_t seq : extras) digest.insert(seq);
      network().send_datagram(
          id(), peers.front(),
          net::make_message<GossipAntiEntropyRequest>(
              stream, state.stats.contiguous_upto(), std::move(digest)),
          kCtl);
      continue;
    }
    if (extras.size() > config_.digest_extras) {
      // Exact form is truncated to digest_extras entries. Rotate the slice
      // start each round: the historical code always kept the newest
      // window, so the oldest out-of-order seqs were never advertised to
      // any partner and kept bouncing back as redundant updates.
      const std::size_t offset = state.digest_offset % extras.size();
      std::rotate(extras.begin(),
                  extras.begin() + static_cast<std::ptrdiff_t>(offset),
                  extras.end());
      extras.resize(config_.digest_extras);
      state.digest_offset = offset + config_.digest_extras;
    }
    std::reverse(extras.begin(), extras.end());
    network().send_datagram(
        id(), peers.front(),
        net::make_message<GossipAntiEntropyRequest>(
            stream, state.stats.contiguous_upto(), std::move(extras)),
        kCtl);
  }
}

void SimpleGossip::handle_anti_entropy_request(
    net::NodeId from, const GossipAntiEntropyRequest& msg) {
  if (msg.stream() >= streams_.size()) return;
  StreamState& state = streams_[msg.stream()];
  std::vector<std::pair<std::uint64_t, std::size_t>> updates;
  // msg.known() is a linear scan of the exact list (at most digest_extras
  // entries — cheaper than materializing a search tree per request) or a
  // Bloom probe under [limits] bloom_digests.
  for (auto it = state.store.lower_bound(msg.contiguous_upto());
       it != state.store.end() && updates.size() < config_.anti_entropy_batch;
       ++it) {
    if (msg.known(it->first)) continue;
    updates.emplace_back(it->first, it->second);
  }
  if (updates.empty()) return;
  network().send_datagram(
      id(), from,
      net::make_message<GossipAntiEntropyReply>(msg.stream(),
                                               std::move(updates)),
      kData);
}

}  // namespace brisa::baselines
