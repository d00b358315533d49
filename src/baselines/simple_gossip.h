// SimpleGossip baseline (§III-D a): the robustness end of the spectrum.
//
// Cyclon provides the peer sampling; dissemination combines
//   * push rumor mongering with an infect-and-die strategy and fanout
//     ln(N) — infects most of the population quickly at a high duplicate
//     cost, and
//   * anti-entropy pull with a single random partner at twice the message
//     creation rate — guarantees completeness for the stragglers
// (Demers et al. 1987, as configured by the paper).
//
// Multi-topic: one node instance carries `num_streams` independent sequence
// spaces over the same Cyclon view. Rumors and anti-entropy exchanges are
// stream-tagged; each anti-entropy round digests every stream.
#pragma once

#include <cstdint>
#include <vector>

#include "baselines/messages.h"
#include "membership/cyclon.h"
#include "net/bounded_store.h"
#include "net/delivery_log.h"
#include "net/network.h"
#include "net/process.h"
#include "sim/rng.h"
#include "util/assert.h"

namespace brisa::baselines {

class SimpleGossip final : public net::Process,
                           public net::Network::DatagramHandler {
 public:
  struct Config {
    /// Rumor fanout; the scenario sets ceil(ln N).
    std::size_t fanout = 7;
    /// Anti-entropy period: 2x the message creation rate of 5/s -> 100 ms.
    sim::Duration anti_entropy_period = sim::Duration::milliseconds(100);
    /// Max payloads shipped per anti-entropy reply (per stream).
    std::size_t anti_entropy_batch = 8;
    /// How many non-contiguous known seqs the digest lists per stream.
    std::size_t digest_extras = 32;
    /// Concurrent streams (topics) 0..num_streams-1 on this node.
    std::size_t num_streams = 1;
    membership::Cyclon::Config cyclon;
    /// Bandwidth-discipline layer; default = off (unbounded, exact, no
    /// backoff).
    net::Limits limits;
  };

  /// `duplicates` counts rumor copies only: an anti-entropy reply that
  /// carries a held seq is not a reception the epidemic wasted.
  struct Stats : net::DeliveryLog {
    std::uint64_t rumors_sent = 0;
    std::uint64_t anti_entropy_rounds = 0;
    std::uint64_t anti_entropy_recoveries = 0;
    /// Anti-entropy rounds skipped while the local NIC/CPU was overusing
    /// ([limits] rate_control); counted on stream 0.
    std::uint64_t rate_deferrals = 0;
  };

  SimpleGossip(net::Network& network, net::NodeId id, Config config);

  /// Seeds the Cyclon view and starts the anti-entropy timer.
  void bootstrap(const std::vector<net::NodeId>& seeds);
  void join(net::NodeId contact);

  /// Injects the next message on `stream` (source). Returns the sequence.
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
  [[nodiscard]] membership::Cyclon& cyclon() { return cyclon_; }
  /// Store evictions under a `[limits]` bound (0 when unbounded).
  [[nodiscard]] std::uint64_t evictions(
      net::StreamId stream = net::kDefaultStream) const {
    BRISA_ASSERT(stream < streams_.size());
    return streams_[stream].store.evictions();
  }

  void on_datagram(net::NodeId from, net::MessagePtr message) override;

 private:
  /// Per-stream sequence space: payload sizes by sequence (the anti-entropy
  /// serving store — ordered, lower_bound-driven) and statistics, whose
  /// delivery log (not the store, which evicts under `[limits]`) is the
  /// duplicate-suppression set.
  struct StreamState {
    std::uint64_t next_seq = 0;
    net::BoundedSeqStore store;
    /// Rotation cursor for the truncated exact digest: successive rounds
    /// advertise successive slices of the out-of-order set instead of
    /// pinning the newest window forever.
    std::size_t digest_offset = 0;
    Stats stats;
  };

  void start_timers();
  void deliver(net::StreamId stream, std::uint64_t seq,
               std::size_t payload_bytes, bool push);
  void push_rumor(net::StreamId stream, std::uint64_t seq,
                  std::size_t payload_bytes);
  void on_anti_entropy_timer();
  void handle_anti_entropy_request(net::NodeId from,
                                   const GossipAntiEntropyRequest& msg);

  Config config_;
  sim::Rng rng_;
  membership::Cyclon cyclon_;
  bool started_ = false;
  /// Per-round Bloom salt counter: each digest round uses a fresh salt so
  /// false positives decorrelate across rounds (a seq wrongly skipped this
  /// round is recovered on a later one).
  std::uint64_t digest_rounds_ = 0;

  /// Indexed by StreamId, sized num_streams at construction.
  std::vector<StreamState> streams_;
};

}  // namespace brisa::baselines
