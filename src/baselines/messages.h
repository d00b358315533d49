// Wire messages of the three comparison protocols (§III-D).
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "net/message.h"
#include "net/node_id.h"
#include "util/bloom.h"

namespace brisa::baselines {

// --- SimpleTree -------------------------------------------------------------

/// Joiner -> coordinator: "assign me a parent" (datagram).
class TreeJoinRequest final
    : public net::FixedMessage<net::MessageKind::kTreeJoinRequest, 8> {};

/// Coordinator -> joiner: the randomly chosen parent (datagram).
class TreeJoinReply final : public net::Message {
 public:
  explicit TreeJoinReply(net::NodeId parent) : parent_(parent) {}
  [[nodiscard]] net::MessageKind kind() const override {
    return net::MessageKind::kTreeJoinReply;
  }
  [[nodiscard]] std::size_t wire_size() const override {
    return 8 + net::kWireIdBytes;
  }
  [[nodiscard]] net::NodeId parent() const { return parent_; }

 private:
  net::NodeId parent_;
};

/// Joiner -> parent over the fresh connection: "I am your child now".
class TreeAttach final
    : public net::FixedMessage<net::MessageKind::kTreeAttach, 8> {};

/// Stream payload pushed down the tree, tagged with its stream (topic).
class TreeData final : public net::Message {
 public:
  TreeData(net::StreamId stream, std::uint64_t seq, std::size_t payload_bytes)
      : stream_(stream), seq_(seq), payload_bytes_(payload_bytes) {}
  [[nodiscard]] net::MessageKind kind() const override {
    return net::MessageKind::kTreeData;
  }
  [[nodiscard]] std::size_t wire_size() const override {
    return 16 + net::kWireStreamBytes + payload_bytes_;
  }
  [[nodiscard]] net::StreamId stream() const { return stream_; }
  [[nodiscard]] std::uint64_t seq() const { return seq_; }
  [[nodiscard]] std::size_t payload_bytes() const { return payload_bytes_; }

 private:
  net::StreamId stream_;
  std::uint64_t seq_;
  std::size_t payload_bytes_;
};

// --- SimpleGossip -----------------------------------------------------------

/// Push rumor (infect-and-die), tagged with its stream (topic).
class GossipRumor final : public net::Message {
 public:
  GossipRumor(net::StreamId stream, std::uint64_t seq,
              std::size_t payload_bytes)
      : stream_(stream), seq_(seq), payload_bytes_(payload_bytes) {}
  [[nodiscard]] net::MessageKind kind() const override {
    return net::MessageKind::kGossipRumor;
  }
  [[nodiscard]] std::size_t wire_size() const override {
    return 16 + net::kWireStreamBytes + payload_bytes_;
  }
  [[nodiscard]] net::StreamId stream() const { return stream_; }
  [[nodiscard]] std::uint64_t seq() const { return seq_; }
  [[nodiscard]] std::size_t payload_bytes() const { return payload_bytes_; }

 private:
  net::StreamId stream_;
  std::uint64_t seq_;
  std::size_t payload_bytes_;
};

/// Anti-entropy pull: "I have everything below `contiguous_upto`, plus
/// `extra_known` newer ones" — a compact digest. Under `[limits]`
/// bloom_digests the extras travel as a Bloom filter instead of an exact seq
/// list; a false positive makes the server skip one seq this round (it is
/// recovered on a later round from a differently-salted filter).
class GossipAntiEntropyRequest final : public net::Message {
 public:
  GossipAntiEntropyRequest(net::StreamId stream, std::uint64_t contiguous_upto,
                           std::vector<std::uint64_t> extra_known)
      : stream_(stream),
        contiguous_upto_(contiguous_upto),
        extra_known_(std::move(extra_known)) {}
  GossipAntiEntropyRequest(net::StreamId stream, std::uint64_t contiguous_upto,
                           util::BloomFilter digest)
      : stream_(stream),
        contiguous_upto_(contiguous_upto),
        digest_(std::move(digest)) {}
  [[nodiscard]] net::MessageKind kind() const override {
    return net::MessageKind::kGossipAntiEntropyRequest;
  }
  [[nodiscard]] std::size_t wire_size() const override {
    return 16 + net::kWireStreamBytes +
           (digest_ ? digest_->byte_size() : extra_known_.size() * 8);
  }
  [[nodiscard]] net::StreamId stream() const { return stream_; }
  [[nodiscard]] std::uint64_t contiguous_upto() const {
    return contiguous_upto_;
  }
  [[nodiscard]] const std::vector<std::uint64_t>& extra_known() const {
    return extra_known_;
  }
  /// Server-side test: does the requester (claim to) hold `seq` above its
  /// watermark? Exact-list form is the historical linear scan; digest form
  /// may err toward true at the configured false-positive rate.
  [[nodiscard]] bool known(std::uint64_t seq) const {
    if (digest_) return digest_->may_contain(seq);
    return std::find(extra_known_.begin(), extra_known_.end(), seq) !=
           extra_known_.end();
  }

 private:
  net::StreamId stream_;
  std::uint64_t contiguous_upto_;
  std::vector<std::uint64_t> extra_known_;
  std::optional<util::BloomFilter> digest_;
};

/// Anti-entropy reply: the payloads the requester was missing.
class GossipAntiEntropyReply final : public net::Message {
 public:
  GossipAntiEntropyReply(
      net::StreamId stream,
      std::vector<std::pair<std::uint64_t, std::size_t>> updates)
      : stream_(stream), updates_(std::move(updates)) {}
  [[nodiscard]] net::MessageKind kind() const override {
    return net::MessageKind::kGossipAntiEntropyReply;
  }
  [[nodiscard]] std::size_t wire_size() const override {
    std::size_t total = 8 + net::kWireStreamBytes;
    for (const auto& [seq, bytes] : updates_) total += 12 + bytes;
    return total;
  }
  [[nodiscard]] net::StreamId stream() const { return stream_; }
  [[nodiscard]] const std::vector<std::pair<std::uint64_t, std::size_t>>&
  updates() const {
    return updates_;
  }

 private:
  net::StreamId stream_;
  std::vector<std::pair<std::uint64_t, std::size_t>> updates_;
};

// --- TAG ---------------------------------------------------------------------

/// Joiner -> head: "who is the current list tail?" (datagram).
class TagTailQuery final
    : public net::FixedMessage<net::MessageKind::kTagTailQuery, 8> {};

/// Head -> joiner: the current tail, plus a random sample of joined members
/// drawn from the head's reservoir. The sample seeds the joiner's gossip
/// view with global, unbiased peers; views built only from traversal probe
/// replies are list-local, which at scale leaves the overlay without
/// long-range shortcuts (the 100k reliability collapse).
class TagTailReply final : public net::Message {
 public:
  TagTailReply(net::NodeId tail, std::vector<net::NodeId> peer_sample)
      : tail_(tail), peer_sample_(std::move(peer_sample)) {}
  [[nodiscard]] net::MessageKind kind() const override {
    return net::MessageKind::kTagTailReply;
  }
  [[nodiscard]] std::size_t wire_size() const override {
    return 8 + (1 + peer_sample_.size()) * net::kWireIdBytes;
  }
  [[nodiscard]] net::NodeId tail() const { return tail_; }
  [[nodiscard]] const std::vector<net::NodeId>& peer_sample() const {
    return peer_sample_;
  }

 private:
  net::NodeId tail_;
  std::vector<net::NodeId> peer_sample_;
};

/// Joiner -> tail over a fresh connection: "append me to the list".
class TagAppendRequest final
    : public net::FixedMessage<net::MessageKind::kTagAppendRequest, 8> {};

/// Tail -> joiner: accepted (with list context) or redirect to the real tail.
class TagAppendReply final : public net::Message {
 public:
  TagAppendReply(bool accepted, net::NodeId redirect, net::NodeId pred,
                 net::NodeId pred2)
      : accepted_(accepted), redirect_(redirect), pred_(pred), pred2_(pred2) {}
  [[nodiscard]] net::MessageKind kind() const override {
    return net::MessageKind::kTagAppendReply;
  }
  [[nodiscard]] std::size_t wire_size() const override {
    return 9 + 3 * net::kWireIdBytes;
  }
  [[nodiscard]] bool accepted() const { return accepted_; }
  [[nodiscard]] net::NodeId redirect() const { return redirect_; }
  [[nodiscard]] net::NodeId pred() const { return pred_; }
  [[nodiscard]] net::NodeId pred2() const { return pred2_; }

 private:
  bool accepted_;
  net::NodeId redirect_;
  net::NodeId pred_;
  net::NodeId pred2_;
};

/// Traversal probe: "tell me about yourself" (temporary connection).
class TagListProbe final
    : public net::FixedMessage<net::MessageKind::kTagListProbe, 8> {};

class TagListProbeReply final : public net::Message {
 public:
  TagListProbeReply(net::NodeId pred, net::NodeId pred2,
                    std::uint32_t child_count, std::uint32_t capacity,
                    std::vector<net::NodeId> peer_sample)
      : pred_(pred),
        pred2_(pred2),
        child_count_(child_count),
        capacity_(capacity),
        peer_sample_(std::move(peer_sample)) {}
  [[nodiscard]] net::MessageKind kind() const override {
    return net::MessageKind::kTagListProbeReply;
  }
  [[nodiscard]] std::size_t wire_size() const override {
    return 16 + (2 + peer_sample_.size()) * net::kWireIdBytes;
  }
  [[nodiscard]] net::NodeId pred() const { return pred_; }
  [[nodiscard]] net::NodeId pred2() const { return pred2_; }
  [[nodiscard]] std::uint32_t child_count() const { return child_count_; }
  [[nodiscard]] std::uint32_t capacity() const { return capacity_; }
  [[nodiscard]] const std::vector<net::NodeId>& peer_sample() const {
    return peer_sample_;
  }

 private:
  net::NodeId pred_;
  net::NodeId pred2_;
  std::uint32_t child_count_;
  std::uint32_t capacity_;
  std::vector<net::NodeId> peer_sample_;
};

/// List maintenance: a node informs a neighbor of its (new) list links.
/// `role` distinguishes "I am your successor" / "I am your predecessor" /
/// "the tail moved" notifications.
class TagListUpdate final : public net::Message {
 public:
  enum class Role : std::uint8_t {
    kNewTail,        ///< to the head: tail pointer moved
    kYourSuccessor,  ///< to pred: I follow you now (includes my succ)
    kYourPred2,      ///< to succ-of-succ: I am two behind you
  };
  TagListUpdate(Role role, net::NodeId subject)
      : role_(role), subject_(subject) {}
  [[nodiscard]] net::MessageKind kind() const override {
    return net::MessageKind::kTagListUpdate;
  }
  [[nodiscard]] std::size_t wire_size() const override {
    return 9 + net::kWireIdBytes;
  }
  [[nodiscard]] Role role() const { return role_; }
  [[nodiscard]] net::NodeId subject() const { return subject_; }

 private:
  Role role_;
  net::NodeId subject_;
};

/// Pull request: "send me what I miss, starting at `from_seq`" (to the tree
/// parent over the persistent connection, or to a gossip peer as datagram).
class TagPullRequest final : public net::Message {
 public:
  TagPullRequest(net::StreamId stream, std::uint64_t from_seq)
      : stream_(stream), from_seq_(from_seq) {}
  [[nodiscard]] net::MessageKind kind() const override {
    return net::MessageKind::kTagPullRequest;
  }
  [[nodiscard]] std::size_t wire_size() const override {
    return 16 + net::kWireStreamBytes;
  }
  [[nodiscard]] net::StreamId stream() const { return stream_; }
  [[nodiscard]] std::uint64_t from_seq() const { return from_seq_; }

 private:
  net::StreamId stream_;
  std::uint64_t from_seq_;
};

/// Pull reply: a bounded batch of payloads.
class TagPullReply final : public net::Message {
 public:
  TagPullReply(net::StreamId stream,
               std::vector<std::pair<std::uint64_t, std::size_t>> updates)
      : stream_(stream), updates_(std::move(updates)) {}
  [[nodiscard]] net::MessageKind kind() const override {
    return net::MessageKind::kTagPullReply;
  }
  [[nodiscard]] std::size_t wire_size() const override {
    std::size_t total = 8 + net::kWireStreamBytes;
    for (const auto& [seq, bytes] : updates_) total += 12 + bytes;
    return total;
  }
  [[nodiscard]] net::StreamId stream() const { return stream_; }
  [[nodiscard]] const std::vector<std::pair<std::uint64_t, std::size_t>>&
  updates() const {
    return updates_;
  }

 private:
  net::StreamId stream_;
  std::vector<std::pair<std::uint64_t, std::size_t>> updates_;
};

}  // namespace brisa::baselines
