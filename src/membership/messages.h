// Wire messages of the membership layer (HyParView §II-A, Cyclon).
//
// wire_size() figures charge the 48-bit node identifiers of §II-D plus small
// fixed headers, so membership overhead in the bandwidth experiments matches
// the paper's accounting.
#pragma once

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "net/message.h"
#include "net/node_id.h"
#include "membership/peer_sampling.h"

namespace brisa::membership {

// --- HyParView ------------------------------------------------------------

class HpvJoin final
    : public net::FixedMessage<net::MessageKind::kHpvJoin, 8> {};

class HpvForwardJoin final : public net::Message {
 public:
  HpvForwardJoin(net::NodeId joiner, int ttl) : joiner_(joiner), ttl_(ttl) {}

  [[nodiscard]] net::MessageKind kind() const override {
    return net::MessageKind::kHpvForwardJoin;
  }
  [[nodiscard]] std::size_t wire_size() const override {
    return 8 + net::kWireIdBytes + 1;
  }

  [[nodiscard]] net::NodeId joiner() const { return joiner_; }
  [[nodiscard]] int ttl() const { return ttl_; }

 private:
  net::NodeId joiner_;
  int ttl_;
};

class HpvNeighbor final : public net::Message {
 public:
  explicit HpvNeighbor(bool high_priority) : high_priority_(high_priority) {}

  [[nodiscard]] net::MessageKind kind() const override {
    return net::MessageKind::kHpvNeighbor;
  }
  [[nodiscard]] std::size_t wire_size() const override { return 9; }

  [[nodiscard]] bool high_priority() const { return high_priority_; }

 private:
  bool high_priority_;
};

class HpvNeighborReply final : public net::Message {
 public:
  explicit HpvNeighborReply(bool accepted) : accepted_(accepted) {}

  [[nodiscard]] net::MessageKind kind() const override {
    return net::MessageKind::kHpvNeighborReply;
  }
  [[nodiscard]] std::size_t wire_size() const override { return 9; }

  [[nodiscard]] bool accepted() const { return accepted_; }

 private:
  bool accepted_;
};

class HpvDisconnect final
    : public net::FixedMessage<net::MessageKind::kHpvDisconnect, 8> {};

class HpvShuffle final : public net::Message {
 public:
  HpvShuffle(net::NodeId origin, int ttl, std::vector<net::NodeId> sample)
      : origin_(origin), ttl_(ttl), sample_(std::move(sample)) {}

  [[nodiscard]] net::MessageKind kind() const override {
    return net::MessageKind::kHpvShuffle;
  }
  [[nodiscard]] std::size_t wire_size() const override {
    return 8 + net::kWireIdBytes + 1 + sample_.size() * net::kWireIdBytes;
  }

  [[nodiscard]] net::NodeId origin() const { return origin_; }
  [[nodiscard]] int ttl() const { return ttl_; }
  [[nodiscard]] const std::vector<net::NodeId>& sample() const {
    return sample_;
  }

 private:
  net::NodeId origin_;
  int ttl_;
  std::vector<net::NodeId> sample_;
};

class HpvShuffleReply final : public net::Message {
 public:
  explicit HpvShuffleReply(std::vector<net::NodeId> sample)
      : sample_(std::move(sample)) {}

  [[nodiscard]] net::MessageKind kind() const override {
    return net::MessageKind::kHpvShuffleReply;
  }
  [[nodiscard]] std::size_t wire_size() const override {
    return 8 + sample_.size() * net::kWireIdBytes;
  }

  [[nodiscard]] const std::vector<net::NodeId>& sample() const {
    return sample_;
  }

 private:
  std::vector<net::NodeId> sample_;
};

/// Keep-alives double as RTT probes for the delay-aware parent selection
/// (§II-E) and piggyback per-stream repair metadata (§II-F): one
/// AppWatermark entry per locally active stream. Wire cost: 16 bytes header
/// + 20 bytes per entry (stream id + watermark + aux), so the keep-alive tax
/// of an additional multiplexed stream is 20 bytes per probe.
///
/// The entries travel as a WatermarkSnapshot (peer_sampling.h): the
/// listener's own progress table, handed out by refcount. Every probe of a
/// keep-alive tick and every reply shares it. The listener never writes a
/// table it has handed out: its first change after a hand-out goes to a
/// copy. So a snapshot is immutable, and a node whose streams are quiet
/// sends the same one for as long as they stay quiet (BRISA: BrisaEngine,
/// DESIGN.md §8).
class HpvKeepAlive final : public net::Message {
 public:
  HpvKeepAlive(std::uint64_t probe_id, WatermarkSnapshot watermarks)
      : probe_id_(probe_id), watermarks_(std::move(watermarks)) {}

  [[nodiscard]] net::MessageKind kind() const override {
    return net::MessageKind::kHpvKeepAlive;
  }
  [[nodiscard]] std::size_t wire_size() const override {
    return 16 + watermarks().size() * (net::kWireStreamBytes + 16);
  }

  [[nodiscard]] std::uint64_t probe_id() const { return probe_id_; }
  [[nodiscard]] const std::vector<AppWatermark>& watermarks() const {
    static const std::vector<AppWatermark> kEmpty;
    return watermarks_ ? *watermarks_ : kEmpty;
  }

 private:
  std::uint64_t probe_id_;
  WatermarkSnapshot watermarks_;
};

class HpvKeepAliveReply final : public net::Message {
 public:
  HpvKeepAliveReply(std::uint64_t probe_id, WatermarkSnapshot watermarks)
      : probe_id_(probe_id), watermarks_(std::move(watermarks)) {}

  [[nodiscard]] net::MessageKind kind() const override {
    return net::MessageKind::kHpvKeepAliveReply;
  }
  [[nodiscard]] std::size_t wire_size() const override {
    return 16 + watermarks().size() * (net::kWireStreamBytes + 16);
  }

  [[nodiscard]] std::uint64_t probe_id() const { return probe_id_; }
  [[nodiscard]] const std::vector<AppWatermark>& watermarks() const {
    static const std::vector<AppWatermark> kEmpty;
    return watermarks_ ? *watermarks_ : kEmpty;
  }

 private:
  std::uint64_t probe_id_;
  WatermarkSnapshot watermarks_;
};

// --- Cyclon ----------------------------------------------------------------

struct CyclonEntry {
  net::NodeId node;
  int age = 0;
};

class CyclonShuffle final : public net::Message {
 public:
  explicit CyclonShuffle(std::vector<CyclonEntry> entries)
      : entries_(std::move(entries)) {}

  [[nodiscard]] net::MessageKind kind() const override {
    return net::MessageKind::kCyclonShuffle;
  }
  [[nodiscard]] std::size_t wire_size() const override {
    return 8 + entries_.size() * (net::kWireIdBytes + 1);
  }

  [[nodiscard]] const std::vector<CyclonEntry>& entries() const {
    return entries_;
  }

 private:
  std::vector<CyclonEntry> entries_;
};

class CyclonShuffleReply final : public net::Message {
 public:
  explicit CyclonShuffleReply(std::vector<CyclonEntry> entries)
      : entries_(std::move(entries)) {}

  [[nodiscard]] net::MessageKind kind() const override {
    return net::MessageKind::kCyclonShuffleReply;
  }
  [[nodiscard]] std::size_t wire_size() const override {
    return 8 + entries_.size() * (net::kWireIdBytes + 1);
  }

  [[nodiscard]] const std::vector<CyclonEntry>& entries() const {
    return entries_;
  }

 private:
  std::vector<CyclonEntry> entries_;
};

}  // namespace brisa::membership
